import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from peskin_lab.config import config_from_file
from peskin_lab.curve import (Curve, arc_chord, enclosed_area, grid_values,
                              spectral_derivative, theta_grid)
from peskin_lab.evolution import (
    FORMS,
    SimConfig,
    SimState,
    SimulationAbort,
    Trajectory,
    cfl_limit,
    dissipation_term,
    law_from_config,
    make_initial_curve,
    remainder_V,
    rhs_derivative,
    rhs_position_bi,
    rhs_position_reduced,
    right_hand_sides,
    simulate,
    step,
)
from peskin_lab.tension import arctan_law, hookean, power_law
from conftest import l2_field, random_bandlimited_curve

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def rotation(phi):
    return np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])


def make_state(curve, law=None, m=None):
    return SimState.make(curve, law if law is not None else hookean(1.0), m=m)


# --- frame kernels -------------------------------------------------------------

def kernel_apply(a, b, d, rot, inv_q2, vec, which: str):
    """K or A applied to vec, with every 2-vector a complex number, element
    by element and each temporary a fresh array: the reference for the
    production row sums, in which b leaves the K sum.

    a = X'(theta + alpha), b = X'(theta), d the divided difference,
    rot = conj(d)/d its rotor and inv_q2 = 1/|d|^2.  With P(d)v =
    conj(rot v), R(d)v = i conj(rot v) and u.P(d)w + i u.R(d)w = rot u w,
    both kernels reduce to coef_i vec + coef_c conj(rot vec).  A is built
    from dp = a - d and dm = b - d (never as K - I/4pi), so every term
    carries a plus or minus difference.  K does not read d.
    """
    from peskin_lab.kernels import FOUR_PI

    shape = np.broadcast_shapes(a.shape, b.shape, d.shape, inv_q2.shape, vec.shape)

    def buf(name, dtype=complex):
        return np.empty(shape, dtype)

    c = np.multiply(rot, a, out=buf("c0"))
    if which == "K":
        c *= b
        c *= inv_q2  # a.P(d)b/|d|^2 + i a.R(d)b/|d|^2
        coef_i = c.real
        ab = np.conjugate(a, out=buf("c1"))
        ab *= b
        coef_c = np.conjugate(c, out=buf("c2"))
        coef_c -= np.multiply(ab.real, inv_q2, out=buf("r0", float))
    elif which == "A":
        dp = np.subtract(a, d, out=buf("c1"))
        dm = np.subtract(b, d, out=buf("c2"))
        np.multiply(rot, dp, out=c)
        c *= dm
        c *= inv_q2
        # rot (dp + dm) d = conj(d) (dp + dm)
        e = np.add(dp, dm, out=buf("c3"))
        np.multiply(np.conjugate(d, out=buf("c4")), e, out=e)
        e *= inv_q2
        coef_i = np.add(c.real, e.real, out=buf("r1", float))
        np.conjugate(dp, out=dp)
        dp *= dm
        coef_c = np.conjugate(c, out=c)
        coef_c -= np.multiply(dp.real, inv_q2, out=buf("r0", float))
        coef_c.imag -= e.imag
    else:
        raise ValueError(which)
    turned = np.multiply(rot, vec, out=buf("c1"))
    np.conjugate(turned, out=turned)
    np.multiply(coef_c, turned, out=turned)
    out = np.multiply(coef_i, vec, out=buf("c2"))
    out += turned
    out *= 1.0 / FOUR_PI
    return out


def test_kernel_apply_matches_matrix_kernels(rng):
    # the complex elementwise kernels (the oracle above and the production
    # A coefficients over alpha^2 at the chord alpha d) against the 2x2
    # matrix oracles
    from peskin_lab.curve import as_complex
    from peskin_lab.evolution import _remainder_coefficients
    from peskin_lab.kernels import FOUR_PI, kernel_A, kernel_K

    a, b, d, v = (rng.standard_normal((500, 2)) for _ in range(4))
    d += np.sign(d) * 0.1
    za, zb, zd, zv = (as_complex(x) for x in (a, b, d, v))
    rot = np.conj(zd) / zd
    inv_q2 = 1.0 / np.sum(d * d, axis=-1)
    for which, matrix in (("K", kernel_K(a, b, d)), ("A", kernel_A(a, b, d))):
        ref = np.einsum("...ij,...j->...i", matrix, v)
        got = kernel_apply(za, zb, zd, rot, inv_q2, zv, which)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(as_complex(ref) - got)) < 1e-12 * scale
    alpha = rng.choice([-1.0, 1.0], 500) * rng.uniform(0.01, np.pi, 500)
    dz = alpha * zd
    coef_i = np.empty(zv.shape)
    conj_c = _remainder_coefficients(za, zb, 1.0 / alpha, np.conj(dz),
                                     1.0 / np.abs(dz) ** 2, 1.0 / dz, 1.0 / dz**2,
                                     np.empty_like(zv), np.empty_like(zv), coef_i,
                                     np.empty(zv.shape))
    got = (coef_i * zv + np.conj(conj_c * rot * zv)) / FOUR_PI
    ref = as_complex(np.einsum("...ij,...j->...i", kernel_A(a, b, d), v)) / alpha**2
    assert np.max(np.abs(ref - got)) < 1e-12 * np.max(np.abs(ref))


def test_frame_matches_matrix_kernel_sum(rng):
    # whole frame: half-offset window, tension jump and complex kernels
    # against a direct sum of the matrix kernels over spectral shifts
    from peskin_lab.curve import shift_many
    from peskin_lab.kernels import kernel_A, kernel_K0
    from peskin_lab.operators import half_offset_grid
    from peskin_lab.tension import tension_map

    n, m = 32, 128
    law = power_law(1.0, 3.0, (0.5, 2.0))
    st = make_state(random_bandlimited_curve(rng, n, modes=8), law, m=m)
    x, x1 = st.curve.nodes, st.deriv.nodes
    al = half_offset_grid(m)
    dx = shift_many(x, al) - x[None]
    x1s = shift_many(x1, al)
    b = np.broadcast_to(x1, x1s.shape)
    jump = tension_map(law, x1s) - tension_map(law, x1)[None]
    k0 = kernel_K0(x1s, b, dx, al[:, None])
    a0 = kernel_A(x1s, b, dx / al[:, None, None]) / (al**2)[:, None, None, None]
    for got, kernel in ((right_hand_sides(st, "derivative")[0], k0),
                        (remainder_V(st), a0)):
        ref = np.einsum("...ij,...j->...i", kernel, jump).sum(axis=0) * (2.0 * np.pi / m)
        assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))


def dense_rhs(state):
    """The five right-hand sides over the whole (m, n) frame at once: the
    whole-frame formulas the row-block loop replaced, kept as an oracle."""
    from peskin_lab.curve import (as_complex, fft_coeffs, grid_values,
                                  half_offset_samples, half_offset_window,
                                  wavenumbers)
    from peskin_lab.kernels import FOUR_PI
    from peskin_lab.operators import half_offset_grid
    from peskin_lab.tension import tension_jacobian, tension_map

    n, m, law = state.curve.n, state.m, state.law
    al = half_offset_grid(m)[:, None]

    def window(samples):
        return half_offset_window(as_complex(samples), n)

    def integrate(f):
        z = f.sum(axis=0) * (2.0 * np.pi / m)
        return np.stack([z.real, z.imag], axis=-1)

    x, x1 = state.curve.nodes, state.deriv.nodes
    dz = window(half_offset_samples(x, m)) - as_complex(x)
    r2 = dz.real**2 + dz.imag**2
    rot = np.conj(dz) / dz
    x1_samples = half_offset_samples(x1, m)
    a, b = window(x1_samples), as_complex(x1)
    jump = window(tension_map(law, x1_samples)) - as_complex(tension_map(law, x1))
    out = {}
    for which, name in (("K", "rhs_derivative"), ("A", "remainder_V")):
        applied = kernel_apply(a, b, dz / al, rot, al**2 / r2, jump, which)
        out[name] = integrate(applied / al**2)
    out["dissipation_term"] = -integrate(jump / al**2) / FOUR_PI
    mag = np.abs(as_complex(x1_samples))
    weight = half_offset_window(law.eval(mag) / mag, n)
    out["rhs_position_reduced"] = integrate((rot * a * a).real / r2 * weight * dz) / FOUR_PI
    x1_fine = state.deriv.resampled(2 * n).nodes
    x2_fine = state.deriv.derivative().resampled(2 * n).nodes
    force = (tension_jacobian(law, x1_fine) @ x2_fine[..., None])[..., 0]
    fs = window(half_offset_samples(force, m))
    smooth_log = np.log(np.sqrt(r2) / np.abs(2.0 * np.sin(al / 2.0)))
    quad = integrate(0.5 * (fs + np.conj(rot * fs)) - smooth_log * fs)
    k = wavenumbers(2 * n).astype(float)
    w = np.where(k == 0.0, 0.0, -np.pi / np.where(k == 0.0, 1.0, np.abs(k)))
    log_part = -grid_values(fft_coeffs(force) * w[:, None])[::2]
    out["rhs_position_bi"] = (quad + log_part) / FOUR_PI
    return out


def block_test_state(n, m, rng):
    """(512, 1024) runs 64 blocks of 8 theta rows; (96, 480) runs 5 blocks of
    17 and one of 11."""
    from peskin_lab.evolution import _BLOCK

    rows = max(1, _BLOCK // m)
    assert rows < n  # more than one block
    if n == 96:
        assert n % rows != 0  # a partial last block
        return make_state(random_bandlimited_curve(rng, n, modes=24, amp=0.3),
                          arctan_law((0.2, 3.0)), m=m)
    cfg = config_from_file(CONFIGS / "rough.cfg")
    return make_state(make_initial_curve(cfg), power_law(1.0, 3.0, (0.5, 2.0)), m=m)


@pytest.mark.parametrize("n, m", [(512, 1024), (96, 480)])
def test_row_blocks_match_dense_frame(n, m, rng):
    st = block_test_state(n, m, rng)
    ref = dense_rhs(st)
    got = {"rhs_derivative": right_hand_sides(st, "derivative")[0],
           "remainder_V": remainder_V(st),
           "dissipation_term": dissipation_term(st),
           "rhs_position_reduced": rhs_position_reduced(st),
           "rhs_position_bi": rhs_position_bi(st)}
    for name, value in got.items():
        scale = np.max(np.abs(ref[name]))
        assert np.max(np.abs(value - ref[name])) <= 1e-13 * scale, name


@pytest.mark.parametrize("n, m", [(512, 1024), (96, 480)])
def test_one_walk_matches_single_form_walks(n, m, rng):
    # the forms share one walk's geometry, jump and scratch buffers, yet
    # each field is the one the smaller walk serving it (the IMEX walk)
    # gives, bit for bit
    from peskin_lab.evolution import _imex_increments

    st = block_test_state(n, m, rng)
    fields = dict(zip(FORMS, right_hand_sides(st, *FORMS)))
    single = {"position_bi": rhs_position_bi(st),
              "position_reduced": rhs_position_reduced(st),
              "derivative": right_hand_sides(st, "derivative")[0],
              "remainder": remainder_V(st),
              "dissipation": dissipation_term(st)}
    for form in FORMS:
        assert np.array_equal(fields[form], single[form]), form
    raw = fields["derivative"]
    assert np.array_equal(rhs_derivative(st), raw - raw.mean(axis=0))
    deriv, mean_velocity = _imex_increments(st)
    assert np.array_equal(deriv, raw - raw.mean(axis=0))
    assert np.array_equal(mean_velocity, fields["position_reduced"].mean(axis=0))
    reversed_fields = right_hand_sides(st, *FORMS[::-1])
    for form, field in zip(FORMS[::-1], reversed_fields):
        assert np.array_equal(field, fields[form]), form


@pytest.mark.parametrize("n, m", [(512, 1024), (96, 480)])
def test_fields_do_not_depend_on_the_block_height(n, m, rng, monkeypatch):
    # each row's alpha integral is one reduction within one block, so
    # blocks of 1 row, blocks with a partial last one and the default
    # blocks give the same bits
    import peskin_lab.evolution as evolution

    st = block_test_state(n, m, rng)
    ref = right_hand_sides(st, *FORMS)
    for block in (m, 7 * m, 2 * evolution._BLOCK):
        monkeypatch.setattr(evolution, "_BLOCK", block)
        for form, field, want in zip(FORMS, right_hand_sides(st, *FORMS), ref):
            assert np.array_equal(field, want), (block, form)


def test_a_frame_walked_twice_gives_the_same_fields(rng):
    # (96, 480) ends on a partial block, so the second walk's first block
    # must not read the buffer views of the first walk's last block
    from peskin_lab.evolution import _walk

    st = block_test_state(96, 480, rng)
    first = _walk(st, "every")
    again = _walk(st, "every")
    assert again.keys() == first.keys() == set(FORMS)
    for form in FORMS:
        assert np.array_equal(again[form], first[form]), form


IMEX_PAIR = ("derivative", "position_reduced")
POSITION = ("position_reduced",)


@pytest.mark.parametrize("n, m", [(512, 1024), (96, 480)])
def test_a_walk_reads_nothing_of_another_states_walk(n, m, rng, monkeypatch):
    # the thread buffers hold the tiles of the last walk's X': a walk of
    # state B after one of state A must refill them, in the last, shorter
    # block too
    from peskin_lab import evolution

    st = block_test_state(n, m, rng)
    other = make_state(random_bandlimited_curve(rng, n), hookean(2.0), m=m)
    for forms in (FORMS, IMEX_PAIR):
        monkeypatch.setattr(evolution, "_BUFFERS", evolution._Buffers())
        fresh = right_hand_sides(st, *forms)
        monkeypatch.setattr(evolution, "_BUFFERS", evolution._Buffers())
        right_hand_sides(other, *forms)
        for form, got, want in zip(forms, right_hand_sides(st, *forms), fresh):
            assert np.array_equal(got, want), form


@pytest.mark.parametrize("n, m", [(512, 1024), (96, 480)])
def test_a_walk_reads_nothing_of_another_form_sets_walk(n, m, rng, monkeypatch):
    # the two walks place their quantities in different blocks, and the
    # walk of every form writes blocks the IMEX walk never does: each walk
    # after the other must still read a zero imaginary half of the 1/|dz|^2
    # block and only blocks it wrote itself
    from peskin_lab import evolution

    st = block_test_state(n, m, rng)
    fresh = {}
    for forms in (POSITION, IMEX_PAIR, FORMS):
        monkeypatch.setattr(evolution, "_BUFFERS", evolution._Buffers())
        fresh[forms] = right_hand_sides(st, *forms)
    for forms in (FORMS, POSITION, IMEX_PAIR, FORMS, POSITION):
        for form, got, want in zip(forms, right_hand_sides(st, *forms), fresh[forms]):
            assert np.array_equal(got, want), form


def test_right_hand_sides_rejects_forms_before_the_walk():
    # the floor is breached in the first block, so an error raised after
    # the walk began would be an abort
    st = SimState.make(Curve.circle(64), hookean(1.0), m=64, rho_floor=10.0)
    with pytest.raises(ValueError, match="2n"):
        right_hand_sides(st, "position_reduced", "position_bi")
    for forms in ((), ("velocity",), ("derivative", "K")):
        with pytest.raises(ValueError, match="one or more"):
            right_hand_sides(st, *forms)
    with pytest.raises(SimulationAbort):
        right_hand_sides(st, "position_reduced")


def test_verification_forms_run_the_floor_check_and_need_2n(rng):
    # remainder_V and dissipation_term run the walk of every form: a breached
    # floor aborts them as it aborts rhs_derivative, and at m = n they raise
    # the 2n error before the walk, whose first block would abort
    c = random_bandlimited_curve(rng, 64)
    for m, error, match in ((256, SimulationAbort, "floor"), (64, ValueError, "2n")):
        high = SimState.make(c, hookean(1.0), m=m, rho_floor=2.0 * arc_chord(c).value)
        for rhs in (remainder_V, dissipation_term):
            with pytest.raises(error, match=match):
                rhs(high)
    with pytest.raises(SimulationAbort, match="floor"):
        rhs_derivative(high)


def test_concurrent_walks_keep_their_own_buffers(rng):
    # numpy releases the interpreter lock inside ufuncs, so walks in several
    # threads sharing block buffers would corrupt each other's fields
    import threading

    st = make_state(random_bandlimited_curve(rng, 64), m=1024)  # 8 blocks
    ref = right_hand_sides(st, *FORMS)
    results = []

    def work():
        for _ in range(5):
            results.append(right_hand_sides(st, *FORMS))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 20
    for fields in results:
        for got, want in zip(fields, ref):
            assert np.array_equal(got, want)


FAULT_SCRIPT = """
import resource
from peskin_lab.config import config_from_file
from peskin_lab.evolution import (SimState, _imex_increments, law_from_config,
                                  make_initial_curve, remainder_V)
cfg = config_from_file({config!r})
st = SimState.make(make_initial_curve(cfg), law_from_config(cfg), m=cfg.m)
{call}
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
{call}
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.parametrize("call, alloc_faults", [("remainder_V(st)", 14080),
                                                ("_imex_increments(st)", 1805)])
def test_repeated_walks_reuse_block_memory(call, alloc_faults):
    # a fresh process, where the allocator hands freed block memory back to
    # the OS: with block temporaries allocated per block, every call after
    # the first took alloc_faults minor page faults on configs/rough.cfg
    script = FAULT_SCRIPT.format(config=str(CONFIGS / "rough.cfg"), call=call)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300, check=True, env=env)
    assert int(done.stdout) <= alloc_faults // 10


def test_state_rejects_alpha_grid_not_multiple_of_n():
    # fails at construction, before any right-hand side builds a frame
    with pytest.raises(ValueError, match="multiple"):
        SimState.make(Curve.circle(64), hookean(1.0), m=96)


@pytest.mark.parametrize("floor", [np.nan, np.inf, -1.0, 0.0])
def test_state_rejects_a_floor_that_is_not_positive_and_finite(floor):
    # a floor at or below 0 or nan switched the arc-chord abort off for
    # library callers, whom no SimConfig check guards
    with pytest.raises(ValueError, match="rho_floor"):
        SimState.make(Curve.circle(64), hookean(1.0), m=256, rho_floor=floor)


# --- equilibria ---------------------------------------------------------------

@pytest.mark.parametrize("law", [hookean(1.0), power_law(1.0, 2.0, (0.5, 2.0))])
def test_circle_is_equilibrium(law):
    st = make_state(Curve.circle(128), law, m=512)
    for rhs in (rhs_position_reduced, rhs_position_bi, rhs_derivative):
        assert l2_field(rhs(st)) <= 1e-6


def test_translated_curve_same_rhs(rng):
    c = random_bandlimited_curve(rng, 64)
    st = make_state(c, m=256)
    moved = make_state(Curve.from_nodes(c.nodes + np.array([4.0, -7.0])), m=256)
    for rhs in (rhs_position_reduced, rhs_derivative):
        assert np.max(np.abs(rhs(st) - rhs(moved))) < 1e-12


def test_rotation_equivariance(rng):
    c = random_bandlimited_curve(rng, 64)
    st = make_state(c, m=256)
    q = rotation(1.1)
    st_rot = make_state(Curve.from_nodes(c.nodes @ q.T), m=256)
    for rhs in (rhs_position_reduced, rhs_position_bi, rhs_derivative):
        lhs = rhs(st_rot)
        rhs_val = rhs(st) @ q.T
        assert np.max(np.abs(lhs - rhs_val)) < 1e-10


# --- formulation triangle ------------------------------------------------------

def test_bi_matches_reduced(rng):
    c = random_bandlimited_curve(rng, 128, modes=16, amp=0.25)
    st = make_state(c, m=512)
    rb = rhs_position_bi(st)
    rr = rhs_position_reduced(st)
    assert l2_field(rb - rr) <= 1e-6 * l2_field(rr)


def test_bi_rejects_alpha_grid_that_aliases_its_force(rng):
    # the 2n-band force folds modulo m below m = 2n
    st = make_state(random_bandlimited_curve(rng, 64), m=64)
    with pytest.raises(ValueError, match="2n"):
        rhs_position_bi(st)


def test_bi_matches_reduced_at_smallest_alpha_grid(rng):
    c = random_bandlimited_curve(rng, 128, modes=16, amp=0.25)
    st = make_state(c, m=256)
    rr = rhs_position_reduced(st)
    assert l2_field(rhs_position_bi(st) - rr) <= 1e-6 * l2_field(rr)


def test_derivative_matches_deriv_of_reduced(rng):
    c = random_bandlimited_curve(rng, 128, modes=16, amp=0.25)
    st = make_state(c, m=512)
    rd = rhs_derivative(st)
    rds = spectral_derivative(rhs_position_reduced(st))
    rds -= rds.mean(axis=0)
    assert l2_field(rd - rds) <= 1e-6 * l2_field(rds)


def test_split_identity(rng):
    c = random_bandlimited_curve(rng, 64)
    for law in (hookean(2.0), arctan_law((0.2, 3.0))):
        st = make_state(c, law, m=256)
        lhs, = right_hand_sides(st, "derivative")
        rhs_val = -dissipation_term(st) + remainder_V(st)
        assert np.max(np.abs(lhs - rhs_val)) <= 1e-10


def test_remainder_equals_dissipation_at_equilibrium():
    st = make_state(Curve.circle(128), m=512)
    v = remainder_V(st)
    diss = dissipation_term(st)
    assert l2_field(v - diss) < 1e-6


def test_remainder_stable_under_m_doubling(rng):
    c = random_bandlimited_curve(rng, 64, modes=8, amp=0.3)
    vals = {}
    for m in (256, 512, 1024):
        st = make_state(c, m=m)
        vals[m] = remainder_V(st)
    ref = vals[1024]
    err_coarse = np.max(np.abs(vals[256] - ref))
    err_fine = np.max(np.abs(vals[512] - ref))
    assert np.max(np.abs(ref)) < np.inf
    # quadrature convergence: each doubling should shrink the error by
    # at least 2 (observed: spectral, much faster)
    assert err_fine <= err_coarse / 2.0 + 1e-14


def test_quadrature_refinement_order(rng):
    # rougher curve so the coarse-grid quadrature error is measurable;
    # the half-offset rule is spectrally accurate, so each doubling
    # shrinks the error far faster than the order-2 requirement
    from peskin_lab.curve import theta_grid

    n = 64
    th = theta_grid(n)
    pert = np.zeros((n, 2))
    for k in range(1, 25):
        s = 0.4 * k**-2.0
        for comp in range(2):
            pert[:, comp] += s * (rng.standard_normal() * np.cos(k * th)
                                  + rng.standard_normal() * np.sin(k * th))
    c = Curve.from_nodes(Curve.circle(n).nodes + pert)
    ref = rhs_position_reduced(make_state(c, m=4096))
    errs = [l2_field(rhs_position_reduced(make_state(c, m=m)) - ref)
            for m in (64, 128)]
    assert errs[0] > 1e-8  # coarse error is measurable, not rounding noise
    assert errs[1] <= errs[0] / 4.0


# --- scaling laws ----------------------------------------------------------------

@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_power_law_scaling(gamma, rng):
    law = power_law(1.0, 1.0 + gamma, (0.05, 40.0)) if gamma > 0 else hookean(1.0)
    c = random_bandlimited_curve(rng, 64, modes=10, amp=0.2)
    for r in (0.5, 3.0):
        scaled = Curve.from_nodes(r * c.nodes)
        base = rhs_position_reduced(make_state(c, law, m=256))
        big = rhs_position_reduced(make_state(scaled, law, m=256))
        factor = r ** (1.0 + gamma)
        assert np.max(np.abs(big - factor * base)) <= 1e-9 * max(1.0, factor * np.max(np.abs(base)))
        base_d = rhs_derivative(make_state(c, law, m=256))
        big_d = rhs_derivative(make_state(scaled, law, m=256))
        assert np.max(np.abs(big_d - factor * base_d)) <= 1e-9 * max(1.0, factor * np.max(np.abs(base_d)))


def symmetry_run(nodes, law, dt):
    """The final nodes of 20 IMEX steps at m = 4n from nodes."""
    st = SimState.make(Curve.from_nodes(nodes), law, m=4 * len(nodes))
    for _ in range(20):
        st = step(st, dt, "imex")
    return st.curve.nodes


def modes_3_5_nodes(n=64):
    th = theta_grid(n)
    radial = 1.0 + 0.1 * np.cos(3 * th) + 0.05 * np.sin(5 * th)
    return np.stack([radial * np.cos(th), radial * np.sin(th)], axis=1)


@pytest.mark.parametrize("law, p, exact", [
    (hookean(1.0), 1.0, True),
    (power_law(1.0, 2.0, (0.05, 40.0)), 2.0, True),
    (power_law(1.0, 3.0, (0.05, 40.0)), 3.0, False),
], ids=["hookean", "p2", "p3"])
def test_whole_run_scales_with_a_homogeneous_law(law, p, exact):
    # T(r) = c r^p gives u[lam X] = lam^p u[X], so the run from lam X0 is
    # lam X(lam^(p-1) t): the implicit solve, cbar and the floor included.
    # Scaling by powers of two is exact in every operation where r^p is
    x0 = modes_3_5_nodes()
    ref = symmetry_run(x0, law, 5e-3)
    for lam in (2.0, 0.5):
        got = symmetry_run(lam * x0, law, 5e-3 / lam ** (p - 1.0))
        if exact:
            assert np.array_equal(got, lam * ref), lam
        else:
            assert np.max(np.abs(got - lam * ref)) <= 1e-13 * np.max(np.abs(lam * ref)), lam
    # the arctan law is not homogeneous: scaling is no symmetry of its run
    arctan = arctan_law((0.05, 40.0))
    off = symmetry_run(2.0 * x0, arctan, 5e-3) - 2.0 * symmetry_run(x0, arctan, 5e-3)
    assert np.max(np.abs(off)) > 1e-6


@pytest.mark.parametrize("law", [hookean(1.0), arctan_law((0.05, 40.0))],
                         ids=["hookean", "arctan"])
def test_whole_run_respects_rigid_motions_and_grid_shifts(law):
    # rotation, translation, reflection with reversed orientation and a
    # shift of the parametrization by whole grid cells map run to run
    x0 = modes_3_5_nodes()
    ref = symmetry_run(x0, law, 5e-3)
    turn = rotation(0.3)
    maps = {"shift 1": lambda x: np.roll(x, 1, axis=0),
            "shift 5": lambda x: np.roll(x, 5, axis=0),
            "shift 37": lambda x: np.roll(x, 37, axis=0),
            "rotation": lambda x: x @ turn.T,
            "translation": lambda x: x + np.array([0.7, -1.3]),
            "reflection": lambda x: (x * np.array([1.0, -1.0]))[::-1]}
    for name, symmetry in maps.items():
        want = symmetry(ref)
        got = symmetry_run(symmetry(x0), law, 5e-3)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), name


# --- stepping ---------------------------------------------------------------------

def test_rk4_keeps_equilibrium():
    st = make_state(Curve.circle(64), m=256)
    dt = 0.5 * cfl_limit(st)
    new = step(st, dt, "rk4")
    assert np.max(np.abs(new.curve.nodes - st.curve.nodes)) < 1e-8


def test_imex_keeps_equilibrium():
    st = make_state(Curve.circle(64), m=256)
    new = step(st, 1e-2, "imex")
    assert np.max(np.abs(new.curve.nodes - st.curve.nodes)) < 1e-8


def test_rk4_rejects_large_dt():
    st = make_state(Curve.circle(64), m=256)
    with pytest.raises(ValueError):
        step(st, 10.0 * cfl_limit(st), "rk4")


def test_rk4_non_finite_stage_aborts(monkeypatch):
    # a stage's nodes go non-finite: a numerical abort, not the ValueError
    # that Curve raises for bad input
    from peskin_lab import evolution

    st = make_state(Curve.circle(32), m=128)
    monkeypatch.setattr(evolution, "rhs_position_reduced",
                        lambda state: np.full((state.curve.n, 2), np.nan))
    with pytest.raises(SimulationAbort, match="non-finite"):
        step(st, 0.5 * cfl_limit(st), "rk4")


def test_imex_non_finite_explicit_term_aborts(monkeypatch):
    # the coefficients the step hands over go non-finite: a numerical abort,
    # not the ValueError that Curve raises for bad input
    from peskin_lab import evolution

    st = make_state(Curve.circle(32), m=128)
    monkeypatch.setattr(evolution, "right_hand_sides", lambda state, *forms: tuple(
        np.full((state.curve.n, 2), np.nan) for _ in forms))
    with pytest.raises(SimulationAbort, match="non-finite"):
        step(st, 1e-3, "imex")


def test_rk4_first_stage_reads_the_state(monkeypatch, rng):
    # k1 is the right-hand side of the state, which holds X and X': a step
    # builds curves from nodes for its three later stages and its result
    from peskin_lab import evolution

    st = make_state(random_bandlimited_curve(rng, 32, modes=4, amp=0.15), m=128)
    built = []
    monkeypatch.setattr(evolution, "Curve", SimpleNamespace(
        from_nodes=lambda nodes: built.append(nodes) or Curve.from_nodes(nodes)))
    step(st, 0.5 * cfl_limit(st), "rk4")
    assert len(built) == 4  # not 5


def test_rk4_fourth_order(rng):
    c = random_bandlimited_curve(rng, 32, modes=4, amp=0.15)
    law = hookean(1.0)

    def run(dt, nsteps):
        st = SimState.make(c, law, m=128)
        for _ in range(nsteps):
            st = step(st, dt, "rk4")
        return st.curve.nodes

    dt0 = 0.02
    ref = run(dt0 / 8.0, 32)
    err1 = np.max(np.abs(run(dt0, 4) - ref))
    err2 = np.max(np.abs(run(dt0 / 2.0, 8) - ref))
    ratio = err1 / err2
    assert 8.0 <= ratio <= 40.0  # fourth order gives ~16


def test_imex_stable_far_beyond_cfl():
    cfg_curve = Curve.circle(64)
    th = np.linspace(-np.pi, np.pi, 64, endpoint=False)
    radial = 1.0 + 0.05 * np.cos(3 * th)
    near = Curve.from_nodes(np.stack([radial * np.cos(th), radial * np.sin(th)], 1))
    st = SimState.make(near, hookean(1.0), m=256)
    dt = 50.0 * cfl_limit(st)
    for _ in range(1000):
        st = step(st, dt, "imex")
    assert np.all(np.isfinite(st.curve.nodes))
    assert l2_field(st.deriv.nodes) < 10.0  # no blow-up


def test_abort_on_floor_breach():
    c = Curve.circle(64)
    st = SimState.make(c, hookean(1.0), m=256, rho_floor=10.0)
    with pytest.raises(SimulationAbort) as err:
        rhs_position_reduced(st)
    assert err.value.t == 0.0


def test_floor_check_agrees_with_arc_chord_level(rng):
    # the frame's floor check and arc_chord share one quotient, so a floor
    # one ulp either side of the arc-chord level decides the abort
    from peskin_lab.curve import _arc_chord_level

    # (256, 1024) checks the floor over 32 blocks of theta rows
    for n, m in ((64, 256), (256, 1024)):
        c = random_bandlimited_curve(rng, n)
        level = _arc_chord_level(c, m)
        above = SimState.make(c, hookean(1.0), m=m,
                              rho_floor=np.nextafter(level, np.inf))
        with pytest.raises(SimulationAbort):
            rhs_position_reduced(above)
        below = SimState.make(c, hookean(1.0), m=m,
                              rho_floor=np.nextafter(level, 0.0))
        assert np.all(np.isfinite(rhs_position_reduced(below)))


def test_floor_screen_defers_to_the_exact_quotient(rng):
    # r2 <= (floor (1 + 1e-12))^2 alpha^2 only screens a block, and the
    # quotient sqrt(r2)/|alpha| that arc_chord takes decides.  The r2 is one
    # where sqrt(r2/alpha^2) rounds above that quotient and the screen
    # without its margin passes a floor just above it: that floor must
    # still abort, and a floor at the quotient must not
    from peskin_lab.curve import alpha_rows, half_offset_grid
    from peskin_lab.evolution import _check_floor, _floor_screen

    n = m = 16
    j, p = 3, 11
    alpha = alpha_rows(half_offset_grid(m), n)[j, p]
    for r2 in rng.uniform(0.1, 2.0, 1000):
        quotient = np.sqrt(r2) / np.abs(alpha)
        if np.sqrt(r2 / alpha**2) > quotient \
                and r2 > np.nextafter(quotient, np.inf) ** 2 * alpha**2:
            break
    else:
        pytest.fail("no r2 whose screens round above its quotient")
    field = np.full((n, m), 100.0)  # quotients of 3 and more elsewhere
    field[j, p] = r2
    # a floor of half the quotient, whose screen passes every entry, comes
    # first, so its table handed to the next floor would let that floor pass
    _floor_screen.cache_clear()
    for floor, aborts in ((0.5 * quotient, False),
                          (np.nextafter(quotient, np.inf), True), (quotient, False)):
        st = SimState.make(Curve.circle(n), hookean(1.0), m=m, rho_floor=floor)
        screen = np.empty((n, m), dtype=bool)
        limit = _floor_screen(floor, n, m)
        if aborts:
            with pytest.raises(SimulationAbort):
                _check_floor(st, field, slice(0, n), screen, limit)
        else:
            _check_floor(st, field, slice(0, n), screen, limit)


def test_imex_step_memory_is_bounded():
    # the whole (m, n) frame of this n = 512, m = 1024 curve peaked near 84 MB,
    # and a cold symbol's dense (n, m) tables near 8.4 MB
    from peskin_lab.operators import symbol

    cfg = config_from_file(CONFIGS / "rough.cfg")
    st = SimState.make(make_initial_curve(cfg), law_from_config(cfg), m=cfg.m)
    symbol.cache_clear()  # the first step builds its solve tables
    tracemalloc.start()
    try:
        step(st, cfg.dt, "imex")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def plan_views(buffers):
    """The _Block views of every block of every plan the buffers hold."""
    from peskin_lab.evolution import _Block

    return [view for plan in buffers.plans.values() for block in plan.blocks
            for view in vars(block).values() if isinstance(view, _Block)]


@pytest.mark.parametrize("forms, complex_blocks, float_blocks",
                         [(IMEX_PAIR, 7, 2), (FORMS, 10, 2)],
                         ids=["imex", "every_form"])
def test_walk_buffers_are_bounded(forms, complex_blocks, float_blocks, monkeypatch):
    # the IMEX walk fills 7 complex blocks (W, t rot and t in one owner, the
    # 1/|dz|^2 block, aJ and the tiles of a and conj(a)) and 2 float ones,
    # its floor screen inside one of them, and a walk of every form 10 and
    # 2; one more block would raise the peak memory of every step or every
    # verify.  Each owning array may add one cache line of alignment slack.
    # The cached plans hold no array but those counted, also after the
    # arrays grow for longer blocks
    from peskin_lab import evolution

    cfg = config_from_file(CONFIGS / "rough.cfg")
    st = SimState.make(make_initial_curve(cfg), law_from_config(cfg), m=cfg.m)
    buffers = evolution._Buffers()
    monkeypatch.setattr(evolution, "_BUFFERS", buffers)
    right_hand_sides(st, *forms)
    block = min(st.curve.n, max(1, evolution._BLOCK // st.m)) * st.m
    used = sum(flat.nbytes for flat in buffers.flat.values())
    assert 0 < used <= (block * (16 * complex_blocks + 8 * float_blocks)
                        + 64 * (complex_blocks + float_blocks))
    monkeypatch.setattr(evolution, "_BLOCK", 2 * evolution._BLOCK)
    right_hand_sides(st, *forms)
    flats = list(buffers.flat.values())
    assert len(buffers.plans) == 1  # the plan of the shorter blocks is dropped
    views = plan_views(buffers)
    assert views
    for view in views:
        assert any(view.z.base is flat for flat in flats)


@pytest.mark.parametrize("forms", [IMEX_PAIR, FORMS], ids=["imex", "every_form"])
@pytest.mark.parametrize("scale", [1, 2], ids=["block", "doubled_block"])
def test_walk_blocks_start_on_a_cache_line(forms, scale, monkeypatch):
    # numpy aligns its arrays to 16 bytes only, and an elementwise pass over
    # a block that starts off a 64-byte cache line took about twice as long;
    # each block of the 3-block owner starts on a line of its own
    from peskin_lab import evolution

    cfg = config_from_file(CONFIGS / "perturbed.cfg")
    st = SimState.make(make_initial_curve(cfg), law_from_config(cfg), m=cfg.m)
    buffers = evolution._Buffers()
    monkeypatch.setattr(evolution, "_BUFFERS", buffers)
    monkeypatch.setattr(evolution, "_BLOCK", scale * evolution._BLOCK)
    right_hand_sides(st, *forms)
    views = plan_views(buffers)
    assert len(views) >= 7 * len(next(iter(buffers.plans.values())).blocks)
    for view in views:
        assert view.z.ctypes.data % 64 == 0


def test_repeated_walks_refill_the_thread_buffers():
    # a second walk reuses the first walk's plan, whose blocks view the
    # same flat arrays (same keys, same objects), so repeated calls fault no
    # fresh memory in
    from peskin_lab import evolution

    cfg = config_from_file(CONFIGS / "rough.cfg")
    st = SimState.make(make_initial_curve(cfg), law_from_config(cfg), m=cfg.m)
    right_hand_sides(st, *FORMS)
    first = dict(evolution._BUFFERS.flat)
    plans = dict(evolution._BUFFERS.plans)
    assert first and plans
    right_hand_sides(st, *FORMS)
    again = evolution._BUFFERS.flat
    assert again.keys() == first.keys()
    assert {k: id(v) for k, v in again.items()} == {k: id(v) for k, v in first.items()}
    assert {k: id(v) for k, v in evolution._BUFFERS.plans.items()} \
        == {k: id(v) for k, v in plans.items()}


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
def test_cached_plans_give_the_fields_of_fresh_plans(order, rng, monkeypatch):
    # one thread's plans serve walks over two grids (one ending on a
    # partial block), two laws, two floors (the higher one aborts, so a
    # block screened by the other floor's rows would let it pass) and two
    # block heights, in turn: every outcome is the one a fresh plan gives
    from peskin_lab import evolution

    def outcome(st, forms, block):
        monkeypatch.setattr(evolution, "_BLOCK", block)
        try:
            return right_hand_sides(st, *forms)
        except SimulationAbort as exc:
            return exc.reason

    cases = []
    for n, m in ((64, 256), (96, 480)):
        curve = random_bandlimited_curve(rng, n, modes=n // 4, amp=0.3)
        arc = arc_chord(curve).value
        for law in (hookean(1.0), arctan_law((0.2, 3.0))):
            for floor in (0.5 * arc, 2.0 * arc):
                st = SimState.make(curve, law, m=m, rho_floor=floor)
                cases += [(st, forms, block) for forms in (IMEX_PAIR, FORMS)
                          for block in (evolution._BLOCK, 2 * evolution._BLOCK)]
    fresh = []
    for case in cases:
        monkeypatch.setattr(evolution, "_BUFFERS", evolution._Buffers())
        fresh.append(outcome(*case))
    assert sum(isinstance(want, str) for want in fresh) == len(cases) // 2
    monkeypatch.setattr(evolution, "_BUFFERS", evolution._Buffers())
    outcomes = [(outcome(*case), want) for _ in range(2)
                for case, want in list(zip(cases, fresh))[::order]]
    assert len(evolution._BUFFERS.plans) > 1
    # checked after every walk: a field is a fresh array, which no later
    # walk writes
    for got, want in outcomes:
        if isinstance(want, str):
            assert got == want
        else:
            for field, ref in zip(got, want):
                assert np.array_equal(field, ref)


def test_imex_elastic_energy_does_not_increase():
    # the elastic energy integral of E(|X'|), E' = T, of a non-Hookean law,
    # where it is not the l2 norm; E(r) = int_1^r T by 16-point
    # Gauss-Legendre, exact for this quadratic T on its window [0.5, 2]
    cfg = config_from_file(CONFIGS / "power-law.cfg")
    law = law_from_config(cfg)
    nodes, weights = np.polynomial.legendre.leggauss(16)

    def energy(state):
        r = np.hypot(*state.deriv.nodes.T)
        assert np.all((r > 0.5) & (r < 2.0))
        s = 1.0 + (r[:, None] - 1.0) * (nodes + 1.0) / 2.0
        return 2.0 * np.pi * np.mean(law.eval(s) @ weights * (r - 1.0) / 2.0)

    st = SimState.make(make_initial_curve(cfg), law, m=cfg.m)
    energies = [energy(st)]
    for _ in range(50):
        st = step(st, cfg.dt, cfg.scheme)
        energies.append(energy(st))
    assert np.all(np.diff(energies) <= 0.0)


def test_imex_keeps_circle_area():
    st = make_state(Curve.circle(64), m=256)
    area = enclosed_area(st.curve)
    for _ in range(20):
        st = step(st, 1e-2, "imex")
    assert abs(enclosed_area(st.curve) - area) <= 1e-12 * area


def test_imex_area_drift_on_perturbed_circle():
    # Stokes flow conserves area; the first-order step drifts ~4.0e-6 here
    cfg = replace(config_from_file(CONFIGS / "perturbed.cfg"), horizon=1.0,
                  output_stride=200)
    assert (cfg.n, cfg.m, cfg.dt) == (128, 512, 5e-3)
    traj = simulate(cfg)
    a0 = enclosed_area(traj.curves[0])
    assert abs(enclosed_area(traj.curves[-1]) - a0) <= 8e-6 * a0


def nodal_step(state, dt):
    """The IMEX step with the nodal rebuild the coefficient handoff
    replaced, kept as an oracle: X' nodes from the new coefficients, X by a
    spectral antiderivative of those nodes, the new curve from its nodes and
    X' as its spectral derivative."""
    from peskin_lab.curve import fft_coeffs, grid_values, spectral_antiderivative
    from peskin_lab.evolution import _cbar, _imex_increments
    from peskin_lab.operators import symbol

    cbar = _cbar(state)
    lam = symbol(state.curve.n, state.m).lam_tilde
    explicit, mean_velocity = _imex_increments(state)
    numer = state.deriv.coeffs * (1.0 + dt * cbar * lam)[:, None] \
        + dt * fft_coeffs(explicit)
    c1_new = numer / (1.0 + dt * cbar * lam)[:, None]
    c1_new[0] = 0.0
    new_nodes = spectral_antiderivative(grid_values(c1_new)) \
        + (state.curve.mean + dt * mean_velocity)[None]
    return state.advanced(state.t + dt, Curve.from_nodes(new_nodes))


@pytest.mark.parametrize("config", ["equilibrium", "perturbed", "power-law", "rough"])
def test_coefficient_handoff_matches_the_nodal_rebuild(config):
    # after one step X agrees to 5.3e-16; the oracle's X' is the spectral
    # derivative of rounded X nodes, which scales their rounding by up to
    # n/2, and sits 1.1e-14 (n = 128) to 5.9e-14 (n = 512) from the new X'
    cfg = config_from_file(CONFIGS / f"{config}.cfg")
    start = SimState.make(make_initial_curve(cfg), law_from_config(cfg), m=cfg.m)
    got = want = start
    for i in range(1, 21):
        got, want = step(got, cfg.dt, "imex"), nodal_step(want, cfg.dt)
        for new, ref, first in ((got.curve, want.curve, 1e-14),
                                (got.deriv, want.deriv, 1e-13)):
            err = np.max(np.abs(new.nodes - ref.nodes)) / np.max(np.abs(ref.nodes))
            assert err <= (first if i == 1 else 1e-12), (i, err)
            nyquist = np.max(np.abs(new.coeffs[new.n // 2]))
            assert nyquist <= 1e-15 * np.max(np.abs(new.coeffs)), i
    assert got.t == want.t


@pytest.mark.parametrize("config", ["equilibrium", "perturbed", "power-law", "rough"])
def test_imex_step_curves_are_their_coefficients_inverse_transforms(config):
    # each new curve takes its nodes from its coefficients, so the two agree
    # bit for bit, with no check
    cfg = config_from_file(CONFIGS / f"{config}.cfg")
    new = step(SimState.make(make_initial_curve(cfg), law_from_config(cfg),
                             m=cfg.m), cfg.dt, "imex")
    for curve in (new.curve, new.deriv):
        assert np.array_equal(curve.nodes, grid_values(curve.coeffs))


def test_imex_step_makes_three_fft_calls(monkeypatch):
    # the nodal rebuild took 7 forward and 7 inverse transforms, and the two
    # node/coefficient checks of the coefficient handoff one inverse more:
    # one forward of the explicit term, and inverses for the frame's samples
    # and the new nodes of X and X' together
    cfg = config_from_file(CONFIGS / "perturbed.cfg")
    st = step(SimState.make(make_initial_curve(cfg), law_from_config(cfg),
                            m=cfg.m), cfg.dt, "imex")
    calls = []
    for name in ("fft", "ifft"):
        wrapped = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *a, _f=wrapped, _n=name, **kw:
                            calls.append(_n) or _f(*a, **kw))
    step(st, cfg.dt, "imex")
    assert len(calls) == 3, calls
    assert calls.count("fft") == 1


# --- simulate -----------------------------------------------------------------------

def test_simulate_equilibrium_run():
    cfg = SimConfig(n=64, m=256, dt=5e-3, horizon=0.1, scheme="imex",
                    output_stride=4)
    traj = simulate(cfg)
    for c in traj.curves:
        assert np.max(np.abs(c.nodes - traj.curves[0].nodes)) < 1e-7


def test_simulate_perturbed_circle_decays():
    cfg = SimConfig(n=64, m=256, dt=5e-3, horizon=1.5, scheme="imex",
                    init_perturb_mode=3, init_perturb_amp=0.05,
                    output_stride=30)
    traj = simulate(cfg)
    from peskin_lab.diagnostics import circle_distance

    dists = [circle_distance(d) for d in traj.derivs]
    # monotone decay after the first output
    assert all(b <= a + 1e-10 for a, b in zip(dists[1:], dists[2:]))
    assert dists[-1] < 0.5 * dists[0]


def test_simulate_deterministic():
    cfg = SimConfig(n=64, m=256, dt=5e-3, horizon=0.05, scheme="imex",
                    init_kind="random-sobolev", init_rough_amp=0.05,
                    output_stride=5, seed=3)
    t1 = simulate(cfg)
    t2 = simulate(cfg)
    for a, b in zip(t1.curves, t2.curves):
        assert np.array_equal(a.nodes, b.nodes)
    assert t1.records == t2.records


def test_simulate_rk4_scheme():
    cfg = SimConfig(n=32, m=128, dt=1e-2, horizon=0.05, scheme="rk4",
                    init_perturb_mode=2, init_perturb_amp=0.02,
                    output_stride=5)
    traj = simulate(cfg)
    assert traj.scheme == "rk4"
    assert len(traj.times) >= 2
    assert all(rec["step_scheme"] == "rk4" for rec in traj.records)


def test_simulate_computes_initial_arc_chord_once(monkeypatch):
    # the default floor and the first record share one arc-chord value
    import peskin_lab.evolution as ev

    calls = []

    def counted(curve, *args, **kwargs):
        calls.append(curve)
        return arc_chord(curve, *args, **kwargs)

    monkeypatch.setattr(ev, "arc_chord", counted)
    traj = simulate(SimConfig(n=64, m=256, horizon=0.0))
    assert len(calls) == 1
    assert traj.records[0]["arc_chord"] == arc_chord(traj.curves[0]).value


def test_trajectory_validation():
    c = Curve.circle(32)
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 0.0]), curves=(c, c),
                   records=({}, {}), scheme="imex")


def test_trajectory_copies_the_callers_times():
    # the caller's float64 times were the trajectory's own, frozen in place
    c = Curve.circle(32)
    t = np.array([0.0, 0.1])
    traj = Trajectory(times=t, curves=(c, c), records=({}, {}), scheme="imex")
    assert t.flags.writeable and not traj.times.flags.writeable
    t[1] = 5.0
    assert traj.times.tolist() == [0.0, 0.1]


def test_trajectory_derivs_computed_once(rng):
    curves = (Curve.circle(32), random_bandlimited_curve(rng, 32))
    traj = Trajectory(times=np.array([0.0, 0.1]), curves=curves,
                      records=({}, {}), scheme="imex")
    assert traj.derivs is traj.derivs
    for d, c in zip(traj.derivs, curves):
        ref = c.derivative()
        assert np.array_equal(d.nodes, ref.nodes)
        assert np.array_equal(d.coeffs, ref.coeffs)


def test_diag_record_norms_match_power_spectrum_expressions():
    from peskin_lab.curve import power_spectrum, wavenumbers
    from peskin_lab.evolution import _MU_WEIGHTS, _diag_record

    cfg = config_from_file(CONFIGS / "rough.cfg")
    state = SimState.make(make_initial_curve(cfg), law_from_config(cfg), m=cfg.m)
    rec = _diag_record(state, 1.0, _MU_WEIGHTS[cfg.mu_kind](state.deriv.nodes), cfg)
    power = power_spectrum(state.deriv.nodes)
    k = np.abs(wavenumbers(state.curve.n)).astype(float)
    assert rec["l2"] == float(np.sqrt(2.0 * np.pi * power.sum()))
    assert rec["h_half"] == float(np.sqrt(2.0 * np.pi * np.sum(k * power)))
    assert rec["h1"] == float(np.sqrt(2.0 * np.pi * np.sum(k**2 * power)))


def test_diag_record_fields():
    cfg = SimConfig(n=64, m=256, dt=1e-2, horizon=0.02, output_stride=2)
    traj = simulate(cfg)
    rec = traj.records[0]
    for key in ("t", "arc_chord", "l2", "h_half", "h1", "besov_half_mu",
                "step_scheme", "schema"):
        assert key in rec


# --- initial data and laws ----------------------------------------------------------

def test_make_initial_curve_kinds(tmp_path):
    from peskin_lab.curve import write_curve

    assert make_initial_curve(SimConfig(n=32, init_kind="circle")).n == 32
    ell = make_initial_curve(SimConfig(n=32, init_kind="ellipse", init_a=2.0,
                                       init_b=1.0))
    assert ell.nodes[:, 0].max() > 1.5
    rough = make_initial_curve(SimConfig(n=64, init_kind="random-sobolev",
                                         init_rough_amp=0.1, seed=1))
    assert arc_chord(rough).value > 0.3
    path = tmp_path / "x.curve"
    write_curve(Curve.circle(32), path)
    loaded = make_initial_curve(SimConfig(n=32, init_kind="fourier-file",
                                          init_file=str(path)))
    assert np.allclose(loaded.nodes, Curve.circle(32).nodes)
    with pytest.raises(ValueError):
        make_initial_curve(SimConfig(init_kind="nope"))


def test_rough_curve_spectrum():
    cfg = SimConfig(n=128, init_kind="random-sobolev", init_rough_exponent=1.4,
                    init_rough_amp=0.2, seed=5)
    c = make_initial_curve(cfg)
    pert = c.derivative().coeffs.copy()
    pert[1] = 0  # remove the circle tangent modes
    pert[-1] = 0
    mags = np.sqrt(np.sum(np.abs(pert) ** 2, axis=1))
    ks = np.arange(2, 33)
    slope = np.polyfit(np.log(ks), np.log(mags[2:33]), 1)[0]
    assert -1.6 < slope < -1.2  # |k|^-1.4 envelope


def test_rough_curve_phases_follow_the_per_mode_draws():
    # the reference draws two phases per mode k = 1 .. n/2 - 1 in turn
    from peskin_lab.curve import grid_values, parseval_norm, power_spectrum
    from peskin_lab.curve import spectral_antiderivative
    from peskin_lab.evolution import _rough_curve

    n, sigma, amp, radius, seed = 512, 1.5, 0.3, 1.2, 11
    rng = np.random.default_rng(seed)
    c1 = np.zeros((n, 2), dtype=complex)
    for k in range(1, n // 2):
        c1[k] = float(k) ** (-sigma) * np.exp(2j * np.pi * rng.random(2))
        c1[n - k] = np.conj(c1[k])
    pert = grid_values(c1)
    scale = amp * np.sqrt(2.0 * np.pi) * radius / parseval_norm(power_spectrum(pert))
    want = Curve.circle(n, radius=radius).nodes + spectral_antiderivative(pert * scale)
    assert np.array_equal(_rough_curve(n, sigma, amp, radius, seed).nodes,
                          Curve.from_nodes(want).nodes)


def test_law_from_config_kinds():
    assert law_from_config(SimConfig(tension_kind="hookean", tension_k0=2.0)).lam == 2.0
    p = law_from_config(SimConfig(tension_kind="power", tension_p=2.0,
                                  tension_window=(1.0, 2.0)))
    assert p.lam > 0
    g = law_from_config(SimConfig(tension_kind="power", tension_p=2.0,
                                  tension_window=(1.0, 2.0),
                                  tension_globalize=True))
    # globalized: linear above the window with slope T'(2) = 4, not r^2
    assert abs(g.eval(np.array([3.0]))[0] - 8.0) < 1e-12
    with pytest.raises(ValueError):
        law_from_config(SimConfig(tension_kind="mystery"))
