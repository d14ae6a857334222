import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peskin_lab.config import config_from_file
from peskin_lab.curve import (
    ArcChord,
    Curve,
    _arc_chord_level,
    _phase,
    alpha_rows,
    arc_chord,
    as_complex,
    coeff_power,
    enclosed_area,
    fft_coeffs,
    grid_values,
    half_offset_grid,
    half_offset_samples,
    half_offset_values,
    half_offset_window,
    lp_norm,
    magnitude,
    parseval_norm,
    power_spectrum,
    read_curve,
    shift_many,
    spectral_derivative,
    theta_grid,
    wavenumbers,
    write_curve,
)
from peskin_lab.evolution import SimState, law_from_config, make_initial_curve, step
from conftest import grid_lp, random_bandlimited_curve, random_trig_field

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("n", [16, 64, 256, 1024])
def test_round_trip_identity(n, rng):
    nodes = rng.standard_normal((n, 2))
    back = grid_values(fft_coeffs(nodes))
    assert np.max(np.abs(back - nodes)) < 1e-12 * max(1.0, np.max(np.abs(nodes)))


def test_coeffs_match_analytic():
    n = 32
    th = theta_grid(n)
    f = 2.0 + np.cos(3 * th) - 0.5 * np.sin(7 * th)
    c = fft_coeffs(f)
    k = wavenumbers(n)
    assert abs(c[0] - 2.0) < 1e-13
    assert abs(c[np.where(k == 3)[0][0]] - 0.5) < 1e-13
    # -0.5 sin(7t) has coefficient +0.25j at wavenumber +7, -0.25j at -7
    assert abs(c[np.where(k == 7)[0][0]] - 0.25j) < 1e-13
    assert abs(c[np.where(k == -7)[0][0]] + 0.25j) < 1e-13


def test_derivative_circle():
    c = Curve.circle(64)
    d = c.derivative()
    th = theta_grid(64)
    expected = np.stack([-np.sin(th), np.cos(th)], axis=1)
    assert np.max(np.abs(d.nodes - expected)) < 1e-12
    assert np.max(np.abs(d.mean)) < 1e-13


def test_derivative_constant_is_zero():
    nodes = np.tile([1.5, -0.5], (32, 1))
    d = Curve.from_nodes(nodes).derivative()
    assert np.max(np.abs(d.nodes)) < 1e-13


def test_derivative_multiplier_ik():
    n = 32
    coeffs = np.zeros((n, 2), dtype=complex)
    coeffs[2] = [1.0, 0.0]  # wavenumber +2
    coeffs[n - 2] = np.conj(coeffs[2])
    c = Curve.from_coeffs(coeffs)
    d = c.derivative()
    assert np.allclose(d.coeffs[2], [2j, 0.0], atol=1e-13)


def test_grid_size_validation():
    with pytest.raises(ValueError):
        Curve.from_nodes(np.zeros((8, 2)))
    with pytest.raises(ValueError):
        Curve.from_nodes(np.zeros((17, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_curve_rejects_non_finite_values(bad):
    # a nan node passed the nodes-coeffs agreement check, whose comparison
    # is False for nan, and a run started from it aborted at t = 0
    circle = Curve.circle(32)
    nodes = circle.nodes.copy()
    nodes[5, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        Curve.from_nodes(nodes)
    coeffs = circle.coeffs.copy()
    coeffs[3, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        Curve.from_coeffs(coeffs)


def test_curve_takes_no_nodes_and_coefficients_together():
    # a curve is built from one representation, so the two cannot disagree
    circle = Curve.circle(32)
    with pytest.raises(TypeError, match="from_nodes or Curve.from_coeffs"):
        Curve(nodes=circle.nodes, coeffs=circle.coeffs)


def test_curve_copies_the_callers_array():
    # the caller's float64 array was the curve's own, frozen in place
    circle = Curve.circle(32)
    for build, given in ((Curve.from_nodes, circle.nodes.copy()),
                         (Curve.from_coeffs, circle.coeffs.copy())):
        curve = build(given)
        nodes, coeffs = curve.nodes.copy(), curve.coeffs.copy()
        assert given.flags.writeable
        assert not (curve.nodes.flags.writeable or curve.coeffs.flags.writeable)
        given[3] = 7.0
        assert np.array_equal(curve.nodes, nodes)
        assert np.array_equal(curve.coeffs, coeffs)


def divided_difference(x, alpha):
    """D_alpha X = (X(theta + alpha) - X(theta)) / alpha."""
    return (shift_many(x, [alpha])[0] - x) / alpha


def test_difference_constant_zero():
    f = np.tile([2.0, 3.0], (32, 1))
    out = shift_many(f, [0.7])[0] - f
    assert np.max(np.abs(out)) < 1e-12


def test_difference_magnitude_identity():
    # f = e^{i theta} as (cos, sin): |delta_a f| = 2 |sin(a/2)| pointwise
    n = 64
    th = theta_grid(n)
    f = np.stack([np.cos(th), np.sin(th)], axis=1)
    for alpha in (0.3, -1.1, np.pi / 2):
        out = shift_many(f, [alpha])[0] - f
        mags = np.hypot(out[:, 0], out[:, 1])
        assert np.allclose(mags, 2.0 * abs(np.sin(alpha / 2.0)), atol=1e-12)


def test_divided_difference_circle_at_pi():
    c = Curve.circle(64)
    out = divided_difference(c.nodes, np.pi)
    mags = np.hypot(out[:, 0], out[:, 1])
    # |delta_pi X| = 2 (diameter), divided by pi
    assert np.allclose(mags, 2.0 / np.pi, atol=1e-12)


def test_plus_minus_split(rng):
    # D_alpha X is the mean of X' over [theta, theta + alpha], so the plus
    # and minus differences X'(theta + alpha) - D_alpha X and X'(theta) -
    # D_alpha X split the plain difference of X'
    c = random_bandlimited_curve(rng, 64)
    d = c.derivative()
    alpha = 0.9
    divided = divided_difference(c.nodes, alpha)
    s, w = np.polynomial.legendre.leggauss(32)
    mean = sum(wi * shift_many(d.nodes, [alpha * (si + 1.0) / 2.0])[0]
               for si, wi in zip(s, w)) / 2.0
    assert np.max(np.abs(divided - mean)) < 1e-12
    plus = shift_many(d.nodes, [alpha])[0] - divided
    minus = d.nodes - divided
    plain = shift_many(d.nodes, [alpha])[0] - d.nodes
    assert np.max(np.abs(plus - (plain + minus))) < 1e-12


@pytest.mark.parametrize("p", [2.0, np.inf])
def test_difference_operator_lp_bounds(p, rng):
    # minus difference bounded by 2||f'||_p, divided by ||f'||_p
    for _ in range(5):
        c = random_bandlimited_curve(rng, 64, modes=12, amp=0.5)
        d = c.derivative()
        norm = grid_lp(d.nodes, p)
        for alpha in (0.3, 1.7, -2.5):
            divided = divided_difference(c.nodes, alpha)
            minus = d.nodes - divided
            assert grid_lp(minus, p) <= 2.0 * norm + 1e-10
            assert grid_lp(divided, p) <= norm + 1e-10


def test_difference_linear_and_commutes(rng):
    f = random_trig_field(rng, 64, 10)
    g = random_trig_field(rng, 64, 10)
    alpha = 0.6

    def delta(h):
        return shift_many(h, [alpha])[0] - h

    lhs = delta(2.0 * f - 3.0 * g)
    rhs = 2.0 * delta(f) - 3.0 * delta(g)
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    lhs = spectral_derivative(delta(f))
    rhs = delta(spectral_derivative(f))
    assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_shift_at_grid_offsets_is_roll(rng):
    f = rng.standard_normal((32, 2))
    shifted = shift_many(f, [2.0 * np.pi * 5 / 32])[0]
    assert np.max(np.abs(shifted - np.roll(f, -5, axis=0))) < 1e-12


@pytest.mark.parametrize("ratio", [1, 3, 4])
def test_half_offset_gather_matches_shift_many(ratio, rng):
    n = 32
    m = ratio * n
    alphas = -np.pi + (np.arange(m) + 0.5) * 2.0 * np.pi / m
    # a field carrying a non-zero Nyquist mode, and the 2n-padded pattern
    # whose even slots are the n-grid nodes
    f = rng.standard_normal((n, 2))
    f_2n = rng.standard_normal((2 * n, 2))
    assert np.max(np.abs(fft_coeffs(f)[n // 2])) > 1e-3
    pairs = [(half_offset_window(half_offset_samples(f, m), n), shift_many(f, alphas))]
    if m >= 2 * n:  # the 2n pattern's 2n coefficients need m >= 2n samples
        pairs.append((half_offset_window(half_offset_samples(f_2n, m), n),
                      shift_many(f_2n, alphas)[:, ::2]))
    for got, ref in pairs:
        assert got.shape == ref.shape
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(got - ref)) < 1e-13 * scale


def test_half_offset_window_rejects_non_multiple():
    with pytest.raises(ValueError):
        half_offset_window(np.zeros(48, dtype=complex), 32)
    with pytest.raises(ValueError):
        half_offset_window(np.zeros(0, dtype=complex), 32)


def test_half_offset_window_is_a_read_only_view(rng):
    # the rows overlap in memory, so a write through the window would
    # alias; and the frame must stay a window, not a gathered (m, n) copy
    n, m = 64, 256
    samples = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    frame = half_offset_window(samples, n)
    slots = (np.arange(m)[:, None] - m // 2 + np.arange(n) * (m // n)) % m
    assert np.array_equal(frame, samples[slots])
    with pytest.raises(ValueError):
        frame[0, 0] = 0.0
    lo, hi = np.lib.array_utils.byte_bounds(frame)
    assert hi - lo <= 3 * m * samples.itemsize
    assert not frame.flags.owndata


@pytest.mark.parametrize("n, m", [(64, 256), (16, 16), (32, 96)])
def test_alpha_rows_is_a_read_only_circulant_view(n, m, rng):
    # [j, p] is the table at the alpha with theta_j + alpha = phi_p, the
    # index the half-offset window reads sample p from at alpha row i
    table = rng.standard_normal(m)
    view = alpha_rows(table, n)
    slots = (np.arange(m)[None, :] + m // 2 - (m // n) * np.arange(n)[:, None]) % m
    assert np.array_equal(view, table[slots])
    window = (np.arange(m)[:, None] - m // 2 + np.arange(n) * (m // n)) % m
    rows = np.broadcast_to(np.arange(m)[:, None], (m, n))
    assert np.array_equal(slots[np.arange(n), window], rows)
    with pytest.raises(ValueError):
        view[0, 0] = 0.0
    lo, hi = np.lib.array_utils.byte_bounds(view)
    assert hi - lo <= 3 * m * table.itemsize
    assert not view.flags.owndata


def test_alpha_rows_rejects_non_multiple():
    with pytest.raises(ValueError, match="multiple"):
        alpha_rows(np.zeros(48), 32)
    with pytest.raises(ValueError, match="multiple"):
        alpha_rows(np.zeros(0), 32)


@pytest.mark.parametrize("fn", [wavenumbers, _phase])
def test_wavenumbers_and_phase_are_cached_read_only(fn):
    first = fn(48)
    assert fn(48) is first
    assert not first.flags.writeable
    k = np.fft.fftfreq(48, d=1.0 / 48).astype(np.int64)
    assert np.array_equal(first, k if fn is wavenumbers else np.where(k % 2 == 0, 1.0, -1.0))


def brute_force_arc_chord(curve, m):
    """Independent dense (theta, alpha) search, no FFT machinery."""
    n = curve.n
    best = np.inf
    alphas = -np.pi + (np.arange(m) + 0.5) * 2.0 * np.pi / m
    th = theta_grid(n)
    coeffs = curve.coeffs
    k = wavenumbers(n)

    def eval_at(angles):
        basis = np.exp(1j * np.outer(angles, k))
        return (basis @ coeffs).real

    base = eval_at(th)
    for alpha in alphas:
        shifted = eval_at(th + alpha)
        d = shifted - base
        best = min(best, np.min(np.hypot(d[:, 0], d[:, 1])) / abs(alpha))
    return best


def test_arc_chord_circle():
    c = Curve.circle(64)
    result = arc_chord(c)
    # twice the 8n level's distance from the 4n level's
    estimate = 2.0 * abs(result.value - _arc_chord_level(c, 4 * c.n))
    exact = 2.0 / np.pi
    # dense search oracle confirms the infimum location at alpha = pi
    alphas = np.linspace(1e-4, np.pi, 20001)
    oracle = np.min(np.abs(2.0 * np.sin(alphas / 2.0) / alphas))
    assert abs(oracle - exact) < 1e-8
    assert abs(result.value - exact) <= estimate + 1e-9
    assert result.value >= exact - 1e-12  # grid infimum cannot undershoot


def test_arc_chord_radius_scaling():
    r1 = arc_chord(Curve.circle(64, radius=1.0)).value
    r3 = arc_chord(Curve.circle(64, radius=3.0)).value
    assert abs(r3 - 3.0 * r1) < 1e-12


def test_arc_chord_ellipse_brute_force():
    c = Curve.ellipse(32, 2.0, 1.0)
    m = 16 * 32
    oracle = brute_force_arc_chord(c, m)
    assert abs(_arc_chord_level(c, m) - oracle) < 1e-10


def test_arc_chord_invariances(rng):
    c = random_bandlimited_curve(rng, 64)
    base = arc_chord(c).value
    shifted = Curve.from_nodes(c.nodes + np.array([3.0, -1.0]))
    assert abs(arc_chord(shifted).value - base) < 1e-12
    q = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
    rotated = Curve.from_nodes(c.nodes @ q.T)
    assert abs(arc_chord(rotated).value - base) < 1e-10
    scaled = Curve.from_nodes(1.7 * c.nodes)
    assert abs(arc_chord(scaled).value - 1.7 * base) < 1e-10


def test_arc_chord_refinement_estimate(rng):
    c = random_bandlimited_curve(rng, 64)
    value = arc_chord(c).value
    coarse, finer = (_arc_chord_level(c, k * c.n) for k in (4, 32))
    assert abs(value - finer) <= 2.0 * abs(value - coarse) + 1e-6


def test_arc_chord_degenerate_point():
    c = Curve.from_nodes(np.tile([0.3, 0.4], (32, 1)))
    assert arc_chord(c).value == 0.0


def min_chord_quotient(r2, alphas):
    """min over the frame of sqrt(r2) / |alpha|, one sqrt and divide per alpha row."""
    return float(np.min(np.sqrt(r2.min(axis=1)) / np.abs(alphas)))


def dense_arc_chord_level(curve, m):
    """The whole (m, n) frame at once, sampled from the curve's coefficients:
    the arithmetic the pruned search keeps."""
    dz = half_offset_window(as_complex(half_offset_values(curve.coeffs, m)),
                            curve.n) - as_complex(curve.nodes)
    alphas = -np.pi + (np.arange(m) + 0.5) * 2.0 * np.pi / m
    return min_chord_quotient(dz.real**2 + dz.imag**2, alphas)


def config_curve(name):
    return make_initial_curve(config_from_file(CONFIGS / name))


def near_touching_curve(n=128, b=0.19):
    """Peanut whose waist is 0.1 wide, on a warped parameter theta + b sin theta;
    at b = 0.19 its 4n grid infimum lies below the 8n one."""
    th = theta_grid(n)
    psi = th + b * np.sin(th)
    r = 1.0 + 0.95 * np.cos(2.0 * psi)
    return Curve.from_nodes(np.stack([r * np.cos(psi), r * np.sin(psi)], axis=1))


ARC_CHORD_CURVES = {
    "circle": lambda: Curve.circle(64),
    "thin-ellipse": lambda: Curve.ellipse(128, 5.0, 0.2),
    "perturbed": lambda: config_curve("perturbed.cfg"),
    "rough": lambda: config_curve("rough.cfg"),
    "near-touching": near_touching_curve,
    "point": lambda: Curve.from_nodes(np.tile([0.3, 0.4], (32, 1))),
    # unit-amplitude random perturbations, arc-chord 2e-3 and 4e-3: a bound
    # that halves L, misses the wrap to row 0 or is one row short fails here
    "crossing-5": lambda: random_bandlimited_curve(np.random.default_rng(5), 64, 12, 1.0),
    "crossing-16": lambda: random_bandlimited_curve(np.random.default_rng(16), 64, 12, 1.0),
    # crossing-5 moved 1e8 away: the rounding slack, relative to sum_k |c_k|
    # and so to the mean, is 0.1 here, and rows whose Wiener bound lands
    # within it of the threshold hold the crossing; a search that subtracted
    # the slack instead of adding it would skip them
    "far-crossing-5": lambda: Curve.from_nodes(
        ARC_CHORD_CURVES["crossing-5"]().nodes + np.array([1e8, 0.0])),
}


@pytest.mark.parametrize("name", sorted(ARC_CHORD_CURVES))
def test_arc_chord_levels_equal_dense_frame(name):
    c = ARC_CHORD_CURVES[name]()
    v1 = dense_arc_chord_level(c, 4 * c.n)
    v2 = dense_arc_chord_level(c, 8 * c.n)
    assert _arc_chord_level(c, 4 * c.n) == v1
    assert _arc_chord_level(c, 8 * c.n) == v2
    assert arc_chord(c).value == v2
    if name == "near-touching":
        # the coarser level's value is no valid threshold for the finer one
        assert v1 < v2


def test_arc_chord_searches_one_8n_level(monkeypatch):
    import peskin_lab.curve as curve_module

    levels = []

    def counted(curve, m):
        levels.append(m)
        return _arc_chord_level(curve, m)

    monkeypatch.setattr(curve_module, "_arc_chord_level", counted)
    c = ARC_CHORD_CURVES["near-touching"]()
    res = arc_chord(c)
    assert isinstance(res, ArcChord)
    assert res.value == dense_arc_chord_level(c, 8 * c.n)
    assert levels == [8 * c.n]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([16, 34, 64]),
       st.integers(1, 12), st.floats(0.0, 1.5))
def test_arc_chord_level_equals_dense_frame_property(seed, n, modes, amp):
    c = random_bandlimited_curve(np.random.default_rng(seed), n, modes, amp)
    # from its coefficients, the curve's nodes are grid_values(coeffs), whose
    # own coefficients differ from coeffs by rounding, as a stepped state's do
    for curve in (c, Curve.from_coeffs(c.coeffs)):
        # 5n is not a multiple of the coarse stride at n = 34: a partial last gap
        for m in (4 * n, 5 * n, 8 * n):
            assert _arc_chord_level(curve, m) == dense_arc_chord_level(curve, m)


def test_arc_chord_of_a_stepped_state_samples_its_coefficients():
    # an IMEX step builds the next curve from its coefficients
    # (Curve._built), whose nodes do not transform back to them bit for bit;
    # sampled from the nodes' transform, step 4 read one ulp lower
    cfg = config_from_file(CONFIGS / "perturbed.cfg")
    state = SimState.make(make_initial_curve(cfg), law_from_config(cfg), m=cfg.m)
    for _ in range(4):
        state = step(state, cfg.dt)
        c = state.curve
        assert not np.array_equal(fft_coeffs(c.nodes), c.coeffs)
        assert arc_chord(c).value == dense_arc_chord_level(c, 8 * c.n)


def test_enclosed_area_of_conics(rng):
    assert abs(enclosed_area(Curve.circle(32, radius=1.5)) - 2.25 * np.pi) < 1e-13
    # an off-origin centre: the area does not see a translation
    ellipse = Curve.from_nodes(Curve.ellipse(64, a=2.0, b=0.5).nodes + [3.0, -1.0])
    assert abs(enclosed_area(ellipse) - np.pi) < 1e-13
    flipped = Curve.from_nodes(ellipse.nodes[::-1].copy())
    assert abs(enclosed_area(flipped) + np.pi) < 1e-13  # clockwise


def test_arc_chord_memory_is_bounded():
    # the dense (8n, n) frame of this n = 512 curve peaks near 67 MB, and
    # 64-row blocks with whole-block temporaries near 2 MB
    c = config_curve("rough.cfg")
    tracemalloc.start()
    try:
        arc_chord(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=-15, max_value=15).filter(lambda k: k != 0))
def test_shift_phase_property(k):
    n = 64
    th = theta_grid(n)
    f = np.cos(k * th)
    alpha = 0.37
    shifted = shift_many(f, [alpha])[0]
    assert np.max(np.abs(shifted - np.cos(k * (th + alpha)))) < 1e-11


def test_curve_file_round_trip(tmp_path, rng):
    c = random_bandlimited_curve(rng, 32)
    path = tmp_path / "c.curve"
    write_curve(c, path)
    back = read_curve(path)
    assert np.max(np.abs(back.nodes - c.nodes)) < 1e-15
    header = path.read_text().splitlines()[0]
    assert header == "peskin-curve v1 N=32"


def test_write_curve_bytes_equal_the_per_row_repr_format(tmp_path):
    # the writer formats nodes.tolist() in one join; the file is the one
    # the per-row repr loop wrote, also for -0.0, subnormals and 1e300
    nodes = Curve.circle(16).nodes.copy()
    nodes[1] = (-0.0, 5e-324)
    nodes[2] = (1e300, -2.5e-310)
    curve = Curve.from_nodes(nodes)
    lines = [f"peskin-curve v1 N={curve.n}\n"]
    for x, y in curve.nodes:
        lines.append(f"{float(x)!r} {float(y)!r}\n")
    path = tmp_path / "c.curve"
    write_curve(curve, path)
    assert path.read_bytes() == "".join(lines).encode()
    assert "-0.0 5e-324\n" in lines


def test_half_offset_values_sample_the_grid_field(rng):
    # from a curve's own transform, the coefficient path is the node path bit
    # for bit; an imaginary Nyquist part, which the grid cannot see, is not
    # sampled either
    n, m = 32, 96
    curve = random_bandlimited_curve(rng, n)
    assert np.array_equal(half_offset_values(curve.coeffs, m),
                          half_offset_samples(curve.nodes, m))
    coeffs = curve.coeffs.copy()
    coeffs[n // 2] = (0.3 + 0.7j, -0.2 - 0.4j)
    moved = Curve.from_coeffs(coeffs)
    got = half_offset_values(moved.coeffs, m)
    want = half_offset_samples(moved.nodes, m)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    assert np.max(np.abs(got - half_offset_samples(curve.nodes, m))) > 0.1


def test_half_offset_fold_by_slices_matches_add_at(rng):
    # the two slice adds give the bits of an np.add.at fold, for even and
    # odd n
    from peskin_lab.curve import _half_offset_factor, wavenumbers

    for n in (32, 33):
        coeffs = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        for m in (n, 2 * n, 4 * n):
            c = coeffs * _half_offset_factor(n, m)[:, None]
            if n % 2 == 0:
                c[n // 2] = coeffs[n // 2].real * _half_offset_factor(n, m)[n // 2]
            folded = np.zeros((m, 2), dtype=complex)
            np.add.at(folded, wavenumbers(n) % m, c)
            want = np.fft.ifft(folded, axis=0).real * m
            got = half_offset_values(coeffs, m)
            assert np.array_equal(got, want), (n, m)


def test_half_offset_values_rejects_a_grid_below_the_coefficient_count():
    with pytest.raises(ValueError, match="size 16 is below the coefficient count 32"):
        half_offset_values(np.zeros((32, 2), dtype=complex), 16)


def test_read_curve_takes_exactly_the_header_count_of_node_lines(tmp_path):
    # a 32-node circle under header N=16 loaded as half the circle
    path = tmp_path / "c.curve"
    write_curve(Curve.circle(32), path)
    text = path.read_text()
    for count in (16, 48):
        path.write_text(text.replace("N=32", f"N={count}"))
        with pytest.raises(ValueError, match=f"header N={count} but 32 node lines"):
            read_curve(path)


def test_curve_file_bad_header(tmp_path):
    path = tmp_path / "bad.curve"
    path.write_text("not a curve\n0 0\n")
    with pytest.raises(ValueError):
        read_curve(path)


def test_resampled_preserves_values(rng):
    c = random_bandlimited_curve(rng, 32)
    fine = c.resampled(128)
    assert np.max(np.abs(fine.nodes[::4] - c.nodes)) < 1e-12
    same = c.resampled(32)
    assert np.max(np.abs(same.nodes - c.nodes)) < 1e-15
    # a pure Nyquist mode keeps its sampled values after refinement
    coeffs = np.zeros((32, 2), dtype=complex)
    coeffs[16] = [1.0, 0.0]
    nyq = Curve.from_nodes(grid_values(coeffs))
    fine = nyq.resampled(64)
    assert np.max(np.abs(fine.nodes[::2] - nyq.nodes)) < 1e-12
    # split evenly onto +-16, as the transform of the refined samples has it
    assert np.max(np.abs(fine.coeffs - Curve.from_nodes(fine.nodes).coeffs)) < 1e-14


def test_mean_tracked_separately(rng):
    c = random_bandlimited_curve(rng, 32)
    mean = c.mean
    assert np.allclose(mean, c.nodes.mean(axis=0), atol=1e-12)
    coeffs = c.coeffs.copy()
    coeffs[0] = [5.0, -2.0]
    moved = Curve.from_coeffs(coeffs)
    assert np.allclose(moved.mean, [5.0, -2.0], atol=1e-13)
    assert np.max(np.abs((moved.nodes - c.nodes) - (np.array([5.0, -2.0]) - mean))) < 1e-12


# --- spectral primitives: one implementation each ---------------------------------


@pytest.mark.parametrize("shape", [(33,), (34,), (64,), (33, 2), (34, 2), (64, 2)])
def test_parseval_norm_matches_physical_quadrature(rng, shape):
    f = rng.standard_normal(shape)  # white noise: every mode, Nyquist included
    sq = f**2 if f.ndim == 1 else np.sum(f**2, axis=-1)
    quadrature = np.sqrt(2.0 * np.pi * np.mean(sq))
    assert abs(parseval_norm(power_spectrum(f)) - quadrature) <= 1e-14 * quadrature


@pytest.mark.parametrize("n", [16, 34, 128])
def test_coeff_power_of_a_curve_is_its_node_power_spectrum(n, rng):
    # a curve from its nodes holds fft_coeffs(nodes), so the power of its
    # coefficients is power_spectrum(nodes) bit for bit
    curves = (Curve.circle(n), random_bandlimited_curve(rng, n, 8, 0.5))
    for c in curves + tuple(c.derivative() for c in curves):
        assert np.array_equal(coeff_power(c.coeffs), power_spectrum(c.nodes))
    # a stack (n, t, c) of t fields gives one power column per field
    fields = rng.standard_normal((3, n, 2))
    stacked = coeff_power(fft_coeffs(np.stack(fields, axis=1)))
    assert stacked.shape == (n, 3)
    for i, f in enumerate(fields):
        assert np.array_equal(stacked[:, i], power_spectrum(f))
    scalar = rng.standard_normal(n)
    assert np.array_equal(coeff_power(fft_coeffs(scalar)), power_spectrum(scalar))


def test_magnitude_is_hypot(rng):
    scale = 10.0 ** rng.uniform(-200, 200, (7, 33, 1))
    z = rng.standard_normal((7, 33, 2)) * scale
    assert np.array_equal(magnitude(z), np.hypot(z[..., 0], z[..., 1]))
    f = rng.standard_normal((5, 33))
    assert np.array_equal(magnitude(f, vector=False), np.abs(f))


def _lp_reference(mag, p):
    if np.isinf(p):
        return mag.max(axis=-1)
    return (2.0 * np.pi * np.mean(mag**p, axis=-1)) ** (1.0 / p)


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0, np.inf])
def test_lp_norm_matches_reference_formula(rng, p):
    mag = np.abs(rng.standard_normal((9, 48)))
    assert np.array_equal(lp_norm(mag, p), _lp_reference(mag, p))
    assert lp_norm(mag[0], p) == _lp_reference(mag[0], p)
    v = rng.standard_normal((48, 2))  # one field, as lp_block_norms takes it
    assert lp_norm(magnitude(v), p) == grid_lp(v, p)
    assert lp_norm(magnitude(v[:, 0], vector=False), p) == grid_lp(v[:, 0], p)


def test_operators_half_offset_grid_is_the_curve_grid():
    # the benchmark imports half_offset_grid from peskin_lab.operators
    import peskin_lab.operators

    assert peskin_lab.operators.half_offset_grid is half_offset_grid
