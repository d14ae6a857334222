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
    difference,
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
    spectral_shift,
    theta_grid,
    wavenumbers,
    write_curve,
)
from peskin_lab.evolution import make_initial_curve
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


def test_difference_constant_zero():
    f = np.tile([2.0, 3.0], (32, 1))
    out = difference(f, 0.7)
    assert np.max(np.abs(out)) < 1e-12


def test_difference_magnitude_identity():
    # f = e^{i theta} as (cos, sin): |delta_a f| = 2 |sin(a/2)| pointwise
    n = 64
    th = theta_grid(n)
    f = np.stack([np.cos(th), np.sin(th)], axis=1)
    for alpha in (0.3, -1.1, np.pi / 2):
        out = difference(f, alpha)
        mags = np.hypot(out[:, 0], out[:, 1])
        assert np.allclose(mags, 2.0 * abs(np.sin(alpha / 2.0)), atol=1e-12)


def test_divided_difference_circle_at_pi():
    c = Curve.circle(64)
    out = difference(c.nodes, np.pi, "divided")
    mags = np.hypot(out[:, 0], out[:, 1])
    # |delta_pi X| = 2 (diameter), divided by pi
    assert np.allclose(mags, 2.0 / np.pi, atol=1e-12)


def test_difference_zero_alpha_rejected():
    with pytest.raises(ValueError):
        difference(np.zeros((32, 2)), 0.0)


def test_plus_minus_split(rng):
    c = random_bandlimited_curve(rng, 64)
    d = c.derivative()
    alpha = 0.9
    plus = difference(d.nodes, alpha, "plus", primitive=c.nodes)
    minus = difference(d.nodes, alpha, "minus", primitive=c.nodes)
    plain = difference(d.nodes, alpha)
    assert np.max(np.abs(plus - (plain + minus))) < 1e-12


def test_plus_minus_requires_primitive():
    with pytest.raises(ValueError):
        difference(np.zeros((32, 2)), 0.5, "plus")


@pytest.mark.parametrize("p", [2.0, np.inf])
def test_difference_operator_lp_bounds(p, rng):
    # minus variant bounded by 2||f'||_p, divided by ||f'||_p
    for _ in range(5):
        c = random_bandlimited_curve(rng, 64, modes=12, amp=0.5)
        d = c.derivative()
        norm = grid_lp(d.nodes, p)
        for alpha in (0.3, 1.7, -2.5):
            minus = difference(d.nodes, alpha, "minus", primitive=c.nodes)
            divided = difference(c.nodes, alpha, "divided")
            assert grid_lp(minus, p) <= 2.0 * norm + 1e-10
            assert grid_lp(divided, p) <= norm + 1e-10


def test_difference_linear_and_commutes(rng):
    f = random_trig_field(rng, 64, 10)
    g = random_trig_field(rng, 64, 10)
    alpha = 0.6
    lhs = difference(2.0 * f - 3.0 * g, alpha)
    rhs = 2.0 * difference(f, alpha) - 3.0 * difference(g, alpha)
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    lhs = spectral_derivative(difference(f, alpha))
    rhs = difference(spectral_derivative(f), alpha)
    assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_shift_at_grid_offsets_is_roll(rng):
    f = rng.standard_normal((32, 2))
    shifted = spectral_shift(f, 2.0 * np.pi * 5 / 32)
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
    for got, ref in ((half_offset_window(half_offset_samples(f, m), n),
                      shift_many(f, alphas)),
                     (half_offset_window(half_offset_samples(f_2n, m), n),
                      shift_many(f_2n, alphas)[:, ::2])):
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
    result = arc_chord(Curve.circle(64))
    exact = 2.0 / np.pi
    # dense search oracle confirms the infimum location at alpha = pi
    alphas = np.linspace(1e-4, np.pi, 20001)
    oracle = np.min(np.abs(2.0 * np.sin(alphas / 2.0) / alphas))
    assert abs(oracle - exact) < 1e-8
    assert abs(result.value - exact) <= result.estimate + 1e-9
    assert result.value >= exact - 1e-12  # grid infimum cannot undershoot


def test_arc_chord_radius_scaling():
    r1 = arc_chord(Curve.circle(64, radius=1.0)).value
    r3 = arc_chord(Curve.circle(64, radius=3.0)).value
    assert abs(r3 - 3.0 * r1) < 1e-12


def test_arc_chord_ellipse_brute_force():
    c = Curve.ellipse(32, 2.0, 1.0)
    m = 16 * 32
    oracle = brute_force_arc_chord(c, m)
    from peskin_lab.curve import _arc_chord_level

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
    res = arc_chord(c)
    finer = arc_chord(c, m=16 * c.n)
    assert abs(res.value - finer.value) <= res.estimate + 1e-6


def test_arc_chord_degenerate_point():
    c = Curve.from_nodes(np.tile([0.3, 0.4], (32, 1)))
    assert arc_chord(c).value == 0.0


def min_chord_quotient(r2, alphas):
    """min over the frame of sqrt(r2) / |alpha|, one sqrt and divide per alpha row."""
    return float(np.min(np.sqrt(r2.min(axis=1)) / np.abs(alphas)))


def dense_arc_chord_level(curve, m):
    """The whole (m, n) frame at once: the arithmetic the pruned search keeps."""
    dz = half_offset_window(as_complex(half_offset_samples(curve.nodes, m)),
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
    res = arc_chord(c)
    assert (res.value, res.estimate) == (v2, 2.0 * abs(v2 - v1))
    if name == "near-touching":
        # the coarser level's value is no valid threshold for the finer one
        assert v1 < v2


def test_arc_chord_searches_the_estimate_level_on_first_read(monkeypatch):
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
    estimate = res.estimate
    assert levels == [8 * c.n, 4 * c.n]
    assert res.estimate == estimate
    assert levels == [8 * c.n, 4 * c.n]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([16, 34, 64]),
       st.integers(1, 12), st.floats(0.0, 1.5))
def test_arc_chord_level_equals_dense_frame_property(seed, n, modes, amp):
    c = random_bandlimited_curve(np.random.default_rng(seed), n, modes, amp)
    # 5n is not a multiple of the coarse stride at n = 34: a partial last gap
    for m in (4 * n, 5 * n, 8 * n):
        assert _arc_chord_level(c, m) == dense_arc_chord_level(c, m)


def test_enclosed_area_of_conics(rng):
    assert abs(enclosed_area(Curve.circle(32, radius=1.5)) - 2.25 * np.pi) < 1e-13
    ellipse = Curve.ellipse(64, a=2.0, b=0.5, center=(3.0, -1.0))
    assert abs(enclosed_area(ellipse) - np.pi) < 1e-13
    flipped = Curve.from_nodes(ellipse.nodes[::-1].copy())
    assert abs(enclosed_area(flipped) + np.pi) < 1e-13  # clockwise


def test_arc_chord_memory_is_bounded():
    # the dense (8n, n) frame of this n = 512 curve peaks near 67 MB
    c = config_curve("rough.cfg")
    tracemalloc.start()
    try:
        arc_chord(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=-15, max_value=15).filter(lambda k: k != 0))
def test_shift_phase_property(k):
    n = 64
    th = theta_grid(n)
    f = np.cos(k * th)
    alpha = 0.37
    shifted = spectral_shift(f, alpha)
    assert np.max(np.abs(shifted - np.cos(k * (th + alpha)))) < 1e-11


def test_curve_file_round_trip(tmp_path, rng):
    c = random_bandlimited_curve(rng, 32)
    path = tmp_path / "c.curve"
    write_curve(c, path, fourier=True)
    back = read_curve(path)
    assert np.max(np.abs(back.nodes - c.nodes)) < 1e-15
    header = path.read_text().splitlines()[0]
    assert header == "peskin-curve v1 N=32"


@pytest.mark.parametrize("fourier", [False, True])
def test_write_curve_bytes_equal_the_per_row_repr_format(tmp_path, fourier):
    # the writer formats nodes.tolist() in one join; the file is the one
    # the per-row repr loop wrote, also for -0.0, subnormals and 1e300
    nodes = Curve.circle(16).nodes.copy()
    nodes[1] = (-0.0, 5e-324)
    nodes[2] = (1e300, -2.5e-310)
    curve = Curve.from_nodes(nodes)
    lines = [f"peskin-curve v1 N={curve.n}\n"]
    for x, y in curve.nodes:
        lines.append(f"{float(x)!r} {float(y)!r}\n")
    if fourier:
        ks = wavenumbers(curve.n)
        for i in np.argsort(ks):
            c = curve.coeffs[i]
            lines.append(f"{int(ks[i])} {float(c[0].real)!r} {float(c[0].imag)!r} "
                         f"{float(c[1].real)!r} {float(c[1].imag)!r}\n")
    path = tmp_path / "c.curve"
    write_curve(curve, path, fourier=fourier)
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
    moved = c.with_mean([5.0, -2.0])
    assert np.allclose(moved.mean, [5.0, -2.0], atol=1e-13)
    assert np.max(np.abs((moved.nodes - c.nodes) - (np.array([5.0, -2.0]) - mean))) < 1e-12


# --- spectral primitives: one implementation each ---------------------------------


@pytest.mark.parametrize("shape", [(33,), (34,), (64,), (33, 2), (34, 2), (64, 2)])
def test_parseval_norm_matches_physical_quadrature(rng, shape):
    f = rng.standard_normal(shape)  # white noise: every mode, Nyquist included
    sq = f**2 if f.ndim == 1 else np.sum(f**2, axis=-1)
    quadrature = np.sqrt(2.0 * np.pi * np.mean(sq))
    assert abs(parseval_norm(power_spectrum(f)) - quadrature) <= 1e-14 * quadrature


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
