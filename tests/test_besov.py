import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from peskin_lab.besov import (
    BesovParams,
    MuWeight,
    _diff_quadrature,
    besov_diff,
    besov_lp,
    cl_norm,
    construct_mu,
    fold_power,
    folded_gain,
    sqrt_weight,
)
from peskin_lab.curve import (fft_coeffs, grid_values, half_offset_frame,
                              lp_norm, magnitude, parseval_norm,
                              power_spectrum, shift_many, theta_grid,
                              wavenumbers)
from peskin_lab.evolution import SimConfig, make_initial_curve
from peskin_lab.operators import half_offset_grid, symbol
from conftest import grid_lp, mu_admissible, random_trig_field


def unit_mode_field(n, k=1):
    th = theta_grid(n)
    return np.stack([np.cos(k * th), np.sin(k * th)], axis=1)


# --- difference form ---------------------------------------------------------

def test_besov_diff_zero():
    assert besov_diff(np.zeros((32, 2)), BesovParams(0.5, 2, 1)) == 0.0


def test_besov_diff_single_mode_oracle():
    # ||delta_b e^{i t}||_{L^2} = 2 sqrt(2 pi) |sin(b/2)|; adaptive quadrature
    # of the beta integral gives the reference value
    f = unit_mode_field(64)
    val, _ = quad(lambda b: b**-1.5 * np.sin(b / 2.0), 0, np.pi, limit=400)
    oracle = np.sqrt(2.0 * np.pi) * 4.0 * val
    mine = besov_diff(f, BesovParams(0.5, 2, 1), beta_points=8192)
    # uniform half-offset quadrature of the |b|^(-1/2)-type integrand
    # converges at O(M^-1/2); 8192 points give ~0.5 percent
    assert abs(mine - oracle) / oracle < 0.01


def test_besov_diff_sup_form_oracle():
    f = unit_mode_field(64)
    bs = np.linspace(1e-6, np.pi, 200001)
    oracle = np.max(2.0 * np.sqrt(2.0 * np.pi) * np.abs(np.sin(bs / 2.0))
                    / np.sqrt(bs))
    mine = besov_diff(f, BesovParams(0.5, 2, np.inf), beta_points=8192)
    assert abs(mine - oracle) / oracle < 1e-3


def test_besov_diff_p_infinity_oracle():
    f = unit_mode_field(64)
    val, _ = quad(lambda b: b**-1.5 * 2.0 * np.sin(b / 2.0), 0, np.pi, limit=400)
    mine = besov_diff(f, BesovParams(0.5, np.inf, 1), beta_points=8192)
    assert abs(mine - 2.0 * val) / (2.0 * val) < 0.01


def test_besov_diff_translation_invariance(rng):
    f = random_trig_field(rng, 64, 12)
    g = shift_many(f, [0.83])[0]
    a = besov_diff(f, BesovParams(0.5, 2, 1), beta_points=512)
    b = besov_diff(g, BesovParams(0.5, 2, 1), beta_points=512)
    assert abs(a - b) < 1e-12 * max(1.0, a)


def test_besov_diff_homogeneous(rng):
    f = random_trig_field(rng, 64, 12)
    a = besov_diff(f, BesovParams(0.5, 2, 2), beta_points=512)
    b = besov_diff(-2.5 * f, BesovParams(0.5, 2, 2), beta_points=512)
    assert abs(b - 2.5 * a) < 1e-12 * max(1.0, a)


@pytest.mark.parametrize("n", [33, 34, 64, 512])
def test_besov_diff_p2_matches_shift_oracle(n, rng):
    # white noise: on even grids the Nyquist mode is non-zero
    beta_points = 512
    betas = half_offset_grid(beta_points)
    ab = np.abs(betas)
    mu = MuWeight.log4()
    for f in (rng.standard_normal(n), rng.standard_normal((n, 2))):
        shifted = shift_many(f, betas)
        norms = np.array([grid_lp(g - f, 2.0) for g in shifted])
        oracle = 2.0 * np.pi / beta_points * np.sum(mu(1.0 / ab) * norms / ab**1.5)
        got = besov_diff(f, BesovParams(0.5, 2, 1, mu), beta_points=beta_points)
        assert abs(got - oracle) <= 1e-12 * oracle


@pytest.mark.parametrize("n, beta_points",
                         [(128, 256), (128, 2048), (64, 100), (32, 16),
                          (128, 1000), (48, 7)])
def test_besov_diff_frame_matches_shift_oracle(n, beta_points, rng):
    # the frame off p = 2 is sampled once on a 2 lcm(n, M) grid: odd M,
    # M < n and M not a multiple of n included; white noise, so the Nyquist
    # mode is non-zero
    betas = half_offset_grid(beta_points)
    ab = np.abs(betas)
    for f in (rng.standard_normal(n), rng.standard_normal((n, 2))):
        shifted = shift_many(f, betas)
        frame = half_offset_frame(f, beta_points)
        assert frame.shape == shifted.shape
        assert np.max(np.abs(frame - shifted)) <= 1e-13 * np.max(np.abs(shifted))
        if beta_points % 2:
            continue  # an odd half-offset grid holds beta = 0
        for p in (1.0, 4.0, np.inf):
            norms = np.array([grid_lp(g - f, p) for g in shifted])
            oracle = 2.0 * np.pi / beta_points * np.sum(norms / ab**1.5)
            got = besov_diff(f, BesovParams(0.5, p, 1), beta_points=beta_points)
            assert abs(got - oracle) <= 1e-13 * oracle


@pytest.mark.parametrize("n, beta_points", [(128, 256), (34, 100), (64, 16)])
def test_besov_diff_off_p2_is_the_real_layout_formula(n, beta_points, rng):
    # the complex x + iy frame forms the same differences and the same
    # hypot as the (beta, theta, 2) frame, bit for bit
    betas = half_offset_grid(beta_points)
    for f in (rng.standard_normal(n), rng.standard_normal((n, 2))):
        diffs = half_offset_frame(f, beta_points) - f[None]
        for p in (1.0, 4.0, np.inf):
            params = BesovParams(0.5, p, 1, MuWeight.log4())
            norms = lp_norm(magnitude(diffs, f.ndim == 2), p)
            assert besov_diff(f, params, beta_points) == \
                _diff_quadrature(norms, betas, params)


def test_beta_gain_has_no_cancellation_at_small_beta():
    # 2(1 - cos(beta k)) is ~3e-10 relative off at the smallest of 8192 betas
    n = 64
    betas = half_offset_grid(8192)
    f = np.cos(theta_grid(n))
    got = np.sqrt(folded_gain(8192, n) @ fold_power(power_spectrum(f)))
    exact = np.abs(2.0 * np.sin(betas / 2.0)) * np.sqrt(np.mean(f**2))
    assert np.max(np.abs(got - exact) / exact) < 1e-14


def _direct_gain(betas, n):
    # the full-width gain 4 sin^2(beta k / 2), Nyquist column 4 sin^4(beta n / 4)
    k = wavenumbers(n).astype(float)
    direct = 4.0 * np.sin(np.multiply.outer(betas, k / 2.0)) ** 2
    if n % 2 == 0:
        direct[:, n // 2] = 4.0 * np.sin(betas * (n / 4)) ** 4
    return direct


@pytest.mark.parametrize("n", [17, 33, 34, 64, 512])
def test_beta_gain_matches_direct_form(n):
    direct = _direct_gain(half_offset_grid(1000), n)
    gain = folded_gain(1000, n)
    assert gain.shape == (1000, n // 2 + 1)
    assert np.max(np.abs(gain - direct[:, :n // 2 + 1])) <= 1e-14 * np.max(direct)


def test_folded_gain_memory_is_the_gain():
    # the gain is built in place: a product or a power of its size as a
    # temporary peaked near three times its bytes
    folded_gain.cache_clear()
    tracemalloc.start()
    try:
        gain = folded_gain(2048, 128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * gain.nbytes


@pytest.mark.parametrize("n", [17, 34, 64])
def test_folded_gain_is_the_cached_distinct_columns_of_beta_gain(n, rng):
    # one read-only array per (beta_points, n): the k >= 0 columns (and the
    # Nyquist one) of the full-width gain, against which the folded power
    # gives the full product
    gain = folded_gain(200, n)
    full = _direct_gain(half_offset_grid(200), n)
    assert folded_gain(200, n) is gain
    assert not gain.flags.writeable
    assert np.max(np.abs(gain - full[:, :n // 2 + 1])) <= 1e-14 * np.max(full)
    power = rng.uniform(0.0, 1.0, (3, n))
    folded = fold_power(power)
    assert folded.shape == (3, n // 2 + 1)
    assert np.isclose(folded.sum(), power.sum(), rtol=1e-14)
    want = full @ power.T
    assert np.max(np.abs(gain @ folded.T - want)) <= 1e-14 * np.max(want)


@pytest.mark.parametrize("p", [2.0, np.inf])
@pytest.mark.parametrize("r", [1.0, np.inf])
def test_besov_diff_scalar_field_matches_zero_padded_vector(p, r):
    f = np.cos(3.0 * theta_grid(64))
    padded = np.stack([f, np.zeros_like(f)], axis=1)
    params = BesovParams(0.5, p, r)
    scalar, vector = besov_diff(f, params), besov_diff(padded, params)
    assert abs(scalar - vector) <= 1e-13 * vector


def test_besov_diff_rejects_bad_s():
    with pytest.raises(ValueError):
        besov_diff(np.zeros((32, 2)), BesovParams(1.5, 2, 1))


@pytest.mark.parametrize("p", [2.0, np.inf])
def test_besov_diff_rejects_odd_beta_points(p):
    # an odd half-offset grid has a node at beta = 0, where the weight
    # |beta|^(-1-s) is infinite; the count is checked before any gain is built
    f = unit_mode_field(32)
    cached = folded_gain.cache_info().currsize
    with pytest.raises(ValueError, match="513"):
        besov_diff(f, BesovParams(0.5, p, 1), beta_points=513)
    assert folded_gain.cache_info().currsize == cached


@pytest.mark.parametrize("beta_points", [0, -2])
def test_besov_diff_rejects_beta_points_below_2(beta_points):
    # a grid of fewer than 2 nodes has no quadrature: 0 divided by zero
    with pytest.raises(ValueError, match="at least 2"):
        besov_diff(unit_mode_field(32), BesovParams(0.5, 2, 1),
                   beta_points=beta_points)


# --- block form ---------------------------------------------------------------

def test_besov_lp_single_block_mode():
    # k = 11 sits in the interior of the j = 3 annulus where the block
    # multiplier is exactly 1
    n = 128
    f = unit_mode_field(n, k=11)
    for s, p in ((0.5, 2.0), (0.25, 4.0), (0.5, np.inf)):
        expected = 2.0 ** (3 * s) * ((2.0 * np.pi) ** (1.0 / p) if np.isfinite(p) else 1.0)
        got = besov_lp(f, BesovParams(s, p, 1))
        assert abs(got - expected) < 1e-10 * max(1.0, expected)
    mu = MuWeight.log4()
    got = besov_lp(f, BesovParams(0.5, 2, 1, mu))
    assert abs(got - 2.0**1.5 * mu(8.0) * np.sqrt(2.0 * np.pi)) < 1e-10


# Frozen calibration brackets (50 random fields, N = 128..256, decays
# 0.8..2.5): diff/lp ratio observed in [3.2, 6.8]; the block H^{1/2} norm
# against the Fourier sum observed in [0.58, 0.74].
DIFF_LP_BRACKET = (2.5, 9.0)
BLOCK_FOURIER_BRACKET = (0.5, 0.85)


def test_besov_lp_vs_fourier_sum(rng):
    n = 256
    for _ in range(15):
        f = random_trig_field(rng, n, 64, decay=rng.uniform(0.8, 2.5))
        block = besov_lp(f, BesovParams(0.5, 2, 2))
        c = fft_coeffs(f)
        k = np.abs(wavenumbers(n))
        fourier = np.sqrt(2.0 * np.pi * np.sum(k * np.sum(np.abs(c) ** 2, -1)))
        assert BLOCK_FOURIER_BRACKET[0] <= block / fourier <= BLOCK_FOURIER_BRACKET[1]


def test_diff_lp_equivalence_bracket(rng):
    for _ in range(50):
        n = int(rng.choice([128, 256]))
        f = random_trig_field(rng, n, n // 4, decay=rng.uniform(0.8, 2.5))
        for r in (1.0, 2.0):
            d = besov_diff(f, BesovParams(0.5, 2, r), beta_points=1024)
            l = besov_lp(f, BesovParams(0.5, 2, r))
            assert DIFF_LP_BRACKET[0] <= d / l <= DIFF_LP_BRACKET[1]


# --- time norms -----------------------------------------------------------------

def test_cl_norm_constant_trajectory(rng):
    mu = MuWeight.log4()
    times = np.linspace(0, 1, 5)
    # white noise carries a non-zero Nyquist mode; (0.3; 2, 2) checks that
    # s and r are read from the parameters
    fields = (random_trig_field(rng, 64, 10), rng.standard_normal((64, 2)))
    for f in fields:
        snaps = [f] * 5
        for params in (BesovParams(0.5, 2, 1, mu), BesovParams(0.3, 2, 2)):
            b = cl_norm(times, snaps, params, kind="B", beta_points=1024)
            single = besov_diff(f, params, beta_points=1024)
            assert abs(b - single) < 1e-12 * max(1.0, single)


def test_cl_norm_zero_trajectory():
    snaps = [np.zeros((32, 2))] * 4
    assert cl_norm([0, 1, 2, 3], snaps, BesovParams(0.5, 2, 1), "D") == 0.0


def test_cl_norm_decaying_mode_oracle():
    # f(t) = e^-t e^{i theta}: separable, so the time integral and the
    # beta integral factor into closed forms
    n = 64
    base = unit_mode_field(n)
    times = np.linspace(0, 1, 2001)
    snaps = [np.exp(-t) * base for t in times]
    mu = MuWeight.log4()
    m = 8 * n  # the default dissipation is symbol(n, 8n).lam_tilde
    got = cl_norm(times, snaps, BesovParams(0.5, 2, 1, mu), "D",
                  beta_points=4096)
    lam1 = symbol(n, m).lam_tilde[1]
    time_factor = np.sqrt(np.trapezoid(np.exp(-2.0 * times), times))
    # matched discrete beta-sum closed form: validates the wiring exactly

    betas = half_offset_grid(4096)
    ab = np.abs(betas)
    disc = (2.0 * np.pi / 4096) * np.sum(
        mu(1.0 / ab) * 2.0 * np.abs(np.sin(betas / 2.0)) / ab**1.5)
    matched = time_factor * np.sqrt(2.0 * np.pi * lam1) * disc
    assert abs(got - matched) / matched < 1e-10
    # continuum closed form by adaptive quadrature: validates convergence
    # at the method's O(M^-1/2) rate (weighted tail)
    exact_time = np.sqrt((1.0 - np.exp(-2.0)) / 2.0)
    val, _ = quad(lambda b: mu(1.0 / b) * 2.0 * np.sin(b / 2.0) * b**-1.5,
                  0, np.pi, limit=400)
    oracle = exact_time * np.sqrt(2.0 * np.pi * lam1) * 2.0 * val
    assert abs(got - oracle) / oracle < 0.06


@pytest.mark.parametrize("shape", [(64,), (64, 2)])
def test_cl_norm_batched_stack_equals_per_snapshot_loop(shape, rng):
    # one FFT of the stacked snapshots gives each snapshot's power spectrum
    # bit for bit, so B and D are the per-snapshot loop's
    beta_points = 512
    times = np.linspace(0.0, 1.0, 5)
    snaps = [rng.standard_normal(shape) for _ in times]
    params = BesovParams(0.5, 2, 1, MuWeight.log4())
    k = np.abs(wavenumbers(64)).astype(float)
    folded = fold_power(np.stack([power_spectrum(f) for f in snaps])).T
    betas = half_offset_grid(beta_points)
    g = folded_gain(beta_points, 64) @ folded
    b = _diff_quadrature(np.sqrt(2.0 * np.pi * g.max(axis=1)), betas, params)
    g = (folded_gain(beta_points, 64) * k[:33]) @ folded
    d = _diff_quadrature(np.sqrt(2.0 * np.pi * np.trapezoid(g, times, axis=1)),
                         betas, params)
    assert cl_norm(times, snaps, params, "B", beta_points) == b
    assert cl_norm(times, snaps, params, "D", beta_points, dissipation=k) == d


@pytest.mark.parametrize("n", [32, 64, 128, 256])
@pytest.mark.parametrize("components", [(), (2,)])
def test_cl_norm_time_major_table_equals_beta_major_formula(n, components, rng):
    # the (beta, t) table with the dissipation in the gain, reduced along
    # axis 1: "B" is it bit for bit, "D" (weights on the power) to 1e-15
    params = BesovParams(0.5, 2, 1, MuWeight.log4())
    k = np.abs(wavenumbers(n)).astype(float)
    for t in (1, 2, 7, 21, 40):
        times = np.linspace(0.0, 2.0, t) if t > 1 else np.zeros(1)
        snaps = [rng.standard_normal((n,) + components) for _ in range(t)]
        folded = fold_power(np.stack([power_spectrum(f) for f in snaps])).T
        for beta_points in (256, 1024, 2048):
            gain, betas = folded_gain(beta_points, n), half_offset_grid(beta_points)
            b = _diff_quadrature(np.sqrt(2.0 * np.pi * (gain @ folded).max(axis=1)),
                                 betas, params)
            g = (gain * k[:n // 2 + 1]) @ folded
            d = _diff_quadrature(np.sqrt(2.0 * np.pi * np.trapezoid(g, times, axis=1)),
                                 betas, params)
            assert cl_norm(times, snaps, params, "B", beta_points) == b
            got = cl_norm(times, snaps, params, "D", beta_points, dissipation=k)
            assert abs(got - d) <= 1e-15 * d


@pytest.mark.parametrize("kind", ["B", "D"])
@pytest.mark.parametrize("times", [[0.0, 2.0, 1.0], [0.0, 1.0, 1.0],
                                   [0.0, np.nan, 2.0], [0.0, 1.0, np.inf]])
def test_cl_norm_rejects_times_not_finite_and_increasing(kind, times, monkeypatch):
    # refused before any transform, with the times in the message
    def no_transform(values):
        raise AssertionError("transformed before the times were checked")

    monkeypatch.setattr("peskin_lab.besov.fft_coeffs", no_transform)
    snaps = [unit_mode_field(32)] * 3
    with pytest.raises(ValueError, match="strictly increasing") as err:
        cl_norm(times, snaps, BesovParams(0.5, 2, 1), kind)
    assert str(list(map(float, times))) in str(err.value)


def test_cl_norm_takes_nonuniform_times(rng):
    # the trapezoid over any increasing grid: a snapshot held over [0, 3]
    # by outputs at 0, 0.5 and 3 has the "D" norm of two outputs 3 apart
    f = rng.standard_normal((32, 2))
    params = BesovParams(0.5, 2, 1)
    d = cl_norm([0.0, 0.5, 3.0], [f, f, f], params, "D", beta_points=512)
    want = cl_norm([0.0, 3.0], [f, f], params, "D", beta_points=512)
    assert abs(d - want) <= 1e-14 * want


def test_cl_norm_rejects_snapshots_of_different_shapes():
    snaps = [unit_mode_field(32), unit_mode_field(64)]
    with pytest.raises(ValueError, match=r"\(32, 2\), \(64, 2\)"):
        cl_norm([0, 1], snaps, BesovParams(0.5, 2, 1), "B")
    with pytest.raises(ValueError, match=r"\(32,\), \(32, 2\)"):
        cl_norm([0, 1], [unit_mode_field(32), unit_mode_field(32)[:, 0]],
                BesovParams(0.5, 2, 1), "D")


def test_cl_norm_empty_rejected():
    with pytest.raises(ValueError):
        cl_norm([], [], BesovParams(0.5, 2, 1), "B")


def test_cl_norm_rejects_p_other_than_2():
    snaps = [unit_mode_field(32)] * 2
    with pytest.raises(ValueError):
        cl_norm([0, 1], snaps, BesovParams(0.5, 4, 1), "B")


@pytest.mark.parametrize("kind", ["B", "D"])
def test_cl_norm_rejects_odd_beta_points(kind):
    snaps = [unit_mode_field(32)] * 2
    cached = folded_gain.cache_info().currsize
    with pytest.raises(ValueError, match="513"):
        cl_norm([0, 1], snaps, BesovParams(0.5, 2, 1), kind, beta_points=513)
    assert folded_gain.cache_info().currsize == cached


def test_cl_norm_dissipation_weights_the_power(rng):
    # a constant trajectory's D norm is its duration^(1/2) times the B norm
    # of the field filtered by dissipation^(1/2)
    n = 64
    f = random_trig_field(rng, n, 10)
    k = np.abs(wavenumbers(n)).astype(float)
    filtered = grid_values(fft_coeffs(f) * np.sqrt(k)[:, None])
    params = BesovParams(0.5, 2, 1)
    d = cl_norm([0, 2], [f, f], params, "D", beta_points=512, dissipation=k)
    b = cl_norm([0, 2], [filtered, filtered], params, "B", beta_points=512)
    assert abs(d - np.sqrt(2.0) * b) < 1e-12 * b


def test_cl_norm_dominates_snapshot_norms(rng):
    # sup-in-time inside the beta integral dominates every snapshot norm
    mu = MuWeight.log4()
    times = np.linspace(0, 1, 6)
    snaps = [np.exp(-0.5 * t) * random_trig_field(rng, 64, 10) for t in times]
    total = cl_norm(times, snaps, BesovParams(0.5, 2, 1, mu), "B",
                    beta_points=512)
    for snap in snaps:
        single = besov_diff(snap, BesovParams(0.5, 2, 1, mu), beta_points=512)
        assert single <= total + 1e-12


# --- weights ---------------------------------------------------------------------

def test_log_weight_admissible():
    assert mu_admissible(MuWeight.log4(), c0=2.0)
    # explicit doubling margin: log(4+2r)/log(4+r) <= 1 + log2/log4 < 2
    rs = np.logspace(0, 8, 200)
    mu = MuWeight.log4()
    assert np.all(mu(2 * rs) / mu(rs) <= 1.0 + np.log(2) / np.log(4) + 1e-9)


def test_construct_mu_admissible(rng):
    f = random_trig_field(rng, 128, 40, decay=1.4)
    mu = construct_mu(f)
    assert mu_admissible(mu, c0=2.0)


@pytest.mark.parametrize("mode", [5, 6, 7])
def test_construct_mu_is_non_decreasing_on_perturbed_circles(mode):
    # the log-ratio step once left one-ulp dips (-1.1e-16) in these tables
    cfg = SimConfig(n=128, m=512, init_perturb_mode=mode, init_perturb_amp=0.05)
    table = construct_mu(make_initial_curve(cfg).derivative().nodes).table
    assert np.all(np.diff(table) >= 0.0)


def test_mu_weight_rejects_a_decreasing_table():
    # a decreasing table once gave norms --mu file: a value and exit 0
    with pytest.raises(ValueError, match=r"non-decreasing, entry 1 \(1.0\) is "
                                         r"below entry 0 \(50.0\)"):
        MuWeight(table=np.array([50.0, 1.0]))
    with pytest.raises(ValueError, match="entry 3"):
        MuWeight(table=np.array([1.0, 2.0, 2.0, 1.5]))
    assert MuWeight(table=np.array([1.0, 1.0, 2.0]))(0.5) == 1.0  # flat steps pass


def test_construct_mu_band_limited_log_branch():
    # spectrum empty beyond the band, so the tail branch caps at
    # log(4+2^j); a small amplitude keeps the early tail sums below the
    # cap so the log-ratio enforcement never trims the capped branch
    f = 0.05 * unit_mode_field(64, k=2)
    mu = construct_mu(f)
    for j in (10, 12, 14):
        assert abs(mu.table[j] - np.log(4.0 + 2.0**j)) < 1e-9
    # larger amplitudes dip below the cap early on but stay admissible
    mu_big = construct_mu(5.0 * unit_mode_field(64, k=2))
    assert mu_admissible(mu_big)
    assert mu_big.table[14] <= np.log(4.0 + 2.0**14) + 1e-12


def test_construct_mu_keeps_weighted_norm_finite(rng):
    n = 256
    c = np.zeros((n, 2), dtype=complex)
    for k in range(1, n // 2):
        c[k] = k**-1.4 * np.exp(2j * np.pi * rng.random(2))
        c[n - k] = np.conj(c[k])
    f = grid_values(c)
    mu = construct_mu(f)
    base = besov_diff(f, BesovParams(0.5, 2, 1), beta_points=1024)
    weighted = besov_diff(f, BesovParams(0.5, 2, 1, mu), beta_points=1024)
    assert np.isfinite(weighted)
    assert weighted < 20.0 * base  # slowly varying weight, no blow-up


def test_nu_weight_relations(rng):
    f = random_trig_field(rng, 64, 15)
    mu = MuWeight.log4()
    big_m = 3.0
    c3 = 2.0
    # the equivalent weight nu = 1 + mu / (c3 max(1, M)), c3 >= 1
    scale = c3 * max(1.0, big_m)
    nu = MuWeight(table=1.0 + mu.table / scale, fn=lambda r: 1.0 + mu(r) / scale)
    assert mu_admissible(nu)
    a_mu = besov_diff(f, BesovParams(0.5, 2, 1, mu), beta_points=512)
    a_nu = besov_diff(f, BesovParams(0.5, 2, 1, nu), beta_points=512)
    assert a_nu <= 2.0 * a_mu + 1e-12
    assert a_mu <= c3 * max(1.0, big_m) * a_nu + 1e-12


def test_sqrt_weight_admissible(rng):
    for base in (MuWeight.log4(), construct_mu(random_trig_field(rng, 128, 40))):
        w = sqrt_weight(base)
        assert mu_admissible(w, c0=2.0)


def test_mu_evaluation_interpolation():
    # a table-backed copy of the log weight, evaluated by interpolation
    js = np.arange(11)
    mu = MuWeight(table=np.log(4.0 + 2.0**js))
    assert abs(mu(8.0) - np.log(12.0)) < 1e-12
    assert mu(1.0) == mu(0.25)  # constant below r = 1
    assert mu(2.0**15) > mu(2.0**10)  # log-growth extension keeps increasing
    # interpolation overshoot of the log-ratio clause at the dyadic
    # midpoints stays small
    assert mu_admissible(mu, j_top=10)
    rs = 2.0 ** np.arange(0, 11, dtype=float)
    mids = 2.0 ** (np.arange(0, 10) + 0.5)
    ratio = mu(rs) / np.log(4.0 + rs)
    assert np.max(mu(mids) / np.log(4.0 + mids) - ratio[:-1]) < 0.01
    # closed-form weights evaluate exactly everywhere
    assert abs(MuWeight.log4()(0.25) - np.log(4.25)) < 1e-14


# --- embeddings -------------------------------------------------------------------

# Empirical constants frozen from a calibration sweep over random trig
# polynomials (seed 0, 50+ fields, N = 256, spectral decays 0.6..2.5);
# observed maxima 0.10 and 0.77.  Regression guards only.
EMB_LINF_CONST = 0.15
EMB_BLOCK_CONST = 1.00
INTERP_TOL = 1e-10


def embedding_ratios(fields, beta_points):
    """Worst case over fields of the sup-norm, lift-the-integrability and
    interpolation bounds: (||f||_inf / (1/2; 2, 1) difference norm, block
    norm (1/4; 4, 2) / (1/2; 2, 2), excess of the exact Fourier
    interpolation ||f||_{H^1/2}^2 - ||f||_2 ||f||_{H^1} over 2 pi, block
    interpolation at mixed exponents, exact with constant 1 by Hoelder on
    the dyadic sums).  A zero denominator leaves its ratio out."""
    r_linf = r_block = excess = r_interp = 0.0
    interp_cases = ((0.3, 0.25, 0.75, 2.0, 2.0), (0.5, 0.1, 0.9, 2.0, 1.0))
    for f in fields:
        linf = grid_lp(f, np.inf)
        b21 = besov_diff(f, BesovParams(0.5, 2, 1), beta_points=beta_points)
        if b21 > 0:
            r_linf = max(r_linf, linf / b21)
        lhs = besov_lp(f, BesovParams(0.25, 4, 2))
        rhs = besov_lp(f, BesovParams(0.5, 2, 2))
        if rhs > 0:
            r_block = max(r_block, lhs / rhs)
        pw = power_spectrum(f)
        k = np.abs(wavenumbers(f.shape[0])).astype(float)
        h_half = parseval_norm(pw, k)
        l2_h1 = parseval_norm(pw) * parseval_norm(pw, k**2)
        excess = max(excess, (h_half**2 - l2_h1) / (2.0 * np.pi))
        for theta, s1, s2, p, r in interp_cases:
            mid = besov_lp(f, BesovParams(theta * s1 + (1 - theta) * s2, p, r))
            ends = (besov_lp(f, BesovParams(s1, p, r)) ** theta
                    * besov_lp(f, BesovParams(s2, p, r)) ** (1 - theta))
            if ends > 0:
                r_interp = max(r_interp, mid / ends)
    return r_linf, r_block, excess, r_interp


def embeddings_hold(ratios):
    r_linf, r_block, excess, r_interp = ratios
    return (r_linf <= EMB_LINF_CONST and r_block <= EMB_BLOCK_CONST
            and excess <= INTERP_TOL and r_interp <= 1.0 + INTERP_TOL)


def test_embedding_single_mode():
    ratios = embedding_ratios([unit_mode_field(64)], beta_points=1024)
    assert embeddings_hold(ratios)
    assert ratios[0] < 0.15


def test_interpolation_exactness(rng):
    # H^{1/2} <= L2^{1/2} H1^{1/2} is Cauchy-Schwarz on the Fourier side
    fields = [random_trig_field(rng, 64, 20) for _ in range(10)]
    assert embedding_ratios(fields, beta_points=512)[2] <= 1e-10


def test_embedding_sweep(rng):
    fields = [random_trig_field(rng, 128, int(rng.integers(2, 60)),
                                decay=rng.uniform(0.6, 2.5))
              for _ in range(50)]
    assert embeddings_hold(embedding_ratios(fields, beta_points=1024))


def test_besov_lp_translation_invariance(rng):
    f = random_trig_field(rng, 64, 12)
    g = shift_many(f, [1.1])[0]
    a = besov_lp(f, BesovParams(0.5, 2, 1))
    b = besov_lp(g, BesovParams(0.5, 2, 1))
    assert abs(a - b) < 1e-11 * max(1.0, a)
