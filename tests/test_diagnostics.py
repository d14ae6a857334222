from dataclasses import replace

import numpy as np
import pytest

from peskin_lab.besov import MuWeight
from peskin_lab.curve import (Curve, coeff_power, parseval_norm, power_spectrum,
                              spectral_antiderivative, theta_grid, wavenumbers)
from peskin_lab.diagnostics import (
    APRIORI_C,
    _circle_distances,
    _h1_series,
    apriori_audit,
    chord_arc_lipschitz_audit,
    circle_distance,
    equilibrium_audit,
    smoothing_audit,
    stability_audit,
)
from peskin_lab.evolution import (SimConfig, Trajectory, law_from_config,
                                  make_initial_curve, simulate)
from peskin_lab.operators import half_offset_grid


@pytest.fixture(scope="module")
def perturbed_traj():
    cfg = SimConfig(n=64, m=256, dt=5e-3, horizon=1.0, scheme="imex",
                    init_perturb_mode=2, init_perturb_amp=0.05,
                    output_stride=20)
    return simulate(cfg)


@pytest.fixture(scope="module")
def equilibrium_traj():
    cfg = SimConfig(n=64, m=256, dt=5e-3, horizon=0.2, scheme="imex",
                    output_stride=10)
    return simulate(cfg)


# --- circle distance -----------------------------------------------------------

def _circle_distance_loop(c):
    """The one-snapshot circle distance of (n, 2) coefficients that the
    stacked pass replaced, kept as its reference."""
    c1 = c[1]
    mask = np.ones(len(c), dtype=bool)
    mask[1] = mask[len(c) - 1] = False
    off = float(np.sum(coeff_power(c)[mask]))
    best = np.inf
    for v in (np.array([0.5j, 0.5]), np.array([0.5j, -0.5])):
        z = np.vdot(v, c1) / np.vdot(v, v)
        d2 = 2.0 * np.pi * (2.0 * float(np.sum(np.abs(c1 - z * v) ** 2)) + off)
        best = min(best, d2)
    return float(np.sqrt(max(best, 0.0)))


@pytest.mark.parametrize("n, t", [(64, 1), (128, 21), (256, 40)])
def test_circle_distances_stacked_equal_per_snapshot(n, t, rng):
    coeffs = rng.standard_normal((t, n, 2)) + 1j * rng.standard_normal((t, n, 2))
    coeffs[:, 1] *= 1e3  # near circles as well as far ones
    coeffs[:, 1, 1] = 1j * coeffs[:, 1, 0] * rng.choice([1, -1], t)
    got = _circle_distances(coeffs)
    assert np.array_equal(got, [_circle_distance_loop(c) for c in coeffs])
    for c, d in zip(coeffs, got):
        assert circle_distance(Curve.from_coeffs(c)) == d


def test_stacked_audit_series_equal_per_snapshot(perturbed_traj):
    traj = perturbed_traj
    dists = [_circle_distance_loop(d.coeffs) for d in traj.derivs]
    assert equilibrium_audit(traj).measured["final_distance"] == dists[-1]
    assert np.array_equal(_circle_distances(np.stack([d.coeffs for d in traj.derivs])),
                          dists)
    k = np.abs(wavenumbers(traj.curves[0].n)).astype(float)
    assert np.array_equal(_h1_series(traj), [parseval_norm(coeff_power(d.coeffs), k**2)
                                             for d in traj.derivs])


def test_circle_distance_vanishes_for_circles():
    for radius, center, phase in ((1.0, (0, 0), 0.0), (2.5, (3, -1), 0.9)):
        th = theta_grid(64) + phase
        nodes = np.stack([center[0] + radius * np.cos(th),
                          center[1] + radius * np.sin(th)], axis=1)
        assert circle_distance(Curve.from_nodes(nodes).derivative()) < 1e-10


def test_circle_distance_reversed_orientation():
    th = theta_grid(64)
    nodes = np.stack([np.cos(-th), np.sin(-th)], axis=1)
    assert circle_distance(Curve.from_nodes(nodes).derivative()) < 1e-12


def test_circle_distance_measures_perturbation():
    th = theta_grid(64)
    deriv_extra = 0.1 * np.stack([np.cos(3 * th), -np.sin(3 * th)], axis=1)
    nodes = Curve.circle(64).nodes + spectral_antiderivative(deriv_extra)
    dist = circle_distance(Curve.from_nodes(nodes).derivative())
    expect = np.sqrt(2.0 * np.pi * np.mean(np.sum(deriv_extra**2, 1)))
    assert abs(dist - expect) < 1e-10


# --- audits ---------------------------------------------------------------------

def _truncated(traj, t_max):
    keep = np.asarray(traj.times) <= t_max
    upto = int(keep.sum())
    return Trajectory(times=traj.times[:upto], curves=traj.curves[:upto],
                      records=traj.records[:upto], scheme=traj.scheme)


def test_apriori_audit_passes(perturbed_traj, equilibrium_traj):
    # the energy inequality is a short-horizon statement; the calibrated
    # dissipation factor is frozen for horizons up to ~0.3
    mu = MuWeight.log4()
    for traj in (equilibrium_traj, _truncated(perturbed_traj, 0.3)):
        rep = apriori_audit(traj, mu, lam=1.0)
        assert rep.passed, rep.measured


def test_apriori_lhs_monotone_in_horizon(perturbed_traj):
    mu = MuWeight.log4()
    lhs_values = []
    for upto in range(2, len(perturbed_traj.times) + 1):
        sub = Trajectory(times=perturbed_traj.times[:upto],
                         curves=perturbed_traj.curves[:upto],
                         records=perturbed_traj.records[:upto],
                         scheme=perturbed_traj.scheme)
        lhs_values.append(apriori_audit(sub, mu, lam=1.0).measured["lhs"])
    assert all(b >= a - 1e-10 for a, b in zip(lhs_values, lhs_values[1:]))


def test_apriori_audit_needs_a_positive_output_time(perturbed_traj):
    # a one-output run once compared the initial norm with four times itself
    # and passed
    with pytest.raises(ValueError, match=r"positive time.* t = \[0.0\]"):
        apriori_audit(_truncated(perturbed_traj, 0.0), MuWeight.log4(), lam=1.0)


def test_apriori_audit_matches_two_gain_form(perturbed_traj):
    # the former form: one gain matrix for lhs and a second one inside
    # besov_diff for rhs, both from the direct sine formula
    mu, beta_points = MuWeight.log4(), 2048
    traj = _truncated(perturbed_traj, 0.3)
    powers = np.stack([power_spectrum(d.nodes) for d in traj.derivs])
    n = powers.shape[1]
    k = np.abs(wavenumbers(n)).astype(float)
    betas = half_offset_grid(beta_points)
    ab = np.abs(betas)
    gain = 4.0 * np.sin(np.multiply.outer(betas, k / 2.0)) ** 2
    gain[:, n // 2] = 4.0 * np.sin(betas * (n / 4)) ** 4
    sup_part = np.sqrt(2.0 * np.pi * (gain @ powers.T).max(axis=1))
    diss_sq = 2.0 * np.pi * np.trapezoid((gain * k) @ powers.T, traj.times, axis=1)
    h = 2.0 * np.pi / beta_points
    lhs = h * np.sum(mu(1.0 / ab) / ab**1.5
                     * (sup_part + APRIORI_C * np.sqrt(np.maximum(diss_sq, 0.0))))
    norms = np.sqrt(2.0 * np.pi * (gain @ powers[0]))
    rhs = 4.0 * h * np.sum(mu(1.0 / ab) * norms / ab**1.5)
    got = apriori_audit(traj, mu, lam=1.0).measured
    assert abs(got["lhs"] - lhs) <= 1e-12 * lhs
    assert abs(got["rhs"] - rhs) <= 1e-12 * rhs


def test_smoothing_audit_smooth_mode(perturbed_traj):
    rep = smoothing_audit(perturbed_traj, mode="smooth")
    assert rep.passed, rep.measured


def test_smoothing_audit_fit_machinery():
    # synthetic trajectory with exact H1 decay t^(-1/2): the fitter must
    # recover the slope
    n = 64
    th = theta_grid(n)
    times = np.linspace(0.01, 0.1, 31)
    curves = []
    for t in times:
        amp = 0.02 * t**-0.5
        deriv_extra = amp * np.stack([np.cos(5 * th), -np.sin(5 * th)], 1)
        base = Curve.circle(n).nodes * 1e-3  # tiny circle: floor negligible
        curves.append(Curve.from_nodes(base + spectral_antiderivative(deriv_extra)))
    traj = Trajectory(times=times, curves=tuple(curves),
                      records=tuple({} for _ in times), scheme="synthetic")
    rep = smoothing_audit(traj)  # the fit starts at the first output, t = 0.01
    assert rep.measured["fit_start"] == 0.01
    assert rep.thresholds["slope_range"] == (-0.65, -0.35)
    assert abs(rep.measured["slope"] + 0.5) < 0.02
    assert rep.passed


def test_smoothing_audit_needs_enough_points(perturbed_traj):
    # outputs every 0.1: the decade [0.1, 1] from the first output holds
    # only 0.1 .. 0.5
    with pytest.raises(ValueError, match="fewer than 6 outputs"):
        smoothing_audit(_truncated(perturbed_traj, 0.55))


def test_smoothing_audit_needs_a_positive_output_time(perturbed_traj):
    # a zero-horizon run once ended in an IndexError traceback
    with pytest.raises(ValueError, match=r"positive time.* t = \[0.0\]"):
        smoothing_audit(_truncated(perturbed_traj, 0.0))


def test_smooth_smoothing_audit_needs_a_positive_output_time(perturbed_traj):
    # h1_max once equalled h1_initial on a one-output run, and the audit passed
    with pytest.raises(ValueError, match=r"positive time.* t = \[0.0\]"):
        smoothing_audit(_truncated(perturbed_traj, 0.0), mode="smooth")


def _symbol_decay_trajectory(n, sigma, amp, base_radius, seed=9,
                             t0=0.02, t1=0.2):
    # tangent spectrum |k|^-sigma decayed mode-by-mode under the cached
    # half-Laplacian symbol, riding on a circle of the given radius
    from peskin_lab.curve import grid_values
    from peskin_lab.operators import symbol

    rng = np.random.default_rng(seed)
    c0 = np.zeros((n, 2), dtype=complex)
    for k in range(2, n // 2):
        c0[k] = k**-sigma * np.exp(2j * np.pi * rng.random(2))
        c0[n - k] = np.conj(c0[k])
    c0 *= amp / np.sqrt(np.sum(np.abs(c0) ** 2))  # ||pert'|| = amp ||circle'||
    lam = symbol(n, 4 * n).lam_tilde
    times = np.geomspace(t0, t1, 25)
    curves = []
    base = Curve.circle(n, radius=base_radius).nodes
    for t in times:
        deriv = grid_values(c0 * np.exp(-lam * t)[:, None])
        curves.append(Curve.from_nodes(base + spectral_antiderivative(deriv)))
    return Trajectory(times=times, curves=tuple(curves),
                      records=tuple({} for _ in times), scheme="synthetic")


def test_h1_decay_rate_attained_at_critical_spectrum():
    # |k|^-1 tangent envelope with a negligible equilibrium floor: the
    # half-power blow-up rate is genuinely attained and the audit passes
    traj = _symbol_decay_trajectory(512, sigma=1.0, amp=1.0, base_radius=1e-6)
    rep = smoothing_audit(traj)  # the fit starts at the first output, t0
    assert abs(rep.measured["slope"] + 0.5) < 0.12
    assert rep.passed


def test_h1_decay_rate_blocked_by_equilibrium_floor():
    # the |k|^-1.4 envelope at an embedding-safe amplitude rides on a
    # unit circle whose constant tangent H1 content flattens the fitted
    # slope far above the audit range; this is why the rough-data
    # acceptance criterion cannot pass as stated
    traj = _symbol_decay_trajectory(512, sigma=1.4, amp=0.3 * np.sqrt(2 * np.pi),
                                    base_radius=1.0)
    rep = smoothing_audit(traj)
    assert -0.25 < rep.measured["slope"] < -0.05
    assert not rep.passed


def test_stability_identical_data_zero_ratio():
    cfg = SimConfig(n=32, m=128, dt=5e-3, horizon=0.05, output_stride=5)
    x0 = Curve.circle(32)
    rep = stability_audit(x0, cfg, y0=x0)
    for key in ("ratios", "ratios_after_start", "final_ratios"):
        assert rep.measured[key]["given"] == 0.0
    assert rep.passed


def test_stability_decaying_difference_shows_after_start():
    # the sup over all outputs includes t = 0, where the distance is d0, so
    # a decaying difference reads exactly 1 there and below 1 after the start
    cfg = SimConfig(n=32, m=128, dt=5e-3, horizon=0.2, output_stride=5)
    x0 = Curve.circle(32)
    y0 = make_initial_curve(SimConfig(n=32, init_perturb_mode=3,
                                      init_perturb_amp=0.05))
    rep = stability_audit(x0, cfg, y0=y0)
    m = rep.measured
    assert m["ratios"]["given"] == 1.0
    assert 0.0 < m["final_ratios"]["given"] <= m["ratios_after_start"]["given"] < 1.0
    assert rep.passed


def test_stability_sweep_near_circle():
    cfg = SimConfig(n=64, m=256, dt=2e-3, horizon=0.1, output_stride=5,
                    init_perturb_mode=3, init_perturb_amp=0.05)
    x0 = make_initial_curve(cfg)
    rep = stability_audit(x0, cfg)
    assert rep.passed, rep.measured
    vals = list(rep.measured["ratios"].values())
    assert max(vals) / min(vals) <= 2.0


def test_stability_rotated_data_constant_difference():
    # rotating the initial data rotates the whole flow, so the difference
    # norm stays constant in time
    cfg = SimConfig(n=64, m=256, dt=2e-3, horizon=0.1, output_stride=5,
                    init_perturb_mode=3, init_perturb_amp=0.05)
    x0 = make_initial_curve(cfg)
    phi = 0.02
    q = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    y0 = Curve.from_nodes(x0.nodes @ q.T)
    rep = stability_audit(x0, cfg, y0=y0, omega=MuWeight.log4())
    ratio = rep.measured["ratios"]["given"]
    assert abs(ratio - 1.0) < 0.05
    assert "omega_weighted" in rep.measured


def test_stability_audit_refuses_a_zero_horizon(monkeypatch):
    # every ratio once read exactly 1.0 and the audit passed, with no time
    # for a perturbation to grow in; the refusal comes before any run
    from peskin_lab import diagnostics

    runs = []
    monkeypatch.setattr(diagnostics, "simulate", lambda *a, **kw: runs.append(a))
    cfg = SimConfig(n=32, m=128, dt=5e-3, horizon=0.0)
    with pytest.raises(ValueError, match=r"positive time.* t = \[0.0\]"):
        stability_audit(Curve.circle(32), cfg)
    assert runs == []


def test_equilibrium_audit_stationary(equilibrium_traj):
    rep = equilibrium_audit(equilibrium_traj)
    assert rep.name == "equilibrium[stationary]"
    assert rep.passed, rep.measured


def test_equilibrium_audit_perturbed(perturbed_traj):
    rep = equilibrium_audit(perturbed_traj)
    assert rep.name == "equilibrium[perturbed]"
    assert rep.passed
    assert rep.measured["rate"] > 0


@pytest.mark.parametrize("t_max, held", [(0.0, "1 of 1"), (0.15, "1 of 2")])
def test_equilibrium_audit_needs_two_tail_outputs(perturbed_traj, t_max, held):
    # outputs every 0.1: the tail half of (0, 0.1) is one point, through
    # which a line once fitted a rate and passed
    with pytest.raises(ValueError, match=f"at least two outputs.*holds {held}"):
        equilibrium_audit(_truncated(perturbed_traj, t_max))
    rep = equilibrium_audit(_truncated(perturbed_traj, 0.25))  # tail (0.1, 0.2)
    assert rep.name == "equilibrium[perturbed]"


def test_equilibrium_audit_stationary_needs_no_tail(equilibrium_traj):
    rep = equilibrium_audit(_truncated(equilibrium_traj, 0.0))
    assert rep.name == "equilibrium[stationary]"
    assert rep.passed


def test_equilibrium_audit_power_law():
    cfg = SimConfig(n=64, m=256, dt=5e-3, horizon=1.0, scheme="imex",
                    init_perturb_mode=2, init_perturb_amp=0.05,
                    output_stride=20, tension_kind="power", tension_p=2.0,
                    tension_window=(0.5, 2.0))
    rep = equilibrium_audit(simulate(cfg))
    assert rep.passed
    assert rep.measured["rate"] > 0


def test_audits_follow_the_scaling_of_a_p2_power_law():
    # T(r) = r^2 maps the run from 2 X0 on the window 2 [a, b] to 2 X(2 t),
    # bit for bit: so the apriori audit's lhs and rhs both double (lam
    # doubles and the dissipation integral runs over half the time), the
    # equilibrium rate doubles and the arc-chord number |chord| / |alpha|
    # doubles.  The rate's log-linear fit rounds, to 1e-12 relative.  The
    # chord-arc Lipschitz excess and its slack, scaled by mean |X'(0)|, both
    # double, so the verdict holds.  The stability audit's base norm, each
    # perturbation and each run double, so its ratios do not move
    cfg = SimConfig(n=64, m=256, dt=4e-3, horizon=0.4, init_perturb_mode=3,
                    init_perturb_amp=0.05, tension_kind="power", tension_p=2.0,
                    tension_window=(0.5, 2.0), tension_globalize=True,
                    output_stride=10)
    scaled = replace(cfg, init_radius=2.0, tension_window=(1.0, 4.0),
                     dt=cfg.dt / 2, horizon=cfg.horizon / 2)
    audits = []
    for c in (cfg, scaled):
        traj = simulate(c)
        apriori = apriori_audit(traj, MuWeight.log4(), law_from_config(c).lam)
        equilibrium = equilibrium_audit(traj)
        assert equilibrium.name == "equilibrium[perturbed]"
        audits.append((traj, apriori.measured, equilibrium.measured["rate"],
                       chord_arc_lipschitz_audit(traj),
                       stability_audit(make_initial_curve(c), c).measured))
    (traj, apriori, rate, lip, stab), (traj2, apriori2, rate2, lip2, stab2) = audits
    assert apriori2["lhs"] / apriori2["rhs"] == apriori["lhs"] / apriori["rhs"]
    assert abs(rate2 - 2.0 * rate) <= 1e-12 * 2.0 * rate
    assert [r["arc_chord"] / 2.0 for r in traj2.records] == \
        [r["arc_chord"] for r in traj.records]
    assert lip2.measured["max_excess"] == 2.0 * lip.measured["max_excess"]
    assert lip2.thresholds["max_excess<="] == 2.0 * lip.thresholds["max_excess<="]
    assert lip.passed and lip2.passed
    for key in ("ratios", "ratios_after_start", "final_ratios"):
        assert stab2[key] == stab[key], key


def test_chord_arc_lipschitz(perturbed_traj):
    rep = chord_arc_lipschitz_audit(perturbed_traj)
    assert rep.passed, rep.measured


def test_chord_arc_lipschitz_needs_two_outputs(equilibrium_traj):
    # one output has no pair to compare: the audit once passed it with
    # max_excess = -inf, which json.dumps writes as the invalid -Infinity
    with pytest.raises(ValueError, match=r"two outputs to compare.*t = \[0\.0\]"):
        chord_arc_lipschitz_audit(_truncated(equilibrium_traj, 0.0))
    rep = chord_arc_lipschitz_audit(_truncated(equilibrium_traj, 0.05))
    assert len(rep.measured) == 1 and np.isfinite(rep.measured["max_excess"])


def test_chord_arc_lipschitz_reads_arc_chord_from_records(perturbed_traj,
                                                         monkeypatch):
    import peskin_lab.curve as curve_module

    level = curve_module._arc_chord_level
    levels = []

    def counted(curve, m):
        levels.append(m)
        return level(curve, m)

    monkeypatch.setattr(curve_module, "_arc_chord_level", counted)
    traj = perturbed_traj
    read = chord_arc_lipschitz_audit(traj)
    assert levels == []
    stripped = Trajectory(times=traj.times, curves=traj.curves,
                          records=tuple({"t": r["t"]} for r in traj.records),
                          scheme=traj.scheme)
    computed = chord_arc_lipschitz_audit(stripped)
    # one value level per snapshot, no estimate level
    assert levels == [8 * traj.curves[0].n] * len(traj.curves)
    assert read.measured["max_excess"] == computed.measured["max_excess"]


def test_reports_are_deterministic(perturbed_traj):
    mu = MuWeight.log4()
    a = apriori_audit(perturbed_traj, mu, lam=1.0)
    b = apriori_audit(perturbed_traj, mu, lam=1.0)
    assert a == b
