"""Quantitative audits of the evolution: energy inequality, smoothing rate,
stability under perturbed data, and relaxation to the circle equilibria.

Audits are pure functions of trajectories; they return append-only
report records with measured values, thresholds and a verdict.
Fit windows and tolerance constants are engineering choices calibrated
once at desk scale and then frozen as regression guards.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .besov import (DEFAULT_BETA_POINTS, BesovParams, MuWeight, _cl_norms,
                    besov_diff, cl_norm)
from .curve import (Curve, arc_chord, coeff_power, magnitude, parseval_norm,
                    power_spectrum, spectral_antiderivative, theta_grid,
                    wavenumbers)
from .evolution import SimConfig, Trajectory, simulate

__all__ = [
    "AuditReport",
    "apriori_audit",
    "smoothing_audit",
    "stability_audit",
    "equilibrium_audit",
    "chord_arc_lipschitz_audit",
    "circle_distance",
    "APRIORI_C",
    "STABILITY_RATIO_MAX",
]

# Calibrated once over the baseline suite (equilibrium, perturbed circle,
# rough data; Hookean law): the largest dissipation factor passing the
# energy inequality was 6.1-7.4 across runs; frozen below that with margin.
APRIORI_C = 5.0
STABILITY_RATIO_MAX = 3.0
CHALF_GROWTH_MAX = 3.0
SMOOTH_SLOPE_RANGE = (-0.65, -0.35)
EXACT_TOL = 1e-7  # stationary-circle distance bound
LIPSCHITZ_SLACK = 1e-4


@dataclass(frozen=True)
class AuditReport:
    """One audit outcome; fails iff any threshold is violated."""

    name: str
    inputs_digest: str
    measured: dict
    thresholds: dict
    passed: bool


def _digest(traj: Trajectory) -> str:
    h = hashlib.sha256()
    h.update(np.asarray(traj.times).tobytes())
    h.update(traj.curves[0].nodes.tobytes())
    h.update(traj.curves[-1].nodes.tobytes())
    return h.hexdigest()[:16]


def _after_start(times, audit: str) -> np.ndarray:
    """times > 0; a ValueError naming the times unless some output is."""
    times = np.asarray(times, dtype=float)
    later = times > 0
    if not later.any():
        raise ValueError(f"the {audit} needs an output at a positive time, and "
                         f"the outputs are at t = {times.tolist()}")
    return later


def apriori_audit(traj: Trajectory, mu: Optional[MuWeight],
                  lam: float) -> AuditReport:
    """Energy-inequality check: weighted sup-in-time norm plus the scaled
    dissipation stays below four times the initial weighted norm.

    lhs = cl_norm "B" + c sqrt(lam) cl_norm "D" with dissipation |k| (the
    quarter-power multiplier |k|^(1/2) inside the beta integral, trapezoid
    in time); rhs = 4 besov_diff(X'(0)).  Every norm is at (1/2; 2, 1) with
    weight mu (None: the unit weight) on the same beta grid of
    DEFAULT_BETA_POINTS nodes; some output must be at a positive time.
    """
    _after_start(traj.times, "apriori audit")
    derivs = [d.nodes for d in traj.derivs]
    params = BesovParams(0.5, 2, 1, mu)
    k = np.abs(wavenumbers(len(derivs[0]))).astype(float)
    sup_part, diss_part = _cl_norms(traj.times, derivs, params, ("B", "D"),
                                    DEFAULT_BETA_POINTS, dissipation=k)
    lhs = float(sup_part + APRIORI_C * np.sqrt(lam) * diss_part)
    rhs = 4.0 * besov_diff(derivs[0], params, DEFAULT_BETA_POINTS)
    return AuditReport(
        name="apriori",
        inputs_digest=_digest(traj),
        measured={"lhs": lhs, "rhs": rhs, "c": APRIORI_C, "lambda": lam},
        thresholds={"lhs<=rhs": True},
        passed=lhs <= rhs,
    )


def _deriv_coeffs(traj: Trajectory) -> np.ndarray:
    """The (t, n, 2) stack of every snapshot's X' coefficients."""
    return np.stack([d.coeffs for d in traj.derivs])


def _h1_series(traj: Trajectory) -> np.ndarray:
    """The H^1 seminorm of X' at every output, from one power stack: each
    row parseval_norm(coeff_power(d.coeffs), k^2), bit for bit."""
    power = coeff_power(_deriv_coeffs(traj))  # (t, n)
    k = np.abs(wavenumbers(power.shape[1])).astype(float)
    return np.sqrt(2.0 * np.pi * np.sum(k**2 * power, axis=1))


def _chalf_series(traj: Trajectory) -> np.ndarray:
    out = np.empty(len(traj.times))
    for i, d in enumerate(traj.derivs):
        out[i] = besov_diff(d.nodes, BesovParams(0.5, np.inf, np.inf),
                            beta_points=256)
    return out


def smoothing_audit(traj: Trajectory, mode: str = "rough") -> AuditReport:
    """Fit the decay exponent of the H^1 seminorm of the tangent field.

    mode "rough": log-log slope over one decade of t starting at the first
    positive output must land in SMOOTH_SLOPE_RANGE, and the
    half-Hoelder quotient sup must stay within a fixed factor of C t^(-1/2).
    mode "smooth": boundedness only.  Both need an output at t > 0.
    """
    times = np.asarray(traj.times)
    positive = _after_start(times, "smoothing audit")
    h1 = _h1_series(traj)
    if mode == "smooth":
        bound = 1.25 * h1[0] + 1e-12
        return AuditReport(
            name="smoothing[smooth]",
            inputs_digest=_digest(traj),
            measured={"h1_max": float(h1.max()), "h1_initial": float(h1[0])},
            thresholds={"h1_max<=1.25*h1_initial": bound},
            passed=bool(h1.max() <= bound),
        )
    if mode != "rough":
        raise ValueError(f"unknown mode {mode!r}")
    t0 = float(times[positive][0])
    window = (times >= t0) & (times <= 10.0 * t0)
    if int(window.sum()) < 6:
        raise ValueError("fit window has fewer than 6 outputs; refine stride")
    slope = float(np.polyfit(np.log(times[window]), np.log(h1[window]), 1)[0])
    chalf = _chalf_series(traj)
    scaled = chalf[window] * np.sqrt(times[window])
    chalf_factor = float(scaled.max() / np.median(scaled))
    ok = (SMOOTH_SLOPE_RANGE[0] <= slope <= SMOOTH_SLOPE_RANGE[1]) \
        and chalf_factor <= CHALF_GROWTH_MAX
    return AuditReport(
        name="smoothing[rough]",
        inputs_digest=_digest(traj),
        measured={"slope": slope, "chalf_factor": chalf_factor,
                  "fit_points": int(window.sum()), "fit_start": t0},
        thresholds={"slope_range": SMOOTH_SLOPE_RANGE,
                    "chalf_factor<=": CHALF_GROWTH_MAX},
        passed=ok,
    )


def _perturbation_shape(n: int) -> np.ndarray:
    # fixed deterministic direction with unit-L2 tangent field
    th = theta_grid(n)
    deriv = np.stack([np.cos(2 * th) + 0.5 * np.sin(3 * th),
                      np.sin(2 * th) - 0.5 * np.cos(3 * th)], axis=1)
    return spectral_antiderivative(deriv / parseval_norm(power_spectrum(deriv)))


def stability_audit(x0: Curve, cfg: SimConfig, y0: Optional[Curve] = None,
                    omega: Optional[MuWeight] = None) -> AuditReport:
    """Amplification of initial tangent-field perturbations, swept over sizes.

    Each run is simulate(cfg) from its own initial curve, with cfg's law
    and horizon; a zero horizon is refused before any run.  For each k =
    3 .. 8 the perturbed curve starts at L2 tangent distance 2^-k ||X0'||;
    the sup-in-time ratios must stay below STABILITY_RATIO_MAX and within
    a factor 2 of each other (no blow-up as the perturbation vanishes).  y0
    compares just that pair; it must have x0's node count.

    The sup runs over every output time, t = 0 included, so a difference
    that only decays reads exactly 1.  ratios_after_start (the sup over
    t > 0) and final_ratios (the last output) are measured alongside, so
    that contraction shows; the verdict reads neither.
    """
    if y0 is not None and y0.n != x0.n:
        raise ValueError(f"the curves to compare must share a node count, got "
                         f"{x0.n} and {y0.n} nodes")
    _after_start([cfg.horizon], "stability audit")  # the last output time
    base = simulate(cfg, initial=x0)
    base_l2 = parseval_norm(coeff_power(base.derivs[0].coeffs))
    pairs = []
    if y0 is not None:
        pairs.append(("given", y0))
    else:
        shape = _perturbation_shape(x0.n)
        for k in range(3, 9):
            delta = 2.0**-k * base_l2
            pairs.append((f"2^-{k}", Curve.from_nodes(x0.nodes + delta * shape)))
    ratios, after_start, final, omega_norms = {}, {}, {}, {}
    later = np.asarray(base.times) > 0
    for label, y in pairs:
        other = simulate(cfg, initial=y)
        diffs = [a.nodes - b.nodes for a, b in zip(base.derivs, other.derivs)]
        dists = np.array([parseval_norm(power_spectrum(d)) for d in diffs])
        d0 = float(dists[0])
        if d0 == 0.0:
            ratios[label] = after_start[label] = final[label] = 0.0
            continue
        ratios[label] = float(dists.max()) / d0
        after_start[label] = float(np.max(dists[later], initial=0.0)) / d0
        final[label] = float(dists[-1]) / d0
        if omega is not None:
            omega_norms[label] = cl_norm(base.times, diffs,
                                         BesovParams(0.5, 2, 1, omega), "B",
                                         beta_points=1024)
    vals = [v for v in ratios.values() if v > 0]
    spread = (max(vals) / min(vals)) if len(vals) > 1 else 1.0
    ok = (max(vals) <= STABILITY_RATIO_MAX if vals else True) and spread <= 2.0
    measured = {"ratios": ratios, "ratios_after_start": after_start,
                "final_ratios": final, "spread": spread}
    if omega_norms:
        measured["omega_weighted"] = omega_norms
    return AuditReport(
        name="stability",
        inputs_digest=_digest(base),
        measured=measured,
        thresholds={"ratio_max": STABILITY_RATIO_MAX, "spread<=": 2.0},
        passed=bool(ok),
    )


def circle_distance(deriv: Curve) -> float:
    """L2 distance of a tangent field to the nearest uniform-circle tangent.

    The best radius and phase come from the k = +-1 modes (both traversal
    orientations are tried); the center never enters.
    """
    return float(_circle_distances(deriv.coeffs[None])[0])


def _circle_distances(coeffs: np.ndarray) -> np.ndarray:
    """circle_distance of every tangent field of a (t, n, 2) coefficient
    stack, in one pass."""
    c1 = coeffs[:, 1]  # fft layout: index 1 is wavenumber +1
    # off-circle content summed directly (no cancellation): every slot
    # except the +-1 pair, compressed into C-order rows, whose sums are
    # the one-row sums bit for bit (a boolean index lays them out by column)
    n = coeffs.shape[1]
    mask = np.ones(n, dtype=bool)
    mask[1] = mask[n - 1] = False
    off = np.sum(coeff_power(coeffs).compress(mask, axis=1), axis=1)
    best = np.full(len(coeffs), np.inf)
    for v in (np.array([0.5j, 0.5]), np.array([0.5j, -0.5])):
        z = (c1 @ np.conj(v)) / np.vdot(v, v)
        # distance^2 = 2pi (2 |c1 - z v|^2 + off); the -1 slot mirrors +1
        d2 = 2.0 * np.pi * (2.0 * np.sum(np.abs(c1 - z[:, None] * v) ** 2, axis=1) + off)
        best = np.minimum(best, d2)
    return np.sqrt(np.maximum(best, 0.0))


def equilibrium_audit(traj: Trajectory) -> AuditReport:
    """Relaxation to a uniformly parametrized circle.

    Stationary start: distance stays below EXACT_TOL throughout.  Perturbed
    start: the distance decays and a positive exponential rate fits the
    tail half of the outputs, which must hold at least two.
    """
    dists = _circle_distances(_deriv_coeffs(traj))
    times = np.asarray(traj.times)
    if dists[0] <= EXACT_TOL:
        ok = bool(dists.max() <= EXACT_TOL)
        return AuditReport(
            name="equilibrium[stationary]",
            inputs_digest=_digest(traj),
            measured={"max_distance": float(dists.max())},
            thresholds={"max_distance<=": EXACT_TOL},
            passed=ok,
        )
    tail = slice(len(times) // 2, None)
    if len(times[tail]) < 2:
        raise ValueError(f"the decay-rate fit needs at least two outputs in the "
                         f"tail half of the trajectory, which holds "
                         f"{len(times[tail])} of {len(times)}")
    safe = np.maximum(dists[tail], 1e-300)
    rate = -float(np.polyfit(times[tail], np.log(safe), 1)[0])
    ok = bool(dists[-1] < dists[0]) and rate > 0.0
    return AuditReport(
        name="equilibrium[perturbed]",
        inputs_digest=_digest(traj),
        measured={"initial_distance": float(dists[0]),
                  "final_distance": float(dists[-1]), "rate": rate},
        thresholds={"decay": True, "rate>": 0.0},
        passed=ok,
    )


def chord_arc_lipschitz_audit(traj: Trajectory) -> AuditReport:
    """Pairwise |arc-chord difference| <= sup-norm tangent difference
    + LIPSCHITZ_SLACK times the initial mean tangent length mean |X'(0)|,
    so that the slack scales with the curve, as both sides do.

    The arc-chord values are read from the records when every record
    carries one, as simulate's do, and computed from the curves otherwise;
    with fewer than two outputs a ValueError names the output times."""
    if len(traj.times) < 2:
        raise ValueError(f"the chord-arc Lipschitz audit needs two outputs to compare, "
                         f"and the outputs are at t = {traj.times.tolist()}")
    if all("arc_chord" in rec for rec in traj.records):
        values = np.array([rec["arc_chord"] for rec in traj.records])
    else:
        values = np.array([arc_chord(c).value for c in traj.curves])
    derivs = np.stack([d.nodes for d in traj.derivs])
    worst = -np.inf
    for i in range(len(values) - 1):  # the pairs (i, j > i) in one pass
        lhs = np.abs(values[i] - values[i + 1:])
        rhs = magnitude(derivs[i] - derivs[i + 1:]).max(axis=1)
        worst = max(worst, float(np.max(lhs - rhs)))
    slack = LIPSCHITZ_SLACK * float(np.mean(magnitude(derivs[0])))
    return AuditReport(
        name="chord-arc-lipschitz",
        inputs_digest=_digest(traj),
        measured={"max_excess": float(worst)},
        thresholds={"max_excess<=": slack},
        passed=bool(worst <= slack),
    )
