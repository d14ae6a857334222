"""Difference-based and block-based Besov seminorms with log-scale weights.

The difference form integrates ||delta_beta f||_p / |beta|^s over a
half-offset beta grid; the block form sums 2^(js) ||Delta_j f||_p over
dyadic bands.  Weights mu are slowly varying log-scale factors tabulated
on dyadic arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .curve import (half_offset_frame, half_offset_grid, lp_norm, magnitude,
                    parseval_norm, power_spectrum, wavenumbers)
from .operators import lp_block_norms, symbol

__all__ = [
    "MuWeight",
    "check_mu_admissible",
    "MuCheck",
    "construct_mu",
    "nu_from_mu",
    "BesovParams",
    "besov_diff",
    "besov_lp",
    "cl_norm",
    "beta_gain",
    "folded_gain",
    "fold_power",
    "EmbeddingReport",
    "embedding_audit",
]

DEFAULT_BETA_POINTS = 2048


def _log4(r):
    return np.log(4.0 + np.asarray(r, dtype=float))


@dataclass(frozen=True)
class MuWeight:
    """Non-decreasing log-scale weight tabulated at dyadic arguments 2^j.

    Table-backed weights interpolate log-linearly between dyadics and
    extend with log(4+r) growth beyond the table; below r = 1 the weight
    is constant.  Closed-form weights carry fn and evaluate exactly.
    """

    table: np.ndarray
    label: str = "table"
    fn: object = None

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        if t.ndim != 1 or len(t) < 2:
            raise ValueError("table must hold at least two dyadic values")
        t = t.copy()
        t.flags.writeable = False
        object.__setattr__(self, "table", t)

    @classmethod
    def one(cls) -> "MuWeight":
        """Trivial weight; turns every weighted norm into the plain one."""
        return cls(table=np.ones(2), label="one",
                   fn=lambda r: np.ones_like(np.asarray(r, dtype=float)))

    @classmethod
    def log4(cls, j_top: int = 16) -> "MuWeight":
        js = np.arange(j_top + 1)
        return cls(table=_log4(2.0**js), label="log",
                   fn=lambda r: _log4(np.maximum(np.asarray(r, dtype=float), 0.0)))

    @property
    def j_top(self) -> int:
        return len(self.table) - 1

    def __call__(self, r) -> np.ndarray:
        if self.fn is not None:
            return self.fn(r)
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        out = np.empty_like(r)
        j = np.log2(np.maximum(r, 1e-300))
        lo = r <= 1.0
        hi = j >= self.j_top
        mid = ~lo & ~hi
        out[lo] = self.table[0]
        if np.any(mid):
            out[mid] = np.interp(j[mid], np.arange(len(self.table)), self.table)
        if np.any(hi):
            out[hi] = self.table[-1] * _log4(r[hi]) / _log4(2.0**self.j_top)
        return out[0] if scalar else out


@dataclass(frozen=True)
class MuCheck:
    monotone: bool
    doubling: bool
    log_ratio: bool
    floor: bool
    interp_deviation: float = 0.0

    @property
    def admissible(self) -> bool:
        return self.monotone and self.doubling and self.log_ratio and self.floor


def check_mu_admissible(mu: MuWeight, c0: float = 2.0, j_top: int = 20,
                        tol: float = 1e-9) -> MuCheck:
    """Check the three weight predicates (plus the floor mu >= 1) on dyadics.

    Tabulated weights satisfy the definition on their dyadic table; between
    dyadics the log-linear interpolant can overshoot the log-ratio clause
    slightly, which is reported as interp_deviation (monitored, not
    asserted).  The unbounded-growth clause is not a finite check.
    """
    rs = 2.0 ** np.arange(0, j_top + 1, dtype=float)
    vals = mu(rs)
    monotone = bool(np.all(np.diff(vals) >= -tol))
    doubling = bool(np.all(vals[1:] <= c0 * vals[:-1] + tol))
    ratio = vals / _log4(rs)
    log_ratio = bool(np.all(np.diff(ratio) <= tol))
    floor = bool(np.all(vals >= 1.0 - tol))
    mids = 2.0 ** (np.arange(0, j_top) + 0.5)
    mid_ratio = mu(mids) / _log4(mids)
    # worst log-ratio increase introduced by interpolation at midpoints
    deviation = float(max(0.0, np.max(mid_ratio - ratio[:-1])))
    return MuCheck(monotone=monotone, doubling=doubling, log_ratio=log_ratio,
                   floor=floor, interp_deviation=deviation)


def construct_mu(values: np.ndarray, j_top: int = 14) -> MuWeight:
    """Build an admissible weight under which f keeps a finite weighted norm.

    Dyadic tail sums of 2^(j/2) ||Delta_j f||_2 set the raw profile
    min(log(4+2^j), tail^(-1/2)); the admissibility constraints are then
    enforced in order (floor, running max, doubling clamp, log-ratio
    running min).
    """
    js, norms = lp_block_norms(values, 2)
    weighted = 2.0 ** (js / 2.0) * norms
    if not np.all(np.isfinite(weighted)):
        raise ValueError("base seminorm is not finite")
    j_top = max(j_top, int(js[-1]) + 2)
    raw = np.empty(j_top + 1)
    for j in range(j_top + 1):
        tail = float(np.sum(weighted[js >= j]))
        cap = _log4(2.0**j)
        raw[j] = min(cap, tail ** (-0.5)) if tail > 0 else cap
    mu = np.maximum(raw, 1.0)
    mu = np.maximum.accumulate(mu)
    for j in range(1, len(mu)):
        mu[j] = min(mu[j], 2.0 * mu[j - 1])
    ratio = np.minimum.accumulate(mu / _log4(2.0 ** np.arange(len(mu))))
    mu = ratio * _log4(2.0 ** np.arange(len(mu)))
    return MuWeight(table=mu, label="constructed")


def nu_from_mu(mu: MuWeight, c3: float, big_m: float) -> MuWeight:
    """Equivalent weight nu = 1 + mu / (c3 max(1, M)); c3 >= 1."""
    if c3 < 1.0:
        raise ValueError("c3 must be at least 1")
    scale = c3 * max(1.0, big_m)
    fn = None if mu.fn is None else (lambda r: 1.0 + mu.fn(r) / scale)
    return MuWeight(table=1.0 + np.asarray(mu.table) / scale,
                    label=f"nu[{mu.label}]", fn=fn)


def sqrt_weight(mu: MuWeight) -> MuWeight:
    """Admissible square root of a weight (monotone, sqrt-doubling, and the
    log ratio stays non-increasing since mu/log^2 is a product of two
    non-increasing factors)."""
    fn = None if mu.fn is None else (lambda r: np.sqrt(mu.fn(r)))
    return MuWeight(table=np.sqrt(np.asarray(mu.table)),
                    label=f"sqrt[{mu.label}]", fn=fn)


@dataclass(frozen=True)
class BesovParams:
    """Smoothness/integrability indices (s; p, r) plus an optional weight."""

    s: float
    p: float = 2.0
    r: float = 1.0
    mu: Optional[MuWeight] = None

    def __post_init__(self):
        if not (self.p >= 1.0 and self.r >= 1.0):
            raise ValueError("p and r must lie in [1, inf]")


def besov_diff(values: np.ndarray, params: BesovParams,
               beta_points: int = DEFAULT_BETA_POINTS) -> float:
    """Difference-form seminorm on the half-offset beta grid.

    Valid for s in (0, 1); use besov_lp for general s.  At p = 2 the grid
    norms ||delta_beta f||_2 come from Parseval (beta_gain times the power
    spectrum); other p shift the field spectrally.  The quadrature
    resolves the |beta|^(-1-sr) weight at O((pi/M)^((1-s)r)) accuracy, so
    comparisons against closed forms should allow for that.  M =
    beta_points must be even: an odd grid has a node at beta = 0.
    """
    if not (0.0 < params.s < 1.0):
        raise ValueError("difference form needs s in (0, 1)")
    betas = _beta_grid(beta_points)
    values = np.asarray(values, dtype=float)
    if params.p == 2:
        gain = folded_gain(beta_points, values.shape[0])
        norms = np.sqrt(2.0 * np.pi * (gain @ fold_power(power_spectrum(values))))
    else:
        diffs = half_offset_frame(values, beta_points) - values[None]
        norms = lp_norm(magnitude(diffs, values.ndim == 2), params.p)
    return _diff_quadrature(norms, betas, params)


def _beta_grid(beta_points: int) -> np.ndarray:
    """The half-offset beta grid of besov_diff and cl_norm, checked before
    any norm is computed: an odd grid has a node at beta = 0."""
    if beta_points % 2:
        raise ValueError(f"beta_points must be even, got {beta_points}: an odd "
                         "half-offset grid has a node at beta = 0")
    return half_offset_grid(beta_points)


def _diff_quadrature(norms: np.ndarray, betas: np.ndarray,
                     params: BesovParams) -> float:
    """The beta integral of besov_diff from the grid norms ||delta_beta f||_p
    on the grid betas = _beta_grid(M)."""
    ab = np.abs(betas)
    weight = params.mu(1.0 / ab) if params.mu is not None else 1.0
    scaled = weight * norms / ab**params.s
    if np.isinf(params.r):
        return float(np.max(scaled))
    h = 2.0 * np.pi / len(betas)
    return float((h * np.sum(scaled**params.r / ab)) ** (1.0 / params.r))


def besov_lp(values: np.ndarray, params: BesovParams) -> float:
    """Block-form seminorm || 2^(js) mu(2^j) ||Delta_j f||_p ||_{l^r}."""
    values = np.asarray(values, dtype=float)
    js, norms = lp_block_norms(values, params.p)
    weight = params.mu(2.0**js) if params.mu is not None else 1.0
    terms = 2.0 ** (js * params.s) * weight * norms
    if np.isinf(params.r):
        return float(np.max(terms))
    return float(np.sum(terms**params.r) ** (1.0 / params.r))


def beta_gain(betas: np.ndarray, n: int) -> np.ndarray:
    """Grid gain of delta_beta per wavenumber of an n-point grid.

    Shape (len(betas), n) in FFT order; gain @ power_spectrum(f) is the
    squared grid norm ||delta_beta f||_2^2 / (2 pi) for every beta at once.
    Each column is the squared symbol |exp(i beta k) - 1|^2 = 4 sin^2(beta
    k/2), except the Nyquist column of an even grid: the grid keeps only the
    real part c s_j cos(beta n/2) of a shifted Nyquist mode c s_j, so its
    gain is (1 - cos(beta n/2))^2 = 4 sin^4(beta n/4).  Odd grids have no
    Nyquist mode.  Sines, unlike 1 - cos, do not cancel at small beta k.
    The sines are evaluated for k >= 0 only: the column of -k is that of k
    bit for bit, because sin is odd.
    """
    half = (n + 1) // 2  # columns 0 .. half - 1 hold k = 0 .. half - 1
    gain = np.empty((len(betas), n))
    gain[:, :n // 2 + 1] = _gain_columns(betas, n)
    gain[:, n - half + 1:] = gain[:, half - 1:0:-1]
    return gain


def _gain_columns(betas: np.ndarray, n: int) -> np.ndarray:
    """The first n//2 + 1 columns of beta_gain(betas, n): k = 0, 1, ...,
    (n - 1)//2 and, for even n, the Nyquist column."""
    half = (n + 1) // 2
    gain = np.empty((len(betas), n // 2 + 1))
    gain[:, :half] = 4.0 * np.sin(np.multiply.outer(betas, np.arange(half) / 2.0)) ** 2
    if n % 2 == 0:
        gain[:, n // 2] = 4.0 * np.sin(betas * (n / 4)) ** 4
    return gain


@lru_cache(maxsize=16)
def folded_gain(beta_points: int, n: int) -> np.ndarray:
    """The distinct columns of beta_gain(half_offset_grid(beta_points), n),
    one per |k| (FFT columns 0 .. n//2): folded_gain @ fold_power(power)
    is beta_gain @ power.  One read-only array per (beta_points, n)."""
    gain = _gain_columns(half_offset_grid(beta_points), n)
    gain.flags.writeable = False
    return gain


def fold_power(power: np.ndarray) -> np.ndarray:
    """A power spectrum over FFT order (last axis of length n) summed onto
    |k|: entry j holds P_j + P_-j for 0 < j < n/2, and P_0 and the Nyquist
    P_-n/2 alone (see folded_gain)."""
    n = power.shape[-1]
    folded = power[..., :n // 2 + 1].copy()
    folded[..., 1:(n + 1) // 2] += power[..., n - 1:n // 2:-1]
    return folded


def cl_norm(times: Sequence[float], snapshots: Sequence[np.ndarray],
            params: BesovParams, kind: str = "B",
            beta_points: int = DEFAULT_BETA_POINTS,
            dissipation: np.ndarray | None = None) -> float:
    """Mixed time-space norms with the time norm inside the beta integral.

    kind "B": besov_diff's beta integral with sup_t ||delta_beta f||_2 as
    the grid norm; kind "D": the same with the L^2-in-time norm
    (trapezoid) of ||delta_beta f||_2 once the power at wavenumber k is
    multiplied by dissipation[k], an FFT-order array even in k (default
    symbol(n, 8n).lam_tilde: the half-order dissipation squared).  s, r
    and mu come from params; p must be 2.  Snapshots must share one grid
    and uniform times.
    """
    if len(snapshots) == 0:
        raise ValueError("empty trajectory")
    if len(times) != len(snapshots):
        raise ValueError("times and snapshots must align")
    if params.p != 2:
        raise ValueError(f"time norms need p = 2, got p = {params.p}")
    if kind not in ("B", "D"):
        raise ValueError(f"unknown kind {kind!r}")
    betas = _beta_grid(beta_points)
    power = np.stack([power_spectrum(snap) for snap in snapshots])
    n = power.shape[1]
    gain = folded_gain(beta_points, n)
    if kind == "D":
        if dissipation is None:
            dissipation = symbol(n, 8 * n).lam_tilde
        gain = gain * np.asarray(dissipation)[:n // 2 + 1]
    g = gain @ fold_power(power).T  # (mb, t): squared L2 norms / 2pi
    if kind == "B":
        norms = np.sqrt(2.0 * np.pi * g.max(axis=1))
    else:
        norms = np.sqrt(2.0 * np.pi * np.trapezoid(g, np.asarray(times), axis=1))
    return _diff_quadrature(norms, betas, params)


# ---------------------------------------------------------------------------
# embedding and interpolation audits

# Empirical constants frozen from a calibration sweep over random trig
# polynomials (seed 0, 50+ fields, N = 256, spectral decays 0.6..2.5);
# observed maxima 0.10 and 0.77.  Regression guards only.
EMB_LINF_CONST = 0.15
EMB_BLOCK_CONST = 1.00
INTERP_TOL = 1e-10


@dataclass(frozen=True)
class EmbeddingReport:
    n_fields: int
    linf_max_ratio: float
    block_max_ratio: float
    interp_max_excess: float
    block_interp_max_ratio: float = 0.0
    constants: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return (
            self.linf_max_ratio <= self.constants.get("linf", EMB_LINF_CONST)
            and self.block_max_ratio <= self.constants.get("block", EMB_BLOCK_CONST)
            and self.interp_max_excess <= INTERP_TOL
            and self.block_interp_max_ratio <= 1.0 + INTERP_TOL
        )


def embedding_audit(fields: Sequence[np.ndarray],
                    beta_points: int = DEFAULT_BETA_POINTS) -> EmbeddingReport:
    """Measure the sup-norm, lift-the-integrability and interpolation bounds.

    For every field: ||f||_inf vs the (1/2; 2, 1) difference norm; the
    block norm at (1/4; 4, 2) vs (1/2; 2, 2); the exact Fourier
    interpolation ||f||_{H^1/2} <= ||f||_2^1/2 ||f||_{H^1}^1/2; and the
    block interpolation at mixed exponents (exact with constant 1 by
    Hoelder on the dyadic sums).
    """
    if len(fields) == 0:
        raise ValueError("empty family")
    r_linf = 0.0
    r_block = 0.0
    excess = 0.0
    r_interp = 0.0
    interp_cases = ((0.3, 0.25, 0.75, 2.0, 2.0), (0.5, 0.1, 0.9, 2.0, 1.0))
    for f in fields:
        f = np.asarray(f, dtype=float)
        linf = float(lp_norm(magnitude(f, f.ndim == 2), np.inf))
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
    return EmbeddingReport(
        n_fields=len(fields),
        linf_max_ratio=float(r_linf),
        block_max_ratio=float(r_block),
        interp_max_excess=float(excess),
        block_interp_max_ratio=float(r_interp),
        constants={"linf": EMB_LINF_CONST, "block": EMB_BLOCK_CONST},
    )
