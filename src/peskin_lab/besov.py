"""Difference-based and block-based Besov seminorms with log-scale weights.

The difference form integrates ||delta_beta f||_p / |beta|^s over a
half-offset beta grid; the block form sums 2^(js) ||Delta_j f||_p over
dyadic bands.  Weights mu are slowly varying log-scale factors tabulated
on dyadic arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .curve import (as_complex, coeff_power, fft_coeffs, half_offset_frame,
                    half_offset_grid, lp_norm, magnitude, power_spectrum)
from .operators import lp_block_norms, symbol

__all__ = [
    "MuWeight",
    "construct_mu",
    "sqrt_weight",
    "BesovParams",
    "besov_diff",
    "besov_lp",
    "cl_norm",
    "folded_gain",
    "fold_power",
]

DEFAULT_BETA_POINTS = 2048


def _log4(r):
    return np.log(4.0 + np.asarray(r, dtype=float))


@dataclass(frozen=True)
class MuWeight:
    """Non-decreasing log-scale weight tabulated at dyadic arguments 2^j.

    Table-backed weights interpolate log-linearly between dyadics and
    extend with log(4+r) growth beyond the table; below r = 1 the weight
    is constant.  Closed-form weights carry fn and evaluate exactly.  The
    unit weight is mu = None.
    """

    table: np.ndarray
    fn: object = None

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        if t.ndim != 1 or len(t) < 2:
            raise ValueError("table must hold at least two dyadic values")
        bad = ~(np.isfinite(t) & (t > 0))
        if np.any(bad):
            raise ValueError(f"weight table entries must be finite and positive, "
                             f"entry {int(np.argmax(bad))} is {float(t[bad][0])!r}")
        drop = np.diff(t) < 0
        if np.any(drop):
            j = int(np.argmax(drop))
            raise ValueError(f"weight table must be non-decreasing, entry "
                             f"{j + 1} ({float(t[j + 1])!r}) is below entry "
                             f"{j} ({float(t[j])!r})")
        t = t.copy()
        t.flags.writeable = False
        object.__setattr__(self, "table", t)

    @classmethod
    def log4(cls) -> "MuWeight":
        """log(4 + r) in closed form, tabulated at 2^0 .. 2^16."""
        return cls(table=_log4(2.0**np.arange(17)),
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


def construct_mu(values: np.ndarray) -> MuWeight:
    """Build an admissible weight under which f keeps a finite weighted norm.

    Dyadic tail sums of 2^(j/2) ||Delta_j f||_2 set the raw profile
    min(log(4+2^j), tail^(-1/2)); the admissibility constraints are then
    enforced in order (floor, running max, doubling clamp, log-ratio
    running min), and a last running max takes out the ulp-sized dips that
    rounding the log-ratio product back can leave.
    """
    js, norms = lp_block_norms(values, 2)
    weighted = 2.0 ** (js / 2.0) * norms
    if not np.all(np.isfinite(weighted)):
        raise ValueError("base seminorm is not finite")
    j_top = max(14, int(js[-1]) + 2)
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
    return MuWeight(table=np.maximum.accumulate(mu))


def sqrt_weight(mu: MuWeight) -> MuWeight:
    """Admissible square root of a weight (monotone, sqrt-doubling, and the
    log ratio stays non-increasing since mu/log^2 is a product of two
    non-increasing factors)."""
    fn = None if mu.fn is None else (lambda r: np.sqrt(mu.fn(r)))
    return MuWeight(table=np.sqrt(np.asarray(mu.table)), fn=fn)


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
    norms ||delta_beta f||_2 come from Parseval: folded_gain times the power
    spectrum folded onto |k| by fold_power; other p read the shifts from
    half_offset_frame, a 2-vector field as one complex frame x + iy.  The
    quadrature resolves the |beta|^(-1-sr) weight at O((pi/M)^((1-s)r))
    accuracy, so comparisons against closed forms should allow for that.  M = beta_points must be even: an odd grid has a node at
    beta = 0.
    """
    if not (0.0 < params.s < 1.0):
        raise ValueError("difference form needs s in (0, 1)")
    betas = _beta_grid(beta_points)
    values = np.asarray(values, dtype=float)
    if params.p == 2:
        gain = folded_gain(beta_points, values.shape[0])
        norms = np.sqrt(2.0 * np.pi * (gain @ fold_power(power_spectrum(values))))
    elif values.ndim == 2:  # as x + iy: the inner loops run along theta
        diffs = half_offset_frame(values, beta_points).view(complex)[..., 0] \
            - as_complex(values)
        # the (M, n, 2) real view of the differences: magnitude's hypot
        norms = lp_norm(magnitude(diffs[..., None].view(float)), params.p)
    else:
        diffs = half_offset_frame(values, beta_points) - values
        norms = lp_norm(magnitude(diffs, False), params.p)
    return _diff_quadrature(norms, betas, params)


def _beta_grid(beta_points: int) -> np.ndarray:
    """The half-offset beta grid of besov_diff and cl_norm, checked before
    any norm is computed: an odd grid has a node at beta = 0, and one of
    fewer than 2 nodes no quadrature."""
    if beta_points < 2 or beta_points % 2:
        raise ValueError(f"beta_points must be even and at least 2, got "
                         f"{beta_points}: an odd half-offset grid has a node at "
                         "beta = 0")
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


@lru_cache(maxsize=16)
def folded_gain(beta_points: int, n: int) -> np.ndarray:
    """Grid gain of delta_beta per |k| of an n-point grid on the beta grid
    half_offset_grid(beta_points): one read-only array per (beta_points, n).

    Shape (beta_points, n//2 + 1), columns k = 0 .. n//2 (FFT columns 0 ..
    n//2); folded_gain @ fold_power(power_spectrum(f)) is the squared grid
    norm ||delta_beta f||_2^2 / (2 pi) for every beta at once.  Each column
    is the squared symbol |exp(i beta k) - 1|^2 = 4 sin^2(beta k/2), which
    is also the column of -k, except the Nyquist column of an even grid:
    the grid keeps only the real part c s_j cos(beta n/2) of a shifted
    Nyquist mode c s_j, so its gain is (1 - cos(beta n/2))^2 = 4 sin^4(beta
    n/4).  Odd grids have no Nyquist mode.  Sines, unlike 1 - cos, do not
    cancel at small beta k.
    """
    betas = half_offset_grid(beta_points)
    half = (n + 1) // 2
    gain = np.empty((beta_points, n // 2 + 1))
    body = gain[:, :half]  # built in place: no temporary of the gain's size
    np.multiply.outer(betas, np.arange(half) / 2.0, out=body)
    np.sin(body, out=body)
    np.square(body, out=body)
    body *= 4.0
    if n % 2 == 0:
        gain[:, n // 2] = 4.0 * np.sin(betas * (n / 4)) ** 4
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
    (trapezoid over the given times) of ||delta_beta f||_2 once the power
    at wavenumber k is multiplied by dissipation[k], an FFT-order array
    even in k (default symbol(n, 8n).lam_tilde: the half-order dissipation
    squared).  s, r and mu come from params; p must be 2.  Snapshots must
    share one grid; times must be finite and strictly increasing, and
    need not be uniform.
    """
    return _cl_norms(times, snapshots, params, (kind,), beta_points, dissipation)[0]


def _cl_norms(times: Sequence[float], snapshots: Sequence[np.ndarray],
              params: BesovParams, kinds: Sequence[str], beta_points: int,
              dissipation: np.ndarray | None) -> list:
    """cl_norm of each of kinds, in order, from one stack of the snapshots'
    power spectra, taken by one batched FFT (dissipation weights kind "D"
    only).

    The table of squared grid norms is time-major, (t, beta_points), so
    the sup and the trapezoid reduce along axis 0 in whole rows; kind "D"
    weights the (n//2 + 1, t) folded power, not the gain."""
    if len(snapshots) == 0:
        raise ValueError("empty trajectory")
    if len(times) != len(snapshots):
        raise ValueError("times and snapshots must align")
    times = np.asarray(times, dtype=float)
    increasing = np.all(np.diff(times) > 0)  # False at a nan
    if times.ndim != 1 or not (increasing and np.all(np.isfinite(times))):
        raise ValueError(f"times must be finite and strictly increasing, got "
                         f"{times.tolist()}")
    if params.p != 2:
        raise ValueError(f"time norms need p = 2, got p = {params.p}")
    for kind in kinds:
        if kind not in ("B", "D"):
            raise ValueError(f"unknown kind {kind!r}")
    shapes = sorted({np.shape(snap) for snap in snapshots})
    if len(shapes) > 1:
        raise ValueError(f"snapshots must share one grid, got shapes {shapes}")
    betas = _beta_grid(beta_points)
    n = shapes[0][0]
    # one transform of every snapshot, stacked along axis 1 with a
    # component axis last: power (n, t)
    stack = np.stack(snapshots, axis=1).reshape(n, len(snapshots), -1)
    folded = fold_power(coeff_power(fft_coeffs(stack)).T).T
    gain_t = folded_gain(beta_points, n).T
    out = []
    for kind in kinds:
        if kind == "B":
            g = folded.T @ gain_t  # (t, mb): squared L2 norms / 2pi
            norms = np.sqrt(2.0 * np.pi * g.max(axis=0))
        else:
            if dissipation is None:
                dissipation = symbol(n, 8 * n).lam_tilde
            w = np.asarray(dissipation)[:n // 2 + 1, None]
            g = (folded * w).T @ gain_t
            # np.trapezoid along axis 0 in its operation order, in place:
            # one (t - 1, beta_points) temporary instead of three
            s = np.add(g[1:], g[:-1])
            s *= np.diff(times)[:, None]
            s /= 2.0
            norms = np.sqrt(2.0 * np.pi * s.sum(axis=0))
        out.append(_diff_quadrature(norms, betas, params))
    return out
