"""Scalar tension laws, the vector tension map and its Jacobian.

A law maps stretch r = |X'| to a positive tension T(r) with T' > 0 on a
trusted window; the vector map is T(|z|) * z/|z| and its Jacobian has
eigenvalues T'(|z|) and T(|z|)/|z|.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .curve import magnitude
from .kernels import perp

__all__ = [
    "TensionLaw",
    "hookean",
    "power_law",
    "arctan_law",
    "table_law",
    "tension_map",
    "tension_jacobian",
    "globalize",
]


@dataclass(frozen=True)
class TensionLaw:
    """Scalar tension T and its derivative T' = d1.

    eval/d1 must accept numpy arrays.  lam is the ellipticity floor
    inf T' > 0 on the stretch interval on which the law is trusted.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    lam: float = 0.0
    vanishes_at_zero: bool = True


def hookean(k0: float = 1.0) -> TensionLaw:
    """Simple linear tension T(r) = k0*r."""
    if k0 <= 0:
        raise ValueError("k0 must be positive")
    return TensionLaw(
        eval=lambda r: k0 * np.asarray(r, dtype=float),
        d1=lambda r: np.full_like(np.asarray(r, dtype=float), k0),
        lam=k0,
    )


def power_law(coef: float = 1.0, p: float = 2.0,
              window: Tuple[float, float] = (0.5, 2.0)) -> TensionLaw:
    """Power tension T(r) = coef * r**p, trusted on the given window."""
    if coef <= 0 or p <= 0:
        raise ValueError("coef and p must be positive")
    a, b = window
    if not (0 < a < b):
        raise ValueError("window must satisfy 0 < a < b")
    d1 = lambda r: coef * p * np.asarray(r, dtype=float) ** (p - 1.0)
    # Jacobian eigenvalues are T'(r) and T(r)/r; both are monotone in r
    # for a power law, so the window floor sits at an endpoint
    lam = float(min(d1(a), d1(b), coef * a ** (p - 1.0), coef * b ** (p - 1.0)))
    return TensionLaw(
        eval=lambda r: coef * np.asarray(r, dtype=float) ** p,
        d1=d1,
        lam=lam,
    )


def arctan_law(window: Tuple[float, float] = (0.5, 2.0)) -> TensionLaw:
    """Bounded tension T(r) = arctan(r), trusted on the given window."""
    a, b = window
    if not (0 < a < b):
        raise ValueError("window must satisfy 0 < a < b")
    # both T' = 1/(1+r^2) and T/r are decreasing, so the floor is at r = b
    lam = float(min(1.0 / (1.0 + b * b), np.arctan(b) / b))
    return TensionLaw(
        eval=lambda r: np.arctan(np.asarray(r, dtype=float)),
        d1=lambda r: 1.0 / (1.0 + np.asarray(r, dtype=float) ** 2),
        lam=lam,
    )


def table_law(r_values, t_values) -> TensionLaw:
    """Monotone tension interpolated from (r, T) samples (PCHIP).

    The law is defined on the sampled stretch range only: eval and d1
    raise ValueError for a stretch outside it (globalize extends the law).
    """
    from scipy.interpolate import PchipInterpolator

    r_values = np.asarray(r_values, dtype=float)
    t_values = np.asarray(t_values, dtype=float)
    if np.any(np.diff(r_values) <= 0) or np.any(np.diff(t_values) <= 0):
        raise ValueError("table must be strictly increasing in r and T")
    interp = PchipInterpolator(r_values, t_values)
    d1 = interp.derivative()
    lo, hi = float(r_values[0]), float(r_values[-1])
    rs = np.linspace(lo, hi, 2049)
    lam = float(min(np.min(d1(rs)), np.min(interp(rs) / rs)))
    if lam <= 0:
        raise ValueError("interpolated tension is not uniformly increasing")

    def on_table(fn):
        def ev(r):
            r = np.asarray(r, dtype=float)
            outside = (r < lo) | (r > hi)
            if np.any(outside):
                raise ValueError(
                    f"stretch {float(r[outside].flat[0])!r} lies outside the "
                    f"tension table's range [{lo!r}, {hi!r}]; set "
                    f"tension.globalize to extend the law")
            return np.asarray(fn(r), dtype=float)
        return ev

    return TensionLaw(
        eval=on_table(interp),
        d1=on_table(d1),
        lam=lam,
        vanishes_at_zero=False,
    )


def tension_map(law: TensionLaw, z: np.ndarray) -> np.ndarray:
    """Vector tension T(|z|) * zhat; z has shape (..., 2)."""
    z = np.asarray(z, dtype=float)
    r = magnitude(z)
    if np.any(r == 0.0):
        if not law.vanishes_at_zero:
            raise ValueError("tension map undefined at z = 0 for this law")
        out = np.zeros_like(z)
        mask = r > 0.0
        out[mask] = (law.eval(r[mask]) / r[mask])[..., None] * z[mask]
        return out
    return (law.eval(r) / r)[..., None] * z


def tension_jacobian(law: TensionLaw, z: np.ndarray) -> np.ndarray:
    """Jacobian of the tension map: T'(|z|) zhat@zhat + (T/|z|) zperp@zperp."""
    z = np.asarray(z, dtype=float)
    r = magnitude(z)
    if np.any(r == 0.0):
        raise ValueError("tension Jacobian undefined at z = 0")
    zh = z / r[..., None]
    zp = perp(zh)
    tang = np.einsum("...i,...j->...ij", zh, zh)
    norm = np.einsum("...i,...j->...ij", zp, zp)
    return law.d1(r)[..., None, None] * tang + (law.eval(r) / r)[..., None, None] * norm


def _blend_slope(law: TensionLaw, a: float) -> float:
    # quadratic blend on [a/2, a] with a linear piece through the origin
    # below a/2; C^1 matching forces the linear slope
    return (4.0 * float(law.eval(a)) - a * float(law.d1(a))) / (3.0 * a)


def globalize(law: TensionLaw, a: float, b: float) -> TensionLaw:
    """Extend a locally trusted law to [0, inf) with global bounds.

    Returns a law equal to the input on [a, b], linear with slope T'(b)
    above b, and below a a quadratic blend on [a/2, a] joined to a linear
    piece through the origin (so the extension is C^1 with T(0) = 0).
    """
    if not (0 < a < b):
        raise ValueError("need 0 < a < b")
    rs = np.linspace(a, b, 4097)
    d1_window = np.asarray(law.d1(rs), dtype=float)
    if np.any(d1_window <= 0):
        raise ValueError("law is not strictly increasing on [a, b]")
    ta, tb = float(law.eval(a)), float(law.eval(b))
    da, db = float(law.d1(a)), float(law.d1(b))
    s0 = _blend_slope(law, a)
    if s0 <= 0:
        raise ValueError("blend slope is not positive; shrink the window")
    # quadratic q(r) = ta + da*(r-a) + q2*(r-a)^2 matching value+slope at a
    # and slope s0 at a/2
    q2 = (da - s0) / a

    def _piecewise(r, low, blend, window, high):
        # the four regions: linear below a/2, the blend, the law, linear above b
        r = np.asarray(r, dtype=float)
        out = np.empty_like(r)
        regions = (r < 0.5 * a, (r >= 0.5 * a) & (r < a), (r >= a) & (r <= b), r > b)
        for mask, piece in zip(regions, (low, blend, window, high)):
            out[mask] = piece(r[mask])
        return out

    # eigenvalues of DT are T' and T/r; T(0)=0 makes T/r an average of T'
    lam = float(min(s0, np.min(d1_window), db))
    return TensionLaw(
        eval=lambda r: _piecewise(r, lambda x: s0 * x,
                                  lambda x: ta + da * (x - a) + q2 * (x - a) ** 2,
                                  law.eval, lambda x: tb + db * (x - b)),
        d1=lambda r: _piecewise(r, lambda x: s0, lambda x: da + 2.0 * q2 * (x - a),
                                law.d1, lambda x: db),
        lam=lam,
    )
