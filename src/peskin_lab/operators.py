"""Half-Laplacian symbols on the torus and Littlewood-Paley projections.

symbol(n, m) caches the eigenvalues of two quadrature realizations of the
half-Laplacian: the sine-kernel singular integral (exact eigenvalue |k|
on pure modes, applied by lambda_sine) and the 1/alpha^2 variant
lam_tilde_k.  Singular integrals are discretized on a half-offset alpha
grid, so alpha = 0 never appears and odd parts cancel by symmetric
pairing.  Other multipliers (|k|^s, lam_tilde itself) are applied with
curve.apply_multiplier, and the lam_tilde quadratic form is
curve.parseval_norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .curve import (_BLOCK, apply_multiplier, fft_coeffs, grid_values,
                    half_offset_grid, lp_norm, magnitude, wavenumbers)

__all__ = [
    "OperatorSymbol",
    "symbol",
    "half_offset_grid",
    "lambda_sine",
    "phi_profile",
    "LPFamily",
    "lp_family",
    "lp_project",
    "lp_block_norms",
]


@dataclass(frozen=True)
class OperatorSymbol:
    """Per-wavenumber eigenvalue tables for grid size n.

    lam_sine and lam_tilde are the half-offset quadrature eigenvalues of
    the sine-kernel and 1/alpha^2 operators at m nodes; lam_sine equals
    |k| to rounding whenever m exceeds the bandwidth.
    """

    n: int
    m: int
    lam_sine: np.ndarray
    lam_tilde: np.ndarray


@lru_cache(maxsize=64)
def symbol(n: int, m: int) -> OperatorSymbol:
    """Build (and cache) the quadrature symbol tables for grid size n.

    Blocks of max(1, _BLOCK // m) wavenumbers fill one scratch buffer with
    (2/m)(1 - cos(k alpha)) and take its row products, so no (n, m) table
    is formed.  lam_tilde's factor 0.5/m is a quarter of lam_sine's 2/m,
    a power of two, so it is applied exactly at the end."""
    k = np.abs(wavenumbers(n)).astype(float)
    al = half_offset_grid(m)
    w_sine, w_tilde = 1.0 / (2.0 * np.sin(al / 2.0)) ** 2, 1.0 / al**2
    lam_sine, lam_tilde = np.empty(n), np.empty(n)
    rows = max(1, _BLOCK // m)  # wavenumbers per block
    buf = np.empty((min(rows, n), m))
    for b in range(0, n, rows):
        kb = k[b:b + rows]
        block = buf[:len(kb)]
        np.multiply.outer(kb, al, out=block)
        np.cos(block, out=block)
        np.subtract(1.0, block, out=block)
        block *= 2.0 / m
        np.matmul(block, w_sine, out=lam_sine[b:b + rows])
        np.matmul(block, w_tilde, out=lam_tilde[b:b + rows])
    lam_tilde *= 0.25
    lam_sine.flags.writeable = False
    lam_tilde.flags.writeable = False
    return OperatorSymbol(n=n, m=m, lam_sine=lam_sine, lam_tilde=lam_tilde)


def lambda_sine(values: np.ndarray) -> np.ndarray:
    """Sine-kernel half-Laplacian by half-offset quadrature on 8N nodes."""
    n = np.asarray(values).shape[0]
    return apply_multiplier(values, symbol(n, 8 * n).lam_sine)


# ---------------------------------------------------------------------------
# Littlewood-Paley blocks

_LO, _HI = 1.5, 8.0 / 3.0


def _smooth_step(t: np.ndarray) -> np.ndarray:
    # C^inf ramp: 0 for t <= 0, 1 for t >= 1, built from exp(-1/t)
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(t > 0.0, np.exp(-1.0 / np.where(t > 0.0, t, 1.0)), 0.0)
        b = np.where(t < 1.0, np.exp(-1.0 / np.where(t < 1.0, 1.0 - t, 1.0)), 0.0)
    return a / (a + b)


def phi_profile(x: np.ndarray) -> np.ndarray:
    """Radial cutoff: 1 below 3/2, 0 above 8/3, smooth and non-increasing."""
    x = np.abs(np.asarray(x, dtype=float))
    return 1.0 - _smooth_step((x - _LO) / (_HI - _LO))


@dataclass(frozen=True)
class LPFamily:
    """Cached dyadic block multipliers phi(k/2^j) - phi(k/2^(j-1)) for a grid.

    blocks[i] covers j = j_min + i; each row is supported on the annulus
    3*2^(j-2) <= |k| < 2^(j+3)/3 and the rows sum to 1 at every nonzero
    wavenumber on the grid.
    """

    n: int
    j_min: int
    j_max: int
    blocks: np.ndarray

    @property
    def js(self) -> np.ndarray:
        return np.arange(self.j_min, self.j_max + 1)

    def block(self, j: int) -> np.ndarray:
        if not (self.j_min <= j <= self.j_max):
            return np.zeros(self.n)
        return self.blocks[j - self.j_min]


@lru_cache(maxsize=64)
def lp_family(n: int) -> LPFamily:
    k = np.abs(wavenumbers(n)).astype(float)
    j_min = -1
    j_max = j_min
    while 2.0**j_max <= (n / 2) / _LO:
        j_max += 1
    rows = []
    for j in range(j_min, j_max + 1):
        rows.append(phi_profile(k / 2.0**j) - phi_profile(k / 2.0 ** (j - 1)))
    blocks = np.array(rows)
    blocks.flags.writeable = False
    return LPFamily(n=n, j_min=j_min, j_max=j_max, blocks=blocks)


def lp_project(values: np.ndarray, j: int) -> np.ndarray:
    """Frequency-localized piece of f at dyadic band 2^j."""
    values = np.asarray(values, dtype=float)
    fam = lp_family(values.shape[0])
    return apply_multiplier(values, fam.block(j))


def lp_block_norms(values: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """L^p norms of every active block; returns (js, norms).  One forward
    transform serves every block (each block is lp_project's, bit for bit)."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    fam = lp_family(n)
    coeffs = fft_coeffs(values)
    lift = (n,) + (1,) * (values.ndim - 1)
    norms = np.empty(len(fam.js))
    for i, j in enumerate(fam.js):
        block = grid_values(coeffs * fam.block(j).reshape(lift))
        norms[i] = lp_norm(magnitude(block, values.ndim == 2), p)
    return fam.js.copy(), norms
