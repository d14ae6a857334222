"""Stokeslet cancellation residual, reflection/projection matrices, K kernels.

Everything here is a pure function of 2-vectors, vectorized over leading
axes: inputs of shape (..., 2) produce matrices of shape (..., 2, 2).
The perpendicular convention is zperp = rotate(zhat, +pi/2); every exported
quantity is invariant under flipping that choice (R enters quadratically).
"""

from __future__ import annotations

import numpy as np

from .curve import magnitude

__all__ = [
    "perp",
    "unit",
    "reflection",
    "projection",
    "cancellation_residual",
    "kernel_K",
    "kernel_A",
    "kernel_K0",
]

FOUR_PI = 4.0 * np.pi


def perp(z: np.ndarray) -> np.ndarray:
    """Rotate by +pi/2: (x, y) -> (-y, x)."""
    z = np.asarray(z, dtype=float)
    return np.stack([-z[..., 1], z[..., 0]], axis=-1)


def unit(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    r = magnitude(z)
    if np.any(r == 0.0):
        raise ValueError("zero vector has no direction")
    return z / r[..., None]


def _outer(u, v):
    return np.einsum("...i,...j->...ij", u, v)


def reflection(z: np.ndarray) -> np.ndarray:
    """R(z) = zhat@zperp + zperp@zhat; symmetric, trace-free."""
    zh = unit(z)
    zp = perp(zh)
    return _outer(zh, zp) + _outer(zp, zh)


def projection(z: np.ndarray) -> np.ndarray:
    """P(z) = zhat@zhat - zperp@zperp; symmetric, trace-free."""
    zh = unit(z)
    zp = perp(zh)
    return _outer(zh, zh) - _outer(zp, zp)


def _eye_like(z):
    shape = z.shape[:-1] + (2, 2)
    out = np.zeros(shape)
    out[..., 0, 0] = 1.0
    out[..., 1, 1] = 1.0
    return out


def cancellation_residual(u: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Norm of [d_u G1](z) z + G2(z) u, zero in exact arithmetic: the Stokeslet
    pieces G1 = -(log|z|/4pi) I and G2 = zhat@zhat/4pi give
    d_u G1 = -(u.zhat/|z|) I/4pi."""
    u = np.asarray(u, dtype=float)
    z = np.asarray(z, dtype=float)
    r = magnitude(z)
    if np.any(r == 0.0):
        raise ValueError("Stokeslet is singular at z = 0")
    zh = z / r[..., None]
    coef = -np.einsum("...i,...i->...", u, zh) / r
    du_g1 = coef[..., None, None] * _eye_like(z) / FOUR_PI
    g2 = _outer(zh, zh) / FOUR_PI
    res = np.einsum("...ij,...j->...i", du_g1, z) \
        + np.einsum("...ij,...j->...i", g2, u)
    return magnitude(res)


def _quad(u, m, v):
    return np.einsum("...i,...ij,...j->...", u, m, v)


def kernel_K(a: np.ndarray, b: np.ndarray, d: np.ndarray,
             form: str = "direct") -> np.ndarray:
    """Evolution kernel K(a, b, d) for a = X'(theta+alpha), b = X'(theta),
    d = D_alpha X.

    form "direct" evaluates the three-term expression in a, b, d; form
    "split" evaluates I/4pi + A with the five-term remainder kernel.  The
    two agree to rounding; both are symmetric 2x2 matrices.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = np.asarray(d, dtype=float)
    r2 = d[..., 0] ** 2 + d[..., 1] ** 2
    if np.any(r2 == 0.0):
        raise ValueError("divided difference vanishes: arc-chord failure")
    if form == "split":
        return _eye_like(d) / FOUR_PI + kernel_A(a, b, d)
    if form != "direct":
        raise ValueError(f"unknown form {form!r}")
    p = projection(d)
    rm = reflection(d)
    eye = _eye_like(d)
    c_p = _quad(a, p, b) / r2
    c_r = _quad(a, rm, b) / r2
    c_pi = _quad(a, p - eye, b) / r2
    return (c_p[..., None, None] * eye
            - c_r[..., None, None] * rm
            + c_pi[..., None, None] * p) / FOUR_PI


def kernel_A(a: np.ndarray, b: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Remainder kernel A = K - I/4pi in the difference variables.

    Every term carries a factor of delta_plus = a - d or delta_minus =
    b - d, which is the cancellation that keeps the alpha-integral of
    A/alpha^2 finite.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = np.asarray(d, dtype=float)
    r2 = d[..., 0] ** 2 + d[..., 1] ** 2
    if np.any(r2 == 0.0):
        raise ValueError("divided difference vanishes: arc-chord failure")
    dp = a - d
    dm = b - d
    p = projection(d)
    rm = reflection(d)
    eye = _eye_like(d)
    t1 = _quad(dp, p, dm) / r2
    t2 = np.einsum("...i,...ij,...j->...", dp + dm, p, d) / r2
    t3 = _quad(dp, rm, dm) / r2
    t4 = np.einsum("...i,...ij,...j->...", dp + dm, rm, d) / r2
    t5 = _quad(dp, p - eye, dm) / r2
    return ((t1 + t2)[..., None, None] * eye
            - (t3 + t4)[..., None, None] * rm
            + t5[..., None, None] * p) / FOUR_PI


def kernel_K0(a: np.ndarray, b: np.ndarray, delta_x: np.ndarray,
              alpha) -> np.ndarray:
    """Unscaled kernel: K0 = K(a, b, delta_x/alpha) / alpha^2."""
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha == 0.0):
        raise ValueError("alpha must be nonzero")
    delta_x = np.asarray(delta_x, dtype=float)
    d = delta_x / alpha[..., None] if alpha.ndim else delta_x / alpha
    scale = alpha**2 if alpha.ndim else alpha * alpha
    return kernel_K(a, b, d) / (scale[..., None, None] if alpha.ndim else scale)

