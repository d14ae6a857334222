"""Stokeslet, reflection/projection matrices, and the evolution kernels.

Everything here is a pure function of 2-vectors, vectorized over leading
axes: inputs of shape (..., 2) produce matrices of shape (..., 2, 2).
The perpendicular convention is zperp = rotate(zhat, +pi/2); every exported
quantity is invariant under flipping that choice (R enters quadratically).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

import numpy as np

from .curve import magnitude

__all__ = [
    "KernelInput",
    "perp",
    "unit",
    "reflection",
    "projection",
    "stokeslet",
    "stokeslet_derivatives",
    "cancellation_residual",
    "kernel_K",
    "kernel_A",
    "kernel_K0",
    "BoundReport",
    "a_bound_audit",
    "a_beta_bound_audit",
    "a_pair_bound_audit",
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


def stokeslet(z: np.ndarray, part: str = "G") -> np.ndarray:
    """2D Stokeslet: G1 = -(log|z|/4pi) I, G2 = (zhat@zhat)/4pi, G = G1+G2."""
    z = np.asarray(z, dtype=float)
    r = magnitude(z)
    if np.any(r == 0.0):
        raise ValueError("Stokeslet is singular at z = 0")
    if part == "G1":
        return -(np.log(r) / FOUR_PI)[..., None, None] * _eye_like(z)
    if part == "G2":
        zh = z / r[..., None]
        return _outer(zh, zh) / FOUR_PI
    if part == "G":
        return stokeslet(z, "G1") + stokeslet(z, "G2")
    raise ValueError(f"unknown part {part!r}")


def stokeslet_derivatives(u: np.ndarray, v: np.ndarray | None, z: np.ndarray,
                          which: str) -> np.ndarray:
    """Directional derivatives of the Stokeslet pieces.

    which is one of "d_u G1", "d_u G2", "d_u d_v G1", "d_u d_v G2"; the
    second-order forms require v.
    """
    u = np.asarray(u, dtype=float)
    z = np.asarray(z, dtype=float)
    r = magnitude(z)
    if np.any(r == 0.0):
        raise ValueError("Stokeslet derivatives are singular at z = 0")
    zh = z / r[..., None]
    if which == "d_u G1":
        coef = -np.einsum("...i,...i->...", u, zh) / r
        return coef[..., None, None] * _eye_like(z) / FOUR_PI
    if which == "d_u G2":
        zp = perp(zh)
        coef = np.einsum("...i,...i->...", u, zp) / r
        return coef[..., None, None] * reflection(z) / FOUR_PI
    if v is None:
        raise ValueError("second-order derivatives require v")
    v = np.asarray(v, dtype=float)
    p = projection(z)
    if which == "d_u d_v G1":
        coef = np.einsum("...i,...ij,...j->...", u, p, v) / r**2
        return coef[..., None, None] * _eye_like(z) / FOUR_PI
    if which == "d_u d_v G2":
        rm = reflection(z)
        c_r = np.einsum("...i,...ij,...j->...", u, rm, v) / r**2
        c_p = np.einsum("...i,...ij,...j->...", u, p - _eye_like(z), v) / r**2
        return (-c_r[..., None, None] * rm + c_p[..., None, None] * p) / FOUR_PI
    raise ValueError(f"unknown derivative {which!r}")


def cancellation_residual(u: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Norm of [d_u G1](z) z + G2(z) u; identically zero in exact arithmetic."""
    du_g1 = stokeslet_derivatives(u, None, z, "d_u G1")
    g2 = stokeslet(z, "G2")
    res = np.einsum("...ij,...j->...i", du_g1, np.asarray(z, dtype=float)) \
        + np.einsum("...ij,...j->...i", g2, np.asarray(u, dtype=float))
    return magnitude(res)


@dataclass(frozen=True)
class KernelInput:
    """The vector triple feeding the evolution kernels at one (theta, alpha).

    a = X'(theta+alpha), b = X'(theta), d = D_alpha X(theta); the derived
    differences are delta_plus = a - d and delta_minus = b - d.  Arrays of
    shape (..., 2) batch many samples.
    """

    a: np.ndarray
    b: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        d = np.asarray(self.d, dtype=float)
        if a.shape[-1] != 2 or b.shape != a.shape or d.shape != a.shape:
            raise ValueError("a, b, d must share a (..., 2) shape")
        if np.any(magnitude(d) == 0.0):
            raise ValueError("divided difference vanishes: arc-chord failure")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    @property
    def delta_plus(self) -> np.ndarray:
        return self.a - self.d

    @property
    def delta_minus(self) -> np.ndarray:
        return self.b - self.d


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


def _frob(m):
    return np.sqrt(np.einsum("...ij,...ij->...", m, m))


@dataclass(frozen=True)
class BoundReport:
    """Outcome of a pointwise kernel-bound sweep."""

    name: str
    n_samples: int
    constant: float
    max_ratio: float
    n_violations: int
    passed: bool = dfield(init=False)

    def __post_init__(self):
        object.__setattr__(self, "passed", self.n_violations == 0)


# Bound constants fitted once over calibration sweeps (2e5 random triples,
# |d| >= rho, offsets up to 10x rho) and frozen with ~2x margin; the audits
# are regression guards, not proofs.  Observed max ratios of the
# unit-constant bounds: 0.24, 0.18, 0.18.
A_BOUND_CONST = 0.50
A_BETA_BOUND_CONST = 0.40
A_PAIR_BOUND_CONST = 0.40


def _check_floor(rho: float, *inputs: KernelInput) -> None:
    if rho <= 0:
        raise ValueError("rho must be positive")
    if any(np.any(magnitude(inp.d) < rho) for inp in inputs):
        raise ValueError("sample violates the arc-chord floor rho")


def _bound_report(name: str, lhs: np.ndarray, bound: np.ndarray,
                  constant: float) -> BoundReport:
    # a zero bound forces every difference it carries to vanish, so lhs is
    # exactly 0 there and its ratio is 0
    ratio = np.where(bound > 0, lhs / np.where(bound > 0, bound, 1.0), 0.0)
    return BoundReport(
        name=name,
        n_samples=int(lhs.size),
        constant=constant,
        max_ratio=float(np.max(ratio)) if lhs.size else 0.0,
        n_violations=int(np.sum(lhs > bound + 1e-14)),
    )


def a_bound_audit(inp: KernelInput, rho: float,
                  constant: float = A_BOUND_CONST) -> BoundReport:
    """Check |A| <= C (rho^-2 |dp||dm| + rho^-1 (|dp| + |dm|)) samplewise.

    dp/dm are the plus/minus differences a - d and b - d (the quadratic
    and linear difference content of the five kernel terms); requires
    |d| >= rho at every sample.  This is the pointwise form of the
    quadratic-plus-linear difference estimate; in integrated norms the
    plus/minus operators are interchangeable with the plain difference.
    """
    _check_floor(rho, inp)
    lhs = _frob(kernel_A(inp.a, inp.b, inp.d))
    dp = magnitude(inp.delta_plus)
    dm = magnitude(inp.delta_minus)
    bound = constant * (dp * dm / rho**2 + (dp + dm) / rho)
    return _bound_report("A-pointwise", lhs, bound, constant)


def a_beta_bound_audit(inp: KernelInput, inp_beta: KernelInput, rho: float,
                       constant: float = A_BETA_BOUND_CONST) -> BoundReport:
    """Check the translated-difference bound on delta_beta A.

    inp holds the kernel data at theta, inp_beta the data at theta+beta.
    The right-hand side combines the two pointwise bounds for the pieces
    where the difference falls on the X' factors and on the divided
    difference.
    """
    _check_floor(rho, inp, inp_beta)
    lhs = _frob(kernel_A(inp_beta.a, inp_beta.b, inp_beta.d)
                - kernel_A(inp.a, inp.b, inp.d))
    dpp, dmm = magnitude(inp.delta_plus), magnitude(inp.delta_minus)
    tb_dm = magnitude(inp_beta.delta_minus)
    db_dp = magnitude(inp_beta.delta_plus - inp.delta_plus)
    db_dm = magnitude(inp_beta.delta_minus - inp.delta_minus)
    db_d = magnitude(inp_beta.d - inp.d)
    b1 = (db_dp * tb_dm + dpp * db_dm) / rho**2 + (db_dp + db_dm) / rho
    b2 = dpp * (tb_dm + dmm) * db_d / rho**3 + (dpp + dmm) * db_d / rho**2
    return _bound_report("A-translated-difference", lhs, constant * (b1 + b2),
                         constant)


def a_pair_bound_audit(inp_x: KernelInput, inp_y: KernelInput, rho: float,
                       constant: float = A_PAIR_BOUND_CONST) -> BoundReport:
    """Check the two-curve bound on A[X] - A[Y] at matched samples.

    rho plays the role of the smaller of the two arc-chord floors.
    """
    _check_floor(rho, inp_x, inp_y)
    lhs = _frob(kernel_A(inp_x.a, inp_x.b, inp_x.d)
                - kernel_A(inp_y.a, inp_y.b, inp_y.d))
    dp_diff = magnitude(inp_x.delta_plus - inp_y.delta_plus)
    dm_diff = magnitude(inp_x.delta_minus - inp_y.delta_minus)
    d_diff = magnitude(inp_x.d - inp_y.d)
    dm_x = magnitude(inp_x.delta_minus)
    dp_y = magnitude(inp_y.delta_plus)
    dm_y = magnitude(inp_y.delta_minus)
    bound = constant * (
        (dp_diff + dm_diff) / rho
        + (dp_diff * dm_x + dm_diff * dp_y) / rho**2
        + d_diff * (dm_y + dp_y) / rho**2
        + d_diff * dm_y * dp_y / rho**3
    )
    return _bound_report("A-two-curve-difference", lhs, bound, constant)
