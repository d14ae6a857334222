"""Closed planar curves on a uniform periodic grid and the difference calculus.

A curve is sampled at theta_j = -pi + 2*pi*j/N and kept in sync with its
Fourier coefficients.  All shifts f(theta + alpha) are realized spectrally
(phase factor exp(i*k*alpha)), which is exact for band-limited data.

This module also holds the one implementation of each spectral primitive
the rest of the package builds on: the theta and half-offset grids, the
Fourier-multiplier path, and the pointwise, L^p and Parseval norms of
sampled fields.  It imports nothing from the package.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "Curve",
    "ArcChord",
    "theta_grid",
    "half_offset_grid",
    "wavenumbers",
    "fft_coeffs",
    "grid_values",
    "apply_multiplier",
    "power_spectrum",
    "parseval_norm",
    "magnitude",
    "lp_norm",
    "spectral_shift",
    "shift_many",
    "half_offset_frame",
    "half_offset_samples",
    "half_offset_values",
    "half_offset_window",
    "alpha_rows",
    "as_complex",
    "spectral_derivative",
    "spectral_antiderivative",
    "antiderivative_multiplier",
    "difference",
    "arc_chord",
    "enclosed_area",
    "read_curve",
    "write_curve",
]

MIN_NODES = 16


def theta_grid(n: int) -> np.ndarray:
    """Uniform grid theta_j = -pi + 2*pi*j/n, j = 0..n-1."""
    return -np.pi + 2.0 * np.pi * np.arange(n) / n


def half_offset_grid(m: int) -> np.ndarray:
    """Half-offset quadrature nodes alpha = -pi + (i + 1/2) 2 pi / m."""
    return -np.pi + (np.arange(m) + 0.5) * 2.0 * np.pi / m


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@lru_cache(maxsize=64)
def wavenumbers(n: int) -> np.ndarray:
    """Integer wavenumbers in FFT order; index n//2 holds -n//2.  One
    read-only array per n, shared by every caller."""
    return _read_only(np.fft.fftfreq(n, d=1.0 / n).astype(np.int64))


@lru_cache(maxsize=64)
def _phase(n: int) -> np.ndarray:
    # grid starts at -pi, so true coefficients pick up (-1)^k relative to FFT
    k = wavenumbers(n)
    return _read_only(np.where(k % 2 == 0, 1.0, -1.0))


def fft_coeffs(values: np.ndarray) -> np.ndarray:
    """True Fourier coefficients c_k of grid samples, FFT wavenumber order.

    values has shape (n,) or (n, c); the transform acts along axis 0 and the
    reconstruction is f(theta) = sum_k c_k exp(i*k*theta).
    """
    values = np.asarray(values)
    n = values.shape[0]
    out = np.fft.fft(values, axis=0) / n
    ph = _phase(n)
    return out * (ph.reshape((n,) + (1,) * (values.ndim - 1)))


def grid_values(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of fft_coeffs; returns real grid samples."""
    coeffs = np.asarray(coeffs)
    n = coeffs.shape[0]
    ph = _phase(n).reshape((n,) + (1,) * (coeffs.ndim - 1))
    return np.fft.ifft(coeffs * ph, axis=0).real * n


def apply_multiplier(values: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """Grid samples of the Fourier multiplier mult (shape (n,), FFT order)
    applied to the samples of shape (n,) or (n, c), componentwise."""
    values = np.asarray(values, dtype=float)
    c = fft_coeffs(values)
    return grid_values(c * mult.reshape((len(mult),) + (1,) * (values.ndim - 1)))


def power_spectrum(values: np.ndarray) -> np.ndarray:
    """Power |c_k|^2 of grid samples summed over components, shape (n,)."""
    power = np.abs(fft_coeffs(values)) ** 2
    return power.reshape(len(power), -1).sum(axis=1)


def parseval_norm(power: np.ndarray, weights: np.ndarray | None = None) -> float:
    """sqrt(2 pi sum_k w_k power_k) for power = power_spectrum(f): by Parseval
    the L2 norm on T of f under the Fourier multiplier sqrt(w_k), of f itself
    when weights is None."""
    total = np.sum(power) if weights is None else np.sum(weights * power)
    return float(np.sqrt(2.0 * np.pi * total))


def magnitude(values: np.ndarray, vector: bool = True) -> np.ndarray:
    """Pointwise |f| of samples: the length of each 2-vector of a (..., 2)
    field, or the absolute value of a scalar field when vector is False."""
    return np.hypot(values[..., 0], values[..., 1]) if vector else np.abs(values)


def lp_norm(mag: np.ndarray, p: float) -> np.ndarray:
    """L^p(T) norm of pointwise magnitudes sampled on the theta grid along
    the last axis (max for p = inf); one norm per leading index."""
    if np.isinf(p):
        return mag.max(axis=-1)
    return (2.0 * np.pi * np.mean(mag**p, axis=-1)) ** (1.0 / p)


def spectral_shift(values: np.ndarray, alpha: float) -> np.ndarray:
    """Samples of f(theta + alpha) from samples of f, exact for band-limited f."""
    k = wavenumbers(np.asarray(values).shape[0])
    return apply_multiplier(values, np.exp(1j * k * alpha))


def shift_many(values: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Batched spectral shifts: result[m] = samples of f(theta + alphas[m]).

    Returns shape (len(alphas),) + values.shape.
    """
    values = np.asarray(values)
    alphas = np.asarray(alphas, dtype=float)
    n = values.shape[0]
    k = wavenumbers(n)
    c = fft_coeffs(values)
    phase = np.exp(1j * np.multiply.outer(alphas, k))  # (m, n)
    shifted = phase.reshape(phase.shape + (1,) * (values.ndim - 1)) * c[None]
    ph = _phase(n).reshape((1, n) + (1,) * (values.ndim - 1))
    return np.fft.ifft(shifted * ph, axis=1).real * n


def half_offset_frame(values: np.ndarray, m: int) -> np.ndarray:
    """The (beta, theta) frame [i, j] = f(theta_j + beta_i) of grid samples
    f over the half-offset m-grid beta_i, for any m: shift_many(values,
    half_offset_grid(m)) from one inverse FFT.

    Every theta_j + beta_i is a node of theta_grid(G), G = 2 lcm(n, m), at
    index (j G/n + (2i + 1) G/(2m) - G/2) mod G.  The field is sampled
    there once by an inverse real FFT of the zero-padded spectrum; the
    Nyquist mode of an even grid is read as its real part, as in
    shift_many.  Returns a read-only (m, n) + values.shape[1:] view over
    those samples tiled three times.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    big = 2 * math.lcm(n, m)
    spectrum = np.fft.rfft(values, axis=0, norm="forward")
    if n % 2 == 0:
        spectrum[n // 2] *= 0.5  # the real Nyquist bin feeds both of +-n/2
    ext = np.concatenate((np.fft.irfft(spectrum, big, axis=0, norm="forward"),) * 3)
    s = ext.strides
    return np.lib.stride_tricks.as_strided(
        ext[big + big // (2 * m) - big // 2:], (m, n) + ext.shape[1:],
        (big // m * s[0], big // n * s[0]) + s[1:], writeable=False)


def half_offset_samples(values: np.ndarray, m: int) -> np.ndarray:
    """Samples of f at the half-offset nodes -pi + (s + 1/2) 2 pi / m, from
    its grid samples (see half_offset_values).  Returns shape (m,) +
    values.shape[1:]."""
    return half_offset_values(fft_coeffs(values), m)


@lru_cache(maxsize=64)
def _half_offset_factor(n: int, m: int) -> np.ndarray:
    # exp(i k phi_s) = (-1)^k exp(i k pi/m) exp(2 pi i k s/m)
    return _read_only(_phase(n) * np.exp(1j * wavenumbers(n) * (np.pi / m)))


def half_offset_values(coeffs: np.ndarray, m: int) -> np.ndarray:
    """Samples at the half-offset nodes -pi + (s + 1/2) 2 pi / m of the real
    field with true coefficients coeffs, shape (n,) or (n, c) in FFT order.

    The coefficients are folded modulo m, so one size-m inverse FFT
    evaluates the field exactly at every node for any m.  The Nyquist mode
    sits at wavenumber -n/2, as in shift_many, and is read as its real
    part, the part the grid sees: the samples are those of the field that
    grid_values(coeffs) holds.  Returns shape (m,) + coeffs.shape[1:].
    """
    coeffs = np.asarray(coeffs)
    n = coeffs.shape[0]
    lift = (n,) + (1,) * (coeffs.ndim - 1)
    factor = _half_offset_factor(n, m)
    c = coeffs * factor.reshape(lift)
    if n % 2 == 0:
        c[n // 2] = coeffs[n // 2].real * factor[n // 2]
    folded = np.zeros((m,) + coeffs.shape[1:], dtype=complex)
    np.add.at(folded, wavenumbers(n) % m, c)
    return np.fft.ifft(folded, axis=0).real * m


def half_offset_window(samples: np.ndarray, n: int) -> np.ndarray:
    """The (alpha, theta) frame [i, j] = samples[(i - m/2 + j m/n) mod m],
    f(theta_j + alpha_i) on the half-offset m-grid, as a read-only (m, n) + rest
    window over the samples tiled three times: no index array and no copy.
    m must be a multiple of n."""
    m = len(samples)
    if m <= 0 or m % n != 0:
        raise ValueError(f"alpha grid size {m} must be a positive multiple "
                         f"of the curve grid size {n}")
    ext = np.concatenate((samples,) * 3)
    s = ext.strides
    return np.lib.stride_tricks.as_strided(
        ext[m // 2:], (m, n) + ext.shape[1:], (s[0], m // n * s[0]) + s[1:],
        writeable=False)


def alpha_rows(table: np.ndarray, n: int) -> np.ndarray:
    """The (theta, sample) frame of a table over the half-offset alpha grid:
    [j, p] = table[(p + m/2 - (m/n) j) mod m], the table's value at the
    alpha with theta_j + alpha = phi_p, the p-th half-offset node.  A
    read-only (n, m) view over the table tiled three times, with row stride
    -(m/n): no index array and no copy.  m must be a multiple of n."""
    m = len(table)
    if m <= 0 or m % n != 0:
        raise ValueError(f"alpha grid size {m} must be a positive multiple "
                         f"of the curve grid size {n}")
    ext = np.concatenate((table,) * 3)
    s = ext.strides[0]
    return np.lib.stride_tricks.as_strided(
        ext[m + m // 2:], (n, m), (-(m // n) * s, s), writeable=False)


def as_complex(values: np.ndarray) -> np.ndarray:
    """Real 2-vectors of shape (..., 2) as one complex array x + iy.

    The conversion is exact (a view of the same doubles when values is
    C-contiguous).
    """
    return np.ascontiguousarray(values, dtype=float).view(complex)[..., 0]


def spectral_derivative(values: np.ndarray, order: int = 1) -> np.ndarray:
    """Derivative d^order/dtheta^order via the ik multiplier.

    The Nyquist mode is zeroed for odd orders (its derivative is not
    representable on the grid).
    """
    n = np.asarray(values).shape[0]
    mult = (1j * wavenumbers(n).astype(float)) ** order
    if order % 2 == 1:
        mult[n // 2] = 0.0
    return apply_multiplier(values, mult)


@lru_cache(maxsize=64)
def antiderivative_multiplier(n: int) -> np.ndarray:
    """1/(ik) per wavenumber of an n-point grid, 0 at k = 0: one read-only
    array per n."""
    k = wavenumbers(n).astype(float)
    return _read_only(np.where(k == 0, 0.0, 1.0 / (1j * np.where(k == 0, 1.0, k))))


def spectral_antiderivative(values: np.ndarray) -> np.ndarray:
    """Mean-zero antiderivative; the input's k=0 mode is discarded."""
    return apply_multiplier(values, antiderivative_multiplier(np.asarray(values).shape[0]))


@dataclass(frozen=True)
class Curve:
    """Closed curve X: T -> R^2 as nodal values plus Fourier coefficients.

    nodes[j] = X(theta_j) with theta_j = -pi + 2*pi*j/N; coeffs are the true
    coefficients c_k in FFT order; the two stay in sync by construction.
    """

    nodes: np.ndarray
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        nodes = np.ascontiguousarray(np.asarray(self.nodes, dtype=float))
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise ValueError("nodes must have shape (N, 2)")
        n = nodes.shape[0]
        if n < MIN_NODES or n % 2 != 0:
            raise ValueError(f"grid size must be even and >= {MIN_NODES}, got {n}")
        coeffs = np.ascontiguousarray(np.asarray(self.coeffs, dtype=complex))
        if coeffs.shape != nodes.shape:
            raise ValueError("coeffs shape must match nodes shape")
        # the two representations must agree through the transform
        back = grid_values(coeffs)
        scale = max(1.0, float(np.max(np.abs(nodes))))
        if float(np.max(np.abs(back - nodes))) > 1e-12 * scale:
            raise ValueError("nodes and coeffs disagree beyond 1e-12")
        nodes.flags.writeable = False
        coeffs.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_nodes(cls, nodes: np.ndarray) -> "Curve":
        nodes = np.asarray(nodes, dtype=float)
        return cls(nodes=nodes, coeffs=fft_coeffs(nodes))

    @classmethod
    def from_coeffs(cls, coeffs: np.ndarray) -> "Curve":
        coeffs = np.asarray(coeffs, dtype=complex)
        return cls(nodes=grid_values(coeffs), coeffs=coeffs)

    @classmethod
    def circle(cls, n: int, radius: float = 1.0, center=(0.0, 0.0)) -> "Curve":
        th = theta_grid(n)
        nodes = np.stack(
            [center[0] + radius * np.cos(th), center[1] + radius * np.sin(th)], axis=1
        )
        return cls.from_nodes(nodes)

    @classmethod
    def ellipse(cls, n: int, a: float = 2.0, b: float = 1.0, center=(0.0, 0.0)) -> "Curve":
        th = theta_grid(n)
        nodes = np.stack([center[0] + a * np.cos(th), center[1] + b * np.sin(th)], axis=1)
        return cls.from_nodes(nodes)

    @property
    def n(self) -> int:
        return self.nodes.shape[0]

    @property
    def mean(self) -> np.ndarray:
        """The k = 0 mode (curve average), tracked as a plain point."""
        return self.coeffs[0].real.copy()

    def with_mean(self, mean) -> "Curve":
        c = self.coeffs.copy()
        c[0] = np.asarray(mean, dtype=float)
        return Curve.from_coeffs(c)

    def derivative(self, order: int = 1) -> "Curve":
        """X' (or higher) via the ik multiplier; mean of X' is zero."""
        return Curve.from_nodes(spectral_derivative(self.nodes, order))

    def resampled(self, n_new: int) -> "Curve":
        """Same trigonometric polynomial sampled on an n_new grid."""
        if n_new < self.n:
            raise ValueError("refinement only")
        if n_new == self.n:
            return self
        c_new = np.zeros((n_new, 2), dtype=complex)
        c_new[wavenumbers(self.n) % n_new] = self.coeffs
        # the grid is even: split its Nyquist mode (index N/2 holds -N/2)
        # symmetrically onto +-N/2
        half = self.n // 2
        c_new[half] = c_new[n_new - half] = self.coeffs[half] / 2.0
        return Curve.from_coeffs(c_new)


_VARIANTS = ("plain", "divided", "plus", "minus")


def difference(values: np.ndarray, alpha: float, variant: str = "plain",
               primitive: np.ndarray | None = None) -> np.ndarray:
    """Samples of one of the difference operators on the theta grid.

    variant "plain" is f(theta+alpha) - f(theta); "divided" is that over
    alpha; "plus" is X'(theta+alpha) - D_alpha X; "minus" is X'(theta) -
    D_alpha X.  For "plus"/"minus", values must hold the derivative field
    X' and primitive the position samples X (the divided difference
    D_alpha X is formed from it).
    """
    if alpha == 0.0:
        raise ValueError("offset alpha must be nonzero")
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    values = np.asarray(values, dtype=float)
    if variant == "plain":
        return spectral_shift(values, alpha) - values
    if variant == "divided":
        return (spectral_shift(values, alpha) - values) / alpha
    if primitive is None:
        raise ValueError("plus/minus variants need the primitive samples")
    primitive = np.asarray(primitive, dtype=float)
    divided = (spectral_shift(primitive, alpha) - primitive) / alpha
    if variant == "plus":
        return spectral_shift(values, alpha) - divided
    return values - divided


class ArcChord:
    """Grid approximation of the arc-chord number with a refinement estimate.

    value is the level-2m grid infimum.  estimate, twice its distance from
    the level-m infimum, costs a second level search, so it is computed
    when it is first read and kept."""

    def __init__(self, value: float, curve: Curve, m: int):
        self.value = value
        self._coarse = (curve, m)

    @cached_property
    def estimate(self) -> float:
        # first-order refinement: the level difference matches the remaining
        # error asymptotically, so report it with a safety factor of two
        return 2.0 * abs(self.value - _arc_chord_level(*self._coarse))


_STRIDE, _BLOCK, _SLACK = 8, 64, 1e-9  # coarse row stride, rows per block, slack


def _arc_chord_level(curve: Curve, m: int) -> float:
    """Min over grid theta and half-offset alpha (m of them, a multiple of
    the curve grid size) of |delta_alpha X| / |alpha|, bitwise the dense
    frame's min: row i is skipped only if min_j |delta X(theta_j, alpha_c)|
    - |alpha_i - alpha_c| L (c a coarse row next to i, L = sum_k |k| |c_k|
    >= max |X'|) exceeds |alpha_i| times this level's best so far plus a
    slack, relative to sum_k |c_k|, that absorbs rounding."""
    z = as_complex(curve.nodes)
    window = half_offset_window(as_complex(half_offset_samples(curve.nodes, m)), curve.n)
    alphas = np.abs(half_offset_grid(m))

    def chords(rows):  # min_j |delta X(theta_j, alpha_i)| per row i, in blocks
        out = np.empty(len(rows))
        for b in range(0, len(rows), _BLOCK):
            dz = window[rows[b:b + _BLOCK]] - z
            out[b:b + _BLOCK] = np.sqrt((dz.real**2 + dz.imag**2).min(axis=1))
        return out

    size = np.linalg.norm(curve.coeffs, axis=1)
    lip = np.abs(wavenumbers(curve.n)) @ size * (2.0 * np.pi / m)  # L per row
    dc = chords(np.arange(0, m, _STRIDE))
    best = float(np.min(dc / alphas[::_STRIDE]))
    rows = np.arange(m)  # row m is row 0 shifted by 2 pi: the last gap wraps
    c, off = np.divmod(rows, _STRIDE)
    dc = np.append(dc, dc[0])
    bound = np.maximum(dc[c] - off * lip,
                       dc[c + 1] - np.minimum(_STRIDE - off, m - rows) * lip)
    rest, tol = rows[off != 0], _SLACK * size.sum()
    while (rest := rest[bound[rest] <= best * alphas[rest] + tol]).size:
        block, rest = rest[:_BLOCK], rest[_BLOCK:]
        best = min(best, float(np.min(chords(block) / alphas[block])))
    return best


def arc_chord(curve: Curve, m: int | None = None) -> ArcChord:
    """Arc-chord number: grid infimum of |X(theta+alpha)-X(theta)|/|alpha|.

    Sampled over theta on the N-grid and alpha on a half-offset grid of
    size 2m, m >= 4N; estimate reports the difference from the level m,
    which is searched only when estimate is read.  Each level is the dense
    grid infimum to the bit, from a Wiener-bound pruned row search.
    Returns 0 exactly for degenerate curves.
    """
    m = max(4 * curve.n if m is None else m, 4 * curve.n)
    return ArcChord(_arc_chord_level(curve, 2 * m), curve, m)


def enclosed_area(curve: Curve) -> float:
    """Signed enclosed area (1/2) closed integral of x dy - y dx, positive
    for a counter-clockwise curve; spectrally accurate."""
    x, d = curve.nodes, curve.derivative().nodes
    return float(np.pi * np.mean(x[:, 0] * d[:, 1] - x[:, 1] * d[:, 0]))


# ---------------------------------------------------------------------------
# curve snapshot files: header "peskin-curve v1 N=<n>", then N lines "x y",
# optionally followed by Fourier lines "k re_x im_x re_y im_y"

_HEADER = "peskin-curve v1"


def write_curve(curve: Curve, path, fourier: bool = False) -> None:
    buf = io.StringIO()
    buf.write(f"{_HEADER} N={curve.n}\n")
    buf.write("".join([f"{x!r} {y!r}\n" for x, y in curve.nodes.tolist()]))
    if fourier:
        ks = wavenumbers(curve.n)
        order = np.argsort(ks)
        for i in order:
            c = curve.coeffs[i]
            buf.write(f"{int(ks[i])} {float(c[0].real)!r} {float(c[0].imag)!r} "
                      f"{float(c[1].real)!r} {float(c[1].imag)!r}\n")
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def read_curve(path) -> Curve:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith(_HEADER):
        raise ValueError(f"{path}: not a curve snapshot file")
    try:
        n = int(lines[0].split("N=")[1])
    except (IndexError, ValueError) as exc:
        raise ValueError(f"{path}: malformed header {lines[0]!r}") from exc
    if len(lines) < 1 + n:
        raise ValueError(f"{path}: expected {n} node lines")
    nodes = np.array(
        [[float(tok) for tok in ln.split()] for ln in lines[1 : 1 + n]]
    )
    if nodes.shape != (n, 2):
        raise ValueError(f"{path}: node lines must be 'x y'")
    return Curve.from_nodes(nodes)
