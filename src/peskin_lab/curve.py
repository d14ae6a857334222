"""Closed planar curves on a uniform periodic grid.

A curve is sampled at theta_j = -pi + 2*pi*j/N and kept in sync with its
Fourier coefficients.  All shifts f(theta + alpha) are realized spectrally
(phase factor exp(i*k*alpha)), which is exact for band-limited data.

This module also holds the one implementation of each spectral primitive
the rest of the package builds on: the theta and half-offset grids, the
Fourier-multiplier path, and the pointwise, L^p and Parseval norms of
sampled fields.  It imports nothing from the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

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
    "coeff_power",
    "power_spectrum",
    "parseval_norm",
    "magnitude",
    "lp_norm",
    "shift_many",
    "half_offset_frame",
    "half_offset_values",
    "half_offset_window",
    "alpha_rows",
    "as_complex",
    "derivative_multiplier",
    "spectral_derivative",
    "spectral_antiderivative",
    "antiderivative_multiplier",
    "arc_chord",
    "enclosed_area",
    "read_curve",
    "write_curve",
]

MIN_NODES = 16
_BLOCK = 8192  # elements per scratch block of every blocked loop: 128 KB complex
_LINE = 64  # bytes per cache line


def _cache_aligned(owner: np.ndarray, dtype) -> np.ndarray:
    """The whole elements of dtype in the byte array owner from its first
    64-byte boundary on: a view whose base is owner, so an owner _LINE
    bytes longer than k elements holds at least k.  numpy aligns its
    arrays to 16 bytes only, and an elementwise pass over _BLOCK elements
    that start off a cache line took about twice as long."""
    start = -owner.ctypes.data % _LINE
    itemsize = np.dtype(dtype).itemsize
    return owner[start:start + (owner.size - start) // itemsize * itemsize].view(dtype)


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


def coeff_power(coeffs: np.ndarray) -> np.ndarray:
    """Power |c_k|^2 of true coefficients summed over the last (component)
    axis: shape (n,) from (n,) or (n, c), (n, t) from a stack (n, t, c) of
    t fields."""
    power = np.abs(coeffs) ** 2
    return power.sum(axis=-1) if power.ndim > 1 else power


def power_spectrum(values: np.ndarray) -> np.ndarray:
    """Power |c_k|^2 of grid samples summed over components, shape (n,)."""
    return coeff_power(fft_coeffs(values))


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


def _circulant(samples: np.ndarray, start: int, shape: tuple, steps: tuple) -> np.ndarray:
    """The read-only view of shape + samples.shape[1:] over the samples
    tiled three times, from tiled row start, moving steps[a] rows per index
    along axis a of shape: no index array and no copy."""
    ext = np.concatenate((samples,) * 3)
    s = ext.strides
    return np.lib.stride_tricks.as_strided(
        ext[start:], shape + ext.shape[1:], tuple(k * s[0] for k in steps) + s[1:],
        writeable=False)


def _check_multiple(m: int, n: int):
    if m <= 0 or m % n != 0:
        raise ValueError(f"alpha grid size {m} must be a positive multiple "
                         f"of the curve grid size {n}")


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
    return _circulant(np.fft.irfft(spectrum, big, axis=0, norm="forward"),
                      big + big // (2 * m) - big // 2, (m, n), (big // m, big // n))


@lru_cache(maxsize=64)
def _half_offset_factor(n: int, m: int) -> np.ndarray:
    # exp(i k phi_s) = (-1)^k exp(i k pi/m) exp(2 pi i k s/m)
    return _read_only(_phase(n) * np.exp(1j * wavenumbers(n) * (np.pi / m)))


def half_offset_values(coeffs: np.ndarray, m: int) -> np.ndarray:
    """Samples at the half-offset nodes -pi + (s + 1/2) 2 pi / m, m >= n,
    of the real field with true coefficients coeffs, shape (n,) or (n, c)
    in FFT order.

    The coefficients are placed in a size-m spectrum (k >= 0 at k, k < 0
    at m + k), so one size-m inverse FFT evaluates the field exactly at
    every node.  The Nyquist mode sits at wavenumber -n/2, as in
    shift_many, and is read as its real part, the part the grid sees: the
    samples are those of the field that grid_values(coeffs) holds.
    Returns shape (m,) + coeffs.shape[1:].
    """
    coeffs = np.asarray(coeffs)
    n = coeffs.shape[0]
    if m < n:
        raise ValueError(f"half-offset grid size {m} is below the coefficient "
                         f"count {n}: wavenumbers would fold")
    lift = (n,) + (1,) * (coeffs.ndim - 1)
    factor = _half_offset_factor(n, m)
    c = coeffs * factor.reshape(lift)
    if n % 2 == 0:
        c[n // 2] = coeffs[n // 2].real * factor[n // 2]
    # added into zeros, not assigned: a -0.0 part enters as +0.0, the
    # bits of an np.add.at scatter
    spectrum = np.zeros((m,) + coeffs.shape[1:], dtype=complex)
    half = (n + 1) // 2
    spectrum[:half] += c[:half]
    spectrum[m - n // 2:] += c[half:]
    return np.fft.ifft(spectrum, axis=0).real * m


def half_offset_window(samples: np.ndarray, n: int) -> np.ndarray:
    """The (alpha, theta) frame [i, j] = samples[(i - m/2 + j m/n) mod m],
    f(theta_j + alpha_i) on the half-offset m-grid, as a read-only (m, n) + rest
    window over the samples tiled three times: no index array and no copy.
    m must be a multiple of n."""
    m = len(samples)
    _check_multiple(m, n)
    return _circulant(samples, m // 2, (m, n), (1, m // n))


def alpha_rows(table: np.ndarray, n: int) -> np.ndarray:
    """The (theta, sample) frame of a table over the half-offset alpha grid:
    [j, p] = table[(p + m/2 - (m/n) j) mod m], the table's value at the
    alpha with theta_j + alpha = phi_p, the p-th half-offset node.  A
    read-only (n, m) view over the table tiled three times, with row stride
    -(m/n): no index array and no copy.  m must be a multiple of n."""
    m = len(table)
    _check_multiple(m, n)
    return _circulant(table, m + m // 2, (n, m), (-(m // n), 1))


def as_complex(values: np.ndarray) -> np.ndarray:
    """Real 2-vectors of shape (..., 2) as one complex array x + iy.

    The conversion is exact (a view of the same doubles when values is
    C-contiguous).
    """
    return np.ascontiguousarray(values, dtype=float).view(complex)[..., 0]


@lru_cache(maxsize=64)
def derivative_multiplier(n: int) -> np.ndarray:
    """ik per wavenumber of an n-point grid, 0 at the Nyquist mode (its
    derivative is not representable on the grid): one read-only array per
    n."""
    mult = 1j * wavenumbers(n).astype(float)
    mult[n // 2] = 0.0
    return _read_only(mult)


def spectral_derivative(values: np.ndarray) -> np.ndarray:
    """Derivative d/dtheta via the ik multiplier of derivative_multiplier."""
    return apply_multiplier(values, derivative_multiplier(np.asarray(values).shape[0]))


@lru_cache(maxsize=64)
def antiderivative_multiplier(n: int) -> np.ndarray:
    """1/(ik) per wavenumber of an n-point grid, 0 at k = 0: one read-only
    array per n."""
    k = wavenumbers(n).astype(float)
    return _read_only(np.where(k == 0, 0.0, 1.0 / (1j * np.where(k == 0, 1.0, k))))


def spectral_antiderivative(values: np.ndarray) -> np.ndarray:
    """Mean-zero antiderivative; the input's k=0 mode is discarded."""
    return apply_multiplier(values, antiderivative_multiplier(np.asarray(values).shape[0]))


@dataclass(frozen=True, init=False)
class Curve:
    """Closed curve X: T -> R^2 as nodal values plus Fourier coefficients.

    nodes[j] = X(theta_j) with theta_j = -pi + 2*pi*j/N; coeffs are the true
    coefficients c_k in FFT order.  from_nodes and from_coeffs each compute
    one from the other, so the two agree by construction; from_nodes, where
    outside data enters, also checks the round trip to 1e-12.  Both arrays
    are read-only copies, never the caller's own.
    """

    nodes: np.ndarray
    coeffs: np.ndarray = field(repr=False)

    def __init__(self, *args, **kwargs):
        raise TypeError("a Curve is built by Curve.from_nodes or Curve.from_coeffs")

    @classmethod
    def _built(cls, nodes: np.ndarray, coeffs: np.ndarray) -> "Curve":
        nodes = np.ascontiguousarray(nodes, dtype=float)
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise ValueError("nodes must have shape (N, 2)")
        n = nodes.shape[0]
        if n < MIN_NODES or n % 2 != 0:
            raise ValueError(f"grid size must be even and >= {MIN_NODES}, got {n}")
        coeffs = np.ascontiguousarray(coeffs, dtype=complex)
        if not (np.isfinite(nodes).all() and np.isfinite(coeffs).all()):
            raise ValueError("nodes and coeffs must be finite")
        nodes.flags.writeable = False
        coeffs.flags.writeable = False
        curve = object.__new__(cls)
        object.__setattr__(curve, "nodes", nodes)
        object.__setattr__(curve, "coeffs", coeffs)
        return curve

    @classmethod
    def from_nodes(cls, nodes: np.ndarray) -> "Curve":
        nodes = np.array(nodes, dtype=float)  # a copy: _built freezes it
        with np.errstate(invalid="ignore"):  # an inf node, which _built rejects
            curve = cls._built(nodes, fft_coeffs(nodes))
        scale = max(1.0, float(np.max(np.abs(curve.nodes))))
        if float(np.max(np.abs(grid_values(curve.coeffs) - curve.nodes))) > 1e-12 * scale:
            raise ValueError("nodes and their coefficients disagree beyond 1e-12")
        return curve

    @classmethod
    def from_coeffs(cls, coeffs: np.ndarray) -> "Curve":
        coeffs = np.array(coeffs, dtype=complex)  # a copy: _built freezes it
        with np.errstate(invalid="ignore"):  # an inf coefficient, which _built rejects
            return cls._built(grid_values(coeffs), coeffs)

    @classmethod
    def circle(cls, n: int, radius: float = 1.0) -> "Curve":
        th = theta_grid(n)
        return cls.from_nodes(np.stack([radius * np.cos(th), radius * np.sin(th)], axis=1))

    @classmethod
    def ellipse(cls, n: int, a: float = 2.0, b: float = 1.0) -> "Curve":
        th = theta_grid(n)
        return cls.from_nodes(np.stack([a * np.cos(th), b * np.sin(th)], axis=1))

    @property
    def n(self) -> int:
        return self.nodes.shape[0]

    @property
    def mean(self) -> np.ndarray:
        """The k = 0 mode (curve average), tracked as a plain point."""
        return self.coeffs[0].real.copy()

    def derivative(self) -> "Curve":
        """X' via the ik multiplier; mean of X' is zero.  Built from the
        curve's own nodes, so it skips from_nodes' round-trip check."""
        nodes = spectral_derivative(self.nodes)
        return Curve._built(nodes, fft_coeffs(nodes))


@dataclass(frozen=True)
class ArcChord:
    """The arc-chord number's grid infimum on the level-8N grid."""
    value: float


_STRIDE, _SLACK = 16, 1e-9  # coarse row stride (8 and 32 were slower), slack


@lru_cache(maxsize=16)
def _search_tables(m: int) -> tuple:
    """The read-only tables of _arc_chord_level's row search over m
    half-offset alphas: |alpha|, the coarse rows (every _STRIDE-th) and
    their |alpha|, the index c of the coarse row below each row, the row's
    offset from it and its distance to the next one (row m, row 0 shifted
    by 2 pi, past the last gap), and the rows off the coarse ones."""
    alphas = np.abs(half_offset_grid(m))
    rows = np.arange(m)
    c, off = np.divmod(rows, _STRIDE)
    coarse = np.arange(0, m, _STRIDE)
    return tuple(_read_only(table) for table in (
        alphas, coarse, alphas[coarse], c, off, np.minimum(_STRIDE - off, m - rows),
        rows[off != 0]))


def _arc_chord_level(curve: Curve, m: int) -> float:
    """Min over grid theta and half-offset alpha (m of them, a multiple of
    the curve grid size) of |delta_alpha X| / |alpha|, bitwise the dense
    frame's min.  The frame samples X(theta_j + alpha_i) by one inverse
    FFT of the curve's coefficients.  Row i is skipped only if min_j
    |delta X(theta_j, alpha_c)| - |alpha_i - alpha_c| L (c a coarse row
    next to i, L = sum_k |k| |c_k| >= max |X'|) exceeds |alpha_i| times
    this level's best so far plus a slack, relative to sum_k |c_k|, that
    absorbs rounding.  Rows are
    searched max(1, _BLOCK // n) at a time: a block of chords is squared
    in place and x^2 + y^2 written into one float block."""
    xy = curve.nodes.reshape(-1)  # x0, y0, x1, ...: the window's doubles
    window = half_offset_window(as_complex(half_offset_values(curve.coeffs, m)), curve.n)
    alphas, coarse, coarse_alphas, below, off, span, rest = _search_tables(m)
    height = max(1, _BLOCK // curve.n)  # alpha rows per block
    r2 = np.empty((height, curve.n))

    def chords(rows):  # min_j |delta X(theta_j, alpha_i)| per row i, in blocks
        out = np.empty(len(rows))
        for b in range(0, len(rows), height):
            d = window[rows[b:b + height]].view(float)  # a copy of the rows
            d -= xy
            np.square(d, out=d)
            s = np.add(d[:, 0::2], d[:, 1::2], out=r2[:len(d)])
            s.min(axis=1, out=out[b:b + height])
        return np.sqrt(out, out=out)

    size = np.linalg.norm(curve.coeffs, axis=1)
    lip = np.abs(wavenumbers(curve.n)) @ size * (2.0 * np.pi / m)  # L per row
    dc = chords(coarse)
    best = float(np.min(dc / coarse_alphas))
    dc = np.append(dc, dc[0])  # row m is row 0 shifted by 2 pi
    bound = np.maximum(dc[below] - off * lip, dc[below + 1] - span * lip)
    tol = _SLACK * size.sum()
    while (rest := rest[bound[rest] <= best * alphas[rest] + tol]).size:
        block, rest = rest[:height], rest[height:]
        best = min(best, float(np.min(chords(block) / alphas[block])))
    return best


def arc_chord(curve: Curve) -> ArcChord:
    """Arc-chord number: grid infimum of |X(theta+alpha)-X(theta)|/|alpha|.

    Sampled over theta on the N-grid and alpha on the half-offset grid of
    size 8N: the dense grid infimum to the bit, from a Wiener-bound pruned
    row search.  Returns 0 exactly for degenerate curves.
    """
    return ArcChord(_arc_chord_level(curve, 8 * curve.n))


def enclosed_area(curve: Curve) -> float:
    """Signed enclosed area (1/2) closed integral of x dy - y dx, positive
    for a counter-clockwise curve; spectrally accurate."""
    x, d = curve.nodes, curve.derivative().nodes
    return float(np.pi * np.mean(x[:, 0] * d[:, 1] - x[:, 1] * d[:, 0]))


# ---------------------------------------------------------------------------
# curve snapshot files: header "peskin-curve v1 N=<n>", then exactly N
# lines "x y"

_HEADER = "peskin-curve v1"


def write_curve(curve: Curve, path) -> None:
    text = "".join([f"{x!r} {y!r}\n" for x, y in curve.nodes.tolist()])
    with open(path, "w") as fh:
        fh.write(f"{_HEADER} N={curve.n}\n{text}")


def read_curve(path) -> Curve:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith(_HEADER):
        raise ValueError(f"{path}: not a curve snapshot file")
    try:
        n = int(lines[0].split("N=")[1])
    except (IndexError, ValueError) as exc:
        raise ValueError(f"{path}: malformed header {lines[0]!r}") from exc
    if len(lines) != 1 + n:
        raise ValueError(f"{path}: header N={n} but {len(lines) - 1} node lines")
    nodes = np.array([[float(tok) for tok in ln.split()] for ln in lines[1:]])
    if nodes.shape != (n, 2):
        raise ValueError(f"{path}: node lines must be 'x y'")
    return Curve.from_nodes(nodes)
