"""Right-hand sides of the boundary-integral evolution and time stepping.

Three equivalent evaluators are provided: the position form driven by the
full Stokeslet, the first-derivatives-only position form, and the
derivative-equation form driven by the matrix kernel.  All alpha
integrals run over a shared half-offset grid, so the odd 1/alpha parts
cancel by symmetric pairing.  Each band-limited field (X, X', T(X'), the
padded force) is sampled exactly once on the half-offset m-grid phi_p,
and nonlinear functions are evaluated on the samples.

The frame is walked by theta rows: row j pairs the node theta_j with
every sample phi_p, at alpha = phi_p - theta_j, so the samples are plain
m-vectors broadcast against a block's node values, and every
alpha-dependent factor (1/alpha, 1/alpha^2, log 4 sin^2(alpha/2)) is
read from the read-only circulant view curve.alpha_rows of an m-table.
The (n, m) frame is never formed.  right_hand_sides serves any set of
FORMS from one pass over blocks of max(1, _BLOCK // m) theta rows, so
that the buffers stay in cache: a block fills the chord, |chord|^2,
1/chord and 1/chord^2, and checks the arc-chord floor on its rows, only
when a requested integrand reads them.  A block does only the
elementwise work the singular structure needs; every form sums its rows
by row dots, against fixed sample vectors or the jump, with out= into
(n,) accumulators it owns, and combines them into its field once per
walk (its finish).  One _Frame object is the walk, and every integrand
a closure over it; its block buffers are allocated once per thread and
refilled with out= by every block of every pass.

With the chord dz, W = 1/dz^2, t = 1/dz and the tension jump J, which
stay exact elementwise differences, the row sums are:

- K (see _kernel_form) has degree -2 in the chord, K(a, b, dz/alpha) /
  alpha^2 = K(a, b, dz), so the node value b = X'(theta) leaves the sum:
  three dots, b joined in the finish.  An IMEX step gets K and the
  position velocity from one pass, which reads t rot = W conj(dz).
- A (see _remainder_form) keeps the divided difference d = dz/alpha in
  dp = a - d and dm = b - d, and the rule's 1/alpha^2 goes into the chord
  quantities: its coefficients are dp dm W, (dp + dm) t / alpha and
  Re(conj(dp) dm) / |dz|^2, and a row is one real and one complex dot.
- The full Stokeslet (see _bi_form): log(|dz| / |2 sin(alpha/2)|) =
  (log |dz|^2 - log 4 sin^2(alpha/2)) / 2 and sum (f + conj(rot f)) / 2 =
  (sum f + conj(sum rot f)) / 2 over the force samples f: two dots.
- The dissipation is one real dot of the 1/alpha^2 rows with J.

The IMEX step keeps the state in Fourier coefficients from one step to
the next.  Its implicit part is a per-wavenumber solve, so it ends with the
coefficients of X'; X's are those over ik, with the mean advanced by the
averaged position velocity, and both node sets come from one inverse
transform.  The frame samples X and X' from the state's coefficients with
one folded inverse transform (curve.half_offset_values), so a step takes
one forward FFT (of the explicit term) and four inverse ones, two of them
the Curve checks that nodes and coefficients agree.  Per-grid constants
(the alpha tables, the difference pattern rows) are cached read-only.

Inside the frame every 2-vector is one complex number z = x + iy: real
(n, 2) fields are sampled first (so the Nyquist convention is that of
curve.half_offset_values) and converted with curve.as_complex, and the
alpha integral is converted back to a real (n, 2) field.  For a chord d
the unit rotor rot = conj(d)/d = conj(d)^2/|d|^2 carries the whole matrix
basis:

    P(d) v = conj(rot v),   R(d) v = i conj(rot v),
    u.P(d)w + i u.R(d)w = rot u w,
    (X'.dhat)^2 - (X'.dperp)^2 = Re(rot X'^2).
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Optional, get_args, get_type_hints

import numpy as np

from .curve import (
    _BLOCK,
    Curve,
    alpha_rows,
    antiderivative_multiplier,
    apply_multiplier,
    arc_chord,
    as_complex,
    fft_coeffs,
    grid_values,
    half_offset_grid,
    half_offset_samples,
    half_offset_values,
    magnitude,
    parseval_norm,
    power_spectrum,
    read_curve,
    spectral_antiderivative,
    theta_grid,
    wavenumbers,
)
from .besov import BesovParams, MuWeight, besov_diff, construct_mu
from .kernels import FOUR_PI
from .operators import symbol
from .tension import (TensionLaw, arctan_law, globalize, hookean, power_law,
                      table_law, tension_jacobian, tension_map)

__all__ = [
    "SimulationAbort",
    "SimConfig",
    "SimState",
    "Trajectory",
    "FORMS",
    "right_hand_sides",
    "rhs_position_bi",
    "rhs_position_reduced",
    "rhs_derivative",
    "remainder_V",
    "dissipation_term",
    "step",
    "simulate",
    "cfl_limit",
    "make_initial_curve",
    "law_from_config",
]

CFL_CONSTANT = 2.5  # classical four-stage explicit stability with margin
_FLOOR_FRACTION = 0.5  # default rho_floor relative to the initial arc-chord


class SimulationAbort(RuntimeError):
    """Raised when the arc-chord floor is breached or values go non-finite."""

    def __init__(self, t: float, reason: str):
        super().__init__(f"aborted at t={t:.6g}: {reason}")
        self.t = t
        self.reason = reason


@dataclass(frozen=True)
class SimState:
    """Immutable snapshot of the evolution at one time."""

    t: float
    curve: Curve
    deriv: Curve
    law: TensionLaw
    m: int
    rho_floor: float

    @classmethod
    def make(cls, curve: Curve, law: TensionLaw, t: float = 0.0,
             m: Optional[int] = None, rho_floor: Optional[float] = None) -> "SimState":
        if m is None:
            m = 4 * curve.n
        if m <= 0 or m % curve.n != 0:
            # the frame reads theta + alpha from the half-offset m-grid
            raise ValueError(f"alpha grid size m={m} must be a positive "
                             f"multiple of the curve grid size n={curve.n}")
        deriv = curve.derivative()
        if rho_floor is None:
            rho_floor = _FLOOR_FRACTION * arc_chord(curve).value
        return cls(t=t, curve=curve, deriv=deriv, law=law, m=m,
                   rho_floor=rho_floor)

    def advanced(self, t: float, curve: Curve,
                 deriv: Optional[Curve] = None) -> "SimState":
        """The state at time t on curve, whose X' is deriv (by default
        curve.derivative())."""
        return replace(self, t=t, curve=curve,
                       deriv=curve.derivative() if deriv is None else deriv)


class _Buffers(threading.local):
    """Each thread's frame-walk buffers, at most max(_BLOCK, m) elements
    apiece."""

    def __init__(self):
        self.flat = {}


_BUFFERS = _Buffers()


@lru_cache(maxsize=16)
def _pattern(m: int) -> np.ndarray:
    """The rows 1 0 1 0 ... and 0 1 0 1 ... of length 2m (see
    _differences), read-only."""
    rows = np.zeros((2, 2 * m))
    rows[0, 0::2] = rows[1, 1::2] = 1.0
    rows.flags.writeable = False
    return rows


_ALPHA_TABLES = {  # name -> table over the half-offset alpha grid
    "abs_alpha": np.abs,
    "inv_alpha": lambda al: 1.0 / al,
    "inv_alpha2": lambda al: 1.0 / al**2,
    "log_4sin2": lambda al: np.log(4.0 * np.sin(al / 2.0) ** 2),
}


@lru_cache(maxsize=64)
def _alpha_factor(name: str, n: int, m: int) -> np.ndarray:
    """The read-only (n, m) circulant view curve.alpha_rows of the named
    table of _ALPHA_TABLES: one per (name, n, m), shared by every frame."""
    return alpha_rows(_ALPHA_TABLES[name](half_offset_grid(m)), n)


@lru_cache(maxsize=1)  # a run keeps its floor; other floors rebuild
def _floor_screen(rho_floor: float, n: int, m: int) -> np.ndarray:
    """The read-only (n, m) circulant view of (rho_floor (1 + 1e-12))^2
    alpha^2 for one (rho_floor, n, m): r2 above it puts sqrt(r2)/|alpha|
    above the floor by a margin far beyond rounding (see
    _Frame.check_floor)."""
    return alpha_rows((rho_floor * (1.0 + 1e-12)) ** 2 * half_offset_grid(m) ** 2, n)


def _differences(fine: np.ndarray, base: np.ndarray):
    """fill(rows, out) writes out[j, p] = fine[p] - base[rows][j] for
    complex samples fine (m,) and nodes base (n,).

    The block is one real matrix product [1, -Re base_j, -Im base_j] @
    [fine as (re, im) pairs; 1 0 1 0 ...; 0 1 0 1 ...] written into the
    complex out.  Every product is exact, so each entry is the difference
    rounded once, bit for bit the broadcast subtraction, which numpy runs
    about three times slower on complex rows."""
    fine = np.ascontiguousarray(fine).view(float)
    right = np.concatenate((fine[None], _pattern(len(fine) // 2)))
    left = np.stack([np.ones(len(base)), -base.real, -base.imag], axis=1)

    def fill(rows: slice, out: np.ndarray) -> np.ndarray:
        np.matmul(left[rows], right, out=out.view(float))
        return out

    return fill


def _row_dots(x: np.ndarray, y: np.ndarray, out: np.ndarray):
    """out[j] = sum_p x[j, p] y[j, p] per row j, y of shape (rows, m) or
    (m,), as one batched matrix product (one BLAS dot per row, whatever the
    block) written into the complex (rows,) out."""
    np.matmul(x[:, None, :], y[..., None], out=out[:, None, None])


def _real_row_dots(g: np.ndarray, z: np.ndarray, out: np.ndarray):
    """out[j] = sum_p g[j, p] z[j, p] per row j of a real g and a C-order
    complex z: the (re, im) pair of each row lands in the complex out."""
    np.matmul(g[:, None, :], z.view(float).reshape(z.shape + (2,)),
              out=out.view(float).reshape(-1, 1, 2))


class _Frame:
    """The (theta, alpha) quadrature frame of one state, and its walk.

    A band-limited field is sampled once on the half-offset m-grid; row j
    pairs theta_j with every sample phi_p, at alpha = phi_p - theta_j, and
    every alpha factor is a read-only circulant view (curve.alpha_rows).
    No (n, m) array is ever formed: integrate walks blocks of max(1,
    _BLOCK // m) theta rows, and each integrand writes the alpha sums of
    the block's rows with out= into (n,) accumulators its form owns, each
    row's sum one contiguous reduction within one block.  buf views the
    thread's flat arrays (_BUFFERS) in the block's C-order shape: a shorter
    last block reads a prefix, and each walk refills the memory of the one
    before, which arrays made per walk would fault in again.

    The constructor builds what every form reads: X and X' from the
    state's coefficients by one folded inverse transform, X' as real
    samples x1 and as the complex a = X'(theta + alpha) and b =
    X'(theta_j), and the chord filler.  The jump filler and each block's
    geometry, t rot, rotor and jump wait for their first read: a
    position-only walk runs no T(X'), so a vanished tangent reaches
    _position_form's abort, and a dissipation-only walk no chord block or
    floor check.
    """

    def __init__(self, state: SimState):
        n, m = state.curve.n, state.m
        self.state = state
        self.height = min(n, max(1, _BLOCK // m))  # theta rows per block
        self._views = {}
        self._shape = None
        both = half_offset_values(
            np.concatenate((state.curve.coeffs, state.deriv.coeffs), axis=1), m)
        self.x1 = np.ascontiguousarray(both[:, 2:])
        self.a = as_complex(self.x1)  # a view of x1
        self.b = as_complex(state.deriv.nodes)
        # fills a block with conj(X_p - X_j) (see _differences)
        self.chords = _differences(np.conj(as_complex(both[:, :2])),
                                   np.conj(as_complex(state.curve.nodes)))

    def alpha_factor(self, name: str) -> np.ndarray:
        """The (n, m) circulant view of one of _ALPHA_TABLES."""
        return _alpha_factor(name, self.state.curve.n, self.state.m)

    def accumulator(self) -> np.ndarray:
        """An (n,) complex array for one form's alpha sums, every row of
        which each walk writes."""
        return np.empty(self.state.curve.n, dtype=complex)

    def integrate(self, integrands):
        """Walk the blocks, calling each integrand, a function of no
        argument that writes the alpha sums of the current block's rows
        into its form's accumulators.

        The floor check is a coarse guard on the step's m alphas, the
        per-record arc_chord (8n) the margin."""
        n, m = self.state.curve.n, self.state.m
        for start in range(0, n, self.height):
            self.rows = slice(start, min(start + self.height, n))
            shape = (self.rows.stop - start, m)
            if shape != self._shape:
                self._shape = shape
                self._views.clear()
            self._geometry = self._t_rot = self._rot = self._jump = None
            for integrand in integrands:
                integrand()

    def field(self, sums: np.ndarray) -> np.ndarray:
        """The half-offset rule over alpha, (2 pi / m) sums, of an (n,)
        complex accumulator, as a real (n, 2) field."""
        return (sums * (2.0 * np.pi / self.state.m)).view(float).reshape(-1, 2)

    def buf(self, name: str, dtype=complex) -> np.ndarray:
        """The named buffer of the current block."""
        view = self._views.get(name)
        if view is None:
            size = math.prod(self._shape)
            flat = _BUFFERS.flat.get((name, dtype))
            if flat is None or flat.size < size:
                flat = _BUFFERS.flat[name, dtype] = np.empty(size, dtype)
            view = self._views[name] = flat[:size].reshape(self._shape)
        return view

    def geometry(self):
        """c = conj(dz), |c|^2, 1/|c|^2, t = 1/dz and W = t^2 of the block."""
        if self._geometry is None:
            buf = self.buf
            c = self.chords(self.rows, buf("c"))
            r2 = np.square(c.real, out=buf("r2", float))
            inv_r2 = np.square(c.imag, out=buf("inv_r2", float))
            r2 += inv_r2
            # inv_r2 is free until its division: its bytes hold the screen
            self.check_floor(r2, self.rows, inv_r2.view(bool)[:, :r2.shape[1]])
            np.divide(1.0, r2, out=inv_r2)
            t = np.multiply(c, inv_r2, out=buf("t"))
            w = np.square(t, out=buf("w"))
            self._geometry = c, r2, inv_r2, t, w
        return self._geometry

    def t_rot(self) -> np.ndarray:
        """t rot = W conj(dz) = W c, built from W without the rotor."""
        if self._t_rot is None:
            c, _, _, _, w = self.geometry()
            self._t_rot = np.multiply(w, c, out=self.buf("t_rot"))
        return self._t_rot

    def rot(self) -> np.ndarray:
        """The rotor conj(dz)/dz = conj(dz)^2/|dz|^2 = t c."""
        if self._rot is None:
            c, _, _, t, _ = self.geometry()
            self._rot = np.multiply(t, c, out=self.buf("rot"))
        return self._rot

    def jump(self) -> np.ndarray:
        """T(X'(theta + alpha)) - T(X'(theta)) for the vector tension map."""
        if self._jump is None:
            self._jump = self.jumps(self.rows, self.buf("jump"))
        return self._jump

    def check_floor(self, r2: np.ndarray, rows: slice, screen: np.ndarray):
        """Abort if min sqrt(r2)/|alpha| over the block's rows is below the
        floor.  r2 at or below (floor (1 + 1e-12))^2 alpha^2 (_floor_screen),
        written into the bool block screen, screens the block; only a block
        with such an entry takes the quotient itself, which is then the
        arc_chord level's quotient bit for bit."""
        st = self.state
        table = _floor_screen(st.rho_floor, st.curve.n, st.m)
        if np.less_equal(r2, table[rows], out=screen).any():
            worst = float(np.min(np.sqrt(r2) / self.alpha_factor("abs_alpha")[rows]))
            if worst < st.rho_floor:
                raise SimulationAbort(st.t, f"arc-chord {worst:.3e} below "
                                            f"floor {st.rho_floor:.3e}")

    @cached_property
    def jumps(self):
        """Fills a block with T(X')_p - T(X')_j (see _differences)."""
        law = self.state.law
        return _differences(as_complex(tension_map(law, self.x1)),
                            as_complex(tension_map(law, self.state.deriv.nodes)))


def _bi_form(frame: _Frame):
    """The full-Stokeslet position form: its integrand, and a finish that
    adds the spectral log part and divides by 4 pi.

    The log part of the kernel is split into log(|delta X| / |2 sin(a/2)|)
    (smooth, quadrature) plus the periodic log kernel handled by its exact
    Fourier weights -pi/|k| acting on the force samples.  The force
    D T(X') X'' is rational in X', so it is sampled on a doubled grid
    before being treated spectrally (padding factor 2; exact dealiasing is
    impossible for non-polynomial nonlinearities).

    Over the force samples f, a row sums to (s_f + conj(s_rot) - s_log)/2:
    the smooth log is (log |dz|^2 - log 4 sin^2(a/2))/2, whose sum s_log is
    a real row dot, and the G2 part (dhat.f) dhat = (f + conj(rot f))/2
    sums to (s_f + conj(s_rot))/2, with s_f = sum f one constant per walk
    and s_rot = sum rot f a row dot."""
    state = frame.state
    n = state.curve.n
    x1_fine = state.deriv.resampled(2 * n).nodes
    x2_fine = state.deriv.derivative().resampled(2 * n).nodes
    force_fine = (tension_jacobian(state.law, x1_fine) @ x2_fine[..., None])[..., 0]
    # force values at theta_j + alpha from the trigonometric interpolant
    # of the padded samples
    fs = as_complex(half_offset_samples(force_fine, state.m))
    log_s2 = frame.alpha_factor("log_4sin2")
    s_log, s_rot = frame.accumulator(), frame.accumulator()

    def integrand():
        _, r2, _, _, _ = frame.geometry()
        rows = frame.rows
        smooth_log = np.log(r2, out=frame.buf("r0", float))
        smooth_log -= log_s2[rows]
        _real_row_dots(smooth_log, fs, s_log[rows])
        _row_dots(frame.rot(), fs, s_rot[rows])

    # exact product quadrature for the periodic log kernel
    k = wavenumbers(2 * n).astype(float)
    w = np.where(k == 0.0, 0.0, -np.pi / np.where(k == 0.0, 1.0, np.abs(k)))
    log_part = -apply_multiplier(force_fine, w)[::2]

    def finish():
        sums = 0.5 * (fs.sum() + np.conj(s_rot) - s_log)
        return (frame.field(sums) + log_part) / FOUR_PI

    return integrand, finish


def _position_form(frame: _Frame):
    """The reduced position velocity, sum_alpha Re(W a^2) weight dz / (4 pi)
    with W = 1/dz^2, a = X'(theta + alpha) and weight = T(|a|)/|a|.

    With Re(z) = (z + conj z)/2, W dz = t and W conj(dz) = t rot, a row is
    (sum q t + conj(sum q t rot))/2 over the fine m-vector q = a^2 weight:
    two row dots per block, combined once per walk."""
    state, a = frame.state, frame.a
    mag = np.abs(a)
    # every half-offset sample is read at each theta_j
    if float(mag.min()) == 0.0:
        raise SimulationAbort(state.t, "tangent vector vanished")
    q = a * a * (state.law.eval(mag) / mag / FOUR_PI)
    s_t, s_t_rot = frame.accumulator(), frame.accumulator()

    def integrand():
        _, _, _, t, _ = frame.geometry()
        rows = frame.rows
        _row_dots(t, q, s_t[rows])
        _row_dots(frame.t_rot(), q, s_t_rot[rows])

    return integrand, lambda: frame.field(0.5 * (s_t + np.conj(s_t_rot)))


def _kernel_form(frame: _Frame):
    """The K kernel over alpha^2 applied to the tension jump J.

    K has degree -2 in d, so K(a, b, dz/alpha)/alpha^2 = K(a, b, dz).  With
    W = 1/dz^2 and V = |dz|^2 conj(W)^2, every term of K(a, b, dz) J is b or
    conj(b) times a term free of b, so b = X'(theta_j) leaves the alpha sum:

        4 pi sum K J = i b Im sum W a J
                       + conj(b) [i sum conj(W) Im(conj(a) J) + sum V conj(a J)].

    The chord dz and the jump J stay exact differences; the sums are row
    dots, with sum conj(W) g = conj(sum W g) for real g and sum V conj(aJ) =
    conj(sum conj(V) a J), conj(V) = W rot = t (t rot).  A block writes the
    three row sums; the node values join them once per walk."""
    a, b = frame.a, frame.b
    a_conj = np.conj(a)
    s_w, s_v, s_g = frame.accumulator(), frame.accumulator(), frame.accumulator()

    def integrand():
        _, _, _, t, w = frame.geometry()
        jump, buf, rows = frame.jump(), frame.buf, frame.rows
        aj = np.multiply(a, jump, out=buf("c0"))
        v_conj = np.multiply(t, frame.t_rot(), out=buf("c1"))
        _row_dots(w, aj, s_w[rows])
        _row_dots(v_conj, aj, s_v[rows])
        # Im(conj(a) J), copied contiguous so that its row dots run in BLAS
        g = buf("r0", float)
        np.copyto(g, np.multiply(a_conj, jump, out=v_conj).imag)
        _real_row_dots(g, w, s_g[rows])

    def finish():
        return frame.field((1j * b * s_w.imag + np.conj(b * (s_v - 1j * s_g)))
                           / FOUR_PI)

    return integrand, finish


def _remainder_coefficients(a, b, c, inv_al, inv_r2, t, w, buf):
    """coef_i and conj(coef_c) of A(a, b, d) v / alpha^2 = (coef_i v +
    coef_c conj(rot v)) / 4 pi at the chord dz = alpha d (see
    _remainder_form), from c = conj(dz), 1/alpha, 1/|dz|^2, t = 1/dz and
    W = t^2, in the arrays buf(name) or buf(name, float) (see _Frame.buf)."""
    d = np.conjugate(c, out=buf("c2"))
    d *= inv_al
    dp = np.subtract(a, d, out=buf("c0"))
    dm = np.subtract(b, d, out=d)
    e = np.add(dp, dm, out=buf("c1"))
    e *= t
    e *= inv_al
    conj_c = np.multiply(dp, dm, out=buf("c3"))
    conj_c *= w
    coef_i = np.add(conj_c.real, e.real, out=buf("r0", float))
    np.conjugate(dp, out=dp)
    dp *= dm
    conj_c.real -= np.multiply(dp.real, inv_r2, out=buf("r1", float))
    conj_c.imag += e.imag
    return coef_i, conj_c


def _remainder_form(frame: _Frame):
    """The A kernel over alpha^2 applied to the tension jump J.

    A is not homogeneous and keeps the divided difference d = dz/alpha:
    with P(d)v = conj(rot v), R(d)v = i conj(rot v) and u.P(d)w +
    i u.R(d)w = rot u w, A v = coef_i v + coef_c conj(rot v), built from
    dp = a - d and dm = b - d (never as K - I/4pi), so every term carries
    a plus or minus difference.  The rule's 1/alpha^2 goes into the chord
    quantities W = 1/dz^2 and t = 1/dz:

        rot dp dm / (|d|^2 alpha^2) = dp dm W = C,
        conj(d) (dp + dm) / (|d|^2 alpha^2) = (dp + dm) t / alpha = E,
        Re(conj(dp) dm) / (|d|^2 alpha^2) = Re(conj(dp) dm) / |dz|^2 = R,

    so coef_i = Re C + Re E and conj(coef_c) = C - R + i Im E, and a row
    sums to sum coef_i J + conj(sum conj(coef_c) rot J): a real and a
    complex row dot, joined and divided by 4 pi once per walk."""
    a, b = frame.a, frame.b[:, None]
    inv_al = frame.alpha_factor("inv_alpha")
    s_i, s_c = frame.accumulator(), frame.accumulator()

    def integrand():
        c, _, inv_r2, t, w = frame.geometry()
        rows, jump = frame.rows, frame.jump()
        coef_i, conj_c = _remainder_coefficients(a, b[rows], c, inv_al[rows],
                                                 inv_r2, t, w, frame.buf)
        _real_row_dots(coef_i, jump, s_i[rows])
        _row_dots(np.multiply(conj_c, frame.rot(), out=conj_c), jump, s_c[rows])

    return integrand, lambda: frame.field((s_i + np.conj(s_c)) / FOUR_PI)


def _dissipation_form(frame: _Frame):
    """The 1/alpha^2 integrand of the tension jump, one real row dot per
    block: it reads no geometry."""
    inv_al2 = frame.alpha_factor("inv_alpha2")
    sums = frame.accumulator()

    def integrand():
        _real_row_dots(inv_al2[frame.rows], frame.jump(), sums[frame.rows])

    return integrand, lambda: -frame.field(sums) / FOUR_PI


# form -> builder of (integrand, finish) for one frame: the integrand writes
# the alpha sums of the frame's current block rows into the form's
# accumulators, and finish, called once after the walk, returns the field
_FORM_BUILDERS = {
    "position_bi": _bi_form,
    "position_reduced": _position_form,
    "derivative": _kernel_form,
    "remainder": _remainder_form,
    "dissipation": _dissipation_form,
}
FORMS = tuple(_FORM_BUILDERS)  # the right-hand sides one frame walk serves


def right_hand_sides(state: SimState, *forms: str) -> tuple:
    """The requested right-hand sides of the state from one frame walk, one
    real (n, 2) field per form, in order.

    forms are names from FORMS: "position_bi" (rhs_position_bi),
    "position_reduced", "derivative" (rhs_derivative unprojected),
    "remainder" (remainder_V) and "dissipation" (dissipation_term).  Each
    field equals, bit for bit, the field of a walk serving only its form.
    The geometry and the arc-chord floor check run only when a form reads
    them: "dissipation" alone builds neither.
    """
    if not forms or not set(forms) <= set(FORMS):
        raise ValueError(f"right_hand_sides takes one or more of {FORMS}, "
                         f"got {forms}")
    n = state.curve.n
    if "position_bi" in forms and state.m < 2 * n:
        # the 2n-band force would fold modulo m on the alpha grid
        raise ValueError(f"rhs_position_bi needs m >= 2n = {2 * n} to sample "
                         f"its 2n-band force without aliasing, got m={state.m}")
    frame = _Frame(state)
    distinct = list(dict.fromkeys(forms))
    integrands, finishes = zip(*(_FORM_BUILDERS[f](frame) for f in distinct))
    frame.integrate(integrands)
    fields = {form: finish() for form, finish in zip(distinct, finishes)}
    return tuple(fields[f] for f in forms)


def rhs_position_bi(state: SimState) -> np.ndarray:
    """Position velocity from the full Stokeslet against the force
    derivative (see _bi_form).  Its force has band 2n and would fold modulo
    m on the alpha grid, so m must be at least 2n."""
    return right_hand_sides(state, "position_bi")[0]


def rhs_position_reduced(state: SimState) -> np.ndarray:
    """First-derivatives-only position velocity (the working form)."""
    return right_hand_sides(state, "position_reduced")[0]


def rhs_derivative(state: SimState, project: bool = True) -> np.ndarray:
    """Tangent-field velocity from the matrix-kernel equation.

    The output is projected to mean zero by default (the continuum
    operator annihilates constants; quadrature leaves a tiny drift).
    """
    out, = right_hand_sides(state, "derivative")
    return out - out.mean(axis=0) if project else out


def remainder_V(state: SimState) -> np.ndarray:
    """Bounded remainder: the A-kernel part of the derivative equation."""
    return right_hand_sides(state, "remainder")[0]


def dissipation_term(state: SimState) -> np.ndarray:
    """The quadrature realization of the half-Laplacian of the tension field.

    Evaluated with pointwise-exact shifted samples on the same alpha grid
    as the kernels, so rhs_derivative == -dissipation_term + remainder_V
    holds to rounding.  It reads no chord, so it runs no floor check.
    """
    return right_hand_sides(state, "dissipation")[0]


def _cbar(state: SimState) -> float:
    mag = magnitude(state.deriv.nodes)
    return float(np.max(np.maximum(state.law.d1(mag), state.law.eval(mag) / mag)))


def cfl_limit(state: SimState) -> float:
    """Largest stable explicit step: c_cfl / (cbar * max lam_tilde)."""
    lam_max = float(symbol(state.curve.n, state.m).lam_tilde.max())
    return CFL_CONSTANT / (_cbar(state) * lam_max)


def _check_finite(state: SimState, nodes: np.ndarray):
    if not np.all(np.isfinite(nodes)):
        raise SimulationAbort(state.t, "non-finite values")


def step(state: SimState, dt: float, scheme: str = "imex") -> SimState:
    """Advance one step with the classical four-stage explicit scheme or
    the stabilized semi-implicit scheme (stiff half-Laplacian implicit)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    _check_choice("scheme", scheme, _SCHEMES)
    return _SCHEMES[scheme](state, dt)


def _check_choice(key: str, value, table: dict):
    """Raise a ValueError naming key unless value is a key of table."""
    if value not in table:
        raise ValueError(f"{key} must be one of {', '.join(table)}, got {value!r}")


def _step_rk4(state: SimState, dt: float) -> SimState:
    limit = cfl_limit(state)
    if dt > limit:
        raise ValueError(f"dt={dt:.3e} exceeds the explicit stability limit "
                         f"{limit:.3e}")
    x0 = state.curve.nodes

    def rhs_at(nodes, t):
        st = state.advanced(t, Curve.from_nodes(nodes))
        return rhs_position_reduced(st)

    k1 = rhs_at(x0, state.t)
    k2 = rhs_at(x0 + 0.5 * dt * k1, state.t + 0.5 * dt)
    k3 = rhs_at(x0 + 0.5 * dt * k2, state.t + 0.5 * dt)
    k4 = rhs_at(x0 + dt * k3, state.t + dt)
    new_nodes = x0 + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    _check_finite(state, new_nodes)
    return state.advanced(state.t + dt, Curve.from_nodes(new_nodes))


def _imex_increments(state: SimState):
    """Derivative-equation RHS and the averaged position velocity from one
    pass over the frame."""
    deriv_rhs, pos_rhs = right_hand_sides(state, "derivative", "position_reduced")
    return deriv_rhs - deriv_rhs.mean(axis=0), pos_rhs.mean(axis=0)


def _step_imex(state: SimState, dt: float) -> SimState:
    # cbar is refreshed every step from the current tension Jacobian range
    n = state.curve.n
    cbar = _cbar(state)
    lam = symbol(n, state.m).lam_tilde
    explicit, mean_velocity = _imex_increments(state)
    c1 = state.deriv.coeffs
    numer = c1 * (1.0 + dt * cbar * lam)[:, None] + dt * fft_coeffs(explicit)
    c1_new = numer / (1.0 + dt * cbar * lam)[:, None]
    # X' has no mean, and its Nyquist mode is not the derivative of a grid
    # mode: both stay zero, as X' = d/dtheta X leaves them
    c1_new[0] = c1_new[n // 2] = 0.0
    # X from X' by 1/(ik), the mean advanced by the averaged position
    # velocity (the derivative equation cannot see translations); both node
    # sets from one inverse transform
    cx = c1_new * antiderivative_multiplier(n)[:, None]
    cx[0] = state.curve.mean + dt * mean_velocity
    nodes = grid_values(np.concatenate((cx, c1_new), axis=1))
    _check_finite(state, nodes)
    return state.advanced(state.t + dt, Curve(nodes=nodes[:, :2], coeffs=cx),
                          Curve(nodes=nodes[:, 2:], coeffs=c1_new))


_SCHEMES = {"imex": _step_imex, "rk4": _step_rk4}  # time.scheme -> step


# ---------------------------------------------------------------------------
# configuration-driven runs

def _dotted_key(name: str) -> str:
    """The config key of a SimConfig field: grid.n, grid.m, time.dt,
    time.horizon and time.scheme name the bare fields; any other key a.b
    names the field a_b (the first underscore is the dot)."""
    if name in ("n", "m"):
        return f"grid.{name}"
    if name in ("dt", "horizon", "scheme"):
        return f"time.{name}"
    return name.replace("_", ".", 1)


_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a real number"),
          str: (str, "a string"), bool: (bool, "true or false")}


def _is_kind(kind: type, value) -> bool:
    """value is of the annotated kind; only a bool field takes a bool."""
    return isinstance(value, bool) == (kind is bool) and isinstance(value, _KINDS[kind][0])


@dataclass(frozen=True)
class SimConfig:
    """Run configuration (mirrors the flat config-file keys).  Each value
    is checked against its field's annotation (see _is_kind; Optional also
    takes None, ints are kept as given) and a ValueError names its key;
    tension_window is two reals, stored as floats."""

    n: int = 128
    m: Optional[int] = None
    dt: float = 1e-3
    horizon: float = 0.1
    scheme: str = "imex"
    init_kind: str = "circle"
    init_radius: float = 1.0
    init_a: float = 2.0
    init_b: float = 1.0
    init_perturb_mode: int = 0
    init_perturb_amp: float = 0.0
    init_rough_exponent: float = 1.4
    init_rough_amp: float = 0.05
    init_file: Optional[str] = None
    tension_kind: str = "hookean"
    tension_k0: float = 1.0
    tension_coef: float = 1.0
    tension_p: float = 2.0
    tension_window: tuple[float, float] = (0.5, 2.0)
    tension_globalize: bool = False
    tension_table: Optional[str] = None
    output_stride: int = 10
    output_dir: Optional[str] = None
    seed: int = 0
    rho_floor: Optional[float] = None
    mu_kind: str = "log"
    diag_beta_points: int = 1024

    def __post_init__(self):
        for name, kind in _SIM_CONFIG_TYPES.items():
            key, value = _dotted_key(name), getattr(self, name)
            if type(None) in get_args(kind):  # Optional[...]
                if value is None:
                    continue
                kind = get_args(kind)[0]
            if kind != tuple[float, float]:
                if not _is_kind(kind, value):
                    raise ValueError(f"{key} must be {_KINDS[kind][1]}, got {value!r}")
            elif isinstance(value, (tuple, list)) and len(value) == 2 \
                    and all(_is_kind(float, v) for v in value):
                object.__setattr__(self, name, tuple(float(v) for v in value))
            else:
                raise ValueError(f"{key} must be two real numbers, got {value!r}")
        if self.output_stride < 1:
            raise ValueError(f"output.stride must be at least 1, got {self.output_stride!r}")
        if not 0 < self.dt < math.inf:
            raise ValueError(f"time.dt must be positive and finite, got {self.dt!r}")
        if not 0 <= self.horizon < math.inf:
            raise ValueError(f"time.horizon must be finite and >= 0, got {self.horizon!r}")
        if abs(self.horizon / self.dt - self.steps) > 1e-9 * self.steps:
            raise ValueError(f"horizon {self.horizon!r} is not a whole number of "
                             f"steps dt={self.dt!r}")
        for name, table in (("scheme", _SCHEMES), ("init_kind", _INITIAL_CURVES),
                            ("tension_kind", _LAWS), ("mu_kind", _MU_WEIGHTS)):
            _check_choice(_dotted_key(name), getattr(self, name), table)
        if self.init_kind == "fourier-file" and self.init_file is None:
            raise ValueError("init.kind = fourier-file requires init.file")
        if self.tension_kind == "table" and self.tension_table is None:
            raise ValueError("tension.kind = table requires tension.table")

    @property
    def steps(self) -> int:
        """The number of steps of length dt in the horizon."""
        return int(round(self.horizon / self.dt))


_SIM_CONFIG_TYPES = get_type_hints(SimConfig)  # field -> resolved annotation


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled snapshots with per-snapshot diagnostics records."""

    times: np.ndarray
    curves: tuple
    records: tuple
    scheme: str
    config: Optional[SimConfig] = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if len(t) != len(self.curves) or len(t) != len(self.records):
            raise ValueError("times, curves and records must align")
        if len(t) > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("output times must be strictly increasing")
        t.flags.writeable = False
        object.__setattr__(self, "times", t)

    @cached_property
    def derivs(self):
        """X' of every snapshot, computed on first access."""
        return tuple(c.derivative() for c in self.curves)


def _circle(cfg: SimConfig) -> Curve:
    base = Curve.circle(cfg.n, radius=cfg.init_radius)
    if cfg.init_perturb_amp == 0.0 or cfg.init_perturb_mode == 0:
        return base
    th = theta_grid(cfg.n)
    radial = cfg.init_radius * (1.0 + cfg.init_perturb_amp
                                * np.cos(cfg.init_perturb_mode * th))
    return Curve.from_nodes(np.stack([radial * np.cos(th),
                                      radial * np.sin(th)], axis=1))


def _rough_curve(n: int, sigma: float, amp: float, radius: float,
                 seed: int) -> Curve:
    """Circle plus a perturbation whose tangent spectrum decays like |k|^-sigma
    with random phases; amp sets the relative tangent-field L2 size."""
    phases = np.random.default_rng(seed).random((n // 2 - 1, 2))  # row k - 1
    # scalar powers: an array power may round the last bit differently
    mags = np.array([float(k) ** (-sigma) for k in range(1, n // 2)])
    c1 = np.zeros((n, 2), dtype=complex)  # positive modes, mirrored for a real field
    c1[1:n // 2] = mags[:, None] * np.exp(2j * np.pi * phases)
    c1[n - 1:n // 2:-1] = np.conj(c1[1:n // 2])
    pert_deriv = grid_values(c1)
    base = Curve.circle(n, radius=radius)
    base_l2 = np.sqrt(2.0 * np.pi) * radius
    pert_l2 = parseval_norm(power_spectrum(pert_deriv))
    scale = amp * base_l2 / pert_l2 if pert_l2 > 0 else 0.0
    pert = spectral_antiderivative(pert_deriv * scale)
    return Curve.from_nodes(base.nodes + pert)


def _table_from_file(cfg: SimConfig) -> TensionLaw:
    data = np.loadtxt(cfg.tension_table)
    return table_law(data[:, 0], data[:, 1])


# init.kind -> initial curve, tension.kind -> law and mu.kind -> the
# diagnostics weight of the initial X' nodes; SimConfig accepts their keys
_INITIAL_CURVES = {
    "circle": _circle,
    "ellipse": lambda cfg: Curve.ellipse(cfg.n, a=cfg.init_a, b=cfg.init_b),
    "fourier-file": lambda cfg: read_curve(cfg.init_file),
    "random-sobolev": lambda cfg: _rough_curve(
        cfg.n, cfg.init_rough_exponent, cfg.init_rough_amp, cfg.init_radius, cfg.seed),
}
_LAWS = {
    "hookean": lambda cfg: hookean(cfg.tension_k0),
    "power": lambda cfg: power_law(cfg.tension_coef, cfg.tension_p, cfg.tension_window),
    "arctan": lambda cfg: arctan_law(cfg.tension_window),
    "table": _table_from_file,
}
_MU_WEIGHTS = {
    "one": lambda deriv_nodes: MuWeight.one(),
    "log": lambda deriv_nodes: MuWeight.log4(),
    "construct": construct_mu,
}


def make_initial_curve(cfg: SimConfig) -> Curve:
    return _INITIAL_CURVES[cfg.init_kind](cfg)


def law_from_config(cfg: SimConfig) -> TensionLaw:
    law = _LAWS[cfg.tension_kind](cfg)
    if cfg.tension_globalize and cfg.tension_kind != "hookean":
        a, b = cfg.tension_window
        law = globalize(law, a, b)
    return law


def _diag_record(state: SimState, arc: float, mu: MuWeight, scheme: str,
                 beta_points: int) -> dict:
    x1 = state.deriv.nodes
    power = power_spectrum(x1)
    k = np.abs(wavenumbers(state.curve.n)).astype(float)
    bes = besov_diff(x1, BesovParams(0.5, 2, 1, mu), beta_points=beta_points)
    return {
        "schema": "peskin-lab/diag-v1",
        "t": float(state.t),
        "arc_chord": arc,
        "l2": parseval_norm(power),
        "h_half": parseval_norm(power, k),
        "h1": parseval_norm(power, k**2),
        "besov_half_mu": float(bes),
        "step_scheme": scheme,
    }


def simulate(cfg: SimConfig, initial: Optional[Curve] = None,
             law: Optional[TensionLaw] = None) -> Trajectory:
    """Run the configured evolution; deterministic given the config."""
    curve = initial if initial is not None else make_initial_curve(cfg)
    the_law = law if law is not None else law_from_config(cfg)
    n_steps = cfg.steps
    # the initial arc-chord serves both the default floor and the first record
    arc = arc_chord(curve).value
    rho_floor = cfg.rho_floor if cfg.rho_floor is not None \
        else _FLOOR_FRACTION * arc
    state = SimState.make(curve, the_law, t=0.0, m=cfg.m, rho_floor=rho_floor)
    mu = _MU_WEIGHTS[cfg.mu_kind](state.deriv.nodes)
    times = [state.t]
    curves = [state.curve]
    records = [_diag_record(state, arc, mu, cfg.scheme, cfg.diag_beta_points)]
    for i in range(1, n_steps + 1):
        state = step(state, cfg.dt, cfg.scheme)
        if i % cfg.output_stride == 0 or i == n_steps:
            times.append(state.t)
            curves.append(state.curve)
            records.append(_diag_record(state, arc_chord(state.curve).value, mu,
                                        cfg.scheme, cfg.diag_beta_points))
    return Trajectory(times=np.array(times), curves=tuple(curves),
                      records=tuple(records), scheme=cfg.scheme, config=cfg)
