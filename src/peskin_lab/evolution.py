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
m-vectors, and every alpha-dependent factor (1/alpha, 1/alpha^2,
log 4 sin^2(alpha/2)) is read from the read-only circulant view
curve.alpha_rows of an m-table.  The (n, m) frame is never formed.
right_hand_sides serves FORMS by one of three fixed walks (_walk) over
blocks of max(1, _BLOCK // m) theta rows, whose buffers stay in cache:
"position" (the reduced position form alone, each rk4 stage), "imex"
(the K form and the reduced position form, each IMEX step) and "every"
(all five forms, for verify and the checks of the paper's other
formulations).  Each block runs its stages in one fixed order, chord,
|chord|^2 and the floor check, 1/|chord|^2, t, W, rotor, t rot, jump, in
a fixed set of thread buffers that each take a new quantity once the old
one is dead.  Every form sums its rows by row dots issued where their
operands are live, with out= into (n,) accumulators, and combines them
into its field once per walk.

With the chord dz, W = 1/dz^2, t = 1/dz and the tension jump J, which
stay exact elementwise differences, the row sums are:

- The reduced position velocity is sum_alpha Re(W a^2) weight dz / (4 pi)
  with a = X'(theta + alpha) and weight = T(|a|)/|a|.  With Re(z) =
  (z + conj z)/2, W dz = t and W conj(dz) = t rot, a row is (sum q t +
  conj(sum q t rot))/2 over the fine m-vector q = a^2 weight / (4 pi):
  two row dots.
- K, the kernel of the derivative equation, has degree -2 in the chord,
  K(a, b, dz/alpha) / alpha^2 = K(a, b, dz).  With V = |dz|^2 conj(W)^2,
  every term of K(a, b, dz) J is b or conj(b) times a term free of b, so
  the node value b = X'(theta_j) leaves the alpha sum:

      4 pi sum K J = i b Im sum W a J
                     + conj(b) [i sum conj(W) Im(conj(a) J) + sum V conj(a J)],

  with sum conj(W) g = conj(sum W g) for real g and sum V conj(aJ) =
  conj(sum conj(V) a J), conj(V) = W rot = t (t rot): three row dots, b
  joined once per walk.  An IMEX step gets K and the position velocity
  from one walk, which reads t rot before it turns it into conj(V).
- A, the remainder of the cancellation split K = I/4pi + A, is not
  homogeneous and keeps the divided difference d = dz/alpha.  With P(d)v
  = conj(rot v), R(d)v = i conj(rot v) and u.P(d)w + i u.R(d)w = rot u w,
  A v = coef_i v + coef_c conj(rot v), built from dp = a - d and dm = b - d
  (never as K - I/4pi), so every term carries a plus or minus
  difference.  The rule's 1/alpha^2 goes into the chord quantities:

      rot dp dm / (|d|^2 alpha^2) = dp dm W = C,
      conj(d) (dp + dm) / (|d|^2 alpha^2) = (dp + dm) t / alpha = E,
      Re(conj(dp) dm) / (|d|^2 alpha^2) = Re(conj(dp) dm) / |dz|^2 = R,

  so coef_i = Re C + Re E and conj(coef_c) = C - R + i Im E, and a row
  sums to sum coef_i J + conj(sum conj(coef_c) rot J): a real and a
  complex row dot (_remainder_coefficients).
- The full Stokeslet splits its log into log(|dz| / |2 sin(alpha/2)|)
  (smooth, quadrature) plus the periodic log kernel, handled by its exact
  Fourier weights -pi/|k| acting on the force samples.  The force
  D T(X') X'' is rational in X', so it is sampled on a doubled grid
  before being treated spectrally (padding factor 2; exact dealiasing is
  impossible for non-polynomial nonlinearities), and the walk needs
  m >= 2n to sample it without aliasing.  Over the force samples f, a
  row sums to (s_f + conj(s_rot) - s_log)/2: the smooth log is
  (log |dz|^2 - log 4 sin^2(alpha/2))/2, whose sum s_log is a real row
  dot, and the G2 part (dhat.f) dhat = (f + conj(rot f))/2 sums to
  (s_f + conj(s_rot))/2, with s_f = sum f one constant per walk and
  s_rot = sum rot f a row dot.
- The dissipation, the 1/alpha^2 integrand of J, is one real row dot of
  the 1/alpha^2 rows with J: it reads no geometry.

The IMEX step keeps the state in Fourier coefficients from one step to
the next.  Its implicit part is a per-wavenumber solve, so it ends with the
coefficients of X'; X's are those over ik, with the mean advanced by the
averaged position velocity, and each curve takes its nodes from its
coefficients (Curve.from_coeffs).  The frame samples X and X' from the
state's coefficients with one size-m inverse transform
(curve.half_offset_values), so a step takes one forward FFT (of the
explicit term) and three inverse ones.  Per-grid constants
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
from types import SimpleNamespace
from typing import Optional, get_args, get_type_hints

import numpy as np

from .curve import (
    _BLOCK,
    _LINE,
    Curve,
    _cache_aligned,
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
    def make(cls, curve: Curve, law: TensionLaw, m: Optional[int] = None,
             rho_floor: Optional[float] = None) -> "SimState":
        """The state at t = 0 on curve."""
        if m is None:
            m = 4 * curve.n
        if m <= 0 or m % curve.n != 0:
            # the frame reads theta + alpha from the half-offset m-grid
            raise ValueError(f"alpha grid size m={m} must be a positive "
                             f"multiple of the curve grid size n={curve.n}")
        deriv = curve.derivative()
        if rho_floor is None:
            rho_floor = _FLOOR_FRACTION * arc_chord(curve).value
        return cls(t=0.0, curve=curve, deriv=deriv, law=law, m=m,
                   rho_floor=rho_floor)

    def advanced(self, t: float, curve: Curve,
                 deriv: Optional[Curve] = None) -> "SimState":
        """The state at time t on curve, whose X' is deriv (by default
        curve.derivative())."""
        return replace(self, t=t, curve=curve,
                       deriv=curve.derivative() if deriv is None else deriv)


class _Block:
    """The views of one (rows, m) block z that a walk reads, built once per
    thread buffer and block shape (_Buffers.block).  Row j of a row dot,
    one BLAS dot, is x.lhs[j] @ y.rhs[j] (or x.lhs[j] @ q[:, None] for a
    fixed m-vector q); a real row dot g.lhs @ z.pairs lands as (re, im) in
    a complex out.  flat_pairs is what _differences fills, and a float
    block's screen is the bool view of its first bytes."""

    def __init__(self, z: np.ndarray):
        self.z = z
        self.lhs = z[:, None, :]
        if z.dtype == complex:
            self.rhs = z[..., None]
            self.flat_pairs = z.view(float)
            self.pairs = self.flat_pairs.reshape(z.shape + (2,))
            self.re, self.im = z.real, z.imag
        else:
            self.screen = z.reshape(-1).view(bool)[:z.size].reshape(z.shape)


class _Buffers(threading.local):
    """Each thread's walk buffers: zeroed flat byte arrays by name, each
    owning one block of at most max(_BLOCK, m) elements that starts on a
    64-byte cache line (curve._cache_aligned), so that the walk's speed
    does not follow where the allocator puts a buffer, and their _Block
    views by (name, block shape).  An array that grows drops every view of
    the one it replaces, so the arrays in flat are all the memory the
    views hold."""

    def __init__(self):
        self.flat = {}
        self.views = {}

    def block(self, name: str, shape: tuple) -> _Block:
        view = self.views.get((name, shape))
        if view is None:
            size = math.prod(shape)
            dtype = np.dtype(float if name in ("r2", "f1") else complex)
            nbytes = size * dtype.itemsize + _LINE  # and the alignment slack
            flat = self.flat.get(name)
            if flat is None or flat.size < nbytes:
                flat = self.flat[name] = np.zeros(nbytes, np.uint8)
                self.views = {key: v for key, v in self.views.items() if key[0] != name}
            z = _cache_aligned(flat, dtype)[:size].reshape(shape)
            view = self.views[name, shape] = _Block(z)
        return view


_BUFFERS = _Buffers()


def _layout(roles: str, shared: dict) -> dict:
    """role -> the thread buffer it takes, in sorted role order (a
    deterministic layout: with numpy's 16-byte alignment the allocation
    order decided which buffers started off a cache line, which moved the
    walk by about 4%; with aligned buffers the orders tie within about
    1%).  A role not in shared has a buffer of its own name."""
    return {role: shared.get(role, role) for role in sorted(roles.split())}


_CHORD_ROLES = "c r2 f1 inv t w t_rot"  # what every walk reads
# walk -> role -> thread buffer.  Without the remainder nothing reads the
# chord or t at the jump, so t rot (then v) overwrites the chord, the jump
# t and aJ the rotor block: the position walk fills 4 complex and 2 float
# blocks, the IMEX walk 7 and 2.  In the walk of every form the
# remainder's dp and E take the blocks of v and aJ, dead once the K form
# has read them: 10 and 2.
_LAYOUTS = {
    "position": _layout(_CHORD_ROLES, {"t_rot": "c"}),
    "imex": _layout(_CHORD_ROLES + " a conj_a jump aj",
                    {"t_rot": "c", "jump": "t", "aj": "rot"}),
    "every": _layout(_CHORD_ROLES + " a conj_a jump aj rot dp e",
                     {"dp": "t_rot", "e": "aj"}),
}


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
    table of _ALPHA_TABLES: one per (name, n, m), shared by every walk."""
    return alpha_rows(_ALPHA_TABLES[name](half_offset_grid(m)), n)


@lru_cache(maxsize=1)  # a run keeps its floor; other floors rebuild
def _floor_screen(rho_floor: float, n: int, m: int) -> np.ndarray:
    """The read-only (n, m) circulant view of (rho_floor (1 + 1e-12))^2
    alpha^2 for one (rho_floor, n, m): r2 above it puts sqrt(r2)/|alpha|
    above the floor by a margin far beyond rounding (see _check_floor)."""
    return alpha_rows((rho_floor * (1.0 + 1e-12)) ** 2 * half_offset_grid(m) ** 2, n)


def _differences(fine: np.ndarray, base: np.ndarray):
    """fill(rows, out) writes out[j, p] = fine[p] - base[rows][j] for
    complex samples fine (m,) and nodes base (n,) into the (rows, 2m)
    float view out of a complex block.

    The block is one real matrix product [1, -Re base_j, -Im base_j] @
    [fine as (re, im) pairs; 1 0 1 0 ...; 0 1 0 1 ...].  Every product is
    exact, so each entry is the difference rounded once, bit for bit the
    broadcast subtraction, which numpy runs about three times slower on
    complex rows."""
    fine = np.ascontiguousarray(fine).view(float)
    right = np.concatenate((fine[None], _pattern(len(fine) // 2)))
    left = np.stack([np.ones(len(base)), -base.real, -base.imag], axis=1)

    def fill(rows: slice, out: np.ndarray):
        np.matmul(left[rows], right, out=out)

    return fill


def _dot_out(sums: np.ndarray) -> np.ndarray:
    """The (n, 1, 1) out of complex row dots into an (n,) accumulator."""
    return sums[:, None, None]


def _pair_out(sums: np.ndarray) -> np.ndarray:
    """The (n, 1, 2) out of real row dots into an (n,) complex accumulator."""
    return sums.view(float).reshape(-1, 1, 2)


def _check_floor(state: SimState, r2: np.ndarray, rows: slice, screen: np.ndarray):
    """Abort if min sqrt(r2)/|alpha| over a block's rows is below the
    state's floor.  r2 at or below (floor (1 + 1e-12))^2 alpha^2
    (_floor_screen), written into the bool block screen, screens the block;
    only a block with such an entry takes the quotient itself, which is
    then the arc_chord level's quotient bit for bit.  The check is a coarse
    guard on the step's m alphas, the per-record arc_chord (8n) the
    margin."""
    n, m = state.curve.n, state.m
    if np.less_equal(r2, _floor_screen(state.rho_floor, n, m)[rows], out=screen).any():
        worst = float(np.min(np.sqrt(r2) / _alpha_factor("abs_alpha", n, m)[rows]))
        if worst < state.rho_floor:
            raise SimulationAbort(state.t, f"arc-chord {worst:.3e} below "
                                           f"floor {state.rho_floor:.3e}")


def _remainder_coefficients(a, b, inv_al, c, inv_r2, t, w, dp, e, coef_i, scratch):
    """coef_i and conj(coef_c) of A(a, b, d) v / alpha^2 = (coef_i v +
    coef_c conj(rot v)) / 4 pi at the chord dz = alpha d (see the module
    docstring), from c = conj(dz), 1/alpha, 1/|dz|^2, t = 1/dz and
    W = t^2.  coef_i is written into the real array coef_i and conj(coef_c)
    into t, which it returns; c ends as b - d, dp as conj(dp) dm, and e
    and the real scratch are scratch."""
    d = np.conjugate(c, out=c)
    d *= inv_al
    np.subtract(a, d, out=dp)
    dm = np.subtract(b, d, out=d)
    np.add(dp, dm, out=e)
    e *= t
    e *= inv_al
    conj_c = np.multiply(dp, dm, out=t)
    conj_c *= w
    np.add(conj_c.real, e.real, out=coef_i)
    np.conjugate(dp, out=dp)
    dp *= dm
    conj_c.real -= np.multiply(dp.real, inv_r2, out=scratch)
    conj_c.imag += e.imag
    return conj_c


def _walk(state: SimState, walk: str) -> dict:
    """The fields of one walk of _LAYOUTS over the state's (theta, alpha)
    frame, by form: "position" gives position_reduced, "imex" adds
    derivative and "every" gives every form of FORMS (see the module
    docstring for each form's row sums).

    X and X' come from the state's coefficients by one size-m inverse
    transform, X' as real samples x1 and as the complex a = X'(theta +
    alpha) and b = X'(theta_j).  Blocks of max(1, _BLOCK // m) theta rows
    run the stages in order, each writing into the thread's block buffers
    (_BUFFERS) by the walk's layout, each buffer starting on a 64-byte
    cache line:

    - the chord c = conj(dz), |dz|^2 (c.imag^2 and the floor screen in the
      second float block), the floor check and 1/|dz|^2 in the real half
      of a complex block, whose imaginary half stays zero, so that
      t = c (1/|dz|^2) is a complex product;
    - t = 1/dz, then W = t^2;
    - the rotor t c (every form only);
    - t rot = W c;
    - the jump J = T(X'(theta + alpha)) - T(X'(theta)) (not in the
      position walk, which runs no T(X'), so that a vanished tangent
      reaches its abort).

    The row dots write the alpha sums of the block's rows with out= into
    (n,) accumulators, each row's sum one contiguous reduction within one
    block, and each form combines its sums into its field once.  A shorter
    last block reads prefixes of the same buffers, the rows of the tiles
    of a and conj(a) included, and each walk refills the memory of the one
    before, which arrays made per walk would fault in again."""
    kernel, every = walk != "position", walk == "every"
    n, m, law = state.curve.n, state.m, state.law
    height = min(n, max(1, _BLOCK // m))  # theta rows per block
    both = half_offset_values(
        np.concatenate((state.curve.coeffs, state.deriv.coeffs), axis=1), m)
    x1 = np.ascontiguousarray(both[:, 2:])
    a = as_complex(x1)  # a view of x1
    # fills a block with conj(X_p - X_j) (see _differences)
    chords = _differences(np.conj(as_complex(both[:, :2])),
                          np.conj(as_complex(state.curve.nodes)))

    mag = np.abs(a)
    # every half-offset sample is read at each theta_j
    if float(mag.min()) == 0.0:
        raise SimulationAbort(state.t, "tangent vector vanished")
    q_col = (a * a * (law.eval(mag) / mag / FOUR_PI))[:, None]
    del both, mag  # the blocks read neither: free them before the walk
    # (n,) complex alpha sums, every row of which the walk writes
    s_t, s_t_rot = np.empty((2, n), dtype=complex)
    t_out, t_rot_out = _dot_out(s_t), _dot_out(s_t_rot)
    if kernel:
        b = as_complex(state.deriv.nodes)
        # fills a block with T(X')_p - T(X')_j (see _differences)
        jumps = _differences(as_complex(tension_map(law, x1)),
                             as_complex(tension_map(law, state.deriv.nodes)))
        s_w, s_v, s_g = np.empty((3, n), dtype=complex)
        w_out, v_out, g_out = _dot_out(s_w), _dot_out(s_v), _pair_out(s_g)
    if every:
        x1_fine = state.deriv.resampled(2 * n).nodes
        x2_fine = state.deriv.derivative().resampled(2 * n).nodes
        force_fine = (tension_jacobian(law, x1_fine) @ x2_fine[..., None])[..., 0]
        # force values at theta_j + alpha from the trigonometric interpolant
        # of the padded samples
        fs = as_complex(half_offset_samples(force_fine, m))
        fs_col, fs_pairs = fs[:, None], fs.view(float).reshape(-1, 2)
        log_s2 = _alpha_factor("log_4sin2", n, m)
        inv_al = _alpha_factor("inv_alpha", n, m)
        inv_al2 = _alpha_factor("inv_alpha2", n, m)[:, None, :]
        b_col = b[:, None]
        s_log, s_rot, s_i, s_c, s_diss = np.empty((5, n), dtype=complex)
        log_out, rot_out, i_out = _pair_out(s_log), _dot_out(s_rot), _pair_out(s_i)
        c_out, diss_out = _dot_out(s_c), _pair_out(s_diss)
    plans = {}
    for start in range(0, n, height):
        rows = slice(start, min(start + height, n))
        p = plans.get(rows.stop - start)
        if p is None:
            shape = (rows.stop - start, m)
            p = plans[shape[0]] = SimpleNamespace(**{
                role: _BUFFERS.block(name, shape) for role, name in _LAYOUTS[walk].items()})
            if kernel and start == 0:  # a shorter last block reads these rows
                np.copyto(p.a.z, a)
                np.conjugate(a, out=p.conj_a.z)
        c, t, r2 = p.c.z, p.t.z, p.r2.z
        chords(rows, p.c.flat_pairs)
        np.square(p.c.re, out=r2)
        r2 += np.square(p.c.im, out=p.f1.z)
        _check_floor(state, r2, rows, p.f1.screen)
        np.divide(1.0, r2, out=p.inv.re)
        if every:
            # the smooth log over |dz|^2, which nothing reads after 1/|dz|^2
            smooth_log = np.log(r2, out=r2)
            smooth_log -= log_s2[rows]
            np.matmul(p.r2.lhs, fs_pairs, out=log_out[rows])
        np.multiply(c, p.inv.z, out=t)
        np.square(t, out=p.w.z)
        np.matmul(p.t.lhs, q_col, out=t_out[rows])
        if every:
            np.multiply(t, c, out=p.rot.z)
            np.matmul(p.rot.lhs, fs_col, out=rot_out[rows])
        np.multiply(p.w.z, c, out=p.t_rot.z)
        np.matmul(p.t_rot.lhs, q_col, out=t_rot_out[rows])
        if not kernel:
            continue
        # conj(V) over t rot, which the position form has read by now
        np.multiply(t, p.t_rot.z, out=p.t_rot.z)
        jumps(rows, p.jump.flat_pairs)
        aj = p.aj
        np.multiply(p.a.z, p.jump.z, out=aj.z)
        np.matmul(p.w.lhs, aj.rhs, out=w_out[rows])
        np.matmul(p.t_rot.lhs, aj.rhs, out=v_out[rows])
        # Im(conj(a) J) over aJ, copied contiguous into the dead |dz|^2
        # block so that its row dots run in BLAS
        np.multiply(p.conj_a.z, p.jump.z, out=aj.z)
        np.copyto(r2, aj.im)
        np.matmul(p.r2.lhs, p.w.pairs, out=g_out[rows])
        if every:
            # A after K, in the blocks of the chord, t, |dz|^2, v and aJ,
            # none of which is read after it; then the dissipation
            conj_c = _remainder_coefficients(
                p.a.z, b_col[rows], inv_al[rows], c, p.inv.re, t, p.w.z,
                p.dp.z, p.e.z, r2, p.f1.z)
            np.multiply(conj_c, p.rot.z, out=conj_c)
            np.matmul(p.r2.lhs, p.jump.pairs, out=i_out[rows])
            np.matmul(p.t.lhs, p.jump.rhs, out=c_out[rows])
            np.matmul(inv_al2[rows], p.jump.pairs, out=diss_out[rows])

    def field(sums: np.ndarray) -> np.ndarray:
        # the half-offset rule over alpha, (2 pi / m) sums, as a real (n, 2) field
        return (sums * (2.0 * np.pi / m)).view(float).reshape(-1, 2)

    fields = {"position_reduced": field(0.5 * (s_t + np.conj(s_t_rot)))}
    if kernel:
        fields["derivative"] = field((1j * b * s_w.imag + np.conj(b * (s_v - 1j * s_g)))
                                     / FOUR_PI)
    if every:
        # exact product quadrature for the periodic log kernel
        k = wavenumbers(2 * n).astype(float)
        weights = np.where(k == 0.0, 0.0, -np.pi / np.where(k == 0.0, 1.0, np.abs(k)))
        log_part = -apply_multiplier(force_fine, weights)[::2]
        fields["position_bi"] = (field(0.5 * (fs.sum() + np.conj(s_rot) - s_log))
                                 + log_part) / FOUR_PI
        fields["remainder"] = field((s_i + np.conj(s_c)) / FOUR_PI)
        fields["dissipation"] = -field(s_diss) / FOUR_PI
    return fields


FORMS = ("position_bi", "position_reduced", "derivative", "remainder", "dissipation")


def right_hand_sides(state: SimState, *forms: str) -> tuple:
    """The requested right-hand sides of the state from one frame walk, one
    real (n, 2) field per form, in order.

    forms are names from FORMS: "position_bi" (rhs_position_bi),
    "position_reduced", "derivative" (rhs_derivative unprojected),
    "remainder" (remainder_V) and "dissipation" (dissipation_term).  The
    smallest walk of _walk that serves them all runs: "position" for
    "position_reduced" alone, "imex" for "derivative" with or without it,
    and the verification walk "every" for any set that names
    "position_bi", "remainder" or "dissipation", which needs m >= 2n.  A
    field is the same, bit for bit, whichever walk serves it.
    """
    requested = set(forms)
    if not requested or not requested <= set(FORMS):
        raise ValueError(f"right_hand_sides takes one or more of {FORMS}, "
                         f"got {forms}")
    walk = ("position" if requested == {"position_reduced"} else
            "imex" if requested <= {"derivative", "position_reduced"} else "every")
    n = state.curve.n
    if walk == "every" and state.m < 2 * n:
        # the full Stokeslet's 2n-band force would fold modulo m on the alpha grid
        raise ValueError(f"the verification walk (position_bi, remainder, dissipation) "
                         f"needs m >= 2n = {2 * n} to sample its 2n-band force "
                         f"without aliasing, got m={state.m}")
    fields = _walk(state, walk)
    return tuple(fields[form] for form in forms)


def rhs_position_bi(state: SimState) -> np.ndarray:
    """Position velocity from the full Stokeslet against the force
    derivative (see the module docstring), from the verification walk.
    Its force has band 2n and would fold modulo m on the alpha grid, so m
    must be at least 2n."""
    return right_hand_sides(state, "position_bi")[0]


def rhs_position_reduced(state: SimState) -> np.ndarray:
    """First-derivatives-only position velocity (the working form)."""
    return right_hand_sides(state, "position_reduced")[0]


def rhs_derivative(state: SimState) -> np.ndarray:
    """Tangent-field velocity from the matrix-kernel equation, projected to
    mean zero (the continuum operator annihilates constants; quadrature
    leaves a tiny drift): right_hand_sides gives the raw field."""
    out, = right_hand_sides(state, "derivative")
    return out - out.mean(axis=0)


def remainder_V(state: SimState) -> np.ndarray:
    """Bounded remainder: the A-kernel part of the derivative equation,
    from the verification walk (m >= 2n)."""
    return right_hand_sides(state, "remainder")[0]


def dissipation_term(state: SimState) -> np.ndarray:
    """The quadrature realization of the half-Laplacian of the tension field.

    Evaluated with pointwise-exact shifted samples on the same alpha grid
    as the kernels, so rhs_derivative == -dissipation_term + remainder_V
    holds to rounding.  It comes from the verification walk, so it needs
    m >= 2n and runs the floor check, though it reads no chord.
    """
    return right_hand_sides(state, "dissipation")[0]


def _cbar(state: SimState) -> float:
    mag = magnitude(state.deriv.nodes)
    return float(np.max(np.maximum(state.law.d1(mag), state.law.eval(mag) / mag)))


def cfl_limit(state: SimState) -> float:
    """Largest stable explicit step: c_cfl / (cbar * max lam_tilde)."""
    lam_max = float(symbol(state.curve.n, state.m).lam_tilde.max())
    return CFL_CONSTANT / (_cbar(state) * lam_max)


def _check_finite(state: SimState, *arrays: np.ndarray):
    if not all(np.isfinite(a).all() for a in arrays):
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
        _check_finite(state, nodes)  # before Curve rejects it as bad input
        st = state.advanced(t, Curve.from_nodes(nodes))
        return rhs_position_reduced(st)

    k1 = rhs_position_reduced(state)  # the state holds X and X' already
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
    # velocity (the derivative equation cannot see translations)
    cx = c1_new * antiderivative_multiplier(n)[:, None]
    cx[0] = state.curve.mean + dt * mean_velocity
    _check_finite(state, cx, c1_new)  # before Curve rejects it as bad input
    return state.advanced(state.t + dt, Curve.from_coeffs(cx), Curve.from_coeffs(c1_new))


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
    "one": lambda deriv_nodes: None,  # the unit weight
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


def _diag_record(state: SimState, arc: float, mu: Optional[MuWeight], cfg: SimConfig) -> dict:
    x1 = state.deriv.nodes
    power = power_spectrum(x1)
    k = np.abs(wavenumbers(state.curve.n)).astype(float)
    bes = besov_diff(x1, BesovParams(0.5, 2, 1, mu), beta_points=cfg.diag_beta_points)
    return {
        "schema": "peskin-lab/diag-v1",
        "t": float(state.t),
        "arc_chord": arc,
        "l2": parseval_norm(power),
        "h_half": parseval_norm(power, k),
        "h1": parseval_norm(power, k**2),
        "besov_half_mu": float(bes),
        "step_scheme": cfg.scheme,
    }


def simulate(cfg: SimConfig, initial: Optional[Curve] = None) -> Trajectory:
    """Run the configured evolution, from initial if given; deterministic
    given the config."""
    curve = initial if initial is not None else make_initial_curve(cfg)
    # the initial arc-chord serves both the default floor and the first record
    arc = arc_chord(curve).value
    if arc == 0.0:
        raise ValueError("the initial curve is degenerate: its arc-chord number is 0")
    rho_floor = cfg.rho_floor if cfg.rho_floor is not None \
        else _FLOOR_FRACTION * arc
    state = SimState.make(curve, law_from_config(cfg), m=cfg.m, rho_floor=rho_floor)
    mu = _MU_WEIGHTS[cfg.mu_kind](state.deriv.nodes)
    times, curves = [state.t], [state.curve]
    records = [_diag_record(state, arc, mu, cfg)]
    for i in range(1, cfg.steps + 1):
        state = step(state, cfg.dt, cfg.scheme)
        if i % cfg.output_stride == 0 or i == cfg.steps:
            times.append(state.t)
            curves.append(state.curve)
            records.append(_diag_record(state, arc_chord(state.curve).value, mu, cfg))
    return Trajectory(times=np.array(times), curves=tuple(curves),
                      records=tuple(records), scheme=cfg.scheme, config=cfg)
