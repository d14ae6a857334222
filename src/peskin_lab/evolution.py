"""Right-hand sides of the boundary-integral evolution and time stepping.

Three equivalent evaluators are provided: the position form driven by the
full Stokeslet, the first-derivatives-only position form, and the
derivative-equation form driven by the matrix kernel.  All alpha
integrals run over a shared half-offset grid, so the odd 1/alpha parts
cancel by symmetric pairing.  Each band-limited field (X, X', the
padded force) is sampled exactly once on the half-offset m-grid, every
shifted value f(theta_j + alpha_i) is read from a strided window over those
samples (no copy), and nonlinear functions are evaluated on the samples.

The (m, n) frame is never formed.  Every right-hand side is one pass over
blocks of alpha rows, each about _BLOCK elements so that its temporaries
stay in cache: a block builds its own delta X, |delta X|^2 and rotor,
checks the arc-chord floor on its rows, evaluates every integrand the
caller asked for and adds its alpha sum into (n,) accumulators.  An IMEX
step gets the K integral and the position velocity from one such pass.
K has degree -2 in its chord argument, so K(a, b, delta X/alpha)/alpha^2 =
K(a, b, delta X) and its integrand reads delta X as it is; A is not
homogeneous and keeps the divided difference.

Inside the frame every 2-vector is one complex number z = x + iy: real
(n, 2) fields are sampled first (so the Nyquist convention is that of
curve.half_offset_samples) and converted with curve.as_complex, and the
alpha integral is converted back to a real (n, 2) field.  For a chord d
the unit rotor rot = conj(d)/d = conj(d)^2/|d|^2 carries the whole matrix
basis:

    P(d) v = conj(rot v),   R(d) v = i conj(rot v),
    u.P(d)w + i u.R(d)w = rot u w,
    (X'.dhat)^2 - (X'.dperp)^2 = Re(rot X'^2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .curve import (
    Curve,
    arc_chord,
    as_complex,
    fft_coeffs,
    grid_values,
    half_offset_samples,
    half_offset_window,
    min_chord_quotient,
    power_spectrum,
    spectral_antiderivative,
    wavenumbers,
)
from .besov import BesovParams, MuWeight, besov_diff
from .kernels import FOUR_PI
from .operators import half_offset_grid, symbol
from .tension import TensionLaw, tension_jacobian, tension_map, hookean, power_law, arctan_law, globalize

__all__ = [
    "SimulationAbort",
    "SimConfig",
    "SimState",
    "Trajectory",
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
_BLOCK = 16384  # frame elements per row block: a complex temporary is 256 KB


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

    def advanced(self, t: float, curve: Curve) -> "SimState":
        return replace(self, t=t, curve=curve, deriv=curve.derivative())


class _Rows(NamedTuple):
    """One block of alpha rows of the frame: the row slice, its alphas as a
    column, delta X, |delta X|^2, its reciprocal and the rotor
    conj(dz)/dz = conj(dz)^2/|dz|^2."""

    index: slice
    alphas: np.ndarray
    dz: np.ndarray
    r2: np.ndarray
    inv_r2: np.ndarray
    rot: np.ndarray


class _Frame:
    """The (alpha, theta) quadrature frame of one state.

    A band-limited field is sampled once on the half-offset m-grid, and
    every shifted value f(theta_j + alpha_i) is read from a read-only
    strided window over those m samples; pointwise nonlinearities are
    evaluated on the samples first.  No (m, n) array is ever formed:
    integrate walks the alpha rows in blocks of max(1, _BLOCK // n) rows,
    builds the geometry of each block (delta X, its squared length, their
    reciprocal and the rotor), checks the arc-chord floor on the block's
    rows and adds every integrand's block sum into (n,) accumulators.
    Vectors are complex from sampling to integration.
    """

    def __init__(self, state: SimState):
        self.state = state
        self.alphas = half_offset_grid(state.m)

    def samples(self, values: np.ndarray) -> np.ndarray:
        """Complex samples of a real (n, 2) field on the half-offset m-grid."""
        return as_complex(half_offset_samples(values, self.state.m))

    def shifted(self, samples: np.ndarray) -> np.ndarray:
        return half_offset_window(samples, self.state.curve.n)

    def integrate(self, *integrands) -> list:
        """Half-offset rule over alpha, (2 pi / m) sum_i integrand[i], of each
        integrand, a function of one _Rows block returning its complex
        (rows, n) values; one real (n, 2) field per integrand.

        The floor check is a coarse guard on the step's m alpha rows, the
        per-record arc_chord (4n, 8n) the margin."""
        st = self.state
        n, m = st.curve.n, st.m
        x = as_complex(st.curve.nodes)
        xs = self.shifted(self.samples(st.curve.nodes))
        size = max(1, _BLOCK // n)
        sums = np.zeros((len(integrands), n), dtype=complex)
        for start in range(0, m, size):
            index = slice(start, start + size)
            dz = xs[index] - x
            r2 = dz.real**2 + dz.imag**2
            worst = min_chord_quotient(r2, self.alphas[index])
            if worst < st.rho_floor:
                raise SimulationAbort(st.t, f"arc-chord {worst:.3e} below "
                                            f"floor {st.rho_floor:.3e}")
            inv_r2 = 1.0 / r2
            rows = _Rows(index, self.alphas[index, None], dz, r2, inv_r2,
                         np.square(np.conj(dz)) * inv_r2)
            for acc, integrand in zip(sums, integrands):
                acc += integrand(rows).sum(axis=0)
        sums *= 2.0 * np.pi / m
        return [np.stack([z.real, z.imag], axis=-1) for z in sums]

    @cached_property
    def x1_samples(self) -> np.ndarray:
        """X' on the half-offset m-grid as real (m, 2) samples."""
        return half_offset_samples(self.state.deriv.nodes, self.state.m)

    @cached_property
    def _tension(self):
        law = self.state.law
        return (self.shifted(as_complex(tension_map(law, self.x1_samples))),
                as_complex(tension_map(law, self.state.deriv.nodes)))

    def tension_jump(self, rows: _Rows) -> np.ndarray:
        """T(X'(theta + alpha)) - T(X'(theta)) for the vector tension map."""
        shifted, base = self._tension
        return shifted[rows.index] - base


def rhs_position_bi(state: SimState) -> np.ndarray:
    """Position velocity from the full Stokeslet against the force derivative.

    The log part of the kernel is split into log(|delta X| / |2 sin(a/2)|)
    (smooth, quadrature) plus the periodic log kernel handled by its exact
    Fourier weights -pi/|k| acting on the force samples.  The force
    D T(X') X'' is rational in X', so it is sampled on a doubled grid
    before being treated spectrally (padding factor 2; exact dealiasing is
    impossible for non-polynomial nonlinearities).  That 2n-band force
    would fold modulo m on the alpha grid, so m must be at least 2n.
    """
    n = state.curve.n
    if state.m < 2 * n:
        raise ValueError(f"rhs_position_bi needs m >= 2n = {2 * n} to sample "
                         f"its 2n-band force without aliasing, got m={state.m}")
    x1_fine = state.deriv.resampled(2 * n).nodes
    x2_fine = state.deriv.derivative().resampled(2 * n).nodes
    force_fine = (tension_jacobian(state.law, x1_fine) @ x2_fine[..., None])[..., 0]

    frame = _Frame(state)
    # force values at theta_j + alpha from the trigonometric interpolant
    # of the padded samples
    fs = frame.shifted(frame.samples(force_fine))
    s_al = np.abs(2.0 * np.sin(frame.alphas / 2.0))

    def integrand(rows):
        f = fs[rows.index]
        smooth_log = np.log(np.sqrt(rows.r2) / s_al[rows.index, None])
        # the G2 part (dhat.f) dhat is (f + P(d) f) / 2
        return 0.5 * (f + np.conj(rows.rot * f)) - smooth_log * f

    quad_part, = frame.integrate(integrand)
    # exact product quadrature for the periodic log kernel
    k = wavenumbers(2 * n).astype(float)
    w = np.where(k == 0.0, 0.0, -np.pi / np.where(k == 0.0, 1.0, np.abs(k)))
    log_part = -grid_values(fft_coeffs(force_fine) * w[:, None])[::2]
    return (quad_part + log_part) / FOUR_PI


def _position_integrand(frame: _Frame):
    """The reduced position integrand over 4 pi, as a function of a block."""
    state = frame.state
    x1f = as_complex(frame.x1_samples)
    mag = np.abs(x1f)
    # every half-offset sample is read at each theta_j
    if float(mag.min()) == 0.0:
        raise SimulationAbort(state.t, "tangent vector vanished")
    x1s = frame.shifted(x1f)
    weight = frame.shifted(state.law.eval(mag) / mag / FOUR_PI)

    def integrand(rows):
        x1 = x1s[rows.index]
        # (X'.dhat)^2 - (X'.dperp)^2 = X'.P(d)X'
        quad_form = (rows.rot * x1 * x1).real
        return quad_form * rows.inv_r2 * weight[rows.index] * rows.dz

    return integrand


def rhs_position_reduced(state: SimState) -> np.ndarray:
    """First-derivatives-only position velocity (the working form)."""
    frame = _Frame(state)
    out, = frame.integrate(_position_integrand(frame))
    return out


def _kernel_apply(a, b, d, rot, inv_q2, vec, which: str):
    """K or A applied to vec, with every 2-vector a complex number.

    a = X'(theta + alpha), b = X'(theta), d the divided difference,
    rot = conj(d)/d its rotor and inv_q2 = 1/|d|^2.  With P(d)v =
    conj(rot v), R(d)v = i conj(rot v) and u.P(d)w + i u.R(d)w = rot u w,
    both kernels reduce to coef_i vec + coef_c conj(rot vec).  A is built
    from dp = a - d and dm = b - d (never as K - I/4pi), so every term
    carries a plus or minus difference.  K does not read d.
    """
    if which == "K":
        c = rot * a * b * inv_q2  # a.P(d)b/|d|^2 + i a.R(d)b/|d|^2
        coef_i = c.real
        coef_c = np.conj(c) - (np.conj(a) * b).real * inv_q2
    elif which == "A":
        dp = a - d
        dm = b - d
        c = rot * dp * dm * inv_q2
        # rot (dp + dm) d = conj(d) (dp + dm)
        e = np.conj(d) * (dp + dm) * inv_q2
        coef_i = c.real + e.real
        coef_c = np.conj(c) - (np.conj(dp) * dm).real * inv_q2 - 1j * e.imag
    else:
        raise ValueError(which)
    return (coef_i * vec + coef_c * np.conj(rot * vec)) * (1.0 / FOUR_PI)


def _kernel_integrand(frame: _Frame, which: str):
    """The K (or A) kernel over alpha^2 applied to the tension jump, as a
    function of a block.  K has degree -2 in d, so K(a, b, dz/alpha)/alpha^2
    = K(a, b, dz): its integrand reads dz and 1/|dz|^2 as they are.  A is
    not homogeneous and keeps the divided difference."""
    a = frame.shifted(as_complex(frame.x1_samples))
    b = as_complex(frame.state.deriv.nodes)

    def integrand(rows):
        jump = frame.tension_jump(rows)
        if which == "K":
            return _kernel_apply(a[rows.index], b, rows.dz, rows.rot,
                                 rows.inv_r2, jump, "K")
        al2 = rows.alphas**2
        return _kernel_apply(a[rows.index], b, rows.dz * (1.0 / rows.alphas),
                             rows.rot, al2 * rows.inv_r2, jump, which) * (1.0 / al2)

    return integrand


def rhs_derivative(state: SimState, project: bool = True) -> np.ndarray:
    """Tangent-field velocity from the matrix-kernel equation.

    The output is projected to mean zero by default (the continuum
    operator annihilates constants; quadrature leaves a tiny drift).
    """
    frame = _Frame(state)
    out, = frame.integrate(_kernel_integrand(frame, "K"))
    if project:
        out = out - out.mean(axis=0)
    return out


def remainder_V(state: SimState) -> np.ndarray:
    """Bounded remainder: the A-kernel part of the derivative equation."""
    frame = _Frame(state)
    out, = frame.integrate(_kernel_integrand(frame, "A"))
    return out


def dissipation_term(state: SimState) -> np.ndarray:
    """The quadrature realization of the half-Laplacian of the tension field.

    Evaluated with pointwise-exact shifted samples on the same alpha grid
    as the kernels, so rhs_derivative == -dissipation_term + remainder_V
    holds to rounding.
    """
    frame = _Frame(state)
    out, = frame.integrate(
        lambda rows: frame.tension_jump(rows) * (1.0 / rows.alphas**2))
    return -out / FOUR_PI


def _cbar(state: SimState) -> float:
    x1 = state.deriv.nodes
    mag = np.hypot(x1[:, 0], x1[:, 1])
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
    if scheme == "rk4":
        if dt > cfl_limit(state):
            raise ValueError(
                f"dt={dt:.3e} exceeds the explicit stability limit "
                f"{cfl_limit(state):.3e}")
        return _step_rk4(state, dt)
    if scheme == "imex":
        return _step_imex(state, dt)
    raise ValueError(f"unknown scheme {scheme!r}")


def _step_rk4(state: SimState, dt: float) -> SimState:
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
    frame = _Frame(state)
    deriv_rhs, pos_rhs = frame.integrate(_kernel_integrand(frame, "K"),
                                         _position_integrand(frame))
    return deriv_rhs - deriv_rhs.mean(axis=0), pos_rhs.mean(axis=0)


def _step_imex(state: SimState, dt: float) -> SimState:
    # cbar is refreshed every step from the current tension Jacobian range
    cbar = _cbar(state)
    lam = symbol(state.curve.n, state.m).lam_tilde
    explicit, mean_velocity = _imex_increments(state)
    c1 = state.deriv.coeffs
    numer = c1 * (1.0 + dt * cbar * lam)[:, None] + dt * fft_coeffs(explicit)
    c1_new = numer / (1.0 + dt * cbar * lam)[:, None]
    c1_new[0] = 0.0
    # rebuild the curve: non-mean modes from the tangent field, mean advanced
    # by the averaged position velocity (the derivative equation cannot see
    # translations)
    deriv_nodes = grid_values(c1_new)
    new_nodes = spectral_antiderivative(deriv_nodes) \
        + (state.curve.mean + dt * mean_velocity)[None]
    _check_finite(state, new_nodes)
    return state.advanced(state.t + dt, Curve.from_nodes(new_nodes))


# ---------------------------------------------------------------------------
# configuration-driven runs

@dataclass(frozen=True)
class SimConfig:
    """Run configuration (mirrors the flat config-file keys)."""

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
    tension_window: tuple = (0.5, 2.0)
    tension_globalize: bool = False
    tension_table: Optional[str] = None
    output_stride: int = 10
    output_dir: Optional[str] = None
    seed: int = 0
    rho_floor: Optional[float] = None
    mu_kind: str = "log"
    diag_beta_points: int = 1024


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


def make_initial_curve(cfg: SimConfig) -> Curve:
    n = cfg.n
    if cfg.init_kind == "circle":
        base = Curve.circle(n, radius=cfg.init_radius)
        if cfg.init_perturb_amp == 0.0 or cfg.init_perturb_mode == 0:
            return base
        th = -np.pi + 2.0 * np.pi * np.arange(n) / n
        radial = cfg.init_radius * (1.0 + cfg.init_perturb_amp
                                    * np.cos(cfg.init_perturb_mode * th))
        return Curve.from_nodes(np.stack([radial * np.cos(th),
                                          radial * np.sin(th)], axis=1))
    if cfg.init_kind == "ellipse":
        return Curve.ellipse(n, a=cfg.init_a, b=cfg.init_b)
    if cfg.init_kind == "fourier-file":
        from .curve import read_curve

        if cfg.init_file is None:
            raise ValueError("init.kind=fourier-file requires init.file")
        return read_curve(cfg.init_file)
    if cfg.init_kind == "random-sobolev":
        return _rough_curve(n, cfg.init_rough_exponent, cfg.init_rough_amp,
                            cfg.init_radius, cfg.seed)
    raise ValueError(f"unknown init.kind {cfg.init_kind!r}")


def _rough_curve(n: int, sigma: float, amp: float, radius: float,
                 seed: int) -> Curve:
    """Circle plus a perturbation whose tangent spectrum decays like |k|^-sigma
    with random phases; amp sets the relative tangent-field L2 size."""
    rng = np.random.default_rng(seed)
    c1 = np.zeros((n, 2), dtype=complex)
    for k in range(1, n // 2):  # positive modes, mirrored for a real field
        mag = float(k) ** (-sigma)
        c1[k] = mag * np.exp(2j * np.pi * rng.random(2))
        c1[n - k] = np.conj(c1[k])
    pert_deriv = grid_values(c1)
    base = Curve.circle(n, radius=radius)
    base_l2 = np.sqrt(2.0 * np.pi) * radius
    pert_l2 = np.sqrt(2.0 * np.pi * np.mean(np.sum(pert_deriv**2, axis=-1)))
    scale = amp * base_l2 / pert_l2 if pert_l2 > 0 else 0.0
    pert = spectral_antiderivative(pert_deriv * scale)
    return Curve.from_nodes(base.nodes + pert)


def law_from_config(cfg: SimConfig) -> TensionLaw:
    if cfg.tension_kind == "hookean":
        law = hookean(cfg.tension_k0)
    elif cfg.tension_kind == "power":
        law = power_law(cfg.tension_coef, cfg.tension_p, tuple(cfg.tension_window))
    elif cfg.tension_kind == "arctan":
        law = arctan_law(tuple(cfg.tension_window))
    elif cfg.tension_kind == "table":
        from .tension import table_law

        if cfg.tension_table is None:
            raise ValueError("tension.kind=table requires tension.table")
        data = np.loadtxt(cfg.tension_table)
        law = table_law(data[:, 0], data[:, 1])
    else:
        raise ValueError(f"unknown tension.kind {cfg.tension_kind!r}")
    if cfg.tension_globalize and cfg.tension_kind != "hookean":
        a, b = cfg.tension_window
        law = globalize(law, a, b)
    return law


def _mu_for_diag(cfg: SimConfig, deriv_nodes: np.ndarray) -> MuWeight:
    if cfg.mu_kind == "one":
        return MuWeight.one()
    if cfg.mu_kind == "log":
        return MuWeight.log4()
    if cfg.mu_kind == "construct":
        from .besov import construct_mu

        return construct_mu(deriv_nodes)
    raise ValueError(f"unknown mu kind {cfg.mu_kind!r}")


def _diag_record(state: SimState, arc: float, mu: MuWeight, scheme: str,
                 beta_points: int) -> dict:
    x1 = state.deriv.nodes
    power = power_spectrum(x1)
    k = np.abs(wavenumbers(state.curve.n)).astype(float)
    l2 = float(np.sqrt(2.0 * np.pi * power.sum()))
    h_half = float(np.sqrt(2.0 * np.pi * np.sum(k * power)))
    h1 = float(np.sqrt(2.0 * np.pi * np.sum(k**2 * power)))
    bes = besov_diff(x1, BesovParams(0.5, 2, 1, mu), beta_points=beta_points)
    return {
        "schema": "peskin-lab/diag-v1",
        "t": float(state.t),
        "arc_chord": arc,
        "l2": l2,
        "h_half": h_half,
        "h1": h1,
        "besov_half_mu": float(bes),
        "step_scheme": scheme,
    }


def simulate(cfg: SimConfig, initial: Optional[Curve] = None,
             law: Optional[TensionLaw] = None) -> Trajectory:
    """Run the configured evolution; deterministic given the config."""
    curve = initial if initial is not None else make_initial_curve(cfg)
    the_law = law if law is not None else law_from_config(cfg)
    n_steps = int(round(cfg.horizon / cfg.dt))
    if abs(cfg.horizon / cfg.dt - n_steps) > 1e-9 * n_steps:
        raise ValueError(f"horizon {cfg.horizon!r} is not a whole number of "
                         f"steps dt={cfg.dt!r}")
    # the initial arc-chord serves both the default floor and the first record
    arc = arc_chord(curve).value
    rho_floor = cfg.rho_floor if cfg.rho_floor is not None \
        else _FLOOR_FRACTION * arc
    state = SimState.make(curve, the_law, t=0.0, m=cfg.m, rho_floor=rho_floor)
    mu = _mu_for_diag(cfg, state.deriv.nodes)
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
