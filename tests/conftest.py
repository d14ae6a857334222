import numpy as np
import pytest

from peskin_lab.curve import Curve, theta_grid


def random_trig_field(rng, n, modes, decay=1.5, components=2):
    """Random real trig polynomial with |k|^-decay coefficient envelope."""
    th = theta_grid(n)
    shape = (n, components) if components > 1 else (n,)
    f = np.zeros(shape)
    for k in range(1, modes + 1):
        s = k**-decay
        cols = range(components) if components > 1 else [None]
        for c in cols:
            term = s * (rng.standard_normal() * np.cos(k * th)
                        + rng.standard_normal() * np.sin(k * th))
            if c is None:
                f += term
            else:
                f[:, c] += term
    return f


def random_bandlimited_curve(rng, n, modes=16, amp=0.2):
    """Circle plus a smooth random perturbation, safely non-degenerate."""
    return Curve.from_nodes(Curve.circle(n).nodes
                            + random_trig_field(rng, n, modes, decay=3.0) * amp)


def mu_admissible(mu, c0=2.0, j_top=20, tol=1e-9):
    """The three weight predicates plus the floor mu >= 1, on dyadics 2^j.

    Monotone, doubling with constant c0, and mu(r)/log(4+r) non-increasing.
    Tabulated weights satisfy the definition on their dyadic table; the
    unbounded-growth clause is not a finite check.
    """
    rs = 2.0 ** np.arange(0, j_top + 1, dtype=float)
    vals = mu(rs)
    return bool(np.all(np.diff(vals) >= -tol)
                and np.all(vals[1:] <= c0 * vals[:-1] + tol)
                and np.all(np.diff(vals / np.log(4.0 + rs)) <= tol)
                and np.all(vals >= 1.0 - tol))


def grid_lp(values, p):
    mag = np.abs(values) if values.ndim == 1 else np.hypot(values[:, 0],
                                                           values[:, 1])
    if np.isinf(p):
        return float(mag.max())
    return float((2.0 * np.pi * np.mean(mag**p)) ** (1.0 / p))


def l2_field(values):
    return grid_lp(values, 2.0)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
