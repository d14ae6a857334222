import numpy as np
import pytest

from peskin_lab.tension import (
    TensionLaw,
    arctan_law,
    globalize,
    hookean,
    power_law,
    table_law,
    tension_jacobian,
    tension_map,
)


def fd_jacobian(law, z, h=1e-6):
    out = np.empty((2, 2))
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        out[:, j] = (tension_map(law, z + e) - tension_map(law, z - e)) / (2 * h)
    return out


def test_tension_map_hookean():
    assert np.allclose(tension_map(hookean(2.0), np.array([3.0, 4.0])),
                       [6.0, 8.0], atol=1e-13)


def test_tension_map_quadratic():
    law = power_law(1.0, 2.0, (0.5, 6.0))
    out = tension_map(law, np.array([3.0, 4.0]))
    assert np.allclose(out, [15.0, 20.0], atol=1e-12)


def test_tension_map_arctan():
    out = tension_map(arctan_law(), np.array([1.0, 0.0]))
    assert np.allclose(out, [np.pi / 4.0, 0.0], atol=1e-13)


def test_table_law_in_range_values_unchanged():
    from scipy.interpolate import PchipInterpolator

    rs = np.array([0.5, 0.8, 1.0, 1.4, 2.0])
    ts = np.array([0.4, 0.9, 1.2, 2.0, 3.3])
    law = table_law(rs, ts)
    interp = PchipInterpolator(rs, ts)
    r = np.concatenate([rs, np.linspace(0.5, 2.0, 101)])
    assert np.array_equal(law.eval(r), interp(r))
    assert np.array_equal(law.d1(r), interp.derivative()(r))


@pytest.mark.parametrize("fn", ["eval", "d1"])
@pytest.mark.parametrize("r", [5.0, 0.49, [1.0, 2.5]])
def test_table_law_rejects_stretch_outside_table(fn, r):
    law = table_law([0.5, 1.0, 2.0], [1.0, 2.0, 3.5])
    message = r"outside .*\[0\.5, 2\.0\].*tension\.globalize"
    with pytest.raises(ValueError, match=message):
        getattr(law, fn)(r)


def test_globalize_window_past_table_raises():
    law = table_law([0.5, 1.0, 2.0], [1.0, 2.0, 3.5])
    with pytest.raises(ValueError, match="outside"):
        globalize(law, 0.5, 3.0)
    wide = globalize(law, 0.5, 2.0)  # the window inside the table extends it
    assert np.all(np.isfinite(wide.eval(np.array([0.1, 5.0]))))


@pytest.mark.parametrize("window", [(0.5, 0.0), (2.0, 1.0), (-1.0, 2.0)])
def test_arctan_law_rejects_bad_windows(window):
    # only 0 < a < b is a window; at b = 0 the floor T(b)/b is 0/0
    with pytest.raises(ValueError, match="0 < a < b"):
        arctan_law(window)


def test_tension_map_at_zero():
    out = tension_map(hookean(1.0), np.zeros(2))
    assert np.allclose(out, 0.0)
    bad = table_law([0.5, 1.0, 2.0], [1.0, 2.0, 3.5])
    with pytest.raises(ValueError):
        tension_map(bad, np.zeros(2))


def test_jacobian_hookean_is_isotropic(rng):
    law = hookean(1.7)
    for _ in range(5):
        z = rng.standard_normal(2)
        jac = tension_jacobian(law, z)
        assert np.max(np.abs(jac - 1.7 * np.eye(2))) < 1e-12


def test_jacobian_quadratic_examples():
    law = power_law(1.0, 2.0, (0.5, 6.0))
    jac = tension_jacobian(law, np.array([1.0, 0.0]))
    assert np.max(np.abs(jac - np.diag([2.0, 1.0]))) < 1e-12
    assert np.max(np.abs(jac - fd_jacobian(law, np.array([1.0, 0.0])))) < 1e-8
    jac = tension_jacobian(law, np.array([0.0, 2.0]))
    assert np.max(np.abs(jac - np.diag([2.0, 4.0]))) < 1e-12
    assert np.max(np.abs(jac - fd_jacobian(law, np.array([0.0, 2.0])))) < 1e-8


def test_jacobian_matches_finite_differences(rng):
    for law in (hookean(0.8), power_law(1.3, 2.0, (0.1, 10.0)), arctan_law()):
        for _ in range(100):
            z = rng.standard_normal(2)
            r = np.hypot(*z)
            if r < 0.2:
                continue
            jac = tension_jacobian(law, z)
            assert np.max(np.abs(jac - fd_jacobian(law, z))) < 1e-6
            assert np.max(np.abs(jac - jac.T)) < 1e-12


def test_jacobian_ellipticity_floor(rng):
    law = power_law(1.0, 2.0, (0.5, 2.0))
    for _ in range(50):
        r = rng.uniform(0.5, 2.0)  # the trusted window
        phi = rng.uniform(0, 2 * np.pi)
        z = r * np.array([np.cos(phi), np.sin(phi)])
        eigs = np.linalg.eigvalsh(tension_jacobian(law, z))
        assert eigs.min() >= law.lam - 1e-10


def test_tension_map_rotation_equivariant(rng):
    law = arctan_law()
    for _ in range(20):
        z = rng.standard_normal(2)
        if np.hypot(*z) < 0.1:
            continue
        phi = rng.uniform(0, 2 * np.pi)
        q = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
        assert np.max(np.abs(tension_map(law, q @ z) - q @ tension_map(law, z))) < 1e-12


def test_globalize_hookean_noop():
    law = globalize(hookean(2.0), 0.5, 2.0)
    rs = np.linspace(0.01, 5.0, 200)
    assert np.max(np.abs(law.eval(rs) - 2.0 * rs)) < 1e-12
    assert abs(law.lam - 2.0) < 1e-12


def test_globalize_quadratic_extension():
    # T(r) = r^2 trusted on [1, 2]; linear above with slope T'(2) = 4
    law = globalize(power_law(1.0, 2.0, (1.0, 2.0)), 1.0, 2.0)
    assert abs(law.eval(np.array([3.0]))[0] - 8.0) < 1e-12
    assert abs(law.d1(np.array([2.5]))[0] - 4.0) < 1e-12
    # C^1 continuity at both junctions (centered differences)
    for r0 in (0.5, 1.0, 2.0):
        h = 1e-7
        fd = (law.eval(np.array([r0 + h]))[0] - law.eval(np.array([r0 - h]))[0]) / (2 * h)
        assert abs(fd - law.d1(np.array([r0]))[0]) < 1e-5
    assert law.eval(np.array([0.0]))[0] == 0.0


def test_globalize_idempotent_on_window(rng):
    base = power_law(1.0, 2.0, (1.0, 2.0))
    law = globalize(base, 1.0, 2.0)
    rs = rng.uniform(1.0, 2.0, 100)
    assert np.max(np.abs(law.eval(rs) - base.eval(rs))) < 1e-12
    assert np.max(np.abs(law.d1(rs) - base.d1(rs))) < 1e-12


def test_globalize_lambda_floor():
    law = globalize(power_law(1.0, 2.0, (1.0, 2.0)), 1.0, 2.0)
    rs = np.linspace(1e-6, 10.0, 20001)
    sampled = float(np.min(law.d1(rs)))
    assert sampled >= law.lam - 1e-9
    assert law.lam > 0
    # blend slope for r^2 on [1,2]: (4 T(1) - T'(1)) / 3 = 2/3
    assert abs(law.d1(np.array([0.25]))[0] - 2.0 / 3.0) < 1e-12


def test_globalize_global_bounds_finite():
    law = globalize(power_law(1.0, 2.0, (1.0, 2.0)), 1.0, 2.0)
    # T' is bounded on all of [0, inf): its sup is T'(b) = 4, kept above b
    rs = np.linspace(0.0, 50.0, 5001)
    assert abs(np.max(law.d1(rs)) - 4.0) < 1e-12


def test_globalize_rejects_bad_window():
    with pytest.raises(ValueError):
        globalize(power_law(1.0, 2.0, (0.5, 2.0)), 2.0, 1.0)
    decreasing = TensionLaw(eval=lambda r: 1.0 / (1.0 + r),
                            d1=lambda r: -1.0 / (1.0 + r) ** 2)
    with pytest.raises(ValueError):
        globalize(decreasing, 1.0, 2.0)


def test_table_law_matches_samples():
    rs = np.linspace(0.5, 3.0, 50)
    law = table_law(rs, 2.0 * rs + 0.1 * rs**2)
    mid = np.linspace(0.6, 2.9, 33)
    assert np.max(np.abs(law.eval(mid) - (2.0 * mid + 0.1 * mid**2))) < 1e-3
    assert law.lam > 1.9
