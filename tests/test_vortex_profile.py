"""Radial vortex profile: invariants, far-field law, shooting oracle."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conftest import vortex_gradient
from gpvortex.vortex_profile import (
    evaluate_vortex,
    far_field_modulus,
    solve_vortex_ode,
)


def shooting_kappa(r_end=20.0, iters=55):
    """Independent oracle: adaptive RK from r ~ 0 with rho = kappa r,
    bisecting kappa on overshoot versus fall-back, classified against the
    far-field asymptote at the right end."""

    def rhs(r, y):
        rho, drho = y
        return [drho, -drho / r + rho / r**2 - (1.0 - rho**2) * rho]

    def hit_high(r, y):
        return y[0] - 1.05

    hit_high.terminal = True
    hit_high.direction = 1

    def fell_back(r, y):
        return y[0] - 0.5

    fell_back.terminal = True
    fell_back.direction = -1

    def too_big(kappa):
        r0 = 1e-6
        sol = solve_ivp(rhs, (r0, r_end), [kappa * r0, kappa], rtol=1e-12,
                        atol=1e-14, events=(hit_high, fell_back))
        if sol.t_events[0].size:
            return True
        if sol.t_events[1].size:
            return False
        return sol.y[0, -1] > far_field_modulus(r_end)

    lo, hi = 0.4, 0.8
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if too_big(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_type_invariants(profile):
    checks = profile.validate()
    assert all(checks.values()), checks
    assert profile.rho[0] == 0.0
    assert np.all(np.diff(profile.rho) > 0)
    assert np.all((profile.rho[1:-1] > 0) & (profile.rho[1:-1] < 1))


def test_far_field_law(profile):
    for r in (20.0, 30.0, 40.0):
        defect = abs(1.0 - profile.modulus(np.array([r]))[0] - 1.0 / (2 * r * r))
        assert defect <= 5.0 / r**3


def test_ode_residual_by_substitution(profile):
    assert np.max(np.abs(profile.ode_residual())) <= 1e-10


def test_kappa_matches_shooting_oracle(profile):
    assert abs(profile.kappa - shooting_kappa()) <= 1e-6


def test_preconditions():
    with pytest.raises(ValueError):
        solve_vortex_ode(r_max=5.0)
    with pytest.raises(ValueError):
        solve_vortex_ode(tol=1e-8)
    with pytest.warns(UserWarning):
        solve_vortex_ode(r_max=12.0)


def test_evaluate_center_and_conjugate(profile):
    x = np.array([0.3, -1.2, 4.0])
    y = np.array([0.5, 2.0, -3.0])
    vp = evaluate_vortex(profile, 1, x, y)
    vm = evaluate_vortex(profile, -1, x, y)
    assert np.array_equal(vm, np.conj(vp))
    assert np.allclose(np.abs(vp), profile.modulus(np.hypot(x, y)), rtol=0, atol=1e-15)
    assert evaluate_vortex(profile, 1, np.array([0.0]), np.array([0.0]))[0] == 0.0


@pytest.mark.parametrize("winding", [0, 2, -2, 1.5])
def test_evaluate_rejects_other_windings(profile, winding):
    with pytest.raises(ValueError, match="winding"):
        evaluate_vortex(profile, winding, np.array([1.0]), np.array([0.0]))


def test_evaluate_far_modulus(profile):
    val = evaluate_vortex(profile, 1, np.array([30.0]), np.array([0.0]))[0]
    assert abs(abs(val) - (1.0 - 1.0 / 1800.0)) <= 5.0 / 30.0**3
    # beyond r_max the far-field law takes over
    val = evaluate_vortex(profile, 1, np.array([80.0]), np.array([0.0]))[0]
    assert abs(abs(val) - far_field_modulus(80.0)) < 1e-12


def test_gradient_far_field(profile):
    r = 20.0
    gx, gy = vortex_gradient(profile, 1, np.array([r]), np.array([0.0]))
    V = evaluate_vortex(profile, 1, np.array([r]), np.array([0.0]))[0]
    # i V x_perp / r^2 at (r, 0) has components (0, i V / r)
    assert abs(gx[0] - 0.0) <= 10.0 / r**3
    assert abs(gy[0] - 1j * V / r) <= 10.0 / r**3


def test_gradient_bounded(profile):
    rng = np.random.default_rng(0)
    x = rng.uniform(-39, 39, 500)
    y = rng.uniform(-39, 39, 500)
    gx, gy = vortex_gradient(profile, 1, x, y)
    mag = np.hypot(np.abs(gx), np.abs(gy))
    assert np.all(np.isfinite(mag))
    r = np.hypot(x, y)
    assert np.max(mag * (1.0 + r)) < 3.0   # K/(1+r) with a finite measured K


def test_gradient_antipodal_symmetry(profile):
    x = np.array([3.0, -1.0, 0.4])
    y = np.array([1.5, 2.0, -0.3])
    gx1, gy1 = vortex_gradient(profile, 1, x, y)
    gx2, gy2 = vortex_gradient(profile, 1, -x, -y)
    assert np.allclose(gx1, gx2, atol=1e-13)
    assert np.allclose(gy1, gy2, atol=1e-13)


def test_gradient_center_limit(profile):
    gx, gy = vortex_gradient(profile, 1, np.array([0.0]), np.array([0.0]))
    kappa = profile.kappa
    assert gx[0] == pytest.approx(kappa)
    assert gy[0] == pytest.approx(1j * kappa)
    gxm, gym = vortex_gradient(profile, -1, np.array([0.0]), np.array([0.0]))
    assert gym[0] == pytest.approx(-1j * kappa)


def test_curvature_maxima_reported(profile):
    d2, d3 = profile.curvature_maxima()
    assert 0 < d2 < 5.0 and 0 < d3 < 10.0
