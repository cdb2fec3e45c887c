"""Radial vortex profile: invariants, far-field law, shooting oracle."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conftest import vortex_gradient
from gpvortex.vortex_profile import (
    RadialProfile,
    evaluate_vortex,
    far_field_modulus,
    load_profile,
    solve_vortex_ode,
)


@pytest.fixture(scope="module")
def prof(profiles):
    return profiles[1]


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


def test_type_invariants(prof):
    checks = prof.validate()
    assert all(checks.values()), checks
    assert prof.rho[0] == 0.0
    assert np.all(np.diff(prof.rho) > 0)
    assert np.all((prof.rho[1:-1] > 0) & (prof.rho[1:-1] < 1))


def test_far_field_law(prof):
    for r in (20.0, 30.0, 40.0):
        defect = abs(1.0 - prof.modulus(np.array([r]))[0] - 1.0 / (2 * r * r))
        assert defect <= 5.0 / r**3


def test_ode_residual_by_substitution(prof):
    assert np.max(np.abs(prof.ode_residual())) <= 1e-10


def test_kappa_matches_shooting_oracle(prof):
    assert abs(prof.kappa - shooting_kappa()) <= 1e-6


def test_degree_minus_one_same_modulus(profiles):
    assert np.array_equal(profiles[1].rho, profiles[-1].rho)
    assert profiles[1].kappa == profiles[-1].kappa


def test_preconditions():
    with pytest.raises(ValueError):
        solve_vortex_ode(2)
    with pytest.raises(ValueError):
        solve_vortex_ode(1, r_max=5.0)
    with pytest.raises(ValueError):
        solve_vortex_ode(1, tol=1e-8)
    with pytest.warns(UserWarning):
        solve_vortex_ode(1, r_max=12.0)


def test_evaluate_center_and_conjugate(profiles):
    x = np.array([0.3, -1.2, 4.0])
    y = np.array([0.5, 2.0, -3.0])
    vp = evaluate_vortex(profiles[1], x, y)
    vm = evaluate_vortex(profiles[-1], x, y)
    assert np.allclose(vm, np.conj(vp), rtol=0, atol=1e-14)
    assert evaluate_vortex(profiles[1], np.array([0.0]), np.array([0.0]))[0] == 0.0


def test_evaluate_far_modulus(prof):
    val = evaluate_vortex(prof, np.array([30.0]), np.array([0.0]))[0]
    assert abs(abs(val) - (1.0 - 1.0 / 1800.0)) <= 5.0 / 30.0**3
    # beyond r_max the far-field law takes over
    val = evaluate_vortex(prof, np.array([80.0]), np.array([0.0]))[0]
    assert abs(abs(val) - far_field_modulus(80.0)) < 1e-12


def test_gradient_far_field(prof):
    r = 20.0
    gx, gy = vortex_gradient(prof, np.array([r]), np.array([0.0]))
    V = evaluate_vortex(prof, np.array([r]), np.array([0.0]))[0]
    # i V x_perp / r^2 at (r, 0) has components (0, i V / r)
    assert abs(gx[0] - 0.0) <= 10.0 / r**3
    assert abs(gy[0] - 1j * V / r) <= 10.0 / r**3


def test_gradient_bounded(prof):
    rng = np.random.default_rng(0)
    x = rng.uniform(-39, 39, 500)
    y = rng.uniform(-39, 39, 500)
    gx, gy = vortex_gradient(prof, x, y)
    mag = np.hypot(np.abs(gx), np.abs(gy))
    assert np.all(np.isfinite(mag))
    r = np.hypot(x, y)
    assert np.max(mag * (1.0 + r)) < 3.0   # K/(1+r) with a finite measured K


def test_gradient_antipodal_symmetry(prof):
    x = np.array([3.0, -1.0, 0.4])
    y = np.array([1.5, 2.0, -0.3])
    gx1, gy1 = vortex_gradient(prof, x, y)
    gx2, gy2 = vortex_gradient(prof, -x, -y)
    assert np.allclose(gx1, gx2, atol=1e-13)
    assert np.allclose(gy1, gy2, atol=1e-13)


def test_gradient_center_limit(profiles):
    gx, gy = vortex_gradient(profiles[1], np.array([0.0]), np.array([0.0]))
    kappa = profiles[1].kappa
    assert gx[0] == pytest.approx(kappa)
    assert gy[0] == pytest.approx(1j * kappa)
    gxm, gym = vortex_gradient(profiles[-1], np.array([0.0]), np.array([0.0]))
    assert gym[0] == pytest.approx(-1j * kappa)


def test_serialization_roundtrip(prof, tmp_path):
    path = tmp_path / "profile.txt"
    prof.save(path)
    back = load_profile(path)
    assert back.degree == prof.degree
    assert back.kappa == pytest.approx(prof.kappa, rel=1e-14)
    assert back.r_max == prof.r_max
    assert np.allclose(back.rho, prof.rho, atol=1e-15)


def test_curvature_maxima_reported(prof):
    d2, d3 = prof.curvature_maxima()
    assert 0 < d2 < 5.0 and 0 < d3 < 10.0
