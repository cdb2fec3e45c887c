"""Two-vortex product and its rotation direction."""

import numpy as np
import pytest

from gpvortex.ansatz import AnsatzParams, build_two_vortex
from gpvortex.field_core import Grid
from gpvortex.linearization import rotation_direction
from gpvortex.tw_solver import locate_zeros
from gpvortex.vortex_profile import evaluate_vortex


@pytest.fixture(scope="module")
def params(profile):
    return AnsatzParams(10.0, profile)


@pytest.fixture(scope="module")
def grid():
    return Grid(30.0, 30.0, 151, 151)


@pytest.fixture(scope="module")
def pair(params, grid):
    return build_two_vortex(params, grid)


def test_params_validation(profile):
    with pytest.raises(ValueError):
        AnsatzParams(3.0, profile)


def test_margin_check(params):
    small = Grid(15.0, 15.0, 61, 61)
    with pytest.raises(ValueError):
        build_two_vortex(params, small)


def test_zeros_at_centers(pair, params):
    zp, zm = locate_zeros(pair)
    h = pair.grid.hx
    assert abs(zp[0] - params.d) < h * h and abs(zp[1]) < h * h
    assert abs(zm[0] + params.d) < h * h and abs(zm[1]) < h * h


def test_far_field_modulus(pair, params):
    X, Y = pair.grid.mesh
    far = (np.hypot(X - params.d, Y) >= 20) & (np.hypot(X + params.d, Y) >= 20)
    assert np.all(np.abs(np.abs(pair.values[far]) - 1.0) < 0.05)


def test_symmetries_exact(pair):
    v = pair.values
    assert np.max(np.abs(v - v[::-1, :])) < 1e-12
    assert np.max(np.abs(v - np.conj(v[:, ::-1]))) < 1e-12


def test_rotate_small_angle_matches_rotation_direction(pair, params):
    # centered difference in alpha of the product evaluated on the points
    # rotated by -alpha, against the stencil rotation direction
    alpha = 1e-4
    g = pair.grid
    X, Y = g.mesh

    def rotated(a):
        Xr = np.cos(a) * X + np.sin(a) * Y
        Yr = -np.sin(a) * X + np.cos(a) * Y
        return (evaluate_vortex(params.profile, 1, Xr, Yr, center=(params.d, 0.0))
                * evaluate_vortex(params.profile, -1, Xr, Yr, center=(-params.d, 0.0)))

    diff = (rotated(alpha) - rotated(-alpha)) / (2 * alpha)
    exact = rotation_direction(pair).values
    # interior comparison, as for the one-sided edge stencils
    inner = (np.abs(X) < 0.8 * g.lx) & (np.abs(Y) < 0.8 * g.ly)
    scale = np.max(np.abs(exact[inner]))
    assert np.max(np.abs((diff - exact)[inner])) < 0.02 * scale
