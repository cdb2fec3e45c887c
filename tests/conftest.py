"""Shared fixtures: the radial profiles and the two converged branches
(spectral-scale and diagnostics-scale boxes), solved once per session."""

from __future__ import annotations

import numpy as np
import pytest

from gpvortex.config import RunConfig
from gpvortex.linearization import build_directions
from gpvortex.tw_solver import SolverConfig, continue_branch, default_grid_rule
from gpvortex.vortex_profile import solve_vortex_ode

# kernel/index operating point of ``kernel_handle``
KERNEL_SPEED = 0.05
KERNEL_BOX_FACTOR = 3.5


@pytest.fixture(scope="session")
def profiles():
    return {1: solve_vortex_ode(1, 40.0, 1e-10),
            -1: solve_vortex_ode(-1, 40.0, 1e-10)}


@pytest.fixture(scope="session")
def run_cfg():
    return RunConfig()


@pytest.fixture(scope="session")
def solver_cfg():
    return SolverConfig(newton_tol=1e-11)


@pytest.fixture(scope="session")
def branch_spec(profiles, run_cfg, solver_cfg):
    """Desk branch on the spectral-scale boxes (3/c), with derivative
    neighbours at every main speed."""
    speeds, _ = run_cfg.speeds_with_neighbors()
    return continue_branch(speeds, solver_cfg, profiles,
                           grid_rule=run_cfg.grid_rule,
                           config_hash=run_cfg.config_hash)


@pytest.fixture(scope="session")
def branch_diag(profiles, run_cfg, solver_cfg):
    """Desk branch on the diagnostics-scale boxes (5.5/c) used for the
    energy/momentum identities."""
    speeds, _ = run_cfg.speeds_with_neighbors()
    return continue_branch(speeds, solver_cfg, profiles,
                           grid_rule=run_cfg.diag_grid_rule,
                           config_hash=run_cfg.config_hash)


@pytest.fixture(scope="session")
def entry01(branch_spec):
    return branch_spec.entries[branch_spec.index_of(0.1)]


@pytest.fixture(scope="session")
def dirs01(branch_spec):
    return build_directions(branch_spec, branch_spec.index_of(0.1))


@pytest.fixture(scope="session")
def handle01(branch_spec, entry01, dirs01, profiles):
    from gpvortex.spectral import assemble
    return assemble(entry01.field, entry01.c, directions=dirs01,
                    profiles=profiles)


@pytest.fixture(scope="session")
def spec_handles(branch_spec, profiles, run_cfg):
    """Operator handles at the three main speeds on the spectral branch."""
    from gpvortex.spectral import assemble
    out = {}
    for c in run_cfg.speeds:
        idx = branch_spec.index_of(c)
        e = branch_spec.entries[idx]
        out[c] = assemble(e.field, e.c, R=run_cfg.r_ball,
                          directions=build_directions(branch_spec, idx),
                          profiles=profiles)
    return out


@pytest.fixture(scope="session")
def kernel_handle(profiles, run_cfg, solver_cfg):
    """Handle at the kernel/index operating point: c = 0.05 on a slightly
    larger box (the near-zero principal angles are box-limited)."""
    from gpvortex.spectral import assemble
    c0 = KERNEL_SPEED
    rule = lambda c: default_grid_rule(
        c0, box_factor=KERNEL_BOX_FACTOR,
        h_target=run_cfg.h_target, max_nx=1025)
    br = continue_branch(run_cfg.neighbor_triple(c0), solver_cfg, profiles,
                         grid_rule=rule)
    return assemble(br.entries[1].field, c0, R=run_cfg.r_ball,
                    directions=build_directions(br, 1), profiles=profiles)


def compact_test_field(grid, seed=0, center=(4.0, 3.0), width=3.0, collar=2):
    """Random band-limited compact field vanishing on a boundary collar."""
    from gpvortex.field_core import ComplexField
    X, Y = grid.mesh
    rng = np.random.default_rng(seed)
    co = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    waves = sum(cc * np.exp(1j * (k1 * X + k2 * Y))
                for cc, (k1, k2) in zip(co, [(0.4, 0.2), (0.1, 0.5), (0.3, 0.3)]))
    env = np.exp(-((X - center[0]) ** 2 + (Y - center[1]) ** 2) / (2 * width**2))
    v = waves * env
    v[:collar, :] = v[-collar:, :] = 0.0
    v[:, :collar] = v[:, -collar:] = 0.0
    return ComplexField(grid, v)


def edge_gradient_energy(phi):
    """Scale of the gradient part of the form: hx hy sum over stencil
    edges of |D phi|^2."""
    g = phi.grid
    v = phi.values
    return float((np.sum(np.abs(np.diff(v, axis=0)) ** 2) / g.hx**2
                  + np.sum(np.abs(np.diff(v, axis=1)) ** 2) / g.hy**2)
                 * g.hx * g.hy)
