"""Newton solver, continuation, zero location, persistence, and the
perturb-and-resolve experiment."""

import numpy as np
import pytest

from gpvortex.ansatz import AnsatzParams, build_two_vortex
from gpvortex.field_core import ComplexField, Grid, grid_l2, symmetrize
from gpvortex.tw_solver import (
    SolverConfig,
    TravellingWaveBranch,
    continue_branch,
    default_grid_rule,
    fit_translation,
    linearized_lu,
    load_branch,
    locate_zeros,
    newton_solve,
    perturb_and_resolve,
    residual,
    save_branch,
    shift_resample,
    winding_number,
)
from gpvortex.vortex_profile import evaluate_vortex


def test_residual_vacuum(entry01):
    g = entry01.field.grid
    one = ComplexField(g, np.ones((g.nx, g.ny), complex))
    assert grid_l2(residual(one, 0.05), g) == 0.0


def test_residual_single_vortex_stationary(profiles):
    g = Grid(20.0, 20.0, 201, 201)
    X, Y = g.mesh
    V = ComplexField(g, evaluate_vortex(profiles[1], X, Y))
    r = residual(V, 0.0)
    # interior residual is ODE tolerance + stencil error, far below O(1)
    assert grid_l2(r, g) < 1e-2


def test_converged_residual_small(branch_spec, solver_cfg):
    for e in branch_spec.entries:
        assert e.residual_norm <= solver_cfg.newton_tol
        assert grid_l2(residual(e.field, e.c), e.field.grid) <= solver_cfg.newton_tol


def test_newton_restart_is_immediate(entry01, solver_cfg):
    Q, info = newton_solve(entry01.field, entry01.c, solver_cfg)
    assert info["steps"] <= 1


def test_newton_step_count_and_symmetry(profiles, solver_cfg):
    c = 0.1
    grid = default_grid_rule(c)
    guess = build_two_vortex(AnsatzParams(1.0 / c, profiles[1], profiles[-1]), grid)
    Q, info = newton_solve(guess, c, solver_cfg)
    assert info["steps"] <= 15
    assert info["residual"] <= 1e-9
    assert np.max(np.abs(symmetrize(Q).values - Q.values)) <= 1e-10
    hist = info["history"]
    assert all(b < a for a, b in zip(hist, hist[1:]))   # damped monotone


def test_newton_speed_range(entry01, solver_cfg):
    with pytest.raises(ValueError):
        newton_solve(entry01.field, 0.25, solver_cfg)


def test_locate_zeros_converged(branch_spec):
    for e in branch_spec.entries:
        zp, zm = locate_zeros(e.field)
        assert 0.8 <= e.c * zp[0] <= 1.2
        assert abs(zp[1]) <= 2 * e.field.grid.hy
        assert winding_number(e.field, zp) == 1
        assert winding_number(e.field, zm) == -1


def test_branch_monotone_and_invariants(branch_spec):
    cs = [e.c for e in branch_spec.entries]
    assert all(b < a for a, b in zip(cs, cs[1:]))
    with pytest.raises(ValueError):
        TravellingWaveBranch(entries=[branch_spec.entries[0],
                                      branch_spec.entries[2],
                                      branch_spec.entries[1]])


def test_branch_energy_decreases_with_speed(branch_spec, run_cfg):
    mains = [branch_spec.entries[branch_spec.index_of(c)] for c in run_cfg.speeds]
    energies = [e.energy for e in mains]
    assert all(b > a for a, b in zip(energies, energies[1:]))  # E grows as c drops


def test_branch_continuity_in_speed(profiles, solver_cfg):
    # sup-distance between neighbouring solutions shrinks with the spacing
    c = 0.1
    rule = lambda s: default_grid_rule(c)
    sups = []
    for delta in (4e-3, 2e-3, 1e-3):
        br = continue_branch([c, c - delta], solver_cfg, profiles, grid_rule=rule)
        sups.append(np.max(np.abs(br.entries[0].field.values
                                  - br.entries[1].field.values)))
    assert sups[0] > sups[1] > sups[2]


def test_branch_persistence_roundtrip(branch_spec, tmp_path):
    outdir = tmp_path / "branch"
    save_branch(branch_spec, outdir)
    back = load_branch(outdir)
    assert len(back.entries) == len(branch_spec.entries)
    assert back.config_hash == branch_spec.config_hash
    for a, b in zip(back.entries, branch_spec.entries):
        assert a.c == b.c
        assert a.half_separation == pytest.approx(b.half_separation, rel=1e-12)
        assert np.array_equal(a.field.values, b.field.values)
    text = (outdir / "diagnostics.csv").read_text().splitlines()
    assert text[0] == "c,d_tilde,residual,energy,p2,newton_steps"
    assert len(text) == 1 + len(branch_spec.entries)


def test_fit_translation_recovers_shift(entry01):
    Q = entry01.field
    h = Q.grid.hx
    shifted = shift_resample(Q, np.array([h, 0.0]))
    X, mism = fit_translation(shifted, Q)
    assert abs(X[0] - h) <= h * h
    assert abs(X[1]) <= h * h


@pytest.fixture(scope="module")
def lu01(entry01):
    return linearized_lu(entry01.field, entry01.c)


def test_perturb_and_resolve_zero_delta(entry01, solver_cfg, lu01):
    rep = perturb_and_resolve(entry01, 0.0, solver_cfg, lu01)
    assert np.hypot(*rep["X"]) < 1e-10
    assert rep["mismatch"] < 1e-9


def test_perturb_and_resolve_bump(entry01, solver_cfg, lu01):
    rep = perturb_and_resolve(entry01, 1e-3, solver_cfg, lu01, shape="bump_re")
    assert rep["mismatch"] <= 1e-6
    assert np.hypot(*rep["X"]) <= 5.0 * 1e-3
    assert not rep["uniqueness_violation"]
    assert rep["residual_history"][-1] <= solver_cfg.newton_tol


def test_perturb_scale_limit(entry01, solver_cfg, lu01):
    with pytest.raises(ValueError):
        perturb_and_resolve(entry01, 0.05, solver_cfg, lu01)
