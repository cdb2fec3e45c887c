"""Newton solver, continuation, zero location, persistence, and the
perturb-and-resolve experiment."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpvortex import tw_solver
from gpvortex.ansatz import AnsatzParams, build_two_vortex
from gpvortex.config import RunConfig
from gpvortex.field_core import ComplexField, Grid, grid_l2, symmetrize
from gpvortex.operators import QuarterMaps
from gpvortex.tw_solver import (
    TravellingWaveBranch,
    continue_branch,
    default_grid_rule,
    linearized_lu,
    load_branch,
    locate_zeros,
    newton_solve,
    perturb_and_resolve,
    residual,
    save_branch,
    winding_number,
)
from gpvortex.vortex_profile import evaluate_vortex


def test_residual_vacuum(entry01):
    g = entry01.field.grid
    one = ComplexField(g, np.ones((g.nx, g.ny), complex))
    assert grid_l2(residual(one, 0.05), g) == 0.0


def test_residual_single_vortex_stationary(profile):
    g = Grid(20.0, 20.0, 201, 201)
    X, Y = g.mesh
    V = ComplexField(g, evaluate_vortex(profile, 1, X, Y))
    r = residual(V, 0.0)
    # interior residual is ODE tolerance + stencil error, far below O(1)
    assert grid_l2(r, g) < 1e-2


def test_converged_residual_small(branch_spec, newton_tol):
    for e in branch_spec.entries:
        assert e.residual_norm <= newton_tol
        assert grid_l2(residual(e.field, e.c), e.field.grid) <= newton_tol


def _quarter_newton(Q0, c, newton_tol):
    """The branch's Newton solve: symmetric start, quarter linear solve."""
    return newton_solve(symmetrize(Q0), c, newton_tol, QuarterMaps(Q0.grid).solve)


def test_newton_restart_is_immediate(entry01, newton_tol):
    Q, info = _quarter_newton(entry01.field, entry01.c, newton_tol)
    assert info["steps"] <= 1
    # the zeros checked by the loop are those of the returned field
    assert info["zeros"] == locate_zeros(Q)


def test_newton_step_count_and_symmetry(profile, newton_tol):
    c = 0.1
    grid = default_grid_rule(c)
    guess = build_two_vortex(AnsatzParams(1.0 / c, profile), grid)
    Q, info = _quarter_newton(guess, c, newton_tol)
    assert info["steps"] <= 15
    assert info["residual"] <= 1e-9
    assert np.max(np.abs(symmetrize(Q).values - Q.values)) <= 1e-10
    hist = info["history"]
    assert all(b < a for a, b in zip(hist, hist[1:]))   # damped monotone


def test_newton_speed_range(entry01, newton_tol):
    with pytest.raises(ValueError):
        _quarter_newton(entry01.field, 0.25, newton_tol)


@pytest.mark.parametrize("tol", [0.0, -1e-11])
def test_newton_rejects_nonpositive_tolerance(entry01, tol):
    with pytest.raises(ValueError, match="Newton tolerance must be positive"):
        _quarter_newton(entry01.field, entry01.c, tol)


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


def test_branch_continuity_in_speed(profile, newton_tol):
    # sup-distance between neighbouring solutions shrinks with the spacing
    c = 0.1
    grid = default_grid_rule(c)
    sups = []
    for delta in (4e-3, 2e-3, 1e-3):
        br = continue_branch([(grid, [c, c - delta])], newton_tol, profile)
        sups.append(np.max(np.abs(br.entries[0].field.values
                                  - br.entries[1].field.values)))
    assert sups[0] > sups[1] > sups[2]


# coarse boxes, one grid per derivative triple of these main speeds
POOL_CFG = RunConfig(speeds=(0.2, 0.15, 0.12), h_target=0.8, max_nx=61)


@pytest.fixture(scope="module")
def solo_triples():
    """Main speed -> its triple solved alone, filled as the draws need."""
    return {}


@pytest.mark.parametrize("speeds, calls", [((0.2,), 1), ((0.2, 0.199), 3)])
def test_branch_fallback_solves_each_guess_once(profile, newton_tol, monkeypatch,
                                                speeds, calls):
    # a run's first entry starts from its ansatz, so its failure is final;
    # a continued entry falls back to its own ansatz once
    grid = POOL_CFG.grid_rule(0.2)
    real, guesses = newton_solve, []

    def newton(Q0, c, newton_tol, solve):
        guesses.append(Q0)
        if len(guesses) == 1 and len(speeds) > 1:
            return real(Q0, c, newton_tol, solve)
        raise RuntimeError("forced failure")

    monkeypatch.setattr(tw_solver, "newton_solve", newton)
    with pytest.raises(RuntimeError, match=re.escape(
            f"branch continuation failed at c = {speeds[-1]}")):
        continue_branch([(grid, speeds)], newton_tol, profile)
    assert len(guesses) == calls
    # the solve starts from the symmetrized guess
    ansatz = symmetrize(build_two_vortex(AnsatzParams(1.0 / speeds[-1], profile),
                                         grid))
    assert np.array_equal(guesses[-1].values, ansatz.values)
    if calls > 1:   # the first attempt was the continued guess
        assert not np.array_equal(guesses[-2].values, ansatz.values)


@settings(max_examples=6, deadline=None)
@given(mains=st.lists(st.sampled_from(POOL_CFG.speeds), min_size=2, max_size=3,
                      unique=True).map(lambda m: sorted(m, reverse=True)))
def test_triple_depends_on_its_own_speeds_alone(profile, newton_tol, solo_triples, mains):
    real, nodes = newton_solve, []

    def spy(Q0, c, *args, **kwargs):
        nodes.append(Q0.grid.nx * Q0.grid.ny)
        return real(Q0, c, *args, **kwargs)

    runs = [(POOL_CFG.grid_rule(m), POOL_CFG.neighbor_triple(m)) for m in mains]
    speeds = [s for _, triple in runs for s in triple]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tw_solver, "newton_solve", spy)
        br = continue_branch(runs, newton_tol, profile)
    assert [e.c for e in br.entries] == speeds
    # finest grid first, one grid per triple
    assert nodes == sorted(nodes, reverse=True) and len(set(nodes)) == len(mains)
    for k, (m, run) in enumerate(zip(mains, runs)):
        if m not in solo_triples:
            solo_triples[m] = continue_branch([run], newton_tol, profile)
        for a, b in zip(br.entries[3 * k:3 * k + 3], solo_triples[m].entries):
            assert a.field.values.tobytes() == b.field.values.tobytes()


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
        # the Newton history: the residual before each step, then the final one
        assert a.newton_history == b.newton_history
        assert len(a.newton_history) == a.newton_steps + 1
        assert a.newton_history[-1] == a.residual_norm
    text = (outdir / "diagnostics.csv").read_text().splitlines()
    assert text[0] == "c,d_tilde,residual,energy,p2,newton_steps"
    assert len(text) == 1 + len(branch_spec.entries)


@pytest.fixture(scope="module")
def lu01(entry01):
    return linearized_lu(entry01.field, entry01.c)


def test_perturb_and_resolve_zero_delta(entry01, newton_tol, lu01):
    # an unperturbed run checks nothing: the scale must be positive
    with pytest.raises(ValueError, match="perturbation scale"):
        perturb_and_resolve(entry01, 0.0, newton_tol, lu01)


def test_perturb_and_resolve_bump(entry01, newton_tol, lu01):
    rep = perturb_and_resolve(entry01, 1e-3, newton_tol, lu01, shape="bump_re")
    assert set(rep) == {"mismatch", "steps", "residual_history",
                        "uniqueness_violation"}
    assert rep["mismatch"] <= 1e-6
    assert not rep["uniqueness_violation"]
    assert rep["residual_history"][-1] <= newton_tol


def test_perturb_scale_limit(entry01, newton_tol, lu01):
    with pytest.raises(ValueError):
        perturb_and_resolve(entry01, 0.05, newton_tol, lu01)
