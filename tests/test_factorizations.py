"""Fill-reducing orderings of the sparse factorizations.

Minimum degree (``MMD_AT_PLUS_A``) where no printed reference digit
depends on the rounding of the factor: the full-grid linearized matrix
that the chord iteration of the uniqueness re-solves freezes (one
factorization at the wave, shared by every re-solve), the C-norm Ritz
pencil and the symmetry-sector blocks.  COLAMD where it does: the
quarter Newton (every stored branch field; its matrix is assembled from
the quarter's rows alone), the exp-norm Ritz pencil (the unconverged
``sym3`` minimum mirrors that basis), and the implicit-midpoint matrix,
on which minimum degree does not finish.  The spectrum stage factors
each Ritz pencil once, and the stability stage the midpoint matrix once
for all its runs."""

import json
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from gpvortex import cli, tw_solver
from gpvortex.cli import _spectrum_one, main
from gpvortex.config import RunConfig
from gpvortex.field_core import ComplexField, Grid, symmetrize
from gpvortex.operators import QuarterMaps, linearized_matrix
from gpvortex.spectral import (
    OperatorHandle,
    evolve_linearized,
    kernel_and_negative,
    midpoint_step,
    ritz_basis,
)
from gpvortex.tw_solver import (
    continue_branch,
    linearized_lu,
    newton_solve,
)

MMD, COLAMD = "MMD_AT_PLUS_A", "COLAMD"
GRID = Grid(6.0, 5.0, 15, 13)
SPEED = 0.1


def _field() -> ComplexField:
    rng = np.random.default_rng(0)
    noise = rng.standard_normal((GRID.nx, GRID.ny)) \
        + 1j * rng.standard_normal((GRID.nx, GRID.ny))
    return symmetrize(ComplexField(GRID, 1.0 + 0.1 * noise))


def _handle() -> OperatorHandle:
    A_op = linearized_matrix(_field(), SPEED).tocsr()
    w = GRID.hx * GRID.hy
    n = A_op.shape[0]
    rng = np.random.default_rng(1)
    G = sp.identity(n, format="csr") * w
    dirs = {k: rng.standard_normal(n) for k in ("dx1", "dx2", "dc", "drot", "iQ")}
    return OperatorHandle(A=(A_op * w).tocsr(), G_C=G, G_exp=G,
                          constraints={}, directions=dirs, grid=GRID, c=SPEED,
                          weight=w)


def _newton(chord: bool) -> None:
    # one step is enough to factor; the iteration then stops unconverged
    Q = _field()
    if chord:
        lu = linearized_lu(Q, SPEED)
        solve = lambda W, c, b: lu.solve(b)
    else:
        solve = QuarterMaps(GRID).solve
    with pytest.MonkeyPatch.context() as mp, pytest.raises(RuntimeError):
        mp.setattr(tw_solver, "MAX_NEWTON_STEPS", 1)
        newton_solve(Q, SPEED, 1e-9, solve)


def _evolve() -> None:
    u0 = np.random.default_rng(2).standard_normal(2 * (GRID.nx - 2) * (GRID.ny - 2))
    evolve_linearized(midpoint_step(_field(), SPEED, 0.5), u0, T=0.5)


CASES = {
    "quarter_newton": (lambda: _newton(False), COLAMD),
    "unreduced_newton": (lambda: _newton(True), MMD),
    "ritz_exp": (lambda: ritz_basis(_handle(), norm="exp", size=20), COLAMD),
    "ritz_C": (lambda: ritz_basis(_handle(), norm="C", size=20), MMD),
    "evolve": (_evolve, COLAMD),
    "sectors": (lambda: kernel_and_negative(_handle()), MMD),
}


@pytest.fixture
def orderings(monkeypatch):
    """The ordering of every ``splu`` call, SciPy's default included."""
    seen = []
    splu = spla.splu

    def spy(A, **kwargs):
        seen.append(kwargs.get("permc_spec", COLAMD))
        return splu(A, **kwargs)

    monkeypatch.setattr(spla, "splu", spy)
    return seen


@pytest.mark.parametrize("case", list(CASES))
def test_factorization_ordering(case, orderings):
    run, want = CASES[case]
    run()
    assert orderings
    assert all(o == want for o in orderings), orderings


@pytest.fixture(scope="module")
def branch02(profile):
    """The c = 0.2 branch triple of the CLI tests' fast configuration."""
    cfg = RunConfig(speeds=(0.2,), max_nx=201, newton_tol=1e-10, basis_size=60)
    branch = continue_branch([(cfg.grid_rule(0.2), cfg.neighbor_triple(0.2))],
                             cfg.newton_tol, profile)
    return cfg, branch


def test_spectrum_factors_each_ritz_pencil_once(branch02, monkeypatch):
    # sym3 consumes the exp basis and runs last; a plan that rebuilt the
    # exp basis would show a second COLAMD LU
    cfg, branch = branch02
    g = branch.entries[branch.index_of(0.2)].field.grid
    n = 2 * (g.nx - 2) * (g.ny - 2)
    splu, seen = spla.splu, []

    def spy(A, **kwargs):
        seen.append((kwargs.get("permc_spec", COLAMD), A.shape[0]))
        return splu(A, **kwargs)

    monkeypatch.setattr(spla, "splu", spy)
    payload = _spectrum_one(cfg, branch, 0.2)
    counts = Counter(seen)
    assert counts.pop((COLAMD, n)) == 1
    assert counts.pop((MMD, n)) == 1
    assert counts and all(o == MMD and m < n for o, m in counts), seen
    assert list(payload["coercivity"]) == ["none", "three", "four", "phase4", "sym3"]
    assert payload["ritz"]["exp"]["sym3_columns"] <= payload["ritz"]["exp"]["columns"]


def test_stability_factors_the_midpoint_matrix_once(tmp_path, monkeypatch):
    # the kernel mode and the block of random data evolve on one
    # factorization that the stage holds in its midpoint step
    steps, seen = [], []
    step_at, splu = cli.midpoint_step, spla.splu

    def kept(*args, **kwargs):
        steps.append(step_at(*args, **kwargs))
        return steps[-1]

    def spy(A, **kwargs):
        seen.append((kwargs.get("permc_spec", COLAMD), A.shape[0]))
        return splu(A, **kwargs)

    monkeypatch.setattr(cli, "midpoint_step", kept)
    monkeypatch.setattr(spla, "splu", spy)
    cfg = {"max_nx": 201, "newton_tol": 1e-10, "stability_T": 10.0,
           "stability_dt": 0.5, "stability_samples": 3,
           "stability_speed": 0.2, "uniqueness_speed": 0.2}
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    out = tmp_path / "out"
    assert main(["--config", str(cfgfile), "--out", str(out),
                 "--speeds", "0.2", "stability"]) == 0
    (step,) = steps
    n = step.A.shape[0]
    assert seen.count((COLAMD, n)) == 1
    assert set(vars(step)) == {"lu", "dt", "A", "weight", "grid"}
    payload = json.loads((out / "stability.json").read_text())
    assert [r["kind"] for r in payload["runs"]] \
        == ["kernel_mode", "random_0", "random_1", "random_2"]
    assert [r["steps"] for r in payload["runs"]] == [100, 20, 20, 20]
    assert type(payload["lu_fill"]) is int and payload["lu_fill"] > n
