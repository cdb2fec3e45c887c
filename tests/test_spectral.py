"""Assembled operator, Gram matrices, constraints, coercivity, kernel,
and the linearized evolution."""

import json
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from conftest import compact_test_field, ritz_basis_c_order, vortex_gradient
from gpvortex.cli import _write_json
from gpvortex.config import STABILITY_EDGE_MARGIN
from gpvortex.field_core import ComplexField, Grid
from gpvortex.linearization import build_directions, quadratic_form_B, translation_direction
from gpvortex.operators import interior_to_real, linearized_matrix, sector_maps
from gpvortex.spectral import (
    CONSTRAINT_SETS,
    KERNEL_PAIRS,
    OperatorHandle,
    _compact_columns,
    _mirror_x1_in_place,
    assemble,
    constrained_coercivity,
    evolve_linearized,
    kernel_and_negative,
    midpoint_step,
    random_data,
    ritz_basis,
    sym3_basis,
)
from gpvortex.tw_solver import continue_branch


def test_assembled_symmetry(handle01):
    A = handle01.A
    assert abs(A - A.T).max() <= 1e-12 * abs(A).max()
    rng = np.random.default_rng(0)
    n = A.shape[0]
    for _ in range(100):
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        assert abs(x @ (A @ y) - y @ (A @ x)) <= 1e-12 * (abs(x @ (A @ y)) + 1)


def test_gram_definiteness(handle01):
    rng = np.random.default_rng(1)
    n = handle01.G_C.shape[0]
    for _ in range(20):
        x = rng.standard_normal(n)
        assert x @ (handle01.G_C @ x) >= 0.0
        assert x @ (handle01.G_exp @ x) > 0.0


def test_rayleigh_matches_form(entry01, handle01):
    Q, c = entry01.field, entry01.c
    phi = compact_test_field(Q.grid, 31)
    x = interior_to_real(phi.values)
    ray = float(x @ (handle01.A @ x))
    B = quadratic_form_B(phi, Q, c)
    assert abs(ray - B) <= 1e-8 * abs(B)


def test_constraint_grips_its_direction(handle01, entry01, profile, run_cfg):
    val = float(handle01.constraints["tx1"] @ handle01.directions["dx1"])
    assert val > 0
    g = entry01.field.grid
    X, Y = g.mesh
    gx, _ = vortex_gradient(profile, 1, X, Y, center=entry01.zeros[0])
    ball = np.hypot(X - entry01.zeros[0][0], Y - entry01.zeros[0][1]) <= run_cfg.r_ball
    ref = 2 * float(np.sum((np.abs(gx) ** 2)[ball]) * g.hx * g.hy)
    assert val == pytest.approx(ref, rel=0.35)


def test_constraint_cross_terms_small(branch_spec, run_cfg):
    c = 0.05
    idx = branch_spec.index_of(c)
    h = assemble(branch_spec.entries[idx].field, c, R=run_cfg.r_ball,
                 directions=build_directions(branch_spec, idx))
    scaled = {"tx1": ("dx1", 1.0), "tx2": ("dx2", 1.0),
              "tc": ("dc", c * c), "trot": ("drot", c)}
    diag = {}
    for nm, (dn, s) in scaled.items():
        diag[nm] = abs(float(h.constraints[nm] @ h.directions[dn])) * s * s
    for nm, (dn, s) in scaled.items():
        for nm2, (dn2, s2) in scaled.items():
            if nm == nm2:
                continue
            cross = abs(float(h.constraints[nm] @ h.directions[dn2])) * s * s2
            assert cross <= 0.2 * max(diag[nm], diag[nm2])


def test_coercivity_scaling_invariance(handle01):
    val, info = constrained_coercivity(handle01, ritz_basis(handle01, norm="C"),
                                       "four", return_info=True)
    x = info["vector"]
    for t in (2.0, -3.0):
        ray = (t * x) @ (handle01.A @ (t * x)) / ((t * x) @ (handle01.G_C @ (t * x)))
        assert ray == pytest.approx(val, rel=1e-10)


def test_coercivity_positive_sets(branch_spec, run_cfg):
    # phase4 on the exp Ritz basis and sym3 on its sym3_basis, solved
    # directly on handles rebuilt from the stored branch at every main speed
    for c in run_cfg.speeds:
        idx = branch_spec.index_of(c)
        h = assemble(branch_spec.entries[idx].field, c, R=run_cfg.r_ball,
                     directions=build_directions(branch_spec, idx))
        basis = ritz_basis(h, norm="exp")
        assert constrained_coercivity(h, basis, "phase4") > 0
        assert constrained_coercivity(h, sym3_basis(h, basis), "sym3") > 0


def test_coercivity_ball_radius_stability(entry01, dirs01):
    vals = []
    for R in (8.0, 10.0, 12.0):
        h = assemble(entry01.field, entry01.c, R=R, directions=dirs01)
        vals.append(constrained_coercivity(h, ritz_basis(h, norm="C"), "four"))
    assert all(v > 0 for v in vals)
    assert max(vals) <= 3.0 * min(vals)


def test_kernel_and_negative_structure(kernel_handle):
    rep = kernel_and_negative(kernel_handle)
    assert rep["negative_count"] == 1
    assert rep["near_zero_count"] == 2
    assert len(rep["kernel_angles"]) == 2
    assert max(rep["kernel_angles"]) <= 0.1
    assert rep["negative_overlap_dc"] >= 0.2


def test_kernel_structure_coarse_box(handle01):
    # the c = 0.1 box resolves the counts at the default scale
    # |lambda_0| / 3 (7.5e-4 there)
    rep = kernel_and_negative(handle01)
    assert rep["negative_count"] == 1
    assert rep["near_zero_count"] == 2


def _full_space_kernel(handle, k=KERNEL_PAIRS):
    """Oracle: one shift-invert ``eigsh`` on the whole matrix, with the
    counts and kernel angles defined as in ``kernel_and_negative``."""
    n = handle.A.shape[0]
    vals, vecs = spla.eigsh((handle.A / handle.weight).tocsc(), k=k, sigma=0.0,
                            which="LM", v0=np.full(n, 1.0 / np.sqrt(n)))
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    tol_zero = abs(vals[0]) / 3.0
    negative = vals < -tol_zero
    near = np.abs(vals) <= tol_zero
    span = np.column_stack([handle.directions["dx1"], handle.directions["dx2"]])
    angles = sla.subspace_angles(vecs[:, near], span) if np.any(near) else []
    return vals, int(np.sum(negative)), int(np.sum(near)), list(angles)


def test_sector_solve_matches_full_space_solve(handle01):
    rep = kernel_and_negative(handle01)
    vals, n_neg, n_near, angles = _full_space_kernel(handle01)
    assert (rep["negative_count"], rep["near_zero_count"]) == (n_neg, n_near)
    np.testing.assert_allclose(rep["eigenvalues"], vals, rtol=1e-10, atol=0.0)
    assert len(rep["kernel_angles"]) == len(angles) == 2
    np.testing.assert_allclose(sorted(rep["kernel_angles"]), sorted(angles),
                               rtol=0.0, atol=1e-8)


@pytest.mark.parametrize("fixture", ["handle01", "kernel_handle"])
def test_modes_lie_in_predicted_sectors(fixture, request):
    # negative mode (+,+); d1 Q in (-,+); d2 Q in (+,-)
    rep = kernel_and_negative(request.getfixturevalue(fixture))
    counts = {label: (s["negative_count"], s["near_zero_count"])
              for label, s in rep["sectors"].items()}
    assert counts == {"++": (1, 0), "+-": (0, 1), "-+": (0, 1), "--": (0, 0)}
    assert sorted(v for s in rep["sectors"].values() for v in s["eigenvalues"]) \
        == rep["eigenvalues"]


def _per_sector_k_kernel(handle, k=KERNEL_PAIRS):
    """Oracle: k eigenpairs from every sector, the k of the union nearest
    0 kept; returns the kept (eigenvalue, sector label) pairs in order."""
    found = []
    for label, P in sector_maps(handle.grid).items():
        B = (P.T @ ((handle.A / handle.weight) @ P)).tocsc()
        ns = B.shape[0]
        vals = spla.eigsh(B, k=min(k, ns - 1), sigma=0.0, which="LM",
                          v0=np.full(ns, 1.0 / np.sqrt(ns)),
                          return_eigenvectors=False)
        found += [(float(v), label) for v in vals]
    found.sort(key=lambda t: abs(t[0]))
    return sorted(found[:k])


@pytest.mark.parametrize("fixture", ["handle01", "kernel_handle"])
def test_widened_sectors_keep_the_per_sector_k_set(fixture, request):
    handle = request.getfixturevalue(fixture)
    rep = kernel_and_negative(handle)
    ref = _per_sector_k_kernel(handle)
    got = sorted((v, label) for label, s in rep["sectors"].items()
                 for v in s["eigenvalues"])
    assert [label for _, label in got] == [label for _, label in ref]
    np.testing.assert_allclose([v for v, _ in got], [v for v, _ in ref],
                               rtol=1e-10, atol=0.0)
    vals = np.array([v for v, _ in ref])
    tol_zero = abs(vals[0]) / 3.0
    assert (rep["negative_count"], rep["near_zero_count"]) \
        == (int(np.sum(vals < -tol_zero)), int(np.sum(np.abs(vals) <= tol_zero)))


def test_kernel_and_negative_rejects_unsymmetric_field():
    g = Grid(6.0, 5.0, 15, 13)
    rng = np.random.default_rng(0)
    Q = ComplexField(g, rng.standard_normal((g.nx, g.ny))
                     + 1j * rng.standard_normal((g.nx, g.ny)))
    w = g.hx * g.hy
    handle = OperatorHandle(A=linearized_matrix(Q, 0.1) * w, G_C=None, G_exp=None,
                            constraints={}, directions={}, grid=g, c=0.1,
                            weight=w)
    with pytest.raises(RuntimeError, match="symmetry sector"):
        kernel_and_negative(handle)


def test_spectrum_report_json(kernel_handle, tmp_path):
    # the report's fields as ``cmd_spectrum`` writes them
    rep = {**kernel_and_negative(kernel_handle), "coercivity": {"four": 0.25}}
    path = tmp_path / "spectrum.json"
    _write_json(path, rep)
    back = json.loads(path.read_text())
    assert back == rep
    assert back["negative_count"] == 1
    assert "four" in back["coercivity"]


def test_corollary_positivity(handle01, entry01, dirs01):
    # the form is positive on the complement of i d2 Q, in the exp norm,
    # while unconstrained it has a negative direction
    val, info = constrained_coercivity(handle01, ritz_basis(handle01, norm="exp"),
                                       "idx2", return_info=True)
    assert val > 0
    assert info["converged"]
    # control: unprojected speed direction
    assert quadratic_form_B(dirs01.dc, entry01.field, entry01.c) < 0
    # translation is nearly null
    assert abs(quadratic_form_B(dirs01.dx1, entry01.field, entry01.c)) <= 1e-2


@pytest.fixture(scope="module")
def stability_entry01(profile, run_cfg, newton_tol):
    """The c = 0.1 entry alone on the grid the stability stage evolves
    on: the 3/c box leaves 20 between the cores and the edge, which cuts
    off the tail of the translation mode (energy change 3.1% over
    T = 50)."""
    (entry,) = continue_branch([(run_cfg.stability_grid_rule(0.1), [0.1])],
                               newton_tol, profile).entries
    return entry


def test_evolution_kernel_mode(stability_entry01):
    e = stability_entry01
    assert e.field.grid.lx - 1.0 / e.c >= STABILITY_EDGE_MARGIN
    out = evolve_linearized(midpoint_step(e.field, e.c, 0.2),
                            interior_to_real(translation_direction(e.field, 0).values),
                            T=50.0)
    assert out["relative_energy_change"][0] <= 0.01
    assert out["form_drift"][0] <= 0.01


@pytest.fixture(scope="module")
def step01(entry01):
    return midpoint_step(entry01.field, entry01.c, 0.2)


def test_evolution_random_no_growth_and_conservation(step01):
    out = evolve_linearized(step01, random_data(step01.grid, 9, 1), T=50.0)
    assert out["fitted_rate"][0] <= 0.02
    assert out["form_drift"][0] <= 0.01


def test_block_evolution_matches_single_columns(step01):
    # a block advances each column as a run of its own would.  The form is
    # conserved, so its drift is rounding noise (about 1e-14 of the form);
    # it is compared to 1e-10 of the form, which is its own unit
    U0 = random_data(step01.grid, 5, 3)
    block = evolve_linearized(step01, U0, T=10.0)
    assert block["fitted_rate"].shape == (3,)
    for j in range(3):
        one = evolve_linearized(step01, U0[:, j], T=10.0)
        np.testing.assert_array_equal(one["times"], block["times"])
        for key in ("fitted_rate", "relative_energy_change"):
            np.testing.assert_allclose(block[key][j], one[key][0], rtol=1e-10, atol=0.0)
        assert abs(block["form_drift"][j] - one["form_drift"][0]) <= 1e-10
        assert one["form_drift"][0] <= 1e-12


def test_rebuilt_basis_is_bit_identical(handle01):
    # a basis is dropped once its sets have run, so a second build of the
    # same pencil, after the other norm's bases, must reproduce every bit
    size = 160
    v1, i1 = constrained_coercivity(handle01, ritz_basis(handle01, "C", size),
                                    "four", return_info=True)
    exp = ritz_basis(handle01, "exp", size)
    constrained_coercivity(handle01, exp, "phase4")
    assert (exp.norm, exp.mirrored) == ("exp", False)
    assert exp.Z.shape == (handle01.A.shape[0], size)
    constrained_coercivity(handle01, sym3_basis(handle01, exp), "sym3")
    v2, i2 = constrained_coercivity(handle01, ritz_basis(handle01, "C", size),
                                    "four", return_info=True)
    assert v2 == v1
    assert i2["value_half_basis"] == i1["value_half_basis"]
    assert np.array_equal(i2["vector"], i1["vector"])


def test_ritz_basis_is_column_major_and_matches_row_major_build(handle01):
    # the layout changes the memory order only: every bit of the exp-norm
    # basis equals the row-major build
    Z = ritz_basis(handle01, norm="exp", size=160, seed=0).Z
    assert Z.flags.f_contiguous
    assert np.array_equal(Z, ritz_basis_c_order(handle01, "exp", 160, 0))


@settings(max_examples=60, deadline=None)
@given(mx=st.integers(2, 12), my=st.integers(2, 12), size=st.integers(1, 9),
       seed=st.integers(0, 2**32 - 1))
def test_mirror_x1_is_the_x1_even_part(mx, my, size, seed):
    # odd node counts: the mirror x1 -> -x1 maps the interior onto itself
    grid = Grid(3.0, 2.0, 2 * mx + 1, 2 * my + 1)
    m = (grid.nx - 2) * (grid.ny - 2)
    Z = np.asfortranarray(
        np.random.default_rng(seed).standard_normal((2 * m, size)))
    M = Z.copy(order="F")
    _mirror_x1_in_place(M, grid)
    for j in range(size):
        phi = Z[:, j].reshape(2, grid.nx - 2, grid.ny - 2)
        even = (phi + phi[:, ::-1, :]) / 2
        assert np.array_equal(M[:, j], even.ravel())


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), keep=st.lists(st.booleans(), min_size=1, max_size=12),
       seed=st.integers(0, 2**32 - 1))
def test_compact_columns_is_the_column_selection(n, keep, seed):
    q = np.asfortranarray(
        np.random.default_rng(seed).standard_normal((n, len(keep))))
    idx = np.flatnonzero(keep)
    want = q[:, idx]
    out = _compact_columns(q, idx)
    assert idx.size == 0 or np.shares_memory(out, q)
    assert out.flags.f_contiguous
    assert np.array_equal(out, want)


def test_sym3_basis_reuses_the_exp_basis_buffer(handle01):
    # the mirror, the QR and the column selection overwrite the plain exp
    # basis; the sym3 basis is a view of that buffer, and the plain basis
    # is emptied
    plain = ritz_basis(handle01, norm="exp", size=40, seed=0)
    Z = plain.Z
    constrained_coercivity(handle01, plain, "phase4")
    basis = sym3_basis(handle01, plain)
    constrained_coercivity(handle01, basis, "sym3")
    assert (basis.norm, basis.mirrored) == ("exp", True)
    assert np.shares_memory(basis.Z, Z)
    assert basis.account["sym3_columns"] == basis.Z.shape[1] < 40
    assert plain.Z is None and plain.Ah is None and plain.Gh is None
    with pytest.raises(ValueError, match="consumed"):
        constrained_coercivity(handle01, plain, "phase4")


def test_constraint_set_must_match_its_basis(handle01):
    # each set runs only in a basis of its norm; sym3 runs only in the
    # mirrored basis, every other set only in a plain one
    c_basis = ritz_basis(handle01, norm="C", size=40, seed=0)
    plain = ritz_basis(handle01, norm="exp", size=40, seed=0)
    for name, (norm, _) in CONSTRAINT_SETS.items():
        if name != "sym3":
            other = plain if norm == "C" else c_basis
            with pytest.raises(ValueError,
                               match=f"'{name}' does not run on a {other.norm}-norm"):
                constrained_coercivity(handle01, other, name)
    with pytest.raises(ValueError, match="'sym3' does not run on a plain"):
        constrained_coercivity(handle01, plain, "sym3")
    mirrored = sym3_basis(handle01, plain)
    for name in ("phase4", "idx2", "none"):
        with pytest.raises(ValueError, match=f"'{name}' does not run on a mirrored"):
            constrained_coercivity(handle01, mirrored, name)


def test_exp_sets_peak_memory(entry01, dirs01):
    # a basis is n x size doubles; with one live basis, mirrored in place,
    # the traced peak stays below 1.75 bases
    h = assemble(entry01.field, entry01.c, directions=dirs01)
    size = 160
    basis_bytes = h.A.shape[0] * size * 8
    tracemalloc.start()
    try:
        basis = ritz_basis(h, norm="exp", size=size)
        constrained_coercivity(h, basis, "phase4")
        constrained_coercivity(h, sym3_basis(h, basis), "sym3")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * basis_bytes
