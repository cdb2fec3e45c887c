"""Linearized operator, quadratic forms, directions, and diagnostics."""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gpvortex

from conftest import (
    compact_test_field,
    edge_gradient_energy,
    inner_product,
    momentum_p1,
    quadratic_form_naive,
    read_prop12_csv,
    vortex_gradient,
)
from gpvortex import linearization
from gpvortex.ansatz import AnsatzParams, build_two_vortex
from gpvortex.field_core import ComplexField, Grid, grid_l2, symmetrize
from gpvortex.linearization import (
    ansatz_tail,
    apply_L,
    build_directions,
    curl_energy_ratio,
    direction_identity_residuals,
    energy,
    momentum,
    prop12_report,
    quadratic_form_B,
    translation_direction,
    write_prop12_csv,
)
from gpvortex.operators import interior_to_real, sector_maps
from gpvortex.tw_solver import default_grid_rule, residual

odd_nodes = st.integers(2, 20).map(lambda k: 2 * k + 1)       # 5 ... 41


def test_apply_L_phase_direction_is_residual(entry01):
    """L(iQ) = i TW(Q): an exact pointwise identity of the stencils."""
    Q, c = entry01.field, entry01.c
    iQ = ComplexField(Q.grid, 1j * Q.values)
    LiQ = apply_L(iQ, Q, c)
    TW = residual(Q, c)
    inner = np.s_[1:-1, 1:-1]
    assert np.max(np.abs(LiQ.values[inner] - 1j * TW.values[inner])) < 1e-13
    assert grid_l2(LiQ.values[inner], Q.grid) <= 100 * entry01.residual_norm


def test_apply_L_translation_nearly_kernel(entry01, dirs01):
    Q, c = entry01.field, entry01.c
    out = apply_L(dirs01.dx1, Q, c)
    rel = grid_l2(out.values[1:-1, 1:-1], Q.grid) / grid_l2(
        dirs01.dx1.values[1:-1, 1:-1], Q.grid)
    assert rel < 0.05


def test_apply_L_real_pairing_symmetry(entry01):
    Q, c = entry01.field, entry01.c
    f = compact_test_field(Q.grid, 21)
    g = compact_test_field(Q.grid, 22)
    lhs = inner_product(apply_L(f, Q, c), g)
    rhs = inner_product(f, apply_L(g, Q, c))
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_form_matches_operator_pairing(entry01):
    Q, c = entry01.field, entry01.c
    phi = compact_test_field(Q.grid, 1)
    B = quadratic_form_B(phi, Q, c)
    pair = float(np.sum((apply_L(phi, Q, c).values * np.conj(phi.values)).real)
                 * Q.grid.hx * Q.grid.hy)
    assert abs(B - pair) <= 1e-8 * abs(B)


def test_form_matches_naive(entry01):
    Q, c = entry01.field, entry01.c
    phi = compact_test_field(Q.grid, 2)
    B = quadratic_form_B(phi, Q, c)
    assert abs(B - quadratic_form_naive(phi, Q, c)) <= 1e-8 * abs(B)


def test_form_phase_invariance(entry01):
    Q, c = entry01.field, entry01.c
    phi = compact_test_field(Q.grid, 4)
    B = quadratic_form_B(phi, Q, c)
    for lam in (0.1, 1.0):
        shifted = ComplexField(Q.grid, phi.values + 1j * lam * Q.values)
        assert abs(quadratic_form_B(shifted, Q, c) - B) <= 1e-8 * abs(B)


def test_form_quadratic_scaling(entry01):
    Q, c = entry01.field, entry01.c
    phi = compact_test_field(Q.grid, 5)
    B = quadratic_form_B(phi, Q, c)
    for t in (2.0, -1.0):
        scaled = ComplexField(Q.grid, t * phi.values)
        assert quadratic_form_B(scaled, Q, c) == pytest.approx(t * t * B,
                                                                    rel=1e-13)


def test_expanded_form_phase_and_agreement(entry01):
    Q, c = entry01.field, entry01.c
    iQ = ComplexField(Q.grid, 1j * Q.values)
    assert abs(quadratic_form_B(iQ, Q, c)) <= 1e-6 * edge_gradient_energy(iQ)


def test_energy_momentum_vacuum(entry01):
    g = entry01.field.grid
    one = ComplexField(g, np.ones((g.nx, g.ny), complex))
    assert energy(one) == 0.0
    assert (momentum_p1(one), momentum(one)) == (0.0, 0.0)


def test_momentum_p1_vanishes(branch_spec):
    for e in branch_spec.entries:
        p1, p2 = momentum_p1(e.field), momentum(e.field)
        assert abs(p1) <= 1e-10
        assert p2 > 0


def test_momentum_p2_corridor(branch_spec, run_cfg):
    for c in run_cfg.speeds:
        e = branch_spec.entries[branch_spec.index_of(c)]
        assert 0.8 <= e.c * e.p2 / (2 * np.pi) <= 1.2


@settings(max_examples=60, deadline=None)
@given(nx=odd_nodes, ny=odd_nodes, lx=st.floats(0.5, 20.0), ly=st.floats(0.5, 20.0),
       degree=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_translation_stencil_exact_on_polynomials(nx, ny, lx, ly, degree, seed):
    # p(x1) + i q(x2) of degree <= 4: 4th order inside, 2nd order at the
    # ring, so exact on degree <= 4 at nodes 2 ... n-3 and on degree <= 2
    # at every node
    g = Grid(lx, ly, nx, ny)
    a, b = np.random.default_rng(seed).uniform(-1.0, 1.0, (2, degree + 1))
    X, Y = g.mesh
    f = ComplexField(g, np.polyval(a, X) + 1j * np.polyval(b, Y))
    for d, coef, t, axis in zip((translation_direction(f, k) for k in (0, 1)),
                                (a, 1j * b), (X, Y), (0, 1)):
        err = np.moveaxis(np.abs(d.values - np.polyval(np.polyder(coef), t)), axis, 0)
        # the derivative's scale: the polynomial's bound over the half-width
        half = (lx, ly)[axis]
        scale = np.sum(np.abs(coef) * half ** np.arange(degree, -1, -1.0)) / half
        assert np.max(err if degree <= 2 else err[2:-2]) <= 1e-10 * scale


@settings(max_examples=40, deadline=None)
@given(nx=odd_nodes, ny=odd_nodes, seed=st.integers(0, 2**32 - 1))
def test_translation_directions_lie_in_their_sectors(nx, ny, seed):
    # on a field even in x1 and conjugate-even in x2, d1 Q is odd in x1
    # and conjugate-even in x2, the (-, +) sector; d2 Q is (+, -)
    g = Grid(0.5 * nx, 0.3 * ny, nx, ny)
    rng = np.random.default_rng(seed)
    Q = symmetrize(ComplexField(g, rng.standard_normal((nx, ny))
                               + 1j * rng.standard_normal((nx, ny))))
    maps = sector_maps(g)
    for d, label in zip((translation_direction(Q, k) for k in (0, 1)), ("-+", "+-")):
        x = interior_to_real(d.values)
        P = maps[label]
        assert np.linalg.norm(x - P @ (P.T @ x)) <= 1e-13 * np.linalg.norm(x)


def test_directions_rotation_pointwise(entry01, dirs01):
    g = entry01.field.grid
    X, Y = g.mesh
    # the defining identity -x_perp . grad Q at every node
    gx4 = translation_direction(entry01.field, 0).values
    gy4 = translation_direction(entry01.field, 1).values
    expect = Y * gx4 - X * gy4
    assert np.array_equal(dirs01.drot.values, expect)


def test_direction_identities(branch_spec, run_cfg):
    for c in run_cfg.speeds:
        idx = branch_spec.index_of(c)
        dirs = build_directions(branch_spec, idx)
        e = branch_spec.entries[idx]
        res = direction_identity_residuals(dirs, e.field, e.c)
        assert res["resid_dc_rhs"] <= 0.05
        assert res["resid_dc_dir"] <= 0.05
        assert res["resid_drot_dir"] <= 0.05


def test_direction_neighbor_requirements(branch_spec):
    with pytest.raises(ValueError):
        build_directions(branch_spec, 0)
    with pytest.raises(ValueError):
        build_directions(branch_spec, 2)   # next entry is in another triple


def test_speed_direction_matches_core_translation(branch_spec, profile):
    # Q_c ~ V+(x - d e1) V-(x + d e1) with d ~ 1/c, so
    # dQ/dc ~ -(1/c^2) dQ/dd = +(1/c^2) d1 V+ . V- near +d e1, where
    # V- ~ 1: the scaled speed derivative is close to the (positive)
    # x1-derivative of the vortex centered there
    idx = branch_spec.index_of(0.05)
    e = branch_spec.entries[idx]
    dirs = build_directions(branch_spec, idx)
    g = e.field.grid
    X, Y = g.mesh
    gx, _ = vortex_gradient(profile, 1, X, Y, center=e.zeros[0])
    ball = np.hypot(X - e.zeros[0][0], Y - e.zeros[0][1]) <= 10.0
    num = np.abs(e.c**2 * dirs.dc.values - gx)[ball]
    den = np.max(np.abs(gx)[ball])
    assert np.max(num) / den <= 0.3


def test_form_values_on_directions(branch_spec, run_cfg):
    for c in run_cfg.speeds:
        idx = branch_spec.index_of(c)
        e = branch_spec.entries[idx]
        dirs = build_directions(branch_spec, idx)
        assert (c * c * quadratic_form_B(dirs.dc, e.field, c)
                / (-2 * np.pi)) == pytest.approx(1.0, abs=0.3)
        assert (quadratic_form_B(dirs.drot, e.field, c)
                / (2 * np.pi)) == pytest.approx(1.0, abs=0.3)


def test_curl_energy_ratio_bounded(branch_spec, run_cfg):
    idx = [branch_spec.index_of(c) for c in run_cfg.speeds]
    ratios = [curl_energy_ratio(build_directions(branch_spec, i),
                                branch_spec.entries[i].field, branch_spec.entries[i].c)
              for i in idx]
    assert all(np.isfinite(r) and r > 0 for r in ratios)
    assert max(ratios) <= 2.5 * min(ratios)


def test_ansatz_tail_makes_box_values_box_independent(profile, monkeypatch):
    # the ansatz at c = 0.1 on its spectral box (lx 30) and on lx 45: raw,
    # E and P2 differ by 1.5% and 1.3%; with the tail by 3e-5 and 4e-5
    params = AnsatzParams(10.0, profile)

    def values(grid):
        A = build_two_vortex(params, grid)
        t_e, t_p = ansatz_tail(params, grid)
        return np.array([energy(A), momentum(A)]), np.array([t_e, t_p])

    grids = [default_grid_rule(0.1, box_factor=f) for f in (3.0, 4.5)]
    (raw, tail), (raw_w, tail_w) = map(values, grids)
    assert np.all(np.abs(raw / raw_w - 1) >= 1e-2)
    assert np.all(np.abs((raw + tail) / (raw_w + tail_w) - 1) <= 2e-4)
    # the closed-form remainder beyond the last ring: doubling the cut
    # moves E and P2 by 2.5e-6 and 5.2e-6
    monkeypatch.setattr(linearization, "TAIL_RINGS", linearization.TAIL_RINGS + 1)
    _, tail_2 = values(grids[0])
    assert np.all(np.abs((raw + tail_2) / (raw + tail) - 1) <= 2e-5)


def test_prop12_report_and_csv(branch_spec, profile, run_cfg, stored_run, tmp_path):
    rows = prop12_report(branch_spec, run_cfg.speeds, profile)
    assert len(rows) == len(run_cfg.speeds)
    for row in rows:
        assert row["rel_dE_identity_with_tail"] <= 0.05
        assert 0.7 <= row["c2_B_dc"] / (-2 * np.pi) <= 1.3
        assert 0.7 <= row["B_drot"] / (2 * np.pi) <= 1.3
    path = tmp_path / "prop12.csv"
    write_prop12_csv(rows, path)
    lines = path.read_text().splitlines()
    # the header is the frozen schema file, not the tuple that writes it
    schema = os.path.join(os.path.dirname(gpvortex.__file__), "schema",
                          "prop12_columns_v2.txt")
    with open(schema) as fh:
        frozen = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    assert lines[0] == ",".join(frozen)
    assert len(lines) == 1 + len(rows)
    # the branch stage stored these rows, value for value
    stored = read_prop12_csv(stored_run.out / "branch" / "prop12.csv")
    assert stored == [{k: float(row[k]) for k in frozen} for row in rows]
