"""Linearized operator, quadratic forms, directions, and diagnostics."""

import os

import numpy as np
import pytest

import gpvortex

from conftest import (
    compact_test_field,
    edge_gradient_energy,
    inner_product,
    quadratic_form_naive,
    vortex_gradient,
)
from gpvortex.field_core import ComplexField, grid_l2
from gpvortex.linearization import (
    apply_L,
    build_directions,
    curl_energy_ratio,
    direction_identity_residuals,
    energy,
    momentum,
    prop12_report,
    quadratic_form_B,
    write_prop12_csv,
)
from gpvortex.tw_solver import residual


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
    assert momentum(one) == (0.0, 0.0)


def test_momentum_p1_vanishes(branch_spec):
    for e in branch_spec.entries:
        p1, p2 = momentum(e.field)
        assert abs(p1) <= 1e-10
        assert p2 > 0


def test_momentum_p2_corridor(branch_spec, run_cfg):
    for c in run_cfg.speeds:
        e = branch_spec.entries[branch_spec.index_of(c)]
        assert 0.8 <= e.c * e.p2 / (2 * np.pi) <= 1.2


def test_directions_rotation_pointwise(entry01, dirs01):
    g = entry01.field.grid
    X, Y = g.mesh
    gx, gy = np.gradient(entry01.field.values, g.hx, axis=0, edge_order=2), None
    # spot check the defining identity -x_perp . grad Q at a few nodes
    from gpvortex.linearization import _grad4
    gx4 = _grad4(entry01.field.values, g.hx, 0)
    gy4 = _grad4(entry01.field.values, g.hy, 1)
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
        build_directions(branch_spec, 2)   # next entry is a different anchor


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
    ratios = [curl_energy_ratio(branch_spec.entries[branch_spec.index_of(c)].field, c)
              for c in run_cfg.speeds]
    assert all(np.isfinite(r) and r > 0 for r in ratios)
    assert max(ratios) <= 2.5 * min(ratios)


def test_prop12_report_and_csv(branch_diag, run_cfg, tmp_path):
    rows = prop12_report(branch_diag)
    assert len(rows) == len(run_cfg.speeds)
    for row in rows:
        assert row["rel_dE_identity"] <= 0.05
        assert 0.7 <= row["c2_B_dc"] / (-2 * np.pi) <= 1.3
        assert 0.7 <= row["B_drot"] / (2 * np.pi) <= 1.3
    path = tmp_path / "prop12.csv"
    write_prop12_csv(rows, path)
    lines = path.read_text().splitlines()
    # the header is the frozen schema file, not the tuple that writes it
    schema = os.path.join(os.path.dirname(gpvortex.__file__), "schema",
                          "prop12_columns_v1.txt")
    with open(schema) as fh:
        frozen = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    assert lines[0] == ",".join(frozen)
    assert len(lines) == 1 + len(rows)
