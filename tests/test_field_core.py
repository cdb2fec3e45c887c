"""Discrete operators, inner products, the norms on fields, cutoffs, the
0-harmonic of the orthogonality balls, and field files."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import compact_test_field, inner_product
from gpvortex.field_core import (
    ComplexField,
    CutoffEta,
    Grid,
    FieldFileError,
    fd_gradient,
    load_field,
    mult_ratio,
    resolution_floor,
    save_field,
    symmetrize,
)
from gpvortex.operators import _transport_laplacian, interior_to_real
from gpvortex.spectral import (
    _ball_harmonic_chain,
    _edge_mask,
    _edge_ops,
    _gram_C,
    _gram_exp,
)


@pytest.fixture(scope="module")
def grid():
    return Grid(8.0, 8.0, 81, 81)


def field_of(grid, fn):
    X, Y = grid.mesh
    return ComplexField(grid, fn(X, Y).astype(complex))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(5.0, 5.0, 40, 41)
    with pytest.raises(ValueError):
        Grid(-1.0, 5.0, 41, 41)
    g = Grid(5.0, 5.0, 41, 41)
    assert g.x[0] == -g.x[-1]
    assert np.all(g.x + g.x[::-1] == 0.0)


def test_gradient_exact_on_affine_and_quadratic(grid):
    f = field_of(grid, lambda X, Y: 2.0 + 3.0 * X - 1.5 * Y)
    gx, gy = fd_gradient(f)
    assert np.allclose(gx.values, 3.0, atol=1e-12)
    assert np.allclose(gy.values, -1.5, atol=1e-12)
    f2 = field_of(grid, lambda X, Y: X**2)
    gx2, _ = fd_gradient(f2)
    X, _ = grid.mesh
    assert np.allclose(gx2.values[1:-1, :], 2.0 * X[1:-1, :], atol=1e-11)


def test_gradient_constant_zero(grid):
    f = field_of(grid, lambda X, Y: np.full_like(X, 2.7))
    gx, gy = fd_gradient(f)
    assert np.max(np.abs(gx.values)) == 0.0
    assert np.max(np.abs(gy.values)) == 0.0


def test_gradient_wave_error_bound(grid):
    k = np.array([0.3, 0.2])
    X, Y = grid.mesh
    f = ComplexField(grid, np.exp(1j * (k[0] * X + k[1] * Y)))
    gx, gy = fd_gradient(f)
    exact = 1j * k[0] * f.values
    err = np.max(np.abs(gx.values[1:-1, :] - exact[1:-1, :]))
    bound = (np.linalg.norm(k) ** 3 / 6.0) * max(grid.hx, grid.hy) ** 2
    assert err <= bound


def laplacian(f):
    """The 5-point Laplacian of the residual and of L on the interior
    nodes (zero ring): their shared stencil at c = 0."""
    out = np.zeros_like(f.values)
    out[1:-1, 1:-1] = -_transport_laplacian(f.values, f.grid, 0.0)
    return ComplexField(f.grid, out)


def test_laplacian_exact_on_quadratics(grid):
    f = field_of(grid, lambda X, Y: X**2 + Y**2)
    lap = laplacian(f)
    assert np.allclose(lap.values[1:-1, 1:-1], 4.0, atol=1e-9)
    f0 = field_of(grid, lambda X, Y: np.full_like(X, 1.3))
    assert np.max(np.abs(laplacian(f0).values)) < 1e-13


def test_laplacian_wave_second_order(grid):
    k = np.array([0.5, 0.4])
    X, Y = grid.mesh
    f = ComplexField(grid, np.exp(1j * (k[0] * X + k[1] * Y)))
    lap = laplacian(f)
    exact = -(k @ k) * f.values
    err = np.max(np.abs(lap.values[1:-1, 1:-1] - exact[1:-1, 1:-1]))
    assert err <= (np.sum(np.abs(k) ** 4) / 12.0) * max(grid.hx, grid.hy) ** 2 * 1.1


def test_inner_product_basics(grid):
    f = compact_test_field(grid, 1)
    g = compact_test_field(grid, 2)
    assert inner_product(f, f) > 0
    zero = ComplexField(grid, np.zeros((grid.nx, grid.ny)))
    assert inner_product(zero, zero) == 0.0
    i_f = ComplexField(grid, 1j * f.values)
    assert abs(inner_product(i_f, f)) < 1e-14 * inner_product(f, f)
    one = field_of(grid, lambda X, Y: np.ones_like(X))
    assert inner_product(one, one) == pytest.approx(4 * grid.lx * grid.ly, rel=1e-14)
    # symmetry and bilinearity
    a = inner_product(f, g)
    assert a == pytest.approx(inner_product(g, f), rel=1e-14, abs=1e-300)
    fg = ComplexField(grid, 2.0 * f.values + g.values)
    assert inner_product(fg, g) == pytest.approx(2 * a + inner_product(g, g),
                                                 rel=1e-13)


def test_inner_product_grid_mismatch(grid):
    other = Grid(8.0, 8.0, 41, 41)
    with pytest.raises(ValueError):
        inner_product(compact_test_field(grid, 0),
                      ComplexField(other, np.zeros((41, 41))))


def test_summation_by_parts_collar(grid):
    f = compact_test_field(grid, 3, collar=2)
    g = compact_test_field(grid, 4, collar=2)
    lhs = inner_product(laplacian(f), g)
    rhs = inner_product(f, laplacian(g))
    scale = abs(inner_product(laplacian(f), f)) + 1.0
    assert abs(lhs - rhs) <= 1e-12 * scale


def test_symmetrize(grid):
    rng = np.random.default_rng(0)
    f = ComplexField(grid, rng.standard_normal((grid.nx, grid.ny))
                     + 1j * rng.standard_normal((grid.nx, grid.ny)))
    s = symmetrize(f)
    assert np.max(np.abs(symmetrize(s).values - s.values)) < 1e-14
    assert np.max(np.abs(symmetrize(f).values - f.values)) > 1e-3


# ----------------------------------------------------------------------
# the norms on the converged wave: the Gram matrices of ``spectral``

def gram_norm(G, phi):
    x = interior_to_real(phi.values)
    return float(np.sqrt(x @ (G @ x)))


def psi_mult(Q):
    """The multiplier of psi = phi/Q that ``spectral.assemble`` passes to
    the Gram matrices."""
    return mult_ratio(1.0, Q.values[1:-1, 1:-1], resolution_floor(Q.grid))[0]


def test_expanded_norm_finite_and_stable_for_phase(entry01, branch_diag):
    Q = entry01.field
    iQ = ComplexField(Q.grid, 1j * Q.values)
    G = _gram_exp(Q, entry01.zeros, psi_mult(Q))
    val = gram_norm(G, iQ)
    assert np.isfinite(val) and val > 0
    e_big = branch_diag.entries[branch_diag.index_of(entry01.c)]
    iQb = ComplexField(e_big.field.grid, 1j * e_big.field.values)
    big = gram_norm(_gram_exp(e_big.field, e_big.zeros, psi_mult(e_big.field)), iQb)
    assert abs(big - val) <= 0.1 * val
    zero = ComplexField(Q.grid, np.zeros_like(Q.values))
    assert gram_norm(G, zero) == 0.0


def test_coercivity_seminorm_kills_phase(entry01):
    Q = entry01.field
    g = Q.grid
    G = _gram_C(Q, psi_mult(Q))
    qnorm = gram_norm(G, Q)
    iQ = ComplexField(g, 1j * Q.values)
    # Re^2(conj(Q) phi) gives Q the interior sum of |Q|^4 and i Q nothing,
    # and the gradient terms are the same on both
    target = float(np.sum(np.abs(Q.values[1:-1, 1:-1]) ** 4)) * g.hx * g.hy
    assert qnorm**2 - gram_norm(G, iQ) ** 2 == pytest.approx(target, rel=1e-10)
    # the gradient terms vanish on i Q on every edge between nodes above
    # the resolution floor, where psi = phi/Q is resolved.  An edge leaving
    # one of the two nodes below it, one next to each zero, keeps
    # |i Q|_C = 1.8e-3 |Q|_C at c = 0.1.
    Qi = Q.values[1:-1, 1:-1]
    pm, resolved = mult_ratio(1.0, Qi, resolution_floor(g))
    assert np.sum(~resolved) == 2
    mx, my = Qi.shape
    kept = 0.0
    for axis, (op, q2e) in enumerate(_edge_ops(Qi, g, pm)):
        both = _edge_mask(resolved.ravel(), mx, my, axis)
        hat = op @ (1j * Qi.ravel())
        kept += float(np.sum((np.abs(hat) ** 2 * q2e**2)[both])) * g.hx * g.hy
    assert np.sqrt(kept) <= 1e-5 * qnorm


def test_coercivity_bounded_by_expanded_norm(entry01):
    Q = entry01.field
    G_C, G_exp = _gram_C(Q, psi_mult(Q)), _gram_exp(Q, entry01.zeros, psi_mult(Q))
    for seed in (7, 8, 9):
        phi = compact_test_field(Q.grid, seed, center=(0.0, 0.0),
                                 width=0.4 * Q.grid.lx)
        assert gram_norm(G_C, phi) <= 4.0 * gram_norm(G_exp, phi)


def test_scaled_direction_seminorms_bounded(branch_spec, run_cfg):
    # translations and the scaled speed direction stay order one in the
    # coercivity seminorm across the branch
    from gpvortex.linearization import build_directions
    totals = []
    for c in run_cfg.speeds:
        idx = branch_spec.index_of(c)
        d = build_directions(branch_spec, idx)
        Q = branch_spec.entries[idx].field
        G = _gram_C(Q, psi_mult(Q))
        totals.append(gram_norm(G, d.dx1) + gram_norm(G, d.dx2)
                      + c * c * gram_norm(G, d.dc))
    assert max(totals) < 20.0
    assert max(totals) <= 3.0 * min(totals)


# ----------------------------------------------------------------------
# cutoff, and the 0-harmonic of the orthogonality balls

def test_cutoff_eta_shape():
    eta = CutoffEta(((5.0, 0.0), (-5.0, 0.0)))
    X, Y = np.meshgrid(np.linspace(-10, 10, 201), np.linspace(-5, 5, 101),
                       indexing="ij")
    vals = eta(X, Y)
    near = (np.hypot(X - 5, Y) <= 1.0) | (np.hypot(X + 5, Y) <= 1.0)
    farr = (np.hypot(X - 5, Y) >= 2.0) & (np.hypot(X + 5, Y) >= 2.0)
    assert np.all(vals[near] == 0.0)
    assert np.all(vals[farr] == 1.0)
    assert np.all((vals >= 0) & (vals <= 1))


def zero_harmonic(f, center, R):
    """0-harmonic of f about ``center`` on the interior nodes of the ball
    B(center, R), by the chain the orthogonality constraints use; returns
    it with the ball mask and the interior distances to ``center``."""
    M, ball = _ball_harmonic_chain(f, center, R)
    g = f.grid
    X, Y = np.meshgrid(g.x[1:-1], g.y[1:-1], indexing="ij")
    r = np.hypot(X - center[0], Y - center[1]).ravel()
    return M @ f.values[1:-1, 1:-1].ravel(), ball, r


def test_harmonic_project_constant_and_wave(grid):
    center = (1.0, -0.5)
    const = ComplexField(grid, np.full((grid.nx, grid.ny), 0.7 - 0.2j))
    h0, ball, r = zero_harmonic(const, center, 3.0)
    assert np.allclose(h0[ball], 0.7 - 0.2j, rtol=0.0, atol=1e-12)
    assert np.all(h0[~ball] == 0.0)

    X, Y = grid.mesh
    theta = np.arctan2(Y - center[1], X - center[0])
    ring = ball & (r >= 1.0) & (r <= 2.0)
    for j in (1, 2):
        wave = ComplexField(grid, np.exp(1j * j * theta))
        hj, _, _ = zero_harmonic(wave, center, 3.0)
        assert np.max(np.abs(hj[ring])) < 5e-3      # bilinear interpolation error


def test_harmonic_circle_outside_grid(grid):
    with pytest.raises(ValueError):
        _ball_harmonic_chain(compact_test_field(grid, 0), (7.0, 0.0), 3.0)


def test_remove_zero_harmonic_radial_and_pure(grid):
    X, Y = grid.mesh
    r1 = np.hypot(X - 4.0, Y)
    radial = ComplexField(grid, np.exp(-0.3 * r1) * (1.0 + 0.5j))
    h0, ball, _ = zero_harmonic(radial, (4.0, 0.0), 3.5)
    # removing the 0-harmonic leaves almost nothing of a radial field
    assert np.max(np.abs((radial.values[1:-1, 1:-1].ravel() - h0)[ball])) < 1e-2

    pure = ComplexField(grid, np.exp(1j * 2 * np.arctan2(Y, X - 4.0)))
    h2, ball, r = zero_harmonic(pure, (4.0, 0.0), 3.5)
    ring = ball & (r >= 1.0) & (r <= 2.0)
    assert np.max(np.abs(h2[ring])) < 2e-2        # the j=2 content is untouched


def test_remove_zero_harmonic_kills_mean(grid):
    f = compact_test_field(grid, 9, center=(4.0, 0.5), width=2.0)
    h0, ball, r = zero_harmonic(f, (4.0, 0.0), 3.5)
    removed = f.values.copy()
    removed[1:-1, 1:-1] -= h0.reshape(grid.nx - 2, grid.ny - 2)
    again, _, _ = zero_harmonic(ComplexField(grid, removed), (4.0, 0.0), 3.5)
    assert np.max(np.abs(again[ball & (r <= 3.0)])) < 5e-3


def test_poincare_inequality_on_circles(grid):
    # int |psi^{neq 0}|^2 dtheta <= r^2 int |grad psi|^2 dtheta on smooth
    # fields; evaluated with analytic samples so only the inequality and
    # the harmonic machinery are being checked
    rng = np.random.default_rng(12)
    ks = [(0.4, 0.2), (0.2, 0.6), (0.7, 0.1)]
    co = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    center = (4.0, 0.0)
    n = 512
    theta = 2 * np.pi * np.arange(n) / n
    for rad in (1.0, 2.0, 5.0):
        xs = center[0] + rad * np.cos(theta)
        ys = center[1] + rad * np.sin(theta)
        psi = sum(cc * np.exp(1j * (k1 * xs + k2 * ys)) for cc, (k1, k2) in zip(co, ks))
        gx = sum(cc * 1j * k1 * np.exp(1j * (k1 * xs + k2 * ys))
                 for cc, (k1, k2) in zip(co, ks))
        gy = sum(cc * 1j * k2 * np.exp(1j * (k1 * xs + k2 * ys))
                 for cc, (k1, k2) in zip(co, ks))
        lhs = np.mean(np.abs(psi - np.mean(psi)) ** 2)
        rhs = rad**2 * np.mean(np.abs(gx) ** 2 + np.abs(gy) ** 2)
        assert lhs <= rhs * (1 + 1e-12)


# ----------------------------------------------------------------------
# field files

def test_field_file_roundtrip(tmp_path, entry01):
    path = tmp_path / "wave.fld"
    save_field(entry01.field, path, c=entry01.c, extra={"note": "test"})
    back, c, meta = load_field(path)
    assert c == entry01.c
    assert meta["note"] == "test"
    assert back.grid == entry01.field.grid
    assert np.array_equal(back.values, entry01.field.values)


def test_field_file_with_grid_flag_lines_loads(tmp_path, entry01):
    # sidecars written before the grid lost its symmetry flags carry two
    # more lines; such a file loads as before
    path = tmp_path / "wave.fld"
    save_field(entry01.field, path, c=entry01.c)
    meta = tmp_path / "wave.fld.meta"
    lines = meta.read_text().splitlines()
    assert not any(ln.startswith("sym_") for ln in lines)
    lines[6:6] = ["sym_even_x1 = True", "sym_conj_x2 = True"]
    meta.write_text("\n".join(lines) + "\n")
    back, c, _ = load_field(path)
    assert c == entry01.c
    assert back.grid == entry01.field.grid
    assert np.array_equal(back.values, entry01.field.values)


def test_field_file_checksum(tmp_path, entry01):
    path = tmp_path / "wave.fld"
    save_field(entry01.field, path, c=entry01.c)
    raw = bytearray(path.read_bytes())
    raw[60] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(FieldFileError):
        load_field(path)



@settings(max_examples=40, deadline=None)
@given(nx=st.integers(2, 7).map(lambda k: 2 * k + 1),
       ny=st.integers(2, 7).map(lambda k: 2 * k + 1),
       lx=st.floats(0.1, 100.0), ly=st.floats(0.1, 100.0), c=st.floats(-1e6, 1e6),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_field_file_roundtrip_and_corruption_property(nx, ny, lx, ly, c, seed, data):
    rng = np.random.default_rng(seed)
    f = ComplexField(Grid(lx, ly, nx, ny), rng.standard_normal((nx, ny))
                     + 1j * rng.standard_normal((nx, ny)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "wave.fld")
        save_field(f, path, c=c, extra={"note": "x"})
        assert sorted(os.listdir(tmp)) == ["wave.fld", "wave.fld.meta"]
        back, c_back, meta = load_field(path)
        assert back.grid == f.grid
        assert np.array_equal(back.values, f.values)
        assert c_back == c
        assert meta["note"] == "x"
        # flipping bits of any payload byte must be detected
        raw = bytearray(open(path, "rb").read())
        pos = data.draw(st.integers(0, len(raw) - 1), label="pos")
        raw[pos] ^= data.draw(st.integers(1, 255), label="mask")
        with open(path, "wb") as fh:
            fh.write(bytes(raw))
        with pytest.raises(FieldFileError):
            load_field(path)
