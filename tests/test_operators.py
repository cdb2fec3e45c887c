"""Sparse operators: the linearized matrix against its Kronecker-product
assembly, the quarter maps against their index construction, the
quarter restriction against its row-by-row construction
(on random matrices and on the quarter rows assembled alone, and the
peak memory of the latter), the quarter solve against the full-matrix
solve, the symmetry of the linearized matrix, its agreement with the
quadratic form, and its block diagonalization by the symmetry-sector
maps."""

import tracemalloc

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from conftest import linearized_matrix_reference, quarter_maps_reference
from gpvortex.field_core import ComplexField, Grid, symmetrize
from gpvortex.linearization import quadratic_form_B
from gpvortex.operators import (
    QuarterMaps,
    interior_to_real,
    linearized_matrix,
    sector_maps,
    tw_residual_values,
)


def _reduce_by_rows(q: QuarterMaps, A: sp.csr_matrix) -> sp.csr_matrix:
    """Reference construction: restrict, then overwrite each pinned row
    with the identity row in LIL form."""
    Aq = (A[q.rep_rows, :] @ q.P).tolil()
    for r in q.pinned:
        Aq.rows[r] = [int(r)]
        Aq.data[r] = [1.0]
    return Aq.tocsr()


def _assert_same_csr(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert a.data.tobytes() == b.data.tobytes()


odd = st.integers(2, 9).map(lambda k: 2 * k + 1)
small_odd = st.integers(2, 7).map(lambda k: 2 * k + 1)


def _random_field(g: Grid, rng) -> ComplexField:
    return ComplexField(g, rng.standard_normal((g.nx, g.ny))
                        + 1j * rng.standard_normal((g.nx, g.ny)))


def _test_field(g: Grid, rng, symmetric: bool) -> ComplexField:
    Q = _random_field(g, rng)
    return symmetrize(Q) if symmetric else Q


@settings(max_examples=40, deadline=None)
@given(nx=st.integers(2, 60).map(lambda k: 2 * k + 1),
       ny=st.integers(2, 60).map(lambda k: 2 * k + 1))
def test_quarter_maps_match_index_construction(nx, ny):
    # the maps built from the ++ parity maps are the full-grid index
    # construction, entry for entry
    g = Grid(5.0, 4.0, nx, ny)
    q = QuarterMaps(g)
    P, rep_rows, pinned = quarter_maps_reference(g)
    _assert_same_csr(q.P, P)
    assert q.P.indices.dtype == P.indices.dtype
    assert np.array_equal(q.rep_rows, rep_rows)
    assert np.array_equal(q.pinned, pinned)
    assert (q.m, q.mq) == ((nx - 2) * (ny - 2), P.shape[1] // 2)


@settings(max_examples=40, deadline=None)
@given(nx=odd, ny=odd, density=st.floats(0.02, 0.5), seed=st.integers(0, 2**32 - 1))
def test_quarter_reduce_matches_row_construction_random(nx, ny, density, seed):
    # the restriction of the representative rows of any sparse matrix
    q = QuarterMaps(Grid(5.0, 4.0, nx, ny))
    n = 2 * q.m
    A = sp.random(n, n, density=density, format="csr",
                  random_state=np.random.default_rng(seed))
    _assert_same_csr(q.restrict(A[q.rep_rows, :]), _reduce_by_rows(q, A))


@settings(max_examples=40, deadline=None)
@given(nx=odd, ny=odd, lx=st.floats(1.0, 20.0), ly=st.floats(1.0, 20.0),
       c=st.floats(0.0, 0.5), symmetric=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_quarter_reduce_matches_row_construction_linearized(nx, ny, lx, ly, c, symmetric,
                                                            seed):
    # the quarter rows assembled alone are the rows of the full matrix
    # that the restriction keeps, with the same exact zeros left out
    g = Grid(lx, ly, nx, ny)
    Q = _test_field(g, np.random.default_rng(seed), symmetric)
    q = QuarterMaps(g)
    _assert_same_csr(q.reduce(Q, c), _reduce_by_rows(q, linearized_matrix(Q, c)))


@settings(max_examples=40, deadline=None)
@given(nx=odd, ny=odd, lx=st.floats(1.0, 20.0), ly=st.floats(1.0, 20.0),
       c=st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.5), symmetric=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_linearized_matrix_matches_kronecker_assembly(nx, ny, lx, ly, c, symmetric, seed):
    g = Grid(lx, ly, nx, ny)
    Q = _test_field(g, np.random.default_rng(seed), symmetric)
    A, ref = linearized_matrix(Q, c), linearized_matrix_reference(Q, c)
    _assert_same_csr(A, ref)
    assert A.indptr.dtype == ref.indptr.dtype and A.indices.dtype == ref.indices.dtype


def test_quarter_reduce_peak_memory():
    # the rows the quarter keeps, assembled alone, against the full
    # matrix restricted afterwards; the maps are built once per grid
    g = Grid(24.0, 24.0, 121, 121)
    Q = _test_field(g, np.random.default_rng(3), True)
    q = QuarterMaps(g)
    peaks = []
    for assemble in (lambda: q.reduce(Q, 0.1),
                     lambda: q.restrict(linearized_matrix(Q, 0.1)[q.rep_rows, :])):
        tracemalloc.start()
        try:
            assemble()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 0.5 * peaks[1], peaks


@settings(max_examples=40, deadline=None)
@given(nx=small_odd, ny=small_odd, c=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1))
def test_quarter_solve_matches_full_solve(nx, ny, c, seed):
    # at a symmetric field the Newton right-hand side is symmetric, and
    # the quarter solve is the solve with the full linearized matrix; two
    # stable solves agree to rounding times the condition number (at most
    # 1.4e-16 cond over 3000 random draws, 9.6e-12 at cond 2.9e6)
    g = Grid(5.0, 4.0, nx, ny)
    Q = _test_field(g, np.random.default_rng(seed), True)
    A = linearized_matrix(Q, c)
    b = -interior_to_real(tw_residual_values(Q.values, g, c))
    want = spla.spsolve(A.tocsc(), b)
    got = QuarterMaps(g).solve(Q, c, b)
    bound = max(1e-12, 1e-14 * np.linalg.cond(A.toarray()))
    assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))


@settings(max_examples=40, deadline=None)
@given(nx=small_odd, ny=small_odd, c=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1))
def test_linearized_matrix_symmetric(nx, ny, c, seed):
    g = Grid(6.0, 5.0, nx, ny)
    A = linearized_matrix(_random_field(g, np.random.default_rng(seed)), c)
    assert abs(A - A.T).max() <= 1e-12 * abs(A).max()


@settings(max_examples=40, deadline=None)
@given(nx=small_odd, ny=small_odd, c=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1))
def test_form_matches_matrix_on_zero_ring(nx, ny, c, seed):
    g = Grid(6.0, 5.0, nx, ny)
    rng = np.random.default_rng(seed)
    Q = _random_field(g, rng)
    phi = _random_field(g, rng)
    phi.values[[0, -1], :] = 0.0
    phi.values[:, [0, -1]] = 0.0
    A = linearized_matrix(Q, c)
    x = interior_to_real(phi.values)
    w = g.hx * g.hy
    scale = w * float(np.abs(x) @ (abs(A) @ np.abs(x)))
    assert abs(quadratic_form_B(phi, Q, c) - w * float(x @ (A @ x))) <= 1e-12 * scale


@settings(max_examples=30, deadline=None)
@given(nx=small_odd, ny=small_odd, c=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1))
def test_sector_maps_block_diagonalize_symmetric_operator(nx, ny, c, seed):
    g = Grid(6.0, 5.0, nx, ny)
    Q = symmetrize(_random_field(g, np.random.default_rng(seed)))
    A = linearized_matrix(Q, c)
    tol = 1e-12 * abs(A).max()
    maps = sector_maps(g)
    assert list(maps) == ["++", "+-", "-+", "--"]
    n = A.shape[0]
    total = sp.csr_matrix((n, n))
    blocks = []
    for s, P in maps.items():
        assert abs(P.T @ P - sp.identity(P.shape[1])).max() <= 1e-15
        total = total + P @ P.T
        for t, R in maps.items():
            if t != s:
                assert abs(P.T @ A @ R).max() <= tol
        B = (P.T @ A @ P).toarray()
        assert np.abs(B - B.T).max() <= tol
        blocks.append(np.linalg.eigvalsh(B))
    assert abs(total - sp.identity(n)).max() <= 1e-15
    union = np.sort(np.concatenate(blocks))
    assert np.abs(union - np.linalg.eigvalsh(A.toarray())).max() <= 1e-10 * abs(A).max()
