"""Sparse operators: the quarter reduction against its row-by-row
construction, the quarter round trip, the symmetry of the linearized
matrix, its agreement with the quadratic form, and its block
diagonalization by the symmetry-sector maps."""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from gpvortex.field_core import ComplexField, Grid, symmetrize
from gpvortex.linearization import quadratic_form_B
from gpvortex.operators import (
    QuarterMaps,
    interior_to_real,
    linearized_matrix,
    sector_maps,
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
    assert np.array_equal(a.data, b.data)


odd = st.integers(2, 9).map(lambda k: 2 * k + 1)
small_odd = st.integers(2, 7).map(lambda k: 2 * k + 1)


def _random_field(g: Grid, rng) -> ComplexField:
    return ComplexField(g, rng.standard_normal((g.nx, g.ny))
                        + 1j * rng.standard_normal((g.nx, g.ny)))


@settings(max_examples=40, deadline=None)
@given(nx=odd, ny=odd, density=st.floats(0.02, 0.5), seed=st.integers(0, 2**32 - 1))
def test_quarter_reduce_matches_row_construction_random(nx, ny, density, seed):
    q = QuarterMaps(Grid(5.0, 4.0, nx, ny))
    n = 2 * q.m
    A = sp.random(n, n, density=density, format="csr",
                  random_state=np.random.default_rng(seed))
    _assert_same_csr(q.reduce(A), _reduce_by_rows(q, A))


@settings(max_examples=20, deadline=None)
@given(nx=odd, ny=odd, c=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1))
def test_quarter_reduce_matches_row_construction_linearized(nx, ny, c, seed):
    g = Grid(6.0, 6.0, nx, ny)
    rng = np.random.default_rng(seed)
    Q = ComplexField(g, rng.standard_normal((nx, ny))
                     + 1j * rng.standard_normal((nx, ny)))
    q = QuarterMaps(g)
    A = linearized_matrix(Q, c)
    _assert_same_csr(q.reduce(A), _reduce_by_rows(q, A))


@settings(max_examples=40, deadline=None)
@given(nx=small_odd, ny=small_odd, seed=st.integers(0, 2**32 - 1))
def test_quarter_prolong_restrict_roundtrip(nx, ny, seed):
    q = QuarterMaps(Grid(5.0, 4.0, nx, ny))
    xq = np.random.default_rng(seed).standard_normal(2 * q.mq)
    want = xq.copy()
    want[q.pinned] = 0.0
    assert np.array_equal(q.reduce_rhs(q.prolong(xq)), want)


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
