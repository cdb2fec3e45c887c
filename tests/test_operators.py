"""Sparse operators: the quarter reduction against its row-by-row
construction."""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from gpvortex.field_core import ComplexField, Grid
from gpvortex.operators import QuarterMaps, linearized_matrix


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
