"""Shared discrete operators for the travelling-wave equation.

Interior-node stencils of the travelling-wave residual (their
-ic d2 - lap part is shared with ``linearization.apply_L``), the sparse
real-symmetric matrix of the linearized operator on the interior
unknowns (Dirichlet data on the box edge), the branch Newton's linear
solve on the symmetric quarter of the grid (``QuarterMaps.solve``), and
the orthonormal maps onto the four symmetry sectors of that matrix.

The matrix comes from one row formula (``_linearized_rows``) for any
set of rows: ``linearized_matrix`` takes all of them and
``QuarterMaps.reduce`` only the quarter's representative rows, so the
quarter Newton never builds the full matrix.  Each entry is rounded as
the sum of the Kronecker-product stencil and potential matrices rounds
it, and exact zeros are not stored, so both are bit-identical to that
assembly.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .field_core import ComplexField, Grid


def _transport_laplacian(v: np.ndarray, grid: Grid, c: float) -> np.ndarray:
    """-ic d2 v - lap v on the interior nodes of the full-grid array v (or
    of each field of a stack v[..., nx, ny]): the 5-point Laplacian and the
    centered d2 of the linearized matrix, with the boundary ring of v as
    Dirichlet data."""
    hx, hy = grid.hx, grid.hy
    mid = v[..., 1:-1, 1:-1]
    lap = ((v[..., 2:, 1:-1] - 2.0 * mid + v[..., :-2, 1:-1]) / hx**2
           + (v[..., 1:-1, 2:] - 2.0 * mid + v[..., 1:-1, :-2]) / hy**2)
    d2 = (v[..., 1:-1, 2:] - v[..., 1:-1, :-2]) / (2.0 * hy)
    return -1j * c * d2 - lap


def tw_residual_values(values: np.ndarray, grid: Grid, c: float) -> np.ndarray:
    """-ic d2 v - lap v - (1-|v|^2) v on interior nodes; boundary rows zero.

    The boundary ring of ``values`` enters the interior stencils as
    Dirichlet data, matching the linearized matrix exactly.
    """
    out = np.zeros_like(values, dtype=complex)
    mid = values[1:-1, 1:-1]
    out[1:-1, 1:-1] = (_transport_laplacian(values, grid, c)
                       - (1.0 - np.abs(mid) ** 2) * mid)
    return out


def _stencil(grid: Grid, rows: np.ndarray):
    """Rows ``rows`` of the interior dofs, the columns of their eight
    stencil slots in ascending order, and the mask of the slots whose
    node lies in the interior.

    The slots of a u (Re phi) row at node (i, j) are u(i-1), u(j-1), u,
    u(j+1), u(i+1), v(j-1), v, v(j+1); those of a v row are u(j-1), u,
    u(j+1), v(i-1), v(j-1), v, v(j+1), v(i+1)."""
    mx, my = grid.nx - 2, grid.ny - 2
    m = mx * my
    rows = np.asarray(rows)
    is_v = rows >= m
    i, j = np.divmod(rows - m * is_v, my)
    du = np.array([-my, -1, 0, 1, my, m - 1, m, m + 1])
    dv = np.array([-m - 1, -m, -m + 1, -my, -1, 0, 1, my])
    cols = rows[:, None] + np.where(is_v[:, None], dv, du)
    west, east, south, north = i > 0, i < mx - 1, j > 0, j < my - 1
    on = np.ones_like(west)
    valid = np.where(is_v[:, None],
                     np.stack([south, on, north, west, south, on, north, east], 1),
                     np.stack([west, south, on, north, east, south, on, north], 1))
    return rows, cols, valid


def _linearized_rows(Q: ComplexField, c: float, stencil) -> sp.csr_matrix:
    """The rows of ``stencil`` (see ``_stencil``) of the linearized matrix,
    as a CSR matrix over all 2m columns; exact zeros are not stored.

    The entries are -lap - (1 - |Q|^2) plus 2 a^2 (u rows) or 2 b^2 (v
    rows) on the diagonal, the 5-point -lap off it, 2ab on the diagonal
    of the coupling block and the centered transport c d2 (u rows) or
    -c d2 (v rows), with Q = a + ib."""
    rows, cols, valid = stencil
    g = Q.grid
    m = (g.nx - 2) * (g.ny - 2)
    is_v = rows >= m
    q = Q.values[1:-1, 1:-1].ravel()[rows - m * is_v]
    a, b = q.real, q.imag
    ox, oy = 1.0 / g.hx**2, 1.0 / g.hy**2
    # the operations and their order are those of the sparse sum
    # -lap - (1 - |Q|^2) + 2a^2: the stored branch fields and the printed
    # spectrum digits depend on every bit of this matrix
    base = (2.0 * ox + 2.0 * oy) - (1.0 - (a * a + b * b))
    diag = base + np.where(is_v, 2.0 * b * b, 2.0 * a * a)
    ab = 2.0 * a * b
    t = np.full_like(a, c * (1.0 / (2.0 * g.hy)))
    lx, ly = np.full_like(a, -ox), np.full_like(a, -oy)
    vals = np.where(is_v[:, None],
                    np.stack([t, ab, -t, lx, ly, diag, ly, lx], 1),
                    np.stack([lx, ly, diag, ly, lx, -t, ab, t], 1))
    keep = valid & (vals != 0.0)
    indptr = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    return sp.csr_matrix((vals[keep], cols[keep], indptr), shape=(rows.size, 2 * m))


def linearized_matrix(Q: ComplexField, c: float) -> sp.csr_matrix:
    """Real 2m x 2m matrix of the linearized operator on interior nodes.

    Unknowns are [Re phi; Im phi] flattened row-major over the interior;
    the matrix is symmetric for the plain real pairing (uniform cell
    weights) because the centered transport block is antisymmetric.
    """
    g = Q.grid
    return _linearized_rows(Q, c, _stencil(g, np.arange(2 * (g.nx - 2) * (g.ny - 2))))


def interior_to_real(values: np.ndarray) -> np.ndarray:
    """Pack the interior of a complex array into the real dof vector
    [Re; Im], row-major over the interior nodes; a 1-D array is taken as
    the interior already flattened."""
    v = values[1:-1, 1:-1].ravel() if values.ndim == 2 else values
    return np.concatenate([v.real, v.imag])


def real_to_interior(x: np.ndarray, grid: Grid) -> np.ndarray:
    """Unpack a real dof vector into a full-grid complex array (zero ring)."""
    m = (grid.nx - 2) * (grid.ny - 2)
    out = np.zeros((grid.nx, grid.ny), dtype=complex)
    out[1:-1, 1:-1] = (x[:m] + 1j * x[m:]).reshape(grid.nx - 2, grid.ny - 2)
    return out


class QuarterMaps:
    """Prolongation/restriction between full interior dofs and the
    symmetric quarter (even in x1, conjugate-even in x2), and the stencil
    slots of the representative rows, from which ``reduce`` assembles the
    quarter matrix that ``solve`` factors."""

    def __init__(self, grid: Grid):
        mx, my = grid.nx - 2, grid.ny - 2
        cx, cy = (mx - 1) // 2, (my - 1) // 2       # interior centre node
        m = mx * my
        # the ++ parity maps of ``sector_maps`` with unit entries: quarter
        # node (k1, k2) to its images (cx +- k1, cy +- k2); v = Im phi is
        # odd in x2, so its images below the x2 axis change sign
        E = sp.kron(_parity_map(mx, 1), _parity_map(my, 1), format="csr")
        E.data[:] = 1.0
        below = np.arange(m) % my < cy
        self.P = sp.block_diag([E, sp.diags(np.where(below, -1.0, 1.0)) @ E],
                               format="csr")
        mq = E.shape[1]
        k1, k2 = np.divmod(np.arange(mq), cy + 1)
        # representative full-interior dof for each quarter dof
        rep = (cx + k1) * my + cy + k2
        self.rep_rows = np.concatenate([rep, rep + m])

        # quarter v-dofs on the x2 axis are pinned to zero
        self.pinned = mq + np.flatnonzero(k2 == 0)
        self.mq = mq
        self.m = m
        keep = np.ones(2 * mq)
        keep[self.pinned] = 0.0
        self._keep = sp.diags(keep, format="csr")
        self._pin = sp.diags(1.0 - keep, format="csr")
        self._stencil = _stencil(grid, self.rep_rows)

    def reduce(self, Q: ComplexField, c: float) -> sp.csr_matrix:
        """The linearized matrix at (Q, c) restricted to the symmetric
        subspace, built from its representative rows alone; each pinned
        row becomes the identity row."""
        return self.restrict(_linearized_rows(Q, c, self._stencil))

    def restrict(self, rows: sp.csr_matrix) -> sp.csr_matrix:
        """The quarter matrix of a full matrix given by its representative
        rows (``A[rep_rows, :]``); each pinned row becomes the identity
        row."""
        Aq = self._keep @ (rows @ self.P) + self._pin
        Aq.sort_indices()
        return Aq

    def solve(self, Q: ComplexField, c: float, b: np.ndarray) -> np.ndarray:
        """P xq for the linearized system at (Q, c) and a symmetric b: xq
        solves ``reduce`` on the rows ``rep_rows`` of b, pinned dofs zeroed."""
        bq = b[self.rep_rows]
        bq[self.pinned] = 0.0
        # COLAMD: every stored branch field comes from this factor, and
        # the printed spectrum digits of the unconverged sym3 minimum
        # move with any rounding change in those fields
        # the CSR quarter matrix is freed before the factorization runs
        return self.P @ spla.splu(self.reduce(Q, c).tocsc(),
                                  permc_spec="COLAMD").solve(bq)


def _parity_map(n: int, sign: int) -> sp.csr_matrix:
    """Orthonormal n x p map onto the vectors of parity ``sign`` about the
    centre node of an axis with n (odd) nodes; column k is the pair at
    distance k (the centre node alone for k = 0 of the even map)."""
    c = (n - 1) // 2
    k = np.arange(1, c + 1)
    r = np.sqrt(0.5)
    if sign > 0:
        rows = np.concatenate([[c], c + k, c - k])
        cols = np.concatenate([[0], k, k])
        vals = np.concatenate([[1.0], np.full(2 * c, r)])
    else:
        rows = np.concatenate([c + k, c - k])
        cols = np.concatenate([k - 1, k - 1])
        vals = np.concatenate([np.full(c, r), np.full(c, -r)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, c + (sign > 0)))


def sector_maps(grid: Grid) -> dict:
    """Orthonormal real maps P_s onto the invariant sectors of the
    linearized matrix at a symmetric wave, keyed "++", "+-", "-+", "--".

    The label is (s1, s2): S1 phi = phi(-x1, x2) has eigenvalue s1 and
    S2 phi = conj phi(x1, -x2) has eigenvalue s2.  S1 gives Re phi and
    Im phi parity s1 in x1; S2 gives Re phi parity s2 and Im phi parity
    -s2 in x2.  The four maps are orthonormal for the plain real pairing
    and together span the interior dofs, so P_s^T A P_s are the diagonal
    blocks of the symmetric matrix A in that basis."""
    mx, my = grid.nx - 2, grid.ny - 2
    X = {s: _parity_map(mx, s) for s in (1, -1)}
    Y = {s: _parity_map(my, s) for s in (1, -1)}
    maps = {}
    for s1 in (1, -1):
        for s2 in (1, -1):
            label = "+-"[s1 < 0] + "+-"[s2 < 0]
            maps[label] = sp.block_diag(
                [sp.kron(X[s1], Y[s2]), sp.kron(X[s1], Y[-s2])], format="csr")
    return maps
