"""Real-symmetric assembly of the linearized operator with the norm Gram
matrices and localized orthogonality constraints; constrained coercivity
constants, kernel and negative-index counts, and the linearized time
evolution.

The operator is assembled in the real 2m formulation (the 2 Re(conj(Q)
phi) Q term is only real-linear); symmetry holds for the plain real
pairing with uniform cell weights.  The handle keeps one matrix of it,
the form matrix A = weight L: the eigenvalues of L are those of A
divided by ``weight``, and the evolution builds its matrices from
A / weight.  Constrained minimal Rayleigh quotients are computed by
dense Rayleigh-Ritz projection onto a shared shift-inverted Krylov
subspace: all constraint sets of one norm are reduced in the same
basis, so the monotonicity of the minima under constraint nesting is
exact linear algebra per run.

The kernel/negative-index eigensolve runs per symmetry sector: Q is even
in x1 and conjugate-even in x2, so the operator is block diagonal in the
four sectors of ``operators.sector_maps``.  The Ritz bases are on the
full space.

The linearized evolution takes its propagator as a value:
``midpoint_step`` factors the implicit-midpoint matrix once, and
``evolve_linearized`` advances an n x k block of initial data with it,
one block solve per step, so every run at one step size shares one
factorization and the handle holds none.

A Ritz basis is a value: ``ritz_basis`` returns it, and the caller
hands it to ``constrained_coercivity`` for each constraint set of its
norm.  It is stored column-major, so each Gram-Schmidt pass and the x1
mirror of ``sym3`` stream contiguous columns.  ``sym3_basis`` consumes a
plain exp-norm basis: the mirror, the QR and the dropping of
rank-deficient columns all work in its buffer, so no second n x size
array is allocated, and the plain basis is emptied.  The projections
Z^T A Z and Z^T G Z are formed in panels of ``_PANEL`` columns: a sparse
matrix times a column-major block ravels the block into a row-major
copy, which for the whole basis would be one more n x size array.

Every factorization picks its fill-reducing ordering at the call:

- minimum degree on A^T + A (``MMD_AT_PLUS_A``, about half the fill of
  COLAMD on these symmetric matrices) for the sector blocks and the
  C-norm pencil, whose rounding no printed reference digit depends on;
- COLAMD for the exp-norm pencil: the ``sym3`` minimum is not converged
  at the default basis size and mirrors that basis, so a rounding change
  there moves its printed digits (minimum degree moved 1.152e-01 to
  8.520e-02 at c = 0.05, seed 1234);
- COLAMD for the implicit-midpoint matrix of ``midpoint_step``: on
  that unsymmetric matrix at c = 0.05, minimum degree ran out of a 4 GB
  memory limit at column 47,872 of 178,802, and COLAMD factors it in
  about 4.5 s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .field_core import (
    MODULUS_FLOOR,
    ComplexField,
    Grid,
    mult_ratio,
    resolution_floor,
)
from .linearization import DirectionSet, _grad4
from .operators import (
    _transport_laplacian,
    interior_to_real,
    linearized_matrix,
    sector_maps,
)
from .tw_solver import locate_zeros

# set name -> (norm of its minimum, constraint rows)
CONSTRAINT_SETS = {
    "none": ("C", ()),
    "three": ("C", ("tx1", "tx2", "tc")),
    "four": ("C", ("tx1", "tx2", "tc", "trot")),
    "phase4": ("exp", ("tx1", "tx2", "tc", "phase0")),
    "sym3": ("exp", ("sym_c", "sym_x2", "sym_phase")),
    "idx2": ("exp", ("idx2",)),
}

_PANEL = 16                     # basis columns per projection product


@dataclass
class OperatorHandle:
    """Assembled form matrix, Gram matrices, constraint vectors and the
    direction fields, all over the interior real dofs.  The operator
    matrix is ``A / weight``."""

    A: sp.csr_matrix            # form matrix, weight * operator (symmetric)
    G_C: sp.csr_matrix
    G_exp: sp.csr_matrix
    constraints: dict
    directions: dict            # name -> real dof vector
    grid: Grid
    c: float
    weight: float


@dataclass
class RitzBasis:
    """A Ritz basis of the pencil (A, G_norm), with the projections
    Z^T A Z and Z^T G Z, computed by the first constraint set that uses
    it.  A mirrored basis (``sym3_basis``) serves only ``sym3``."""

    norm: str                   # "C" or "exp"
    Z: np.ndarray | None        # None once ``sym3_basis`` consumed it
    account: dict               # integer sizes: columns, LU fill, sym3 columns
    mirrored: bool = False
    Ah: np.ndarray | None = None
    Gh: np.ndarray | None = None


def _real_rep(M: sp.spmatrix) -> sp.csr_matrix:
    """Real 2x2 block representation of a complex-linear sparse operator."""
    re, im = M.real, M.imag
    return sp.bmat([[re, -im], [im, re]], format="csr")


def _complex_to_real_vec(v: np.ndarray) -> np.ndarray:
    return np.concatenate([v.real, v.imag])


def _interior_diag(values: np.ndarray) -> np.ndarray:
    return values[1:-1, 1:-1].ravel()


def _edge_ops(Qi: np.ndarray, grid: Grid, psi_mult: np.ndarray):
    """Complex sparse operators mapping interior phi to the hatted
    gradient of psi = psi_mult * phi on interior-interior edges."""
    mx, my = grid.nx - 2, grid.ny - 2
    ops = []
    for axis, h in ((0, grid.hx), (1, grid.hy)):
        if axis == 0:
            ne = (mx - 1) * my
            rows = np.arange(ne)
            west = (np.arange(mx - 1)[:, None] * my
                    + np.arange(my)[None, :]).ravel()
            east = west + my
        else:
            ne = mx * (my - 1)
            rows = np.arange(ne)
            west = (np.arange(mx)[:, None] * my
                    + np.arange(my - 1)[None, :]).ravel()
            east = west + 1
        q = Qi.ravel()
        pm = psi_mult.ravel()
        dQ = (q[east] - q[west]) / h
        inv_qe = np.zeros_like(q[east])
        ok = np.abs(q[east]) > MODULUS_FLOOR
        inv_qe[ok] = 1.0 / q[east][ok]
        # hat = (D phi - D Q psi_w)/Q_e with psi = pm * phi
        data_e = inv_qe / h
        data_w = -inv_qe / h - inv_qe * dQ * pm[west]
        op = sp.coo_matrix(
            (np.concatenate([data_e, data_w]),
             (np.concatenate([rows, rows]), np.concatenate([east, west]))),
            shape=(ne, mx * my)).tocsr()
        ops.append((op, np.abs(q[east]) ** 2))
    return ops


def _gram_C(Q: ComplexField, pm: np.ndarray) -> sp.csr_matrix:
    """Gram matrix of the coercivity seminorm |grad psi|^2 |Q|^4
    + Re^2(psi) |Q|^4 on interior dofs, with psi = ``pm`` phi."""
    g = Q.grid
    w = g.hx * g.hy
    Qi = Q.values[1:-1, 1:-1]
    G = None
    for op, q2e in _edge_ops(Qi, g, pm):
        R = _real_rep(op)
        W = sp.diags(np.tile(q2e**2 * w, 2))
        term = (R.T @ W @ R).tocsr()
        G = term if G is None else G + term
    # Re^2(conj(Q) phi) = Re^2(psi) |Q|^4 exactly
    a = _interior_diag(Q.values.real)
    b = _interior_diag(Q.values.imag)
    M = sp.hstack([sp.diags(a), sp.diags(b)], format="csr")
    G = G + (M.T @ sp.diags(np.full(a.size, w)) @ M)
    return G.tocsr()


def _edge_mask(mask: np.ndarray, mx: int, my: int, axis: int) -> np.ndarray:
    blk = mask.reshape(mx, my)
    if axis == 0:
        return (blk[:-1, :] & blk[1:, :]).ravel()
    return (blk[:, :-1] & blk[:, 1:]).ravel()


def _gram_exp(Q: ComplexField, zeros, pm: np.ndarray) -> sp.csr_matrix:
    """Gram matrix of the expanded energy norm: H1 within distance 10 of
    a zero plus |grad psi|^2 + Re^2(psi) + |psi|^2/(r ln r)^2 outside
    distance 5, with psi = ``pm`` phi (positive definite)."""
    g = Q.grid
    w = g.hx * g.hy
    mx, my = g.nx - 2, g.ny - 2
    X, Y = np.meshgrid(g.x[1:-1], g.y[1:-1], indexing="ij")
    rt = np.minimum(np.hypot(X - zeros[0][0], Y - zeros[0][1]),
                    np.hypot(X - zeros[1][0], Y - zeros[1][1])).ravel()
    near = rt <= 10.0
    far = rt >= 5.0

    Qi = Q.values[1:-1, 1:-1]

    # H1 block on the near region
    G = sp.diags(np.tile(np.where(near, w, 0.0), 2)).tocsr()
    for axis in (0, 1):
        D = _difference_op(g, axis)
        Wd = sp.diags(np.where(_edge_mask(near, mx, my, axis), w, 0.0))
        G = G + sp.block_diag([D.T @ Wd @ D, D.T @ Wd @ D]).tocsr()

    # far multiplicative gradient block
    for axis, (op, _q2e) in zip((0, 1), _edge_ops(Qi, g, pm)):
        R = _real_rep(op)
        W = sp.diags(np.tile(np.where(_edge_mask(far, mx, my, axis), w, 0.0), 2))
        G = G + (R.T @ W @ R).tocsr()

    # pointwise psi terms: Re^2(psi) and the logarithmic weight
    pmr = _real_rep(sp.diags(pm.ravel()))
    rsafe = np.maximum(rt, 5.0)
    wpsi = np.where(far, w / (rsafe**2 * np.log(rsafe) ** 2), 0.0)
    wre = np.where(far, w, 0.0)
    Wmat = sp.diags(np.concatenate([wre + wpsi, wpsi]))
    G = G + (pmr.T @ Wmat @ pmr).tocsr()
    return G.tocsr()


def _difference_op(grid: Grid, axis: int) -> sp.csr_matrix:
    mx, my = grid.nx - 2, grid.ny - 2
    if axis == 0:
        d = sp.diags([-1.0, 1.0], [0, 1], shape=(mx - 1, mx)) / grid.hx
        return sp.kron(d, sp.identity(my), format="csr")
    d = sp.diags([-1.0, 1.0], [0, 1], shape=(my - 1, my)) / grid.hy
    return sp.kron(sp.identity(mx), d, format="csr")


# ----------------------------------------------------------------------
# constraints

def _ball_harmonic_chain(Q: ComplexField, center, R: float):
    """Real sparse operator taking an interior node field to its angular
    0-harmonic (as a radial interpolant, the mean over 256 angles) on the
    nodes of B(center, R)."""
    g = Q.grid
    mx, my = g.nx - 2, g.ny - 2
    m = mx * my
    xi, yi = g.x[1:-1], g.y[1:-1]
    X, Y = np.meshgrid(xi, yi, indexing="ij")
    rr = np.hypot(X - center[0], Y - center[1]).ravel()
    ball = rr <= R
    dr = 0.5 * min(g.hx, g.hy)
    radii = np.arange(0.0, R + 2 * dr, dr)

    # sampling matrix: circles -> bilinear weights on interior nodes
    rows, cols, vals = [], [], []
    n_theta = 256
    thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta
    ct, st = np.cos(thetas), np.sin(thetas)
    for k, r in enumerate(radii):
        xs = center[0] + r * ct
        ys = center[1] + r * st
        fx = (xs - xi[0]) / g.hx
        fy = (ys - yi[0]) / g.hy
        if np.any(fx < 0) or np.any(fx > mx - 1) or np.any(fy < 0) or np.any(fy > my - 1):
            raise ValueError("orthogonality ball leaves the interior grid")
        ix = np.clip(np.floor(fx).astype(int), 0, mx - 2)
        iy = np.clip(np.floor(fy).astype(int), 0, my - 2)
        tx = fx - ix
        ty = fy - iy
        base = k * n_theta + np.arange(n_theta)
        for ddx, ddy, ww in ((0, 0, (1 - tx) * (1 - ty)), (1, 0, tx * (1 - ty)),
                             (0, 1, (1 - tx) * ty), (1, 1, tx * ty)):
            rows.append(base)
            cols.append((ix + ddx) * my + (iy + ddy))
            vals.append(ww)
    S = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(radii.size * n_theta, m)).tocsr()
    avg = sp.kron(sp.identity(radii.size), np.full((1, n_theta), 1.0 / n_theta),
                  format="csr")
    # radial linear interpolation onto the ball nodes
    rb = rr[ball]
    idx = np.clip(np.searchsorted(radii, rb) - 1, 0, radii.size - 2)
    t = (rb - radii[idx]) / dr
    nodes = np.where(ball)[0]
    T = sp.coo_matrix(
        (np.concatenate([1.0 - t, t]),
         (np.concatenate([nodes, nodes]),
          np.concatenate([idx, idx + 1]))), shape=(m, radii.size)).tocsr()
    return (T @ avg @ S).tocsr(), ball


def _constraint_vector_nonzero_harmonic(Q: ComplexField, A_field: np.ndarray,
                                        chains, pm: np.ndarray) -> np.ndarray:
    """Real dof vector of phi -> Re int_balls A conj(Q psi^{neq 0}).

    Uses the adjoint of the chain phi -> psi = ``pm`` phi -> (psi minus
    its angular 0-harmonic about the ball's center)."""
    g = Q.grid
    w = g.hx * g.hy
    Qi = _interior_diag(Q.values)
    Ai = _interior_diag(A_field)
    v = np.zeros(Qi.size, dtype=complex)
    for (M, ball) in chains:
        b = np.where(ball, w * Ai * np.conj(Qi), 0.0)
        v += b - (M.T @ b)
    v = np.conj(pm.ravel()) * v       # adjoint of psi = pm * phi
    return _complex_to_real_vec(v)


def _constraint_vector_direct(Q: ComplexField, B_field: np.ndarray,
                              mask: np.ndarray) -> np.ndarray:
    g = Q.grid
    w = g.hx * g.hy
    v = np.where(mask, w * _interior_diag(B_field), 0.0)
    return _complex_to_real_vec(v.astype(complex))


def assemble(Q: ComplexField, c: float, directions: DirectionSet,
             R: float = 10.0) -> OperatorHandle:
    """Assemble the operator matrix, Gram matrices, and the orthogonality
    constraint vectors at a converged wave: the localized ones on the
    balls of radius ``R`` and the whole-box row i d2 Q of the corollary.

    ``directions`` must be those of Q (``build_directions``): its dc (the
    centered difference over the neighbouring branch entries) and drot
    enter the constraints."""
    grid = Q.grid
    if R <= 5.0:
        raise ValueError("orthogonality ball radius must exceed 5")
    zeros = locate_zeros(Q)
    w = grid.hx * grid.hy
    A = (linearized_matrix(Q, c) * w).tocsr()
    asym = abs(A - A.T).max()
    if asym > 1e-12 * max(1.0, abs(A).max()):
        raise RuntimeError(f"assembled operator not symmetric: defect {asym}")
    # psi = pm phi in both norms and in the localized constraints
    pm = mult_ratio(1.0, Q.values[1:-1, 1:-1], resolution_floor(grid))[0]
    G_C = _gram_C(Q, pm)
    G_exp = _gram_exp(Q, zeros, pm)

    # 4th-order translation directions: the constant-coefficient stencil
    # blocks of the operator commute with any centered difference, so the
    # only kernel defect left is the product-rule error of the cubic term
    # (h^4) -- an order better than the operator itself, which is what the
    # kernel-angle and floor diagnostics need.
    gx = ComplexField(grid, _grad4(Q.values, grid.hx, 0))
    gy = ComplexField(grid, _grad4(Q.values, grid.hy, 1))
    drot = directions.drot.values
    dc_vals = directions.dc.values

    chains = [_ball_harmonic_chain(Q, z, R) for z in zeros]
    ball_mask = chains[0][1] | chains[1][1]
    iQ = 1j * Q.values

    constraints = {
        "tx1": _constraint_vector_nonzero_harmonic(Q, gx.values, chains, pm),
        "tx2": _constraint_vector_nonzero_harmonic(Q, gy.values, chains, pm),
        "tc": _constraint_vector_nonzero_harmonic(Q, dc_vals, chains, pm),
        "trot": _constraint_vector_nonzero_harmonic(Q, drot, chains, pm),
        "sym_c": _constraint_vector_direct(Q, dc_vals, ball_mask),
        "sym_x2": _constraint_vector_direct(Q, gy.values, ball_mask),
        "sym_phase": _constraint_vector_direct(Q, iQ, ball_mask),
        # the corollary's plain real pairing with i d2 Q over the interior
        "idx2": interior_to_real(1j * gy.values),
    }
    # phase condition on the central ball
    X, Y = np.meshgrid(grid.x[1:-1], grid.y[1:-1], indexing="ij")
    ball0 = (np.hypot(X, Y) <= R).ravel()
    v0 = np.conj(pm.ravel()) * np.where(ball0, -1j * w, 0.0)
    constraints["phase0"] = _complex_to_real_vec(v0)

    dirs = {
        "dx1": interior_to_real(gx.values),
        "dx2": interior_to_real(gy.values),
        "dc": interior_to_real(dc_vals),
        "drot": interior_to_real(drot),
        "iQ": interior_to_real(iQ),
    }
    return OperatorHandle(A=A, G_C=G_C, G_exp=G_exp,
                          constraints=constraints, directions=dirs,
                          grid=grid, c=c, weight=w)


# ----------------------------------------------------------------------
# constrained coercivity by shared-subspace Rayleigh-Ritz

def ritz_basis(handle: OperatorHandle, norm: str = "C", size: int = 160,
               seed: int = 0) -> RitzBasis:
    """Shift-inverted subspace-iteration basis for the pencil
    (A, G_norm), seeded with the direction fields, shared by every
    constraint set of that norm.

    The factorization of the pencil is freed on return, so the caller
    decides how long the basis lives and which bases coexist.  Building
    it again gives the same bits.  The shift is
    sigma = -max(3 |R(dc)|, 1e-4), set from the Rayleigh quotient R of the
    speed derivative dc in the pencil alone, not from the pencil's lowest
    eigenvalue.

    The C-norm pencil is factored with a minimum-degree ordering.  The
    exp-norm pencil keeps COLAMD: the unconverged ``sym3`` minimum is
    computed in the mirrored exp-norm basis, and its printed digits move
    with the rounding of this factor."""
    G = handle.G_C if norm == "C" else handle.G_exp
    dc = handle.directions["dc"]
    ray_dc = float(dc @ (handle.A @ dc)) / float(dc @ (G @ dc))
    sigma = -max(3.0 * abs(ray_dc), 1e-4)
    order = "MMD_AT_PLUS_A" if norm == "C" else "COLAMD"
    lu = spla.splu((handle.A - sigma * G).tocsc(), permc_spec=order)
    rng = np.random.default_rng(seed)
    n = handle.A.shape[0]
    seeds = [handle.directions[k] for k in ("dx1", "dx2", "dc", "drot", "iQ")]
    seeds.append(rng.standard_normal(n))
    block, _ = np.linalg.qr(np.column_stack(
        [s / np.linalg.norm(s) for s in seeds]))
    Z = np.empty((n, size), order="F")
    k = min(block.shape[1], size)
    Z[:, :k] = block[:, :k]
    while k < size:
        W = lu.solve(np.asarray(G @ block))
        for _ in range(2):
            W -= Z[:, :k] @ (Z[:, :k].T @ W)
        block, rdiag = np.linalg.qr(W)
        keep = np.abs(np.diag(rdiag)) > 1e-12 * max(1.0, abs(rdiag[0, 0]))
        if not np.any(keep):
            break
        block = block[:, keep]
        j = min(block.shape[1], size - k)
        Z[:, k:k + j] = block[:, :j]
        k += j
    if k < size:
        Z = Z[:, :k].copy(order="F")
    return RitzBasis(norm, Z, {"columns": k, "lu_fill": int(lu.nnz)})


def _mirror_x1_in_place(Z: np.ndarray, grid: Grid) -> None:
    """Replace each column phi of the column-major Z by its x1-even part
    (phi(x) + phi(-x1, x2))/2."""
    mx, my = grid.nx - 2, grid.ny - 2
    for j in range(Z.shape[1]):
        phi = Z[:, j].reshape(2, mx, my)
        phi += phi[:, ::-1].copy()
        phi *= 0.5


def _compact_columns(Z: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``Z[:, keep]`` for increasing indices ``keep``, moved to the leading
    columns of Z in place; returns that view of Z."""
    for t, j in enumerate(keep):
        if t != j:
            Z[:, t] = Z[:, j]
    return Z[:, :keep.size]


def sym3_basis(handle: OperatorHandle, basis: RitzBasis) -> RitzBasis:
    """Orthonormal basis of the x1-even parts of the plain Ritz basis
    ``basis``, for the ``sym3`` set.

    It consumes ``basis``: the mirror, the QR and the column selection
    overwrite its buffer, which the returned basis keeps, and ``basis``
    is emptied, so no set can run on it afterwards."""
    Z, basis.Z, basis.Ah, basis.Gh = basis.Z, None, None, None
    _mirror_x1_in_place(Z, handle.grid)
    q, r = sla.qr(Z, mode="economic", overwrite_a=True, check_finite=False)
    del Z
    keep = np.flatnonzero(np.abs(np.diag(r)) > 1e-10)
    return RitzBasis(basis.norm, _compact_columns(q, keep),
                     {**basis.account, "sym3_columns": keep.size}, mirrored=True)


def _project(Z: np.ndarray, M: sp.csr_matrix) -> np.ndarray:
    """Z^T M Z, one panel of columns of M Z at a time."""
    out = np.empty((Z.shape[1], Z.shape[1]))
    for j in range(0, Z.shape[1], _PANEL):
        out[:, j:j + _PANEL] = Z.T @ (M @ Z[:, j:j + _PANEL])
    return out


def constrained_coercivity(handle: OperatorHandle, basis: RitzBasis,
                           constraint_set: str, return_info: bool = False):
    """Minimal generalized Rayleigh quotient of the form against the norm
    of ``basis`` over the subspace cut out by the constraint set, in that
    basis: a plain one from ``ritz_basis``, or for ``"sym3"`` the mirrored
    one from ``sym3_basis``, which consumes the plain exp-norm basis, so
    the other exp-norm sets run first.

    All constraint sets of one norm share the basis and its projections,
    so nested sets give exactly monotone minima.  Each set runs only on a
    basis of its norm (``CONSTRAINT_SETS``), ``"sym3"`` only on a mirrored
    basis and every other set only on a plain one; a mismatch, or a
    consumed basis, is a ``ValueError``.  Convergence is checked against
    the half-size basis, whose projections are the leading blocks of the
    full ones."""
    set_norm, names = CONSTRAINT_SETS[constraint_set]
    if basis.Z is None:
        raise ValueError("the Ritz basis was consumed by sym3_basis")
    if basis.mirrored != (constraint_set == "sym3"):
        raise ValueError(f"constraint set {constraint_set!r} does not run on a "
                         f"{'mirrored' if basis.mirrored else 'plain'} Ritz basis")
    if basis.norm != set_norm:
        raise ValueError(f"constraint set {constraint_set!r} does not run on a "
                         f"{basis.norm}-norm Ritz basis")
    norm, Z = basis.norm, basis.Z
    if basis.Ah is None:
        G = handle.G_C if norm == "C" else handle.G_exp
        basis.Ah, basis.Gh = _project(Z, handle.A), _project(Z, G)
    # the C seminorm vanishes on the (interior) phase direction; quotient
    # it out of every C-norm minimization so the reduced Gram stays
    # definite.  The same extra row in every set keeps the nesting exact.
    quotient_rows = []
    if norm == "C":
        iq = handle.directions["iQ"]
        quotient_rows.append(iq / np.linalg.norm(iq))

    def min_ritz(k):
        Zb = Z[:, :k]
        rows = [handle.constraints[nm] @ Zb for nm in names]
        rows += [q @ Zb for q in quotient_rows]
        if rows:
            _, s, Vt = np.linalg.svd(np.vstack(rows))
            rank = int(np.sum(s > 1e-12 * max(s[0], 1e-300)))
            N = Vt[rank:].T
        else:
            N = np.identity(k)
        Ar = N.T @ basis.Ah[:k, :k] @ N
        Gr = N.T @ basis.Gh[:k, :k] @ N
        # guard against a rank-deficient reduced Gram
        jitter = 1e-13 * np.trace(Gr) / Gr.shape[0]
        vals, vecs = sla.eigh(Ar, Gr + jitter * np.identity(Gr.shape[0]))
        return float(vals[0]), N @ vecs[:, 0]

    val, yred = min_ritz(Z.shape[1])
    val_half, _ = min_ritz(max(8, Z.shape[1] // 2))
    # Ritz values are upper bounds, so half vs full is a one-sided Cauchy
    # check.  A negative value certifies a negative minimum regardless of
    # convergence; positive constrained minima must have stabilized.
    converged = abs(val - val_half) <= 0.05 * max(abs(val), 1e-12)
    info = {
        "value_half_basis": val_half,
        "converged": converged,
        "vector": Z @ yred,
    }
    if val > 0.0 and abs(val - val_half) > 0.25 * val:
        raise RuntimeError(
            f"coercivity eigensolve not converged: {val} vs {val_half} "
            f"at half basis")
    return (val, info) if return_info else val


def _sector_eigs(B: sp.csc_matrix, k: int):
    """The k eigenpairs of the sector block B nearest 0: B is factored
    with a minimum-degree ordering and handed to a shift-invert ``eigsh``
    as its inverse."""
    ns = B.shape[0]
    lu = spla.splu(B, permc_spec="MMD_AT_PLUS_A")
    inv = spla.LinearOperator(B.shape, matvec=lu.solve, dtype=float)
    return spla.eigsh(B, k=k, sigma=0.0, which="LM",
                      v0=np.full(ns, 1.0 / np.sqrt(ns)), OPinv=inv)


def kernel_and_negative(handle: OperatorHandle, tol_zero: float | None = None,
                        k: int = 12) -> dict:
    """Lowest eigenvalues of the operator against the plain mass matrix;
    counts below -tol_zero and the principal angles of the near-zero
    cluster to the discrete translation span.

    The eigenproblem is solved per symmetry sector on the blocks
    B_s = P_s^T A P_s (``operators.sector_maps``) of the form matrix,
    whose eigenvalues divided by ``weight`` are the operator's.  Each
    sector gives its k eigenvalues nearest 0 (all but one where it has no
    more than k rows), and the k of the union nearest 0 are kept, which
    is the set a shift-invert solve on the full matrix returns.  A field
    that breaks the symmetry couples the sectors and is refused with
    ``RuntimeError``.  The report is a dict of JSON values: the kept
    eigenvalues and their counts, in total and per sector."""
    A = handle.A
    bound = 1e-12 * abs(A).max()
    maps = sector_maps(handle.grid)
    blocks = {}
    for label, P in maps.items():
        AP = (A @ P).tocsr()
        B = (P.T @ AP).tocsc()
        defect = abs(AP - P @ B).max()
        if defect > bound:
            raise RuntimeError(f"operator couples symmetry sector {label} to "
                               f"the others: defect {defect:.3e}")
        blocks[label] = B
    # (eigenvalue, sector label, sector vector), sectors in map order
    found = []
    for label, B in blocks.items():
        vals, vecs = _sector_eigs(B, min(k, B.shape[0] - 1))
        found += [(v, label, vecs[:, j]) for j, v in enumerate(vals)]
    found.sort(key=lambda t: abs(t[0]))
    kept = sorted(found[:k], key=lambda t: t[0])
    vals = np.array([t[0] for t in kept]) / handle.weight
    labels = np.array([t[1] for t in kept])
    vecs = np.column_stack([maps[t[1]] @ t[2] for t in kept])

    if tol_zero is None:
        # the lowest (on a passing spectrum, negative) eigenvalue sets the
        # scale separating the kernel cluster; thresholds built from the
        # B(dx1) floors drift across (c, h) and misclassify at small speeds
        tol_zero = abs(vals[0]) / 3.0
    negative = vals < -tol_zero
    near = np.abs(vals) <= tol_zero
    sectors = {
        label: {"eigenvalues": [float(v) for v in vals[labels == label]],
                "negative_count": int(np.sum(negative[labels == label])),
                "near_zero_count": int(np.sum(near[labels == label]))}
        for label in maps}

    span = np.column_stack([handle.directions["dx1"], handle.directions["dx2"]])
    angles = []
    if np.any(near):
        angles = list(sla.subspace_angles(vecs[:, near], span))

    dc = handle.directions["dc"]
    overlap = 0.0
    if np.any(negative):
        vneg = vecs[:, int(np.argmin(vals))]
        overlap = abs(float(vneg @ dc)) / (np.linalg.norm(vneg) * np.linalg.norm(dc))
    return {
        "c": handle.c,
        "eigenvalues": [float(v) for v in vals],
        "tol_zero": float(tol_zero),
        "negative_count": int(np.sum(negative)),
        "near_zero_count": int(np.sum(near)),
        "kernel_angles": [float(a) for a in angles],
        "negative_overlap_dc": float(overlap),
        "sectors": sectors,
    }


@dataclass
class MidpointStep:
    """The implicit-midpoint step of du/dt = J L u at step ``dt``:
    u -> M^{-1} (2I - M) u = 2 M^{-1} u - u with M = I - (dt/2) J L."""

    lu: spla.SuperLU            # factors of M
    dt: float


def midpoint_step(handle: OperatorHandle, dt: float) -> MidpointStep:
    """The step at ``dt``, with L = A / weight and J = [[0, I], [-I, 0]]; M
    is factored here, with COLAMD (see the module docstring)."""
    m = handle.A.shape[0] // 2
    M = sp.identity(2 * m, format="csc") - (0.5 * dt / handle.weight) * sp.vstack(
        [handle.A[m:], -handle.A[:m]], format="csc")           # J A, rows swapped
    return MidpointStep(spla.splu(M, permc_spec="COLAMD"), float(dt))


def random_data(grid: Grid, seed: int, count: int) -> np.ndarray:
    """n x ``count`` block of smooth localized random initial data: per
    column, Re and then Im phi are standard-normal draws on the interior
    nodes from ``default_rng(seed)``, Gaussian-filtered (width 2 nodes)
    and multiplied by exp(-|x|^2 / (0.35 lx)^2)."""
    from scipy.ndimage import gaussian_filter

    mx, my = grid.nx - 2, grid.ny - 2
    X, Y = np.meshgrid(grid.x[1:-1], grid.y[1:-1], indexing="ij")
    env = np.exp(-(X**2 + Y**2) / (0.35 * grid.lx) ** 2)
    rng = np.random.default_rng(seed)
    U = np.empty((2 * mx * my, count))
    for j in range(count):
        U[:, j] = np.concatenate([
            (gaussian_filter(rng.standard_normal((mx, my)), 2.0) * env).ravel()
            for _ in range(2)])
    return U


def evolve_linearized(handle: OperatorHandle, step: MidpointStep,
                      U0: np.ndarray, T: float) -> dict:
    """Implicit-midpoint integration of i du/dt = L u in the real
    formulation, to time ``T`` on the factored ``step`` (``midpoint_step``),
    for every column of the n x k block ``U0`` at once (a vector is one
    column): each step is one block solve.  Returns the step times and,
    per column, the fitted exponential rate of the gradient energy, the
    drift of the conserved form u^T A u and the largest relative change
    of the gradient energy."""
    g = handle.grid
    m = handle.A.shape[0] // 2
    X = np.asarray(U0, dtype=float).reshape(2 * m, -1)
    phi = np.zeros((X.shape[1], g.nx, g.ny), dtype=complex)   # zero boundary ring
    inner = phi[:, 1:-1, 1:-1]
    steps = int(round(T / step.dt))
    times = np.arange(steps + 1) * step.dt
    energies = np.empty((steps + 1, X.shape[1]))
    forms = np.empty_like(energies)
    for j in range(steps + 1):
        if j:
            X = 2.0 * step.lu.solve(X) - X
        # <-lap phi, phi> with phi = u + iv, on the residual's stencil
        inner[...] = (X[:m] + 1j * X[m:]).T.reshape(inner.shape)
        energies[j] = np.sum((inner.conj() * _transport_laplacian(phi, g, 0.0)).real,
                             axis=(1, 2)) * handle.weight
        forms[j] = np.einsum("ij,ij->j", X, handle.A @ X)
    return {
        "times": times,
        "fitted_rate": np.polyfit(times, np.log(np.maximum(energies, 1e-300)), 1)[0],
        "form_drift": np.max(np.abs(forms - forms[0]), axis=0)
                      / np.maximum(np.abs(forms[0]), 1e-12 * energies[0]),
        "relative_energy_change": np.max(np.abs(energies - energies[0]), axis=0)
                                  / energies[0],
    }
