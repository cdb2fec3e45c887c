"""Shared fixtures.

``stored_run`` runs the CLI once per session at its defaults and seed
1234, with one BLAS thread, as a user would: ``branch``, then
``spectrum``, ``stability`` and ``uniqueness`` as three concurrent
processes that read the stored branch.  Acceptance criteria 2, 3, 5,
7 and 8 and the benchmark-reference test read that run's files and
output; ``branch_spec`` is its stored branch on the spectral-scale
boxes.  Layer tests keep their own fixtures: the radial profile,
handles assembled from the stored branch, the kernel/index handle on a
wider box; test fields, and as oracles the trapezoidal
real pairing, the plain discrete form, the analytic vortex gradient
(with the modulus slope it reads), the row-major Ritz basis build, the
Kronecker-product assembly of the linearized matrix and the index
construction of the quarter maps."""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import gpvortex
from gpvortex.config import RunConfig
from gpvortex.field_core import ComplexField
from gpvortex.linearization import build_directions, translation_direction
from gpvortex.tw_solver import continue_branch, default_grid_rule, load_branch
from gpvortex.vortex_profile import RadialProfile, solve_vortex_ode

# kernel/index operating point of ``kernel_handle``
KERNEL_SPEED = 0.05
KERNEL_BOX_FACTOR = 3.5

# the stages of ``stored_run`` that only read the stored branch
READER_STAGES = ("spectrum", "stability", "uniqueness")
# the benchmark's BLAS setting: the printed sym3 digits follow the thread count
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}
# a stage that runs longer is taken as hung; the whole run takes about
# 150 s on a 2-vCPU box
STAGE_TIMEOUT_S = 1800


def src_env() -> dict:
    """The environment with this package's source first on the path."""
    src = os.path.dirname(os.path.dirname(gpvortex.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


@dataclass
class StoredRun:
    out: Path           # the run's output directory
    stdout: dict        # stage -> what it printed


@pytest.fixture(scope="session")
def stored_run(tmp_path_factory):
    """The default ``gpvortex --seed 1234`` run of ``branch``, then of the
    three reader stages at once, in subprocesses with one BLAS thread."""
    root = tmp_path_factory.mktemp("stored_run")
    out = root / "out"
    argv = [sys.executable, "-m", "gpvortex.cli", "--out", str(out), "--seed", "1234"]
    env = {**src_env(), **ONE_BLAS_THREAD}

    def start(stage):
        with open(root / f"{stage}.stdout", "w") as so, \
                open(root / f"{stage}.stderr", "w") as se:
            return subprocess.Popen(argv + [stage], stdout=so, stderr=se, env=env)

    def finish(stage, proc):
        if proc.wait(timeout=STAGE_TIMEOUT_S) != 0:
            pytest.fail(f"stored run: {stage} exited {proc.returncode}:\n"
                        + (root / f"{stage}.stderr").read_text(), pytrace=False)
        return (root / f"{stage}.stdout").read_text()

    procs = {"branch": start("branch")}
    try:
        stdout = {"branch": finish("branch", procs["branch"])}
        procs.update((stage, start(stage)) for stage in READER_STAGES)
        for stage in READER_STAGES:
            stdout[stage] = finish(stage, procs[stage])
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return StoredRun(out, stdout)


def read_prop12_csv(path) -> list[dict]:
    """The rows of a ``prop12.csv``, every column as a float."""
    header, *rows = Path(path).read_text().splitlines()
    cols = header.split(",")
    return [dict(zip(cols, map(float, row.split(",")))) for row in rows]


@pytest.fixture(scope="session")
def profile():
    """The vortex modulus of both windings, as the CLI solves it."""
    return solve_vortex_ode()


@pytest.fixture(scope="session")
def run_cfg():
    return RunConfig()


@pytest.fixture(scope="session")
def newton_tol():
    return 1e-11


@pytest.fixture(scope="session")
def branch_spec(stored_run, run_cfg):
    """The branch ``stored_run`` stored: every main speed with its
    derivative neighbours, on the spectral-scale boxes (3/c)."""
    branch = load_branch(stored_run.out / "branch")
    assert branch.config_hash == run_cfg.config_hash
    return branch


@pytest.fixture(scope="session")
def entry01(branch_spec):
    return branch_spec.entries[branch_spec.index_of(0.1)]


@pytest.fixture(scope="session")
def dirs01(branch_spec):
    return build_directions(branch_spec, branch_spec.index_of(0.1))


@pytest.fixture(scope="session")
def handle01(branch_spec, entry01, dirs01):
    from gpvortex.spectral import assemble
    return assemble(entry01.field, entry01.c, directions=dirs01)


@pytest.fixture(scope="session")
def kernel_handle(profile, run_cfg, newton_tol):
    """Handle at the kernel/index operating point: c = 0.05 on a slightly
    larger box (the near-zero principal angles are box-limited)."""
    from gpvortex.spectral import assemble
    c0 = KERNEL_SPEED
    grid = default_grid_rule(c0, box_factor=KERNEL_BOX_FACTOR,
                             h_target=run_cfg.h_target, max_nx=1025)
    br = continue_branch([(grid, run_cfg.neighbor_triple(c0))], newton_tol, profile)
    return assemble(br.entries[1].field, c0, R=run_cfg.r_ball,
                    directions=build_directions(br, 1))


def ritz_basis_c_order(handle, norm="exp", size=160, seed=0):
    """Oracle: the Ritz basis of ``spectral.ritz_basis``, built in a
    row-major array."""
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
    Z = np.empty((n, size))
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
    return Z[:, :k]


def linearized_matrix_reference(Q: ComplexField, c: float) -> sp.csr_matrix:
    """Oracle: ``operators.linearized_matrix`` assembled from the 1-D
    stencil matrices by Kronecker products and a 2 x 2 block matrix."""
    g = Q.grid
    mx, my = g.nx - 2, g.ny - 2

    def lap_1d(n, h):
        return sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n), format="csr") / h**2

    def d_1d(n, h):
        return sp.diags([-1.0, 1.0], [-1, 1], shape=(n, n), format="csr") / (2.0 * h)

    lap = sp.kron(lap_1d(mx, g.hx), sp.identity(my, format="csr")) \
        + sp.kron(sp.identity(mx, format="csr"), lap_1d(my, g.hy))
    d2 = sp.kron(sp.identity(mx, format="csr"), d_1d(my, g.hy))

    q = Q.values[1:-1, 1:-1].ravel()
    a, b = q.real, q.imag
    w = 1.0 - (a * a + b * b)
    base = -lap - sp.diags(w)
    return sp.bmat(
        [[base + sp.diags(2.0 * a * a), c * d2 + sp.diags(2.0 * a * b)],
         [-c * d2 + sp.diags(2.0 * a * b), base + sp.diags(2.0 * b * b)]],
        format="csr")


def inner_product(f: ComplexField, g: ComplexField) -> float:
    """Real pairing of fields on one grid: trapezoidal quadrature of
    Re(f conj(g))."""
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    return float(np.sum((f.values * np.conj(g.values)).real
                        * f.grid.trapezoid_weights))


def quarter_maps_reference(grid):
    """Oracle: the prolongation P, ``rep_rows`` and ``pinned`` of
    ``operators.QuarterMaps``, built from full-grid index arrays."""
    nx, ny = grid.nx, grid.ny
    mx, my = nx - 2, ny - 2
    m = mx * my
    cx, cy = (nx - 1) // 2, (ny - 1) // 2
    # interior index arrays (offset by 1 against full-grid indices)
    I = np.arange(1, nx - 1)[:, None] * np.ones((1, my), dtype=int)
    J = np.ones((mx, 1), dtype=int) * np.arange(1, ny - 1)[None, :]
    Im = cx + np.abs(I - cx)
    Jm = cy + np.abs(J - cy)
    sgn = np.where(J >= cy, 1.0, -1.0)

    qi = np.arange(cx, nx - 1)
    qj = np.arange(cy, ny - 1)
    nqx, nqy = qi.size, qj.size
    mq = nqx * nqy
    qindex = -np.ones((nx, ny), dtype=int)
    qindex[np.ix_(qi, qj)] = np.arange(mq).reshape(nqx, nqy)

    full_q = qindex[Im, Jm].ravel()
    rows = np.arange(m)
    Pu = sp.coo_matrix((np.ones(m), (rows, full_q)), shape=(m, mq))
    Pv = sp.coo_matrix((sgn.ravel(), (rows, full_q)), shape=(m, mq))
    P = sp.bmat([[Pu, None], [None, Pv]], format="csr")

    # representative full-interior dof for each quarter dof
    rep = np.empty(mq, dtype=int)
    k = (I - 1) * my + (J - 1)
    mask = (I == Im) & (J == Jm)
    rep[qindex[I[mask], J[mask]]] = k[mask]
    # quarter v-dofs on the x2 axis are pinned to zero
    return P, np.concatenate([rep, rep + m]), mq + qindex[qi, cy]


def compact_test_field(grid, seed=0, center=(4.0, 3.0), width=3.0, collar=2):
    """Random band-limited compact field vanishing on a boundary collar."""
    X, Y = grid.mesh
    rng = np.random.default_rng(seed)
    co = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    waves = sum(cc * np.exp(1j * (k1 * X + k2 * Y))
                for cc, (k1, k2) in zip(co, [(0.4, 0.2), (0.1, 0.5), (0.3, 0.3)]))
    env = np.exp(-((X - center[0]) ** 2 + (Y - center[1]) ** 2) / (2 * width**2))
    v = waves * env
    v[:collar, :] = v[-collar:, :] = 0.0
    v[:, :collar] = v[:, -collar:] = 0.0
    return ComplexField(grid, v)


def edge_gradient_energy(phi):
    """Scale of the gradient part of the form: hx hy sum over stencil
    edges of |D phi|^2."""
    g = phi.grid
    v = phi.values
    return float((np.sum(np.abs(np.diff(v, axis=0)) ** 2) / g.hx**2
                  + np.sum(np.abs(np.diff(v, axis=1)) ** 2) / g.hy**2)
                 * g.hx * g.hy)


def quadratic_form_naive(phi: ComplexField, Q: ComplexField, c: float) -> float:
    """Plain discrete form |grad phi|^2 - (1-|Q|^2)|phi|^2
    + 2 Re^2(conj(Q) phi) - Re(ic d2 phi conj(phi)); the gradient energy
    is the stencil-edge sum so that the value matches <L phi, phi> exactly
    on fields vanishing at the boundary."""
    g = phi.grid
    w = g.hx * g.hy
    pv, qv = phi.values, Q.values
    gsum = (np.sum(np.abs(np.diff(pv, axis=0)) ** 2) / g.hx**2
            + np.sum(np.abs(np.diff(pv, axis=1)) ** 2) / g.hy**2)
    q2 = qv.real**2 + qv.imag**2
    pot = np.sum(-(1.0 - q2) * np.abs(pv) ** 2
                 + 2.0 * (np.conj(qv) * pv).real ** 2)
    d2phi = np.gradient(pv, g.hy, axis=1, edge_order=2)
    tr = -c * np.sum((1j * d2phi * np.conj(pv)).real)
    return float((gsum + pot + tr) * w)


def momentum_p1(Q: ComplexField) -> float:
    """P1 = 1/2 <i d1 Q, Q - 1>, with d1 Q from ``translation_direction``; it
    vanishes on the symmetric waves, so ``momentum`` computes P2 alone."""
    g = Q.grid
    dv = translation_direction(Q, 0).values
    return 0.5 * float(np.sum((1j * dv * (np.conj(Q.values) - 1.0)).real)
                       * g.hx * g.hy)


def far_field_modulus_slope(r):
    r = np.asarray(r, dtype=float)
    return 1.0 / (r * r * r)


def modulus_slope(profile: RadialProfile, r):
    """rho'(r) for r >= 0: the derivative of the profile's interpolant,
    and of the far-field law beyond r_max."""
    r = np.asarray(r, dtype=float)
    out = np.empty_like(r)
    inside = r <= profile.r_max
    out[inside] = profile._interp.derivative()(np.clip(r[inside], 0.0, profile.r_max))
    out[~inside] = far_field_modulus_slope(r[~inside])
    return out


def vortex_gradient(profile: RadialProfile, n: int, x, y, center=(0.0, 0.0)):
    """(d/dx1 V_n, d/dx2 V_n) for winding n = +-1 by the chain rule from the
    tabulated rho, rho'."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = x - center[0]
    dy = y - center[1]
    r = np.hypot(dx, dy)
    shape = np.broadcast(dx, dy).shape
    gx = np.empty(shape, dtype=complex)
    gy = np.empty(shape, dtype=complex)
    nz = r > 1e-12
    rs, dxs, dys = r[nz], np.broadcast_to(dx, shape)[nz], np.broadcast_to(dy, shape)[nz]
    ct, st = dxs / rs, dys / rs
    rho = profile.modulus(rs)
    drho = modulus_slope(profile, rs)
    ph = (ct + 1j * st) if n == 1 else (ct - 1j * st)
    gx[nz] = (drho * ct - 1j * n * rho * st / rs) * ph
    gy[nz] = (drho * st + 1j * n * rho * ct / rs) * ph
    # limit at the center: V_1 ~ kappa (x1 + i x2), V_-1 its conjugate
    gx[~nz] = profile.kappa
    gy[~nz] = 1j * n * profile.kappa
    return gx, gy
