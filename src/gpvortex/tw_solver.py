"""Newton solver for the travelling-wave equation with symmetry
reduction, branch continuation in the speed, zero location, branch
persistence, and the perturb-and-resolve local-uniqueness experiment.

The branch is solved in runs of consecutive speeds on one grid, each
from the ansatz at its first speed, finest grid first.  The branch
Newton assembles, at each step, only the rows of the linearized matrix
that its symmetric quarter keeps (``QuarterMaps.reduce``).  The
uniqueness re-solves run without symmetry on the full grid by the chord
method: all of them iterate with one factorization of the linearized
operator L_Q at the unperturbed wave, invertible by the paper's
non-degeneracy of L_Q.  Each re-solve converges back to (a translate of)
that wave, where the frozen Jacobian is the true one up to the size of
the translate, so a chord step gains as much as a Newton step.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import groupby

import numpy as np
import scipy.sparse.linalg as spla

from .ansatz import MAX_SOLVE_SPEED, AnsatzParams, build_two_vortex
from .field_core import (
    ComplexField,
    CutoffEta,
    Grid,
    _atomic_write,
    bilinear_sample,
    circle_samples,
    fd_gradient,
    grid_l2,
    inner_product,
    load_field,
    save_field,
    symmetrize,
)
from .operators import (
    QuarterMaps,
    interior_to_real,
    linearized_matrix,
    real_to_interior,
    tw_residual_values,
)

SPURIOUS_ZERO_LEVEL = 0.3
# step halvings a damped Newton step may take before the solve gives up
MAX_HALVINGS = 8


@dataclass
class SolverConfig:
    """Newton-solver knobs; tolerances on the uniform-weight grid L2 norm."""

    newton_tol: float = 1e-9
    max_iter: int = 40

    def __post_init__(self):
        if self.newton_tol <= 0:
            raise ValueError("Newton tolerance must be positive")


@dataclass
class BranchEntry:
    c: float
    field: ComplexField
    half_separation: float
    residual_norm: float
    energy: float
    p2: float
    newton_steps: int = 0
    newton_history: tuple = ()     # residual norm before each Newton step

    @property
    def zeros(self):
        return ((self.half_separation, 0.0), (-self.half_separation, 0.0))


@dataclass
class TravellingWaveBranch:
    """Ordered branch records; speeds strictly monotone."""

    entries: list
    config_hash: str = ""

    def __post_init__(self):
        cs = [e.c for e in self.entries]
        diffs = np.diff(cs)
        if len(cs) >= 2 and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ValueError("branch speeds must be strictly monotone")

    def index_of(self, c: float) -> int:
        cs = np.array([e.c for e in self.entries])
        i = int(np.argmin(np.abs(cs - c)))
        if not math.isclose(cs[i], c, rel_tol=1e-9, abs_tol=1e-12):
            raise KeyError(f"no branch entry at speed {c}")
        return i


def residual(Q: ComplexField, c: float) -> ComplexField:
    """Travelling-wave residual; boundary rows are zero (Dirichlet data)."""
    return ComplexField(Q.grid, tw_residual_values(Q.values, Q.grid, c))


def winding_number(Q: ComplexField, center, radius: float = 1.0, n: int = 256) -> int:
    _, vals = circle_samples(Q, center, radius, n)
    ratio = vals / np.roll(vals, 1)
    total = float(np.sum(np.angle(ratio)))
    return int(round(total / (2.0 * np.pi)))


def _refine_zero(Q: ComplexField, x0, y0, max_steps: int = 40):
    """Sub-grid zero by 2-D Newton on the bilinear interpolant."""
    g = Q.grid
    h = max(g.hx, g.hy)
    x, y = float(x0), float(y0)
    for _ in range(max_steps):
        eps = 1e-7 * h
        v = bilinear_sample(Q, np.array([x, x + eps, x]), np.array([y, y, y + eps]))
        f = v[0]
        if abs(f) < 1e-13:
            break
        dx = (v[1] - v[0]) / eps
        dy = (v[2] - v[0]) / eps
        J = np.array([[dx.real, dy.real], [dx.imag, dy.imag]])
        try:
            step = np.linalg.solve(J, -np.array([f.real, f.imag]))
        except np.linalg.LinAlgError:
            break
        norm = float(np.hypot(*step))
        if norm > h:
            step *= h / norm
        x, y = x + step[0], y + step[1]
        if norm < 1e-12 * h:
            break
    return x, y


def locate_zeros(Q: ComplexField):
    """The two zeros of a converged field, refined to sub-grid accuracy.

    Verifies winding +-1 on radius-1 circles and that no node outside
    radius-2 balls around the zeros has |Q| below 0.3.
    """
    g = Q.grid
    mod = np.abs(Q.values)
    X, Y = g.mesh
    zeros = []
    for half in (X > 0, X < 0):
        masked = np.where(half, mod, np.inf)
        i, j = np.unravel_index(np.argmin(masked), mod.shape)
        zx, zy = _refine_zero(Q, g.x[i], g.y[j])
        zeros.append((zx, zy))
    zeros.sort(key=lambda z: -z[0])
    (zpx, zpy), (zmx, zmy) = zeros
    if zpx <= 0 or zmx >= 0:
        raise RuntimeError("could not find one zero in each half-plane")
    wp = winding_number(Q, zeros[0])
    wm = winding_number(Q, zeros[1])
    if (wp, wm) != (1, -1):
        raise RuntimeError(f"unexpected windings ({wp}, {wm}); want (+1, -1)")
    far = (np.hypot(X - zpx, Y - zpy) > 2.0) & (np.hypot(X - zmx, Y - zmy) > 2.0)
    if np.any(mod[far] < SPURIOUS_ZERO_LEVEL):
        raise RuntimeError("spurious low-modulus node away from the two zeros")
    return zeros[0], zeros[1]


def linearized_lu(Q: ComplexField, c: float):
    """Sparse LU of the full interior linearized matrix at (Q, c), the
    frozen Jacobian of the chord re-solves in ``perturb_and_resolve``."""
    # minimum degree halves the fill of COLAMD on this symmetric matrix,
    # and no printed reference digit depends on its rounding
    return spla.splu(linearized_matrix(Q, c).tocsc(), permc_spec="MMD_AT_PLUS_A")


def newton_solve(Q0: ComplexField, c: float, config: SolverConfig,
                 quarter: QuarterMaps | None = None, lu=None):
    """Damped Newton iteration on the travelling-wave residual.

    Without ``lu`` the iterate is symmetrized, and each step solves the
    linearized matrix at the iterate on the symmetric quarter of the grid
    (``quarter``, built here when not given) and mirrors the update.
    With ``lu``, a factorization of the full interior linearized matrix
    at a solution (``linearized_lu``), it runs the chord method on the
    full grid without symmetry (Kelley 1995, sec. 5.4): every step solves
    with that frozen Jacobian.  The chord step contracts the error by a
    factor of the order of the distance from the iterate to the frozen
    point, so an iteration that converges to (a small translate of) that
    solution converges as fast as Newton's.  Both take the same damping
    rule, tolerance and step limit.  Returns (field, info) with the step
    count and the residual history in ``info``.
    """
    if not (0.0 < c <= MAX_SOLVE_SPEED):
        raise ValueError(f"speed {c} outside (0, {MAX_SOLVE_SPEED:g}]")
    g = Q0.grid
    if lu is not None:
        Q = Q0.copy()
    else:
        Q = symmetrize(Q0)
        if quarter is None:
            quarter = QuarterMaps(g)

    history = []
    F = residual(Q, c)
    rn = grid_l2(F, g)
    steps = 0
    for it in range(config.max_iter):
        history.append(rn)
        if rn <= config.newton_tol:
            break
        b = -interior_to_real(F.values)
        if lu is not None:
            dx = lu.solve(b)
        else:
            # COLAMD: every stored branch field comes from this factor, and
            # the printed spectrum digits of the unconverged sym3 minimum
            # move with any rounding change in those fields
            # the CSR quarter matrix is freed before the factorization runs
            dq = spla.splu(quarter.reduce(Q, c).tocsc(),
                           permc_spec="COLAMD").solve(quarter.reduce_rhs(b))
            dx = quarter.prolong(dq)
        delta = real_to_interior(dx, g)

        alpha, accepted = 1.0, False
        for _ in range(MAX_HALVINGS + 1):
            trial = ComplexField(g, Q.values + alpha * delta)
            F_trial = residual(trial, c)
            rn_trial = grid_l2(F_trial, g)
            if rn_trial < rn:
                Q, F, rn, accepted = trial, F_trial, rn_trial, True
                break
            alpha *= 0.5
        steps += 1
        if not accepted:
            raise RuntimeError(
                f"Newton diverged at step {it}: residual {rn:.3e} would not "
                f"decrease under the damping schedule")
    else:
        raise RuntimeError(
            f"Newton did not reach tol {config.newton_tol:.1e} in "
            f"{config.max_iter} steps (residual {rn:.3e})")

    locate_zeros(Q)
    info = {"steps": steps, "history": history, "residual": rn}
    return Q, info


def default_grid_rule(c: float, box_factor: float = 3.0, h_target: float = 0.4,
                      max_nx: int = 401, reach: float = 0.0) -> Grid:
    """Square box of half-width box_factor/c with spacing close to
    h_target, capped at max_nx nodes per side (odd counts).

    Margin guarantee: the half-width is widened where needed so that it
    is at least ``reach`` plus two grid spacings, i.e. every point within
    ``reach`` of the origin lies two spacings inside the boundary ring.
    A box that already satisfies this is returned unchanged."""
    def node_count(lx):
        nx = min(int(round(2.0 * lx / h_target)) + 1, max_nx)
        return nx + 1 if nx % 2 == 0 else nx

    lx = box_factor / c
    nx = node_count(lx)
    # with h = 2 lx / (nx - 1), lx - 2h >= reach reads
    # lx >= reach (nx - 1) / (nx - 5); the wider box has at least as many
    # nodes, which only lowers that bound, so one widening suffices
    if lx - 4.0 * lx / (nx - 1) < reach:
        lx = reach * (nx - 1) / (nx - 5)
        nx = node_count(lx)
    return Grid(lx, lx, nx, nx)


def _set_ring(field: ComplexField, data: ComplexField) -> ComplexField:
    """Replace the boundary ring of ``field`` by the ring of ``data``."""
    v = field.values.copy()
    d = data.values
    v[0, :], v[-1, :], v[:, 0], v[:, -1] = d[0, :], d[-1, :], d[:, 0], d[:, -1]
    return ComplexField(field.grid, v)


def _solve_run(c_values, grid: Grid, config: SolverConfig, profiles: dict):
    """The entries of one run of speeds on ``grid`` (see ``continue_branch``);
    the run's quarter maps and guesses are freed when it returns."""
    from .linearization import energy, momentum

    quarter = QuarterMaps(grid)
    entries, gamma = [], None   # gamma: last solution minus its ansatz
    for c in c_values:
        # Dirichlet edge data: the two-vortex far field at speed c.
        # (Pinning the raw vacuum value 1 on a 3/c box distorts the phase
        # by O(1) at the edge and Newton stalls.)
        params = AnsatzParams(1.0 / c, profiles[1], profiles[-1])
        base = build_two_vortex(params, grid)
        guesses = [base]
        if gamma is not None:
            # the correction is transported as its smooth far-field part;
            # near the (moving) cores it is small and core drift would
            # smear the steep structure
            gamma = gamma * CutoffEta(((params.d, 0.0), (-params.d, 0.0)),
                                      r_in=3.0, r_out=6.0).on_grid(grid)
            guesses = [_set_ring(ComplexField(grid, base.values + gamma), base), base]
        for k, guess in enumerate(guesses):
            try:
                Q, info = newton_solve(guess, c, config, quarter=quarter)
                break
            except RuntimeError as exc:
                if k + 1 == len(guesses):
                    raise RuntimeError(
                        f"branch continuation failed at c = {c}: {exc}") from exc
        zp, zm = locate_zeros(Q)
        if abs(zp[1]) > 2 * grid.hy or abs(zm[1]) > 2 * grid.hy:
            raise RuntimeError(f"zeros left the x1 axis at c = {c}")
        d_tilde = 0.5 * (zp[0] - zm[0])
        entries.append(BranchEntry(
            c=c, field=Q, half_separation=d_tilde,
            residual_norm=info["residual"], energy=energy(Q),
            p2=momentum(Q)[1], newton_steps=info["steps"],
            newton_history=tuple(info["history"])))
        gamma = Q.values - base.values
    return entries


def continue_branch(c_values, config: SolverConfig, profiles: dict,
                    grid_rule=default_grid_rule,
                    config_hash: str = "") -> TravellingWaveBranch:
    """Solve the branch at the given (strictly decreasing) speeds.

    The speeds split into runs of consecutive speeds on one grid (one
    derivative triple under every CLI grid rule).  A run starts from the
    two-vortex ansatz at separation 1/c of its first speed; each later
    entry starts from the previous solution's correction to its ansatz,
    transported to the new speed, and falls back once to its own ansatz.
    So an entry depends on the speeds of its run alone.  The runs are
    solved finest grid first (node count, stable), so the largest quarter
    LU, which sets the peak memory, factors before the heap holds the
    other runs' fields; the entries come back in the given order.
    """
    c_values = list(c_values)
    if any(not (0 < c <= MAX_SOLVE_SPEED) for c in c_values):
        raise ValueError(f"speeds must lie in (0, {MAX_SOLVE_SPEED:g}]")
    if any(b >= a for a, b in zip(c_values, c_values[1:])):
        raise ValueError("speeds must be strictly decreasing")

    runs = [(grid, list(run)) for grid, run in groupby(c_values, key=grid_rule)]
    entries = []
    for grid, run in sorted(runs, key=lambda r: -r[0].nx * r[0].ny):
        entries += _solve_run(run, grid, config, profiles)
    entries.sort(key=lambda e: -e.c)
    return TravellingWaveBranch(entries, config_hash=config_hash)


# ----------------------------------------------------------------------
# translation fitting and the local-uniqueness experiment

def shift_resample(Q: ComplexField, X) -> ComplexField:
    """Field of values Q(x - X) on the same grid (edge-clamped samples)."""
    g = Q.grid
    Xg, Yg = g.mesh
    xs = np.clip(Xg - X[0], g.x[0], g.x[-1])
    ys = np.clip(Yg - X[1], g.y[0], g.y[-1])
    vals = bilinear_sample(Q, xs.ravel(), ys.ravel(), check_inside=False)
    return ComplexField(g, vals.reshape(g.nx, g.ny))


def fit_translation(W: ComplexField, Q: ComplexField):
    """Best X minimizing the grid-L2 distance between W and Q(. - X), by
    at most three Gauss-Newton steps from X = 0."""
    gx, gy = fd_gradient(Q)
    M = np.array([[inner_product(gx, gx), inner_product(gx, gy)],
                  [inner_product(gy, gx), inner_product(gy, gy)]])
    X = np.zeros(2)
    for _ in range(3):
        diff = ComplexField(Q.grid, W.values - shift_resample(Q, X).values)
        rhs = -np.array([inner_product(gx, diff), inner_product(gy, diff)])
        try:
            step = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            break
        X = X + step
        if float(np.hypot(*step)) < 1e-14:
            break
    mism = grid_l2(ComplexField(Q.grid, W.values - shift_resample(Q, X).values),
                   Q.grid)
    return X, mism


def _perturbation(entry: BranchEntry, shape: str, rng) -> np.ndarray:
    """Unit-scale perturbation shapes for the uniqueness experiment."""
    Q = entry.field
    g = Q.grid
    X, Y = g.mesh
    zp = entry.zeros[0]
    bump = np.exp(-((X - zp[0]) ** 2 + Y**2) / 8.0)
    eta = CutoffEta(entry.zeros).on_grid(g)
    if shape == "bump_re":
        return bump.astype(complex)
    if shape == "bump_im":
        return 1j * bump
    if shape == "phase":
        return 1j * eta * Q.values * bump
    if shape == "mixed":
        # additive near the zeros, multiplicative at infinity
        psi = (0.7 + 0.3j) * bump
        return (1.0 - eta) * Q.values * psi + eta * Q.values * (np.exp(psi) - 1.0)
    if shape == "random":
        coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        waves = sum(co * np.exp(1j * (k1 * X + k2 * Y))
                    for co, (k1, k2) in zip(coeffs, [(0.3, 0.1), (0.1, 0.4),
                                                     (0.5, 0.2), (0.2, 0.3)]))
        env = np.exp(-(X**2 + Y**2) / (0.3 * g.lx) ** 2)
        w = waves * env
        return w / np.max(np.abs(w))
    raise ValueError(f"unknown perturbation shape {shape!r}")


def perturb_and_resolve(entry: BranchEntry, delta: float, config: SolverConfig,
                        lu, shape: str = "bump_re", seed: int = 0):
    """Perturb a converged wave, re-solve without symmetry enforcement,
    and fit the result to a translate of the original.

    The re-solve is the chord iteration of ``newton_solve`` on ``lu``,
    the factorization of the linearized operator at the unperturbed wave
    (``linearized_lu``), which every re-solve around that wave shares.
    Reports the recovered translation X, the final mismatch to the
    fitted translate, and the Newton step count and residual history.
    """
    if delta > 1e-2:
        raise ValueError("perturbation scale must stay at or below 1e-2")
    Q = entry.field
    rng = np.random.default_rng(seed)
    if delta == 0.0:
        Z0 = Q.copy()
    else:
        pert = _perturbation(entry, shape, rng)
        pert[0, :] = pert[-1, :] = pert[:, 0] = pert[:, -1] = 0.0
        Z0 = ComplexField(Q.grid, Q.values + delta * pert)
    W, info = newton_solve(Z0, entry.c, config, lu=lu)
    X, mism = fit_translation(W, Q)
    floor = 10.0 * delta**2 + 100.0 * config.newton_tol
    report = {
        "X": X,
        "mismatch": mism,
        "steps": info["steps"],
        "residual_history": info["history"],
        "gain": float(np.hypot(*X)) / delta if delta > 0 else 0.0,
        "uniqueness_violation": bool(mism > floor),
    }
    return report


# ----------------------------------------------------------------------
# branch persistence

_DIAG_COLUMNS = ("c", "d_tilde", "residual", "energy", "p2", "newton_steps")


def save_branch(branch: TravellingWaveBranch, outdir) -> None:
    """Branch directory: manifest + one field file per entry (its ``.meta``
    sidecar keeps the entry's diagnostics and Newton history) + a CSV of
    diagnostics."""
    outdir = str(outdir)
    os.makedirs(outdir, exist_ok=True)
    lines = [f"config_hash = {branch.config_hash}",
             f"n_entries = {len(branch.entries)}",
             "schema = branch-v1"]
    for k, e in enumerate(branch.entries):
        g = e.field.grid
        lines.append(f"entry_{k:03d} = c={e.c!r} nx={g.nx} ny={g.ny} lx={g.lx!r}")
        save_field(e.field, os.path.join(outdir, f"entry_{k:03d}.fld"), c=e.c,
                   extra={"d_tilde": repr(float(e.half_separation)),
                          "residual": repr(float(e.residual_norm)),
                          "energy": repr(float(e.energy)),
                          "p2": repr(float(e.p2)),
                          "newton_steps": int(e.newton_steps),
                          "newton_history": " ".join(
                              repr(float(r)) for r in e.newton_history),
                          "config_hash": branch.config_hash})
    _atomic_write(os.path.join(outdir, "manifest.txt"), "\n".join(lines) + "\n")
    rows = [",".join(_DIAG_COLUMNS)]
    for e in branch.entries:
        rows.append(",".join(
            repr(float(v)) for v in
            (e.c, e.half_separation, e.residual_norm, e.energy, e.p2))
            + f",{int(e.newton_steps)}")
    _atomic_write(os.path.join(outdir, "diagnostics.csv"), "\n".join(rows) + "\n")


def load_branch(outdir) -> TravellingWaveBranch:
    outdir = str(outdir)
    manifest = {}
    with open(os.path.join(outdir, "manifest.txt")) as fh:
        for line in fh:
            key, _, val = line.partition("=")
            if _:
                manifest[key.strip()] = val.strip()
    n = int(manifest["n_entries"])
    entries = []
    for k in range(n):
        f, c, meta = load_field(os.path.join(outdir, f"entry_{k:03d}.fld"))
        entries.append(BranchEntry(
            c=c, field=f, half_separation=float(meta["d_tilde"]),
            residual_norm=float(meta["residual"]), energy=float(meta["energy"]),
            p2=float(meta["p2"]), newton_steps=int(meta.get("newton_steps", 0)),
            newton_history=tuple(map(float, meta.get("newton_history", "").split()))))
    return TravellingWaveBranch(entries, config_hash=manifest.get("config_hash", ""))
