"""Newton solver for the travelling-wave equation with symmetry
reduction, branch continuation in the speed, zero location, branch
persistence, and the perturb-and-resolve local-uniqueness experiment.

The branch is solved in the runs its caller names (the CLI: one grid
and derivative triple per main speed, both from the config), each from
the ansatz at its first speed, finest grid first.  It and the uniqueness
re-solves share one Newton loop, and each passes its linear solve: the
branch step factors only the rows of the linearized matrix that the
symmetric quarter keeps (``QuarterMaps.solve``).  The uniqueness
re-solves run without symmetry on the full grid by the chord method:
all of them iterate with one factorization of the linearized operator
L_Q at the unperturbed wave, invertible by the paper's non-degeneracy
of L_Q.  The Dirichlet ring pins translation, so each re-solve
converges back to that wave itself, where the frozen Jacobian is the
true one, and a chord step gains as much as a Newton step.  The
experiment thus checks that Q is an isolated zero of the box residual
to which the chord iteration returns; uniqueness up to translation is
not checked here.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .ansatz import MAX_SOLVE_SPEED, AnsatzParams, build_two_vortex
from .field_core import (
    ComplexField,
    CutoffEta,
    FieldFileError,
    Grid,
    _atomic_write,
    bilinear_sample,
    circle_samples,
    grid_l2,
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
from .vortex_profile import RadialProfile

SPURIOUS_ZERO_LEVEL = 0.3
# Newton steps a solve may take before it gives up
MAX_NEWTON_STEPS = 40
# step halvings a damped Newton step may take before the solve gives up
MAX_HALVINGS = 8
# largest perturbation scale of the uniqueness experiment
MAX_UNIQUENESS_DELTA = 1e-2


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


def winding_number(Q: ComplexField, center) -> int:
    """Winding of Q around the circle of radius 1 about ``center``."""
    _, vals = circle_samples(Q, center, 1.0)
    ratio = vals / np.roll(vals, 1)
    total = float(np.sum(np.angle(ratio)))
    return int(round(total / (2.0 * np.pi)))


def _refine_zero(Q: ComplexField, x0, y0):
    """Sub-grid zero by 2-D Newton on the bilinear interpolant."""
    g = Q.grid
    h = max(g.hx, g.hy)
    x, y = float(x0), float(y0)
    for _ in range(40):
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


def newton_solve(Q0: ComplexField, c: float, newton_tol: float, solve):
    """Damped Newton iteration on the travelling-wave residual from Q0.

    Each step takes the update ``solve(Q, c, b)`` at the iterate Q for
    b = -residual(Q), both real dof vectors; the caller picks the linear
    solve (``QuarterMaps.solve`` for the branch, from a symmetric Q0; one
    frozen factorization in ``perturb_and_resolve``).  The damping rule,
    the tolerance ``newton_tol`` on the grid L2 norm of the residual and
    the step limit ``MAX_NEWTON_STEPS`` are the loop's own.  Returns
    (field, info) with the step count, the residual history and the two
    zeros of the field (``locate_zeros``, which it must pass) in ``info``.
    """
    if not (0.0 < c <= MAX_SOLVE_SPEED):
        raise ValueError(f"speed {c} outside (0, {MAX_SOLVE_SPEED:g}]")
    if newton_tol <= 0:
        raise ValueError("Newton tolerance must be positive")
    Q, g = Q0, Q0.grid
    history = []
    F = residual(Q, c)
    rn = grid_l2(F, g)
    for it in range(MAX_NEWTON_STEPS):
        history.append(rn)
        if rn <= newton_tol:
            break
        delta = real_to_interior(solve(Q, c, -interior_to_real(F.values)), g)

        alpha, accepted = 1.0, False
        for _ in range(MAX_HALVINGS + 1):
            trial = ComplexField(g, Q.values + alpha * delta)
            F_trial = residual(trial, c)
            rn_trial = grid_l2(F_trial, g)
            if rn_trial < rn:
                Q, F, rn, accepted = trial, F_trial, rn_trial, True
                break
            alpha *= 0.5
        if not accepted:
            raise RuntimeError(
                f"Newton diverged at step {it}: residual {rn:.3e} would not "
                f"decrease under the damping schedule")
    else:
        raise RuntimeError(
            f"Newton did not reach tol {newton_tol:.1e} in "
            f"{MAX_NEWTON_STEPS} steps (residual {rn:.3e})")

    info = {"steps": len(history) - 1, "history": history, "residual": rn,
            "zeros": locate_zeros(Q)}
    return Q, info


def default_grid_rule(c: float, box_factor: float = 3.0, h_target: float = 0.4,
                      max_nx: int = 401, reach: float = 0.0) -> Grid:
    """Square box of half-width box_factor/c with spacing close to
    h_target, with 7 to max_nx nodes per side (odd counts; the margin
    widening needs more than 5).

    Margin guarantee: the half-width is widened where needed so that it
    is at least ``reach`` plus two grid spacings, i.e. every point within
    ``reach`` of the origin lies two spacings inside the boundary ring.
    A box that already satisfies this is returned unchanged."""
    def node_count(lx):
        nx = min(max(int(round(2.0 * lx / h_target)) + 1, 7), max_nx)
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


def _solve_run(c_values, grid: Grid, newton_tol: float,
               profile: RadialProfile):
    """The entries of one run of speeds on ``grid`` (see ``continue_branch``);
    the run's quarter maps and guesses are freed when it returns."""
    from .linearization import energy, momentum

    quarter = QuarterMaps(grid)
    entries, gamma = [], None   # gamma: last solution minus its ansatz
    for c in c_values:
        # Dirichlet edge data: the two-vortex far field at speed c.
        # (Pinning the raw vacuum value 1 on a 3/c box distorts the phase
        # by O(1) at the edge and Newton stalls.)
        params = AnsatzParams(1.0 / c, profile)
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
                Q, info = newton_solve(symmetrize(guess), c, newton_tol, quarter.solve)
                break
            except RuntimeError as exc:
                if k + 1 == len(guesses):
                    raise RuntimeError(
                        f"branch continuation failed at c = {c}: {exc}") from exc
        zp, zm = info["zeros"]
        if abs(zp[1]) > 2 * grid.hy or abs(zm[1]) > 2 * grid.hy:
            raise RuntimeError(f"zeros left the x1 axis at c = {c}")
        d_tilde = 0.5 * (zp[0] - zm[0])
        entries.append(BranchEntry(
            c=c, field=Q, half_separation=d_tilde,
            residual_norm=info["residual"], energy=energy(Q),
            p2=momentum(Q), newton_steps=info["steps"],
            newton_history=tuple(info["history"])))
        gamma = Q.values - base.values
    return entries


def continue_branch(runs, newton_tol: float, profile: RadialProfile,
                    config_hash: str = "") -> TravellingWaveBranch:
    """Solve the branch over ``runs``, pairs (grid, speeds) of strictly
    decreasing speeds to solve on one grid (one derivative triple, or the
    one speed of the stability stage, in the CLI).

    A run starts from the two-vortex ansatz at separation 1/c of its
    first speed; each later entry starts from the previous solution's
    correction to its ansatz, transported to the new speed, and falls
    back once to its own ansatz.  So an entry depends on the speeds of
    its run alone.  The runs are solved finest grid first (node count,
    stable), so the largest quarter LU, which sets the peak memory,
    factors before the heap holds the other runs' fields; the entries
    come back by decreasing speed.
    """
    entries = []
    for grid, speeds in sorted(runs, key=lambda r: -r[0].nx * r[0].ny):
        entries += _solve_run(speeds, grid, newton_tol, profile)
    entries.sort(key=lambda e: -e.c)
    return TravellingWaveBranch(entries, config_hash=config_hash)


# ----------------------------------------------------------------------
# the local-uniqueness experiment

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


def perturb_and_resolve(entry: BranchEntry, delta: float, newton_tol: float,
                        lu, shape: str = "bump_re", seed: int = 0):
    """Perturb a converged wave Q by ``delta`` times a unit-scale
    ``shape`` (zero on the ring), re-solve without symmetry enforcement,
    and measure the distance of the result W to Q.

    The re-solve is the chord method (Kelley 1995, sec. 5.4): each step
    solves with ``lu``, the factorization of the linearized operator at
    the unperturbed wave (``linearized_lu``) that all re-solves around
    it share.  A chord step contracts the error by a factor of the order
    of the distance from the iterate to the frozen point, so a re-solve
    that converges back to the wave converges as fast as Newton's.
    Reports the mismatch grid_l2(W - Q), the Newton step count and
    residual history, and a violation when the mismatch exceeds
    10 delta^2 + 100 newton_tol.  Only 0 < delta <= 1e-2 is accepted.
    """
    if not (0.0 < delta <= MAX_UNIQUENESS_DELTA):
        raise ValueError(f"perturbation scale {delta} outside "
                         f"(0, {MAX_UNIQUENESS_DELTA:g}]")
    Q = entry.field
    pert = _perturbation(entry, shape, np.random.default_rng(seed))
    pert[0, :] = pert[-1, :] = pert[:, 0] = pert[:, -1] = 0.0
    W, info = newton_solve(ComplexField(Q.grid, Q.values + delta * pert),
                           entry.c, newton_tol, lambda W, c, b: lu.solve(b))
    mism = grid_l2(W.values - Q.values, Q.grid)
    floor = 10.0 * delta**2 + 100.0 * newton_tol
    return {
        "mismatch": mism,
        "steps": info["steps"],
        "residual_history": info["history"],
        "uniqueness_violation": bool(mism > floor),
    }


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
    """The branch ``save_branch`` stored in ``outdir``; a missing or
    malformed manifest or entry is a ``FieldFileError`` naming the tree."""
    outdir = str(outdir)
    try:
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
    except (OSError, KeyError, ValueError) as exc:
        what = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise FieldFileError(f"branch at {outdir} unusable: {what}") from exc
