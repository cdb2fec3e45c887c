"""Linearized operator around a travelling wave, its quadratic form,
the four symmetry directions, and the energy/momentum diagnostics.

The quadratic form B is the interior pairing Re<L phi, phi> of the
stencil operator: the boundary ring of phi enters the interior stencils
as Dirichlet data and is not summed itself.  On fields with a zero ring
it equals the matrix Rayleigh quotient of ``linearized_matrix`` and the
plain discrete form; on the phase direction i Q it pairs phi with
i TW(Q), so it vanishes to the solver residual.  The paper splits B
with a cutoff eta into additive terms near the vortex cores and
multiplicative (psi = phi/Q) terms far out, so that B is defined on the
energy space.  That split is a continuum device: every grid sum is
finite, and on the grid the split recombines to this pairing for any
cutoff, so it is not carried here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field_core import ComplexField, _atomic_write, fd_gradient, grid_l2
from .operators import _transport_laplacian

PROP12_COLUMNS = (
    "c", "energy", "p2", "dE_dc", "dP2_dc", "rel_dE_identity",
    "B_dx1", "B_dx2", "c2_B_dc", "B_drot",
    "resid_dc_rhs", "resid_dc_dir", "resid_drot_rhs", "resid_drot_dir",
    "curl_ratio",
)


def apply_L(phi: ComplexField, Q: ComplexField, c: float) -> ComplexField:
    """-lap phi - ic d2 phi - (1-|Q|^2) phi + 2 Re(conj(Q) phi) Q on the
    interior nodes, with the boundary ring of phi as Dirichlet data (the
    stencils of the travelling-wave residual); the ring of the result is
    zero."""
    if phi.grid != Q.grid:
        raise ValueError("fields live on different grids")
    v, q = phi.values[1:-1, 1:-1], Q.values[1:-1, 1:-1]
    q2 = q.real**2 + q.imag**2
    out = np.zeros_like(phi.values)
    out[1:-1, 1:-1] = (_transport_laplacian(phi.values, phi.grid, c)
                       - (1.0 - q2) * v + 2.0 * (np.conj(q) * v).real * q)
    return ComplexField(phi.grid, out)


# ----------------------------------------------------------------------
# quadratic form

def quadratic_form_B(phi: ComplexField, Q: ComplexField, c: float) -> float:
    """Quadratic form of the linearized operator: the interior pairing
    hx hy sum Re(conj(phi) L phi), with the boundary ring of phi as
    Dirichlet data of the stencils of L.  It needs no cutoff split (see
    the module docstring) and is finite for phi = i Q."""
    g = phi.grid
    inner = np.s_[1:-1, 1:-1]
    Lphi = apply_L(phi, Q, c).values[inner]
    return float(np.sum((np.conj(phi.values[inner]) * Lphi).real) * g.hx * g.hy)


# ----------------------------------------------------------------------
# energy and momentum

def energy(Q: ComplexField) -> float:
    """Ginzburg-Landau energy 1/2 int |grad Q|^2 + 1/4 int (1-|Q|^2)^2."""
    g = Q.grid
    w = g.hx * g.hy
    v = Q.values
    kin = (np.sum(np.abs(np.diff(v, axis=0)) ** 2) / g.hx**2
           + np.sum(np.abs(np.diff(v, axis=1)) ** 2) / g.hy**2)
    q2 = v.real**2 + v.imag**2
    return float(0.5 * kin * w + 0.25 * np.sum((1.0 - q2) ** 2) * w)


def momentum(Q: ComplexField) -> tuple[float, float]:
    """(P1, P2) with Pk = 1/2 <i dk Q, Q - 1>."""
    g = Q.grid
    w = g.hx * g.hy
    v = Q.values
    qm1 = np.conj(v) - 1.0
    p = []
    for axis, h in ((0, g.hx), (1, g.hy)):
        dv = np.gradient(v, h, axis=axis, edge_order=2)
        p.append(0.5 * float(np.sum((1j * dv * qm1).real) * w))
    return p[0], p[1]


# ----------------------------------------------------------------------
# the four symmetry directions

@dataclass
class DirectionSet:
    """Translation, speed-modulus, and rotation directions at one branch
    entry (``build_directions``)."""

    dx1: ComplexField
    dx2: ComplexField
    dc: ComplexField
    drot: ComplexField


def _grad4(v: np.ndarray, h: float, axis: int) -> np.ndarray:
    """4th-order centered first derivative, 2nd-order near the edges."""
    out = np.gradient(v, h, axis=axis, edge_order=2)
    vv = np.moveaxis(v, axis, 0)
    oo = np.moveaxis(out, axis, 0)
    oo[2:-2] = (-vv[4:] + 8.0 * vv[3:-1] - 8.0 * vv[1:-3] + vv[:-4]) / (12.0 * h)
    return out


def rotation_direction(Q: ComplexField) -> ComplexField:
    """-x_perp . grad Q = x2 d1 Q - x1 d2 Q, pointwise.

    Built with 4th-order differences: the x-lever amplifies the stencil
    error of the gradient by the vortex separation, which at 2nd order
    pushes the form value on this direction out of its asymptotic
    corridor on the coarser desk grids."""
    g = Q.grid
    X, Y = g.mesh
    gx = _grad4(Q.values, g.hx, 0)
    gy = _grad4(Q.values, g.hy, 1)
    return ComplexField(g, Y * gx - X * gy)


def build_directions(branch, index: int) -> DirectionSet:
    """Directions at branch entry ``index``; the speed derivative is the
    centered difference over the two neighbouring entries (same grid)."""
    entries = branch.entries
    if index <= 0 or index >= len(entries) - 1:
        raise ValueError("need branch neighbours on both sides")
    lo, mid, hi = entries[index + 1], entries[index], entries[index - 1]
    if lo.field.grid != mid.field.grid or hi.field.grid != mid.field.grid:
        raise ValueError("neighbouring entries must share the grid")
    c = mid.c
    dc_step = max(abs(hi.c - c), abs(c - lo.c))
    if dc_step > 0.1 * c + 1e-15:
        raise ValueError(f"neighbour spacing {dc_step} exceeds 0.1 c")
    Q = mid.field
    gx, gy = fd_gradient(Q)
    dc_vals = (hi.field.values - lo.field.values) / (hi.c - lo.c)
    return DirectionSet(dx1=gx, dx2=gy, dc=ComplexField(Q.grid, dc_vals),
                        drot=rotation_direction(Q))


def direction_identity_residuals(dirs: DirectionSet, Q: ComplexField,
                                 c: float) -> dict:
    """Residuals of L(dc) = i dx2 and L(drot) = -ic dx1 on interior nodes.

    Reported both relative to the right-hand side and relative to the
    direction field itself (the rotation direction carries an x-lever
    that amplifies stencil commutators, so only the direction-relative
    number is resolution-robust at desk scale).
    """
    g = Q.grid

    def l2(values):
        return grid_l2(values[1:-1, 1:-1], g)

    r1 = l2(apply_L(dirs.dc, Q, c).values - 1j * dirs.dx2.values)
    r2 = l2(apply_L(dirs.drot, Q, c).values + 1j * c * dirs.dx1.values)
    return {
        "resid_dc_rhs": r1 / l2(dirs.dx2.values),
        "resid_dc_dir": r1 / l2(dirs.dc.values),
        "resid_drot_rhs": r2 / (c * l2(dirs.dx1.values)),
        "resid_drot_dir": r2 / l2(dirs.drot.values),
    }


def curl_energy_ratio(Q: ComplexField, c: float) -> float:
    """int |Im(grad Q conj Q)|^2 / |Q|^2 divided by ln(1/c)."""
    g = Q.grid
    gx, gy = fd_gradient(Q)
    q2 = np.maximum(Q.values.real**2 + Q.values.imag**2, 1e-12)
    dens = ((gx.values * np.conj(Q.values)).imag ** 2
            + (gy.values * np.conj(Q.values)).imag ** 2) / q2
    val = float(np.sum(dens * g.trapezoid_weights))
    return val / np.log(1.0 / c)


def prop12_report(branch) -> list[dict]:
    """Per-speed diagnostic rows for every interior branch entry
    (energy/momentum derivatives, form values on the four directions,
    and the identity residuals)."""
    rows = []
    entries = branch.entries
    for i in range(1, len(entries) - 1):
        mid = entries[i]
        lo, hi = entries[i + 1], entries[i - 1]
        if lo.field.grid != mid.field.grid or hi.field.grid != mid.field.grid:
            continue
        if max(abs(hi.c - mid.c), abs(mid.c - lo.c)) > 0.1 * mid.c + 1e-15:
            continue
        dirs = build_directions(branch, i)
        Q, c = mid.field, mid.c
        dE = (hi.energy - lo.energy) / (hi.c - lo.c)
        dP2 = (hi.p2 - lo.p2) / (hi.c - lo.c)
        resid = direction_identity_residuals(dirs, Q, c)
        row = {
            "c": c,
            "energy": mid.energy,
            "p2": mid.p2,
            "dE_dc": dE,
            "dP2_dc": dP2,
            "rel_dE_identity": abs(dE - c * dP2) / abs(dE),
            "B_dx1": quadratic_form_B(dirs.dx1, Q, c),
            "B_dx2": quadratic_form_B(dirs.dx2, Q, c),
            "c2_B_dc": c * c * quadratic_form_B(dirs.dc, Q, c),
            "B_drot": quadratic_form_B(dirs.drot, Q, c),
            "curl_ratio": curl_energy_ratio(Q, c),
        }
        row.update(resid)
        rows.append(row)
    return rows


def write_prop12_csv(rows: list[dict], path) -> None:
    """CSV with the frozen column order from PROP12_COLUMNS."""
    lines = [",".join(PROP12_COLUMNS)]
    for row in rows:
        lines.append(",".join(repr(float(row[k])) for k in PROP12_COLUMNS))
    _atomic_write(path, "\n".join(lines) + "\n")
