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

Every pointwise first derivative of a wave comes from one stencil,
``translation_direction``: 4th order inside, 2nd on the two nodes at
each end of its axis.  It builds d1 Q and d2 Q once per field, each only
where a stage reads it: both for the directions, the curl ratio, and the
constraints of ``spectral``; d1 Q alone for the kernel mode of
``stability``; d2 Q alone for ``momentum``.  It is 4th order for the
kernel: the constant-coefficient stencil blocks of L commute with any
centered difference, so the only kernel defect of dk Q is the
product-rule error of the cubic term, h^4.
At 2nd order B(d1 Q) read 1.9e-3 to 4.6e-3 on the default grids; at
4th order it reads 3e-5 to 1.4e-4.

The box cuts off the slowly decaying far field of the wave, and with it
14% of dE/dc.  ``ansatz_tail`` restores the energy and P2 outside the
box, and ``prop12_report`` gives each with and without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ansatz import AnsatzParams, build_two_vortex
from .field_core import ComplexField, Grid, _atomic_write, grid_l2
from .operators import _transport_laplacian

PROP12_COLUMNS = (
    "c", "energy", "p2", "dE_dc", "dP2_dc", "rel_dE_identity",
    "B_dx1", "B_dx2", "c2_B_dc", "B_drot",
    "resid_dc_rhs", "resid_dc_dir", "resid_drot_rhs", "resid_drot_dir",
    "curl_ratio",
    "energy_with_tail", "p2_with_tail", "dE_dc_with_tail", "dP2_dc_with_tail",
    "rel_dE_identity_with_tail",
)
# ``ansatz_tail`` sums the ansatz over this many nested rings, ring k from
# 2^(k-1) to 2^k box half-widths at 2^(k-1) box spacings, so the sum
# reaches 2^TAIL_RINGS half-widths; one more ring moves E and P2 by
# < 1e-5 relative.
TAIL_RINGS = 3


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


def momentum(Q: ComplexField) -> float:
    """P2 = 1/2 <i d2 Q, Q - 1>; P1 vanishes on the symmetric waves."""
    g = Q.grid
    w = g.hx * g.hy
    v = Q.values
    dv = translation_direction(Q, 1).values
    return 0.5 * float(np.sum((1j * dv * (np.conj(v) - 1.0)).real) * w)


def ansatz_tail(params: AnsatzParams, grid: Grid) -> tuple[float, float]:
    """Energy and P2 of the two-vortex ansatz outside the square box
    ``grid``, to be added to the values of a wave solved on that box.

    The branch pins the box edge to the ansatz at d = 1/c, and the wave
    continues beyond it like the ansatz (Gravejat, Asymptotic Anal. 45
    (2005)): with r = |x|, the phase is the vortex dipole
    phi ~ 2 d x2/r^2 and the modulus 1 - 1/r^2.  So the energy density
    decays like (2 d^2 + 1)/r^4 and the P2 density like
    d/r^4 - (1/12) d2(phi^3), whose second term integrates to a flux
    through the box edge; outside a square of half-width R both
    integrals are O(1/R^2).

    Each ring is the ansatz's ``energy`` and ``momentum`` on the box twice
    as wide, less those on the box itself, at one spacing; the spacing
    doubles from ring to ring (TAIL_RINGS).  Outside the last box, of
    half-width R, the leading remainder is added in closed form:
    E: (2 d^2 + 1)(1 + pi/2)/R^2 and P2: ((2/3 + pi/4) d^3
    + (1 + pi/2) d)/R^2.  The terms left out are O(d^4/R^4); at
    R = 8 box half-widths d/R ~ 1/24."""
    e_tail = p_tail = 0.0
    inner = build_two_vortex(params, grid)
    for k in range(1, TAIL_RINGS + 1):
        wide = build_two_vortex(params, Grid(2**k * grid.lx, 2**k * grid.ly,
                                             2 * grid.nx - 1, 2 * grid.ny - 1))
        e_tail += energy(wide) - energy(inner)
        p_tail += momentum(wide) - momentum(inner)
        # the next ring's inner box: every other node of this one
        inner = ComplexField(Grid(wide.grid.lx, wide.grid.ly, grid.nx, grid.ny),
                             wide.values[::2, ::2])
    d, R = params.d, 2**TAIL_RINGS * grid.lx
    e_tail += (2.0 * d * d + 1.0) * (1.0 + math.pi / 2) / R**2
    p_tail += ((2.0 / 3 + math.pi / 4) * d**3 + (1.0 + math.pi / 2) * d) / R**2
    return e_tail, p_tail


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


def translation_direction(Q: ComplexField, axis: int) -> ComplexField:
    """The translation direction d1 Q (``axis`` 0) or d2 Q (``axis`` 1):
    the 4th-order centered difference, and the 2nd-order one of
    ``np.gradient`` on the two nodes at each end of the axis."""
    g = Q.grid
    h = (g.hx, g.hy)[axis]
    v = np.moveaxis(Q.values, axis, 0)
    out = np.empty_like(Q.values)
    d = np.moveaxis(out, axis, 0)
    d[:2] = np.gradient(v[:3], h, axis=0, edge_order=2)[:2]
    d[-2:] = np.gradient(v[-3:], h, axis=0, edge_order=2)[1:]
    d[2:-2] = (-v[4:] + 8.0 * v[3:-1] - 8.0 * v[1:-3] + v[:-4]) / (12.0 * h)
    return ComplexField(g, out)


def rotation_direction(dx1: ComplexField, dx2: ComplexField) -> ComplexField:
    """-x_perp . grad Q = x2 d1 Q - x1 d2 Q, pointwise, from the pair
    (d1 Q, d2 Q) of ``translation_direction``; the x-lever multiplies its
    stencil error by the vortex separation."""
    X, Y = dx1.grid.mesh
    return ComplexField(dx1.grid, Y * dx1.values - X * dx2.values)


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
    dx1, dx2 = (translation_direction(mid.field, axis) for axis in (0, 1))
    dc_vals = (hi.field.values - lo.field.values) / (hi.c - lo.c)
    return DirectionSet(dx1=dx1, dx2=dx2, dc=ComplexField(mid.field.grid, dc_vals),
                        drot=rotation_direction(dx1, dx2))


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


def curl_energy_ratio(dirs: DirectionSet, Q: ComplexField, c: float) -> float:
    """int |Im(grad Q conj Q)|^2 / |Q|^2 divided by ln(1/c), with grad Q
    the translation pair of ``dirs``."""
    g = Q.grid
    q2 = np.maximum(Q.values.real**2 + Q.values.imag**2, 1e-12)
    dens = ((dirs.dx1.values * np.conj(Q.values)).imag ** 2
            + (dirs.dx2.values * np.conj(Q.values)).imag ** 2) / q2
    val = float(np.sum(dens * g.trapezoid_weights))
    return val / np.log(1.0 / c)


def prop12_report(branch, speeds, profile) -> list[dict]:
    """One diagnostic row per main speed in ``speeds``, at the branch
    entry between its two derivative neighbours (energy/momentum
    derivatives, form values on the four directions, and the identity
    residuals).  The ``_with_tail`` columns add to the box's energy and
    P2 the ``ansatz_tail`` of the ansatz at d = 1/c and ``profile`` that
    pinned the box edge."""
    rows = []
    entries = branch.entries

    def with_tail(e):
        t_e, t_p = ansatz_tail(AnsatzParams(1.0 / e.c, profile), e.field.grid)
        return e.energy + t_e, e.p2 + t_p

    for i in map(branch.index_of, speeds):
        dirs = build_directions(branch, i)
        lo, mid, hi = entries[i + 1], entries[i], entries[i - 1]
        Q, c = mid.field, mid.c
        dE = (hi.energy - lo.energy) / (hi.c - lo.c)
        dP2 = (hi.p2 - lo.p2) / (hi.c - lo.c)
        resid = direction_identity_residuals(dirs, Q, c)
        (e_lo, p_lo), (e_mid, p_mid), (e_hi, p_hi) = map(with_tail, (lo, mid, hi))
        dE_t = (e_hi - e_lo) / (hi.c - lo.c)
        dP2_t = (p_hi - p_lo) / (hi.c - lo.c)
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
            "curl_ratio": curl_energy_ratio(dirs, Q, c),
            "energy_with_tail": e_mid,
            "p2_with_tail": p_mid,
            "dE_dc_with_tail": dE_t,
            "dP2_dc_with_tail": dP2_t,
            "rel_dE_identity_with_tail": abs(dE_t - c * dP2_t) / abs(dE_t),
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
