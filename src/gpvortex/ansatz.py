"""Two-vortex product ansatz and the speed and separation limits of the
small-speed regime.

The ansatz places a winding +1 vortex at +d e1 and a winding -1 vortex at
-d e1 and takes the pointwise product; it seeds the Newton solver at
separation d = 1/c.  Both vortices share one radial modulus rho: the
winding enters only through the phase e^{+-i theta}.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field_core import ComplexField, Grid
from .vortex_profile import RadialProfile, evaluate_vortex

# Largest main speed of a branch, and the cap on the relative offset of
# the derivative neighbours of a main speed (c (1 +- frac), frac <= cap).
# The solvers accept every speed of such a triple, and the ansatz every
# separation 1/c they start from.
MAX_SPEED = 0.2
NEIGHBOR_FRAC_CAP = 0.05
MAX_SOLVE_SPEED = MAX_SPEED * (1.0 + NEIGHBOR_FRAC_CAP)
MIN_SEPARATION = 1.0 / MAX_SOLVE_SPEED
BOUNDARY_MARGIN = 10.0


@dataclass
class AnsatzParams:
    """Half-separation d of the vortex centers along e1 plus the radial
    profile both vortices share."""

    d: float
    profile: RadialProfile

    def __post_init__(self):
        if self.d < MIN_SEPARATION:
            raise ValueError(f"separation d = {self.d} below the small-speed "
                             f"regime floor {MIN_SEPARATION}")


def _check_margin(params: AnsatzParams, grid: Grid) -> None:
    if grid.lx - params.d < BOUNDARY_MARGIN or grid.ly < BOUNDARY_MARGIN:
        raise ValueError(
            f"vortex centers at +-{params.d} too close to the box edge "
            f"(lx = {grid.lx}, margin {BOUNDARY_MARGIN} required)")


def build_two_vortex(params: AnsatzParams, grid: Grid) -> ComplexField:
    """Pointwise product V_{+1}(. - d e1) V_{-1}(. + d e1)."""
    _check_margin(params, grid)
    X, Y = grid.mesh
    vp = evaluate_vortex(params.profile, 1, X, Y, center=(params.d, 0.0))
    vm = evaluate_vortex(params.profile, -1, X, Y, center=(-params.d, 0.0))
    return ComplexField(grid, vp * vm)
