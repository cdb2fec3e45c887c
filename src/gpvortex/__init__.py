"""Numerical toolkit for small-speed travelling waves of the 2-D
Gross-Pitaevskii equation, built as perturbed vortex pairs.

Subpackages cover the radial vortex profile, 2-D field discretization,
the two-vortex ansatz, a symmetry-reduced Newton solver with branch
continuation, the linearized operator with its quadratic forms, and
spectral diagnostics (constrained coercivity, kernel, stability).
"""

from .vortex_profile import RadialProfile, solve_vortex_ode, evaluate_vortex
from .field_core import (
    Grid,
    ComplexField,
    CutoffEta,
    fd_gradient,
    inner_product,
    grid_l2,
)
from .ansatz import AnsatzParams, build_two_vortex
from .tw_solver import (
    SolverConfig,
    BranchEntry,
    TravellingWaveBranch,
    residual,
    newton_solve,
    continue_branch,
    locate_zeros,
    linearized_lu,
    perturb_and_resolve,
)
from .linearization import (
    DirectionSet,
    apply_L,
    build_directions,
    quadratic_form_B,
    energy,
    momentum,
    prop12_report,
)
from .spectral import (
    OperatorHandle,
    SpectrumReport,
    assemble,
    constrained_coercivity,
    kernel_and_negative,
    midpoint_step,
    evolve_linearized,
)

__version__ = "0.1.0"
