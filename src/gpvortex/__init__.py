"""Numerical toolkit for small-speed travelling waves of the 2-D
Gross-Pitaevskii equation, built as perturbed vortex pairs.

Its modules cover the radial vortex profile, 2-D field discretization,
the two-vortex ansatz, a symmetry-reduced Newton solver with branch
continuation, the linearized operator with its quadratic forms, and
spectral diagnostics (constrained coercivity, kernel, stability).
"""

__version__ = "0.1.0"
