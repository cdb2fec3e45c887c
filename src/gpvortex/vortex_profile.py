"""Radial vortex profile of the 2-D Gross-Pitaevskii equation.

Solves the radial equation of a unit-winding vortex

    rho'' + rho'/r - rho / r^2 + (1 - rho^2) rho = 0,
    rho(0) = 0,   rho(r) -> 1  (r -> infinity),

by Newton relaxation on a graded mesh (dense near the origin, geometric
stretching outward), with the two-term far-field law 1 - 1/(2 r^2) as the
truncation boundary condition.  The equation depends on the winding n
only through n^2, so one modulus serves both n = +1 and n = -1: the
vortex field V_n = rho(r) e^{i n theta} is evaluated at arbitrary points
for either winding, switching to the far-field law beyond the truncation
radius.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import solve_banded

# Below this the far-field law cannot be attached at all.
HARD_MIN_RMAX = 8.0
# Below this the 5/r^3 far-field tolerance has no headroom; warn only.
SAFE_MIN_RMAX = 20.0

KAPPA_FIT_RADIUS = 0.05


def far_field_modulus(r):
    """Two-term modulus law 1 - 1/(2 r^2) of a unit-winding vortex."""
    r = np.asarray(r, dtype=float)
    return 1.0 - 1.0 / (2.0 * r * r)


@dataclass
class RadialProfile:
    """Tabulated vortex modulus with origin slope and truncation radius;
    the modulus of both windings n = +-1.

    Treat instances as immutable after construction; they are safe to
    share across threads.
    """

    nodes: np.ndarray
    rho: np.ndarray
    kappa: float
    r_max: float

    @cached_property
    def _interp(self):
        # imported here: the stages that only read stored fields never
        # build a profile interpolant, and scipy.interpolate is slow to load
        from scipy.interpolate import PchipInterpolator

        # monotone cubic keeps 0 < rho < 1 and rho' > 0 between nodes
        return PchipInterpolator(self.nodes, self.rho, extrapolate=False)

    def modulus(self, r):
        """rho(r) for r >= 0, using the far-field law beyond r_max."""
        r = np.asarray(r, dtype=float)
        out = np.empty_like(r)
        inside = r <= self.r_max
        out[inside] = self._interp(np.clip(r[inside], 0.0, self.r_max))
        out[~inside] = far_field_modulus(r[~inside])
        return out

    def ode_residual(self) -> np.ndarray:
        """Substitution of the tabulated values into the discrete ODE, with
        the stencils applied to neighbour differences (see
        ``_discrete_residual``)."""
        return _discrete_residual(self.nodes, self.rho, self.r_max,
                                  differences=True)[1:-1]

    def curvature_maxima(self) -> tuple[float, float]:
        """Measured max |rho''| and |rho'''| (no specific bound asserted)."""
        d2 = self._interp.derivative(2)
        r = np.linspace(0.0, self.r_max, 4001)
        v2 = d2(r)
        v3 = np.gradient(v2, r, edge_order=2)
        return float(np.max(np.abs(v2))), float(np.max(np.abs(v3)))

    def validate(self) -> dict:
        """Check the type invariants; returns a dict of named booleans.
        Near the origin rho must match kappa r to within 0.01 r^2."""
        checks = {}
        checks["zero_at_origin"] = self.rho[0] == 0.0
        interior = self.rho[1:-1]
        checks["open_range"] = bool(np.all((interior > 0.0) & (interior < 1.0)))
        checks["monotone"] = bool(np.all(np.diff(self.rho) > 0.0))
        ff = abs(self.rho[-1] - far_field_modulus(self.r_max))
        checks["far_field_attach"] = ff <= 5.0 / self.r_max**3
        near = (self.nodes > 0) & (self.nodes <= 0.1)
        rn = self.nodes[near]
        dev = np.abs(self.rho[near] - self.kappa * rn)
        # 1e-8 guard: the r^2 bound collapses below the arithmetic floor
        checks["origin_slope"] = bool(np.all(dev <= 0.01 * rn * rn + 1e-8))
        return checks

    def save(self, path) -> None:
        """Two-column text file with a header carrying kappa and r_max."""
        header = (
            f"gpvortex radial profile\n"
            f"kappa = {self.kappa:.16e}\n"
            f"r_max = {self.r_max:.16e}\n"
            f"r rho"
        )
        np.savetxt(path, np.column_stack([self.nodes, self.rho]), header=header)


def _graded_mesh(r_max: float) -> np.ndarray:
    """Uniform spacing h0 = 1/400 out to r_dense = min(3, r_max/2), then
    spacings growing by 1.5% per node, capped at 0.03, out to r_max."""
    h0, growth, h_cap = 1.0 / 400.0, 1.015, 0.03
    r_dense = min(3.0, r_max / 2.0)
    n0 = int(round(r_dense / h0))
    pts = [np.linspace(0.0, r_dense, n0 + 1)]
    tail = []
    r, h = r_dense, h0
    while r < r_max:
        h = min(h * growth, h_cap)
        r = min(r + h, r_max)
        tail.append(r)
    if len(tail) >= 2 and tail[-1] - tail[-2] < 0.25 * h_cap:
        del tail[-2]
    pts.append(np.array(tail))
    return np.concatenate(pts)


def _fd_coeffs(r: np.ndarray):
    """Second-order nonuniform 3-point coefficients for rho' and rho''."""
    hm = r[1:-1] - r[:-2]
    hp = r[2:] - r[1:-1]
    s = hm + hp
    c2 = (2.0 / (hm * s), -2.0 / (hm * hp), 2.0 / (hp * s))
    c1 = (-hp / (hm * s), (hp - hm) / (hm * hp), hm / (hp * s))
    return c1, c2


def _discrete_residual(r: np.ndarray, rho: np.ndarray, r_max: float,
                       differences: bool = False) -> np.ndarray:
    """Discrete ODE residual at every node (boundary rows: the two
    boundary conditions).

    The plain form sums three stencil terms of size about 4/h0^2 * rho,
    so evaluating it adds rounding of about 1e-10 on the default mesh,
    the size of the tolerance.  With ``differences`` the stencils, whose
    weights sum to zero, act on rho_{i+-1} - rho_i instead: the large
    terms cancel before rounding, and the value measures the iterate
    rather than the arithmetic.  That form certifies convergence."""
    c1, c2 = _fd_coeffs(r)
    F = np.zeros_like(rho)
    ri = r[1:-1]
    mid = rho[1:-1]
    if differences:
        lo, hi = rho[:-2] - mid, rho[2:] - mid
        d1 = c1[0] * lo + c1[2] * hi
        d2 = c2[0] * lo + c2[2] * hi
    else:
        d1 = c1[0] * rho[:-2] + c1[1] * mid + c1[2] * rho[2:]
        d2 = c2[0] * rho[:-2] + c2[1] * mid + c2[2] * rho[2:]
    F[1:-1] = d2 + d1 / ri - mid / ri**2 + (1.0 - mid**2) * mid
    F[0] = rho[0]
    F[-1] = rho[-1] - far_field_modulus(r_max)
    return F


def solve_vortex_ode(r_max: float = 40.0, tol: float = 1e-10) -> RadialProfile:
    """Solve the radial vortex equation (winding +-1) by Newton relaxation.

    The far-field boundary condition is the two-term law
    rho(r_max) = 1 - 1/(2 r_max^2); the discrete residual at every
    interior node is driven below ``tol``.  The Newton steps and the
    stopping decisions use the plain stencil sums.  When the iteration
    stalls (the plain residual stops falling, at its rounding floor), and
    for the returned profile, convergence is certified by the residual
    with the stencils applied to neighbour differences, which does not
    carry that rounding; a profile that fails that check raises.  The
    origin slope ``kappa`` is the least-squares slope of rho over
    r <= 0.05.
    """
    if r_max < HARD_MIN_RMAX:
        raise ValueError(f"r_max = {r_max} too small to attach the far-field law")
    if r_max < SAFE_MIN_RMAX:
        warnings.warn(
            f"r_max = {r_max} < {SAFE_MIN_RMAX}: far-field attachment within "
            "5/r^3 is unreliable this close in", stacklevel=2)
    if tol > 1e-10:
        raise ValueError("tol must be <= 1e-10")

    r = _graded_mesh(r_max)
    rho = r / np.sqrt(r * r + 2.0)  # Pade-style seed with the right slope shape
    rho[-1] = far_field_modulus(r_max)
    c1, c2 = _fd_coeffs(r)
    n = r.size
    ri = r[1:-1]

    last = np.inf
    for it in range(60):
        F = _discrete_residual(r, rho, r_max)
        resid = np.max(np.abs(F[1:-1]))
        if resid <= 0.5 * tol:
            break
        if resid >= 0.9 * last:
            # stalled at the rounding floor of the stencil sums; certify
            # with the difference form, which does not carry it
            certified = _discrete_residual(r, rho, r_max, differences=True)
            if np.max(np.abs(certified[1:-1])) <= tol:
                break
            raise RuntimeError(
                f"vortex relaxation stalled at residual {resid:.3e} "
                f"(iteration {it}, tol {tol:.1e})")
        if not np.isfinite(resid):
            raise RuntimeError(f"vortex relaxation diverged at iteration {it}")
        # banded Jacobian: rows are (upper, diagonal, lower)
        ab = np.zeros((3, n))
        ab[1, 0] = 1.0
        ab[1, -1] = 1.0
        ab[0, 2:] = c2[2] + c1[2] / ri
        ab[1, 1:-1] = c2[1] + c1[1] / ri - 1.0 / ri**2 + 1.0 - 3.0 * rho[1:-1] ** 2
        ab[2, :-2] = c2[0] + c1[0] / ri
        delta = solve_banded((1, 1), ab, -F)
        rho = rho + delta
        last = resid
    else:
        raise RuntimeError(
            "vortex relaxation did not converge in 60 iterations; "
            f"last residual {last:.3e}")

    rho[0] = 0.0
    # fitted slope over [0, 0.05]; the r^3 term is carried along so it does
    # not bias the slope (rho = kappa r - kappa r^3/8 + ...)
    fit = (r > 0) & (r <= KAPPA_FIT_RADIUS)
    basis = np.column_stack([r[fit], r[fit] ** 3])
    coef, *_ = np.linalg.lstsq(basis, rho[fit], rcond=None)
    kappa = float(coef[0])
    prof = RadialProfile(nodes=r, rho=rho, kappa=kappa, r_max=r_max)
    final = np.max(np.abs(prof.ode_residual()))
    if final > tol:
        raise RuntimeError(f"converged residual {final:.3e} above tol {tol:.1e}")
    return prof


def evaluate_vortex(profile: RadialProfile, winding: int, x, y,
                    center=(0.0, 0.0)) -> np.ndarray:
    """V_n at the given points for winding n = +-1: rho(r) e^{i n theta} in
    polar about ``center``."""
    if winding not in (1, -1):
        raise ValueError(f"unsupported winding {winding}; only +-1 vortices exist here")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = x - center[0]
    dy = y - center[1]
    r = np.hypot(dx, dy)
    out = np.zeros(np.broadcast(dx, dy).shape, dtype=complex)
    nz = r > 0.0
    phase = np.ones_like(out)
    zc = dx + 1j * dy
    phase[nz] = zc[nz] / r[nz]
    if winding == -1:
        phase = np.conj(phase)
    out[nz] = profile.modulus(r[nz]) * phase[nz]
    return out
