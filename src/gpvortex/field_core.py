"""2-D complex fields on uniform rectangular grids.

Discrete differential operators (2nd-order centered, one-sided at the
boundary), weighted inner products and the three norms used throughout
(energy norm, coercivity seminorm, expanded energy norm), smooth cutoff
functions around the vortex zeros, and the angular-harmonic
decomposition with per-half-plane removal of the 0-harmonic.

All multiplicative (psi = phi/Q) expressions are rewritten in terms of
phi, Q and grad Q with a modulus floor at the zeros; the ratio field is
never formed where |Q| is below the floor.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Removable-singularity floor at the vortex zeros.
MODULUS_FLOOR = 1e-9
# The ratio field phi/Q is not resolvable where |Q| falls below the local
# modulus scale of one grid cell (|Q| ~ 0.58 dist for a unit vortex).  A
# node a small fraction of a cell away from a zero otherwise dominates
# quadratures of psi-weighted densities by (h/dist)^2.
RESOLUTION_FLOOR_FACTOR = 0.3


def resolution_floor(grid: "Grid") -> float:
    return max(MODULUS_FLOOR, RESOLUTION_FLOOR_FACTOR * max(grid.hx, grid.hy))

_FIELD_MAGIC = b"GPTWFLD\0"
_FIELD_VERSION = 1


class FieldFileError(Exception):
    """Raised for malformed or corrupted field files."""


@dataclass(eq=True)
class Grid:
    """Uniform rectangular grid over [-lx, lx] x [-ly, ly].

    Node counts are odd so both axes lie on nodes.  Symmetry flags mark
    fields that are even in x1 and conjugate-even in x2.
    """

    lx: float
    ly: float
    nx: int
    ny: int
    sym_even_x1: bool = True
    sym_conj_x2: bool = True

    def __post_init__(self):
        if self.nx % 2 == 0 or self.ny % 2 == 0:
            raise ValueError("node counts must be odd (axes must lie on nodes)")
        if self.nx < 5 or self.ny < 5:
            raise ValueError("grid too small")
        if self.lx <= 0 or self.ly <= 0:
            raise ValueError("half-widths must be positive")

    @property
    def hx(self) -> float:
        return 2.0 * self.lx / (self.nx - 1)

    @property
    def hy(self) -> float:
        return 2.0 * self.ly / (self.ny - 1)

    @cached_property
    def x(self) -> np.ndarray:
        # integer-scaled so the coordinates are exactly symmetric
        return (np.arange(self.nx) - (self.nx - 1) // 2) * self.hx

    @cached_property
    def y(self) -> np.ndarray:
        return (np.arange(self.ny) - (self.ny - 1) // 2) * self.hy

    @cached_property
    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.x, self.y, indexing="ij")

    @cached_property
    def trapezoid_weights(self) -> np.ndarray:
        wx = np.full(self.nx, self.hx)
        wx[0] = wx[-1] = 0.5 * self.hx
        wy = np.full(self.ny, self.hy)
        wy[0] = wy[-1] = 0.5 * self.hy
        return wx[:, None] * wy[None, :]


@dataclass
class ComplexField:
    """Complex nodal values on a grid; axis 0 is x1, axis 1 is x2."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.nx, self.grid.ny):
            raise ValueError(f"value shape {v.shape} does not match grid "
                             f"({self.grid.nx}, {self.grid.ny})")
        self.values = v

    def copy(self) -> "ComplexField":
        return ComplexField(self.grid, self.values.copy())


def crop_field(f: ComplexField, lx: float, ly: float | None = None) -> ComplexField:
    """Restriction of a field to the largest centered sub-box with
    half-widths at most (lx, ly); node-aligned, keeps parity."""
    ly = lx if ly is None else ly
    g = f.grid
    cx, cy = (g.nx - 1) // 2, (g.ny - 1) // 2
    kx = min(int(np.floor(lx / g.hx)), cx)
    ky = min(int(np.floor(ly / g.hy)), cy)
    sub = f.values[cx - kx:cx + kx + 1, cy - ky:cy + ky + 1]
    grid = Grid(kx * g.hx, ky * g.hy, 2 * kx + 1, 2 * ky + 1,
                sym_even_x1=g.sym_even_x1, sym_conj_x2=g.sym_conj_x2)
    return ComplexField(grid, sub.copy())


def symmetrize(f: ComplexField) -> ComplexField:
    """Average over the symmetry images selected by the grid flags."""
    v = f.values
    if f.grid.sym_even_x1:
        v = 0.5 * (v + v[::-1, :])
    if f.grid.sym_conj_x2:
        v = 0.5 * (v + np.conj(v[:, ::-1]))
    return ComplexField(f.grid, v)


def symmetry_defect(f: ComplexField) -> float:
    d = 0.0
    if f.grid.sym_even_x1:
        d = max(d, float(np.max(np.abs(f.values - f.values[::-1, :]))))
    if f.grid.sym_conj_x2:
        d = max(d, float(np.max(np.abs(f.values - np.conj(f.values[:, ::-1])))))
    return d


# ----------------------------------------------------------------------
# discrete differential operators

def _second_derivative(v: np.ndarray, h: float, axis: int) -> np.ndarray:
    v = np.moveaxis(v, axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2])
    out[0] = 2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]
    out[-1] = 2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]
    out /= h * h
    return np.moveaxis(out, 0, axis)


def fd_gradient(f: ComplexField) -> tuple[ComplexField, ComplexField]:
    """Second-order centered differences, one-sided at the boundary."""
    gx = np.gradient(f.values, f.grid.hx, axis=0, edge_order=2)
    gy = np.gradient(f.values, f.grid.hy, axis=1, edge_order=2)
    return ComplexField(f.grid, gx), ComplexField(f.grid, gy)


def fd_laplacian(f: ComplexField) -> ComplexField:
    """5-point stencil in the interior, one-sided second differences at
    the boundary; exact on quadratics."""
    v = f.values
    lap = _second_derivative(v, f.grid.hx, 0) + _second_derivative(v, f.grid.hy, 1)
    return ComplexField(f.grid, lap)


def _check_same_grid(f: ComplexField, g: ComplexField) -> None:
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")


def inner_product(f: ComplexField, g: ComplexField) -> float:
    """Real pairing: trapezoidal quadrature of Re(f conj(g))."""
    _check_same_grid(f, g)
    w = f.grid.trapezoid_weights
    return float(np.sum((f.values * np.conj(g.values)).real * w))


def grid_l2(values, grid: Grid) -> float:
    """Uniform-weight grid L2 norm sqrt(sum |v|^2 hx hy)."""
    v = values.values if isinstance(values, ComplexField) else np.asarray(values)
    return float(np.sqrt(np.sum(np.abs(v) ** 2) * grid.hx * grid.hy))


# ----------------------------------------------------------------------
# multiplicative-variable helpers

def mult_ratio(phi: np.ndarray, Q: np.ndarray, floor: float = MODULUS_FLOOR):
    """psi = conj(Q) phi / |Q|^2 with the modulus floor; returns (psi, mask)."""
    q2 = Q.real**2 + Q.imag**2
    safe = np.maximum(q2, floor**2)
    psi = np.conj(Q) * phi / safe
    return psi, q2 > floor**2


def _ratio_gradient(phi, Q, psi, mask, grid: Grid):
    """grad psi rewritten as (grad phi - psi grad Q)/Q; zero where masked out."""
    out = []
    for axis, h in ((0, grid.hx), (1, grid.hy)):
        dphi = np.gradient(phi, h, axis=axis, edge_order=2)
        dQ = np.gradient(Q, h, axis=axis, edge_order=2)
        num = dphi - psi * dQ
        hat = np.zeros_like(num)
        np.divide(num, Q, out=hat, where=mask)
        out.append(hat)
    return out


# ----------------------------------------------------------------------
# norms

def energy_norm(phi: ComplexField, Q: ComplexField) -> float:
    """Weighted H1-type norm: |grad phi|^2 + |1-|Q|^2| |phi|^2 + Re^2(conj(Q) phi)."""
    _check_same_grid(phi, Q)
    w = phi.grid.trapezoid_weights
    gx, gy = fd_gradient(phi)
    q2 = Q.values.real**2 + Q.values.imag**2
    dens = (np.abs(gx.values) ** 2 + np.abs(gy.values) ** 2
            + np.abs(1.0 - q2) * np.abs(phi.values) ** 2
            + (np.conj(Q.values) * phi.values).real ** 2)
    return float(np.sqrt(np.sum(dens * w)))


def coercivity_seminorm(phi: ComplexField, Q: ComplexField) -> float:
    """Seminorm |grad psi|^2 |Q|^4 + Re^2(psi) |Q|^4 with phi = Q psi.

    Vanishes exactly on the phase direction i Q.  The psi expressions
    are rewritten via phi, Q, grad Q; the integrand is set to zero on
    nodes where |Q| is below the modulus floor.
    """
    _check_same_grid(phi, Q)
    w = phi.grid.trapezoid_weights
    psi, mask = mult_ratio(phi.values, Q.values, resolution_floor(phi.grid))
    q2 = Q.values.real**2 + Q.values.imag**2
    hx_, hy_ = _ratio_gradient(phi.values, Q.values, psi, mask, phi.grid)
    dens = (np.abs(hx_) ** 2 + np.abs(hy_) ** 2) * q2 * q2 \
        + (np.conj(Q.values) * phi.values).real ** 2
    return float(np.sqrt(np.sum(dens * w)))


def expanded_energy_norm(phi: ComplexField, Q: ComplexField, zeros) -> float:
    """H1 norm within distance 10 of either zero plus the far-field
    multiplicative norm |grad psi|^2 + Re^2(psi) + |psi|^2/(r^2 ln^2 r)
    over distance >= 5; finite for phi = i Q."""
    _check_same_grid(phi, Q)
    g = phi.grid
    X, Y = g.mesh
    rt = np.minimum(np.hypot(X - zeros[0][0], Y - zeros[0][1]),
                    np.hypot(X - zeros[1][0], Y - zeros[1][1]))
    w = g.trapezoid_weights

    gx, gy = fd_gradient(phi)
    near = rt <= 10.0
    h1 = np.sum(((np.abs(phi.values) ** 2
                  + np.abs(gx.values) ** 2 + np.abs(gy.values) ** 2) * w)[near])

    psi, mask = mult_ratio(phi.values, Q.values, resolution_floor(g))
    hx_, hy_ = _ratio_gradient(phi.values, Q.values, psi, mask, g)
    far = rt >= 5.0
    lr = np.ones_like(rt)
    np.log(rt, out=lr, where=far)
    dens = (np.abs(hx_) ** 2 + np.abs(hy_) ** 2 + psi.real**2
            + np.abs(psi) ** 2 / np.maximum(rt, 1e-30) ** 2 / lr**2)
    tail = np.sum((dens * w)[far])
    return float(np.sqrt(h1 + tail))


# ----------------------------------------------------------------------
# cutoff

@dataclass
class CutoffEta:
    """Smooth radial ramp vanishing on B(center, r_in) around both zeros
    and equal to 1 outside both B(center, r_out)."""

    centers: tuple
    r_in: float = 1.0
    r_out: float = 2.0

    def _ramp(self, t: np.ndarray) -> np.ndarray:
        t = np.clip(t, 0.0, 1.0)
        return t**3 * (10.0 + t * (-15.0 + 6.0 * t))

    def __call__(self, X, Y) -> np.ndarray:
        out = np.ones(np.broadcast(X, Y).shape)
        for cx, cy in self.centers:
            d = np.hypot(X - cx, Y - cy)
            out = out * self._ramp((d - self.r_in) / (self.r_out - self.r_in))
        return out

    def on_grid(self, grid: Grid) -> np.ndarray:
        X, Y = grid.mesh
        return self(X, Y)


# ----------------------------------------------------------------------
# bilinear sampling and angular harmonics

def bilinear_sample(f: ComplexField, xs, ys, check_inside: bool = True) -> np.ndarray:
    g = f.grid
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    fx = (xs - g.x[0]) / g.hx
    fy = (ys - g.y[0]) / g.hy
    if check_inside:
        eps = 1e-9
        if (np.any(fx < -eps) or np.any(fx > g.nx - 1 + eps)
                or np.any(fy < -eps) or np.any(fy > g.ny - 1 + eps)):
            raise ValueError("sample point outside the grid")
    ix = np.clip(np.floor(fx).astype(int), 0, g.nx - 2)
    iy = np.clip(np.floor(fy).astype(int), 0, g.ny - 2)
    tx = np.clip(fx - ix, 0.0, 1.0)
    ty = np.clip(fy - iy, 0.0, 1.0)
    v = f.values
    return ((1 - tx) * (1 - ty) * v[ix, iy] + tx * (1 - ty) * v[ix + 1, iy]
            + (1 - tx) * ty * v[ix, iy + 1] + tx * ty * v[ix + 1, iy + 1])


def circle_samples(f: ComplexField, center, radius: float, n: int = 256):
    theta = 2.0 * np.pi * np.arange(n) / n
    xs = center[0] + radius * np.cos(theta)
    ys = center[1] + radius * np.sin(theta)
    return theta, bilinear_sample(f, xs, ys)


@dataclass
class HarmonicSlice:
    """Angular Fourier coefficient of a field around a center, per radius."""

    center: tuple
    j: int
    radii: np.ndarray
    coeffs: np.ndarray


def harmonic_project(f: ComplexField, center, j: int, radii,
                     n_samples: int = 256) -> HarmonicSlice:
    """j-harmonic (1/2pi) int psi e^{-ij theta} dtheta on the given circles.

    Periodic trapezoid quadrature over >= 256 samples per circle with
    bilinear interpolation of the field.
    """
    n = max(int(n_samples), 256)
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    coeffs = np.empty(radii.size, dtype=complex)
    for k, r in enumerate(radii):
        theta, vals = circle_samples(f, center, r, n)
        coeffs[k] = np.mean(vals * np.exp(-1j * j * theta))
    return HarmonicSlice(center=tuple(center), j=j, radii=radii, coeffs=coeffs)


def _zero_harmonic_table(f: ComplexField, center, dr: float, n_samples: int = 256):
    g = f.grid
    r_room = min(g.x[-1] - abs(center[0]), g.y[-1] - abs(center[1]))
    r_top = max(r_room - max(g.hx, g.hy), 2.0 * dr)
    radii = np.arange(0.0, r_top + dr, dr)
    coeffs = np.empty(radii.size, dtype=complex)
    coeffs[0] = bilinear_sample(f, np.array([center[0]]), np.array([center[1]]))[0]
    for k in range(1, radii.size):
        _, vals = circle_samples(f, center, radii[k], n_samples)
        coeffs[k] = np.mean(vals)
    return radii, coeffs


def remove_zero_harmonic(f: ComplexField, zeros) -> ComplexField:
    """Subtract the angular 0-harmonic about the nearest of the two
    centers, split by half-plane at x1 = 0 (x1 >= 0 uses the right
    center).  Beyond the largest tabulated circle the outermost
    coefficient is used."""
    g = f.grid
    X, Y = g.mesh
    dr = 0.5 * min(g.hx, g.hy)
    out = f.values.copy()
    right = X >= 0.0
    z0, z1 = zeros
    right_center, left_center = (z0, z1) if z0[0] >= z1[0] else (z1, z0)
    for center, mask in ((right_center, right), (left_center, ~right)):
        radii, coeffs = _zero_harmonic_table(f, center, dr)
        rt = np.hypot(X - center[0], Y - center[1])
        rt = np.clip(rt, 0.0, radii[-1])
        out[mask] -= (np.interp(rt[mask], radii, coeffs.real)
                      + 1j * np.interp(rt[mask], radii, coeffs.imag))
    return ComplexField(g, out)


# ----------------------------------------------------------------------
# field files: binary container + text sidecar

_HEADER = struct.Struct("<8sIII3d")


def _atomic_write(path, data) -> None:
    """Write ``data`` (``str`` or ``bytes``) to ``path`` through a temporary
    file in the same directory, so readers never see a partial file."""
    path = str(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_field(f: ComplexField, path, c: float = float("nan"),
               extra: dict | None = None) -> None:
    g = f.grid
    payload = _HEADER.pack(_FIELD_MAGIC, _FIELD_VERSION, g.nx, g.ny,
                           g.lx, g.ly, c)
    payload += np.ascontiguousarray(f.values, dtype=np.complex128).tobytes()
    path = str(path)
    digest = hashlib.sha256(payload).hexdigest()
    lines = [
        f"sha256 = {digest}",
        f"nx = {g.nx}", f"ny = {g.ny}",
        f"lx = {g.lx!r}", f"ly = {g.ly!r}", f"c = {c!r}",
        f"sym_even_x1 = {g.sym_even_x1}", f"sym_conj_x2 = {g.sym_conj_x2}",
    ]
    for key, val in (extra or {}).items():
        lines.append(f"{key} = {val}")
    _atomic_write(path, payload)
    _atomic_write(path + ".meta", "\n".join(lines) + "\n")


def load_field(path, verify: bool = True):
    path = str(path)
    with open(path, "rb") as fh:
        payload = fh.read()
    if len(payload) < _HEADER.size:
        raise FieldFileError(f"{path}: truncated header")
    magic, version, nx, ny, lx, ly, c = _HEADER.unpack_from(payload)
    if magic != _FIELD_MAGIC or version != _FIELD_VERSION:
        raise FieldFileError(f"{path}: bad magic or version")
    meta = {}
    try:
        with open(path + ".meta") as fh:
            for line in fh:
                key, _, val = line.partition("=")
                if _:
                    meta[key.strip()] = val.strip()
    except FileNotFoundError:
        if verify:
            raise FieldFileError(f"{path}: missing sidecar")
    if verify:
        digest = hashlib.sha256(payload).hexdigest()
        if meta.get("sha256") != digest:
            raise FieldFileError(f"{path}: checksum mismatch")
    data = np.frombuffer(payload[_HEADER.size:], dtype=np.complex128)
    if data.size != nx * ny:
        raise FieldFileError(f"{path}: payload size mismatch")
    sym1 = meta.get("sym_even_x1", "True") == "True"
    sym2 = meta.get("sym_conj_x2", "True") == "True"
    grid = Grid(lx, ly, nx, ny, sym_even_x1=sym1, sym_conj_x2=sym2)
    return ComplexField(grid, data.reshape(nx, ny).copy()), c, meta
