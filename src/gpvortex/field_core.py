"""2-D complex fields on uniform rectangular grids.

The 2nd-order centered gradient (one-sided at the boundary), the grid
L2 norm, the symmetrization onto fields even in x1 and conjugate-even
in x2, the floored ratio psi = phi/Q behind the multiplicative norms,
the smooth cutoff around the vortex zeros, bilinear sampling on points
and circles, and the checksummed binary field files.  The Laplacian
lives with the other interior stencils in ``operators``.

The norms themselves are discretized once, as the Gram matrices of
``spectral``.
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

    Node counts are odd so both axes lie on nodes.
    """

    lx: float
    ly: float
    nx: int
    ny: int

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


def symmetrize(f: ComplexField) -> ComplexField:
    """Average over the images x1 -> -x1 and conj(x2 -> -x2), in that
    order: the result is even in x1 and conjugate-even in x2."""
    v = 0.5 * (f.values + f.values[::-1, :])
    v = 0.5 * (v + np.conj(v[:, ::-1]))
    return ComplexField(f.grid, v)


# ----------------------------------------------------------------------
# discrete differential operators

def fd_gradient(f: ComplexField) -> tuple[ComplexField, ComplexField]:
    """Second-order centered differences, one-sided at the boundary."""
    gx = np.gradient(f.values, f.grid.hx, axis=0, edge_order=2)
    gy = np.gradient(f.values, f.grid.hy, axis=1, edge_order=2)
    return ComplexField(f.grid, gx), ComplexField(f.grid, gy)


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
# bilinear sampling

def bilinear_sample(f: ComplexField, xs, ys) -> np.ndarray:
    g = f.grid
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    fx = (xs - g.x[0]) / g.hx
    fy = (ys - g.y[0]) / g.hy
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


def circle_samples(f: ComplexField, center, radius: float):
    """Bilinear samples of f at 256 equispaced angles on a circle."""
    theta = 2.0 * np.pi * np.arange(256) / 256
    xs = center[0] + radius * np.cos(theta)
    ys = center[1] + radius * np.sin(theta)
    return theta, bilinear_sample(f, xs, ys)


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
    ]
    for key, val in (extra or {}).items():
        lines.append(f"{key} = {val}")
    _atomic_write(path, payload)
    _atomic_write(path + ".meta", "\n".join(lines) + "\n")


def load_field(path):
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
        raise FieldFileError(f"{path}: missing sidecar")
    if meta.get("sha256") != hashlib.sha256(payload).hexdigest():
        raise FieldFileError(f"{path}: checksum mismatch")
    data = np.frombuffer(payload[_HEADER.size:], dtype=np.complex128)
    if data.size != nx * ny:
        raise FieldFileError(f"{path}: payload size mismatch")
    return ComplexField(Grid(lx, ly, nx, ny), data.reshape(nx, ny).copy()), c, meta
