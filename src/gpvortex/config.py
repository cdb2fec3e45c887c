"""Run configuration: a flat key = value text format, validation,
derived grid rules, and the config hash stamped on every output."""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass, fields

from .ansatz import BOUNDARY_MARGIN, MAX_SPEED, NEIGHBOR_FRAC_CAP
from .field_core import Grid
from .tw_solver import MAX_UNIQUENESS_DELTA, default_grid_rule

# Least distance from the cores (at 1/c) to the box edge on the grid the
# stability stage evolves on.  A nearer edge cuts off the slowly decaying
# tail of the translation mode d1 Q, and its energy drifts by more than 1%
# over T = 50: 3.1-4.1% at 20, 1.0% at 30, 0.6-0.7% at 35 (c = 0.1 with
# dt = 0.2 and c = 0.2 with dt = 0.5).
STABILITY_EDGE_MARGIN = 35.0

# derivative entries sit at c (1 +- NEIGHBOR_QUAD * c^2): the speed
# derivatives of the branch grow like 1/c^2 per order, so a c^2-scaled
# offset keeps the centered-difference error uniform over the branch
NEIGHBOR_QUAD = 0.5

# Least value of each integer field.  A node-count cap of 5 or fewer
# leaves no interior for the margin widening of ``default_grid_rule``.
# ``constrained_coercivity`` checks a Ritz minimum against the leading
# max(8, size // 2) columns; below 16 columns that is not the half basis,
# and at 8 or fewer it compares the basis with itself.
INT_MINIMA = {"max_nx": 7, "basis_size": 16, "seed": 0, "stability_samples": 0}
# fields that must be positive finite numbers: box factors, spacings,
# tolerances, radii, speeds, times and time steps
POSITIVE = ("box_factor", "h_target", "newton_tol", "r_ball", "stability_T",
            "stability_dt", "stability_speed", "uniqueness_speed")


def _is_a(val, kind) -> bool:
    """``val`` is a number of ``kind``; a bool is not a number here."""
    return isinstance(val, kind) and not isinstance(val, bool)


def _parse_scalar(text: str):
    text = text.strip()
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            continue
    return text


@dataclass
class RunConfig:
    """Knobs for the full pipeline; the docstrings of ``grid_rule`` and
    ``stability_grid_rule`` give the meaning of the two grid rules
    (spectral-scale and stability boxes).  Only ``stability`` may widen a
    box, where it solves its one entry alone; the energy-momentum
    identities read the spectral-scale boxes with ``ansatz_tail``.
    No field selects the constraint sets: ``spectrum`` always computes
    the paper's five constants in one fixed plan (see ``cli``).

    ``config_hash`` identifies the computation: it covers every field
    except ``out_dir``, so outputs moved to another directory keep their
    hash.  ``canonical_text``/``load_config`` round-trip every field."""

    speeds: tuple = (0.1, 0.05, 0.03)
    box_factor: float = 3.0
    h_target: float = 0.4
    max_nx: int = 401
    newton_tol: float = 1e-11
    r_ball: float = 10.0
    basis_size: int = 160
    seed: int = 1234
    stability_T: float = 100.0
    stability_dt: float = 0.2
    stability_samples: int = 5
    stability_speed: float = 0.05
    uniqueness_delta: float = 1e-3
    uniqueness_speed: float = 0.1
    out_dir: str = "runs/gpvortex"

    def __post_init__(self):
        """Reject a malformed field with a ``ValueError`` naming its key."""
        for name, least in INT_MINIMA.items():
            val = getattr(self, name)
            if not (_is_a(val, numbers.Integral) and val >= least):
                raise ValueError(f"{name} must be an integer >= {least}, "
                                 f"not {val!r}")
        for name in POSITIVE:
            val = getattr(self, name)
            if not (_is_a(val, numbers.Real) and 0.0 < val < math.inf):
                raise ValueError(f"{name} must be a positive number, not {val!r}")
        if not self.speeds or any(not (_is_a(c, numbers.Real) and 0.0 < c <= MAX_SPEED)
                                  for c in self.speeds):
            raise ValueError(f"speeds must lie in (0, {MAX_SPEED}]")
        for a, b in zip(self.speeds, self.speeds[1:]):
            if a <= b:
                raise ValueError("speeds must be strictly decreasing")
            if self.neighbor_triple(a)[-1] <= self.neighbor_triple(b)[0]:
                raise ValueError(f"speeds {a} and {b} are too close: their "
                                 f"derivative triples overlap")
        if self.r_ball <= 5.0:
            raise ValueError("r_ball (orthogonality ball radius) must exceed 5")
        if self.max_nx % 2 == 0:
            raise ValueError("node-count cap max_nx must be odd")
        if not (isinstance(self.out_dir, str) and self.out_dir):
            raise ValueError(f"out_dir must be a non-empty path, not {self.out_dir!r}")
        delta = self.uniqueness_delta
        if not (_is_a(delta, numbers.Real) and 0.0 < delta <= MAX_UNIQUENESS_DELTA):
            raise ValueError(f"uniqueness_delta: uniqueness perturbation must "
                             f"lie in (0, {MAX_UNIQUENESS_DELTA:g}]")

    # -- grid rules ----------------------------------------------------
    def _rule(self, c: float, reach: float) -> Grid:
        c_lo = self.neighbor_triple(c)[-1]
        core_reach = 1.0 / c_lo + max(BOUNDARY_MARGIN, self.r_ball)
        return default_grid_rule(c, box_factor=self.box_factor,
                                 h_target=self.h_target, max_nx=self.max_nx,
                                 reach=max(reach, core_reach))

    def grid_rule(self, c: float) -> Grid:
        """Spectral-scale grid of main speed c, shared by every entry of
        its derivative triple.

        Margin guarantee: the half-width is at least
        1/c_lo + max(BOUNDARY_MARGIN, r_ball) + 2h, with c_lo the lowest
        speed of the triple, so the ansatz margin check and the
        orthogonality balls around the cores hold for every entry.  At the
        default box factor every c <= 0.1 already leaves 19.5 or more
        beyond the cores; only the small boxes of fast waves are widened."""
        return self._rule(c, 0.0)

    def stability_grid_rule(self, c: float) -> Grid:
        """The spectral-scale rule of main speed c, widened so that the
        edge lies at least STABILITY_EDGE_MARGIN beyond the cores (at
        1/c); it keeps the margin guarantee of ``grid_rule``."""
        return self._rule(c, 1.0 / c + STABILITY_EDGE_MARGIN)

    def neighbor_triple(self, c: float) -> list:
        """Main speed c between its two derivative neighbours, decreasing."""
        frac = min(NEIGHBOR_QUAD * c * c, NEIGHBOR_FRAC_CAP)
        return [c * f for f in (1.0 + frac, 1.0, 1.0 - frac)]

    def speeds_with_neighbors(self):
        """Strictly decreasing speed list with the two derivative
        neighbours per main speed, plus the map from each listed speed to
        its main speed; the benchmark's branch check counts the entries
        with it."""
        out, anchors = [], {}
        for c in self.speeds:
            for s in self.neighbor_triple(c):
                out.append(s)
                anchors[s] = c
        return out, anchors

    # -- text round trip ----------------------------------------------
    def canonical_text(self, hashed: bool = False) -> str:
        """One ``key = value`` line per field; with ``hashed``, only the
        fields the config hash covers (all but ``out_dir``)."""
        lines = []
        for f in fields(self):
            if hashed and f.name == "out_dir":
                continue
            val = getattr(self, f.name)
            if isinstance(val, tuple):
                val = ", ".join(str(v) for v in val)
            lines.append(f"{f.name} = {val}")
        return "\n".join(lines) + "\n"

    @property
    def config_hash(self) -> str:
        """Hash of the computation's inputs; independent of ``out_dir``."""
        text = self.canonical_text(hashed=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_config(path=None, overrides=None) -> RunConfig:
    """Read a key = value config file; later ``overrides`` win."""
    data = {}
    if path is not None:
        with open(path) as fh:
            for ln, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                key, sep, val = line.partition("=")
                if not sep:
                    raise ValueError(f"{path}:{ln}: expected 'key = value'")
                data[key.strip()] = val.strip()
    data.update(overrides or {})
    known = {f.name for f in fields(RunConfig)}
    unknown = set(data) - known
    if unknown:
        msg = f"unknown configuration keys: {sorted(unknown)}"
        if "constraint_sets" in unknown:
            msg += ("; constraint_sets is no longer a setting: spectrum always"
                    " computes none, three, four, phase4 and sym3")
        raise ValueError(msg)
    kwargs = {}
    for key, val in data.items():
        if isinstance(val, str):
            if key == "speeds":
                parts = [p for p in val.replace(",", " ").split() if p]
                kwargs[key] = tuple(_parse_scalar(p) for p in parts)
            else:
                kwargs[key] = _parse_scalar(val)
        else:
            kwargs[key] = val
    return RunConfig(**kwargs)
