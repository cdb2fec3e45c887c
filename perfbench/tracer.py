"""Span tracer for the traced benchmark run.

``Tracer.install`` wraps every public function and public method of the
gpvortex layer modules, at every place the function is bound (a name
brought in with ``from ... import`` is a second binding), plus
``scipy.sparse.linalg.splu``.  Each call records a span: name, start, end,
parent and whether it raised.  Spans stay in memory until the run ends.
``Tracer.restore`` puts every patched attribute back.

The sparse LU counts as part of the layer whose span is open when it is
called.  The ``splu`` wrapper returns a proxy that counts every ``solve``
per call and per right-hand-side column; fill is read from
``SuperLU.nnz`` (reading ``L``/``U`` would copy the factors).
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "vortex_profile", "ansatz", "field_core", "operators",
          "tw_solver", "linearization", "spectral")
LU_OWNERS = ("tw_solver", "spectral")

# bytes one triangular-solve pass reads per stored factor entry: an
# 8-byte value and a 4-byte index (computed, not measured)
BYTES_PER_NNZ = 12


class Span:
    __slots__ = ("name", "start", "end", "parent", "error")

    def __init__(self, name, start, parent):
        self.name, self.start, self.end = name, start, start
        self.parent, self.error = parent, False


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []
        self._patches = []

    # -- spans -----------------------------------------------------------
    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                self._close(span)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        traced.__wrapped_by_perfbench__ = True
        return traced

    def _owner(self):
        """Layer of the innermost open span that may own a factorization."""
        for span in reversed(self._stack):
            layer = span.name.split(".", 1)[0]
            if layer in LU_OWNERS:
                return layer
        return "other"

    # -- patching --------------------------------------------------------
    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import scipy.sparse.linalg as spla

        wrappers = {}   # id(original function) -> wrapper
        for layer in LAYERS:
            module = sys.modules[f"gpvortex.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    adapter = _ADAPTERS.get(name)
                    target = adapter(self, obj) if adapter else obj
                    wrappers[id(obj)] = self._wrap(name, target, _HOOKS.get(name))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._set(obj, meth, self._wrap(f"{layer}.{attr}.{meth}", fn))
        # every binding of each wrapped function, across the whole package
        for modname, module in list(sys.modules.items()):
            if modname == "gpvortex" or modname.startswith("gpvortex."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in wrappers and inspect.isfunction(obj):
                        self._set(module, attr, wrappers[id(obj)])
        self._set(spla, "splu", self._splu(spla.splu))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        leftover = [f"{m}.{a}" for m, mod in list(sys.modules.items())
                    if m == "gpvortex" or m.startswith("gpvortex.")
                    for a, v in vars(mod).items()
                    if getattr(v, "__wrapped_by_perfbench__", False)]
        import scipy.sparse.linalg as spla
        if leftover or getattr(spla.splu, "__wrapped_by_perfbench__", False):
            raise RuntimeError(f"patched attributes left behind: {leftover}")

    # -- sparse LU ---------------------------------------------------------
    def _splu(self, splu):
        @functools.wraps(splu)
        def traced_splu(*args, **kwargs):
            owner = self._owner()
            span = self._open(f"{owner}.lu_factor")
            try:
                lu = splu(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                self._close(span)
            nnz = lu.nnz
            c = self.counts
            c[f"{owner}.lu_factors"] += 1
            c[f"{owner}.lu_nnz"] += nnz
            c[f"{owner}.lu_nnz_max"] = max(c[f"{owner}.lu_nnz_max"], nnz)
            return _LUProxy(lu, owner, nnz, self)
        traced_splu.__wrapped_by_perfbench__ = True
        return traced_splu

    # -- summary -----------------------------------------------------------
    def summary(self) -> dict:
        """Inclusive and self seconds and call counts per span name.

        Inclusive time counts a span only when no ancestor has the same
        name, so recursion is not counted twice."""
        child = self._child_durations()
        incl, self_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for s in self.spans:
            dur = s.end - s.start
            calls[s.name] += 1
            self_s[s.name] += dur - child[id(s)]
            p = s.parent
            while p is not None and p.name != s.name:
                p = p.parent
            if p is None:
                incl[s.name] += dur
        return {"incl": incl, "self": self_s, "calls": calls}

    def _child_durations(self) -> dict:
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[id(s.parent)] += s.end - s.start
        return child

    def child_time(self, parent_name: str, child_name: str) -> float:
        return sum(s.end - s.start for s in self.spans
                   if s.name == child_name and s.parent is not None
                   and s.parent.name == parent_name)

    def write(self, path: str) -> None:
        index = {id(s): k for k, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for s in self.spans:
                parent = index[id(s.parent)] if s.parent is not None else -1
                fh.write(f"{s.name}\t{s.start!r}\t{s.end!r}\t{parent}\t{int(s.error)}\n")


class _LUProxy:
    """SuperLU stand-in that times and counts each solve."""

    __slots__ = ("_lu", "_owner", "_nnz", "_tracer")

    def __init__(self, lu, owner, nnz, tracer):
        self._lu, self._owner, self._nnz, self._tracer = lu, owner, nnz, tracer

    def solve(self, rhs, *args, **kwargs):
        t = self._tracer
        span = t._open(f"{self._owner}.lu_solve")
        try:
            return self._lu.solve(rhs, *args, **kwargs)
        finally:
            t._close(span)
            c = t.counts
            c[f"{self._owner}.lu_solve_calls"] += 1
            c[f"{self._owner}.lu_solve_cols"] += rhs.shape[1] if rhs.ndim == 2 else 1
            c[f"{self._owner}.lu_solve_bytes"] += BYTES_PER_NNZ * self._nnz

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


# -- per-function hooks and adapters ------------------------------------------

def _count_steps(tracer, args, kwargs, result):
    tracer.counts["tw_solver.newton_steps"] += result[1]["steps"]


def _count_evolve(tracer, args, kwargs, result):
    tracer.counts["spectral.evolve_steps"] += len(result["times"]) - 1


def _file_bytes(path) -> int:
    path = str(path)
    return sum(os.path.getsize(p) for p in (path, path + ".meta") if os.path.exists(p))


def _count_save(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.counts["field_core.save_field_bytes"] += _file_bytes(path)


def _count_load(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.counts["field_core.load_field_bytes"] += _file_bytes(path)


_HOOKS = {
    "tw_solver.newton_solve": _count_steps,
    "spectral.evolve_linearized": _count_evolve,
    "field_core.save_field": _count_save,
    "field_core.load_field": _count_load,
}


def _coercivity_adapter(tracer, fn):
    """Ask for the info dict to read ``converged``; hand the caller what it
    asked for.  The computation is the same either way."""
    @functools.wraps(fn)
    def call(*args, return_info=False, **kwargs):
        val, info = fn(*args, return_info=True, **kwargs)
        tracer.counts["spectral.coercivity_sets"] += 1
        tracer.counts["spectral.coercivity_unconverged"] += not info["converged"]
        return (val, info) if return_info else val
    return call


_ADAPTERS = {"spectral.constrained_coercivity": _coercivity_adapter}


# -- per-layer metrics -----------------------------------------------------------

STAGES = ("branch", "uniqueness", "spectrum", "stability")


def per_layer_metrics(tracer: Tracer, stage_walls: list, cpu_s: float) -> dict:
    """Per-layer numbers of one traced pass, as {name: (value, unit)}.

    ``stage_walls`` holds (subcommand, seconds) per stage in call order;
    each stage is one root span (``cli.main``)."""
    summ = tracer.summary()
    incl, self_s, calls = summ["incl"], summ["self"], summ["calls"]
    counts = tracer.counts
    out = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    for stage in STAGES:
        put(f"cli.{stage}_s", sum(w for s, w in stage_walls if s == stage), "s")
    put("cli.cpu_s", cpu_s, "s")
    put("cli.self_s", sum(v for k, v in self_s.items() if k.startswith("cli.")), "s")

    for name, span in (("continue_branch", "continue_branch"),
                       ("newton_solve", "newton_solve"),
                       ("perturb_and_resolve", "perturb_and_resolve")):
        put(f"tw_solver.{name}_s", incl[f"tw_solver.{span}"], "s")
    put("tw_solver.newton_calls", calls["tw_solver.newton_solve"], "count")
    put("tw_solver.newton_steps", counts["tw_solver.newton_steps"], "count")
    put("tw_solver.newton_fallbacks",
        sum(1 for s in tracer.spans if s.name == "tw_solver.newton_solve" and s.error
            and s.parent is not None and s.parent.name == "tw_solver.continue_branch"),
        "count")

    for layer in LU_OWNERS:
        put(f"{layer}.lu_factor_s", incl[f"{layer}.lu_factor"], "s")
        put(f"{layer}.lu_factors", counts[f"{layer}.lu_factors"], "count")
        put(f"{layer}.lu_nnz", counts[f"{layer}.lu_nnz"], "count")
        put(f"{layer}.lu_nnz_max", counts[f"{layer}.lu_nnz_max"], "count")
        put(f"{layer}.lu_solve_s", incl[f"{layer}.lu_solve"], "s")
    put("spectral.lu_solve_calls", counts["spectral.lu_solve_calls"], "count")
    put("spectral.lu_solve_cols", counts["spectral.lu_solve_cols"], "count")
    put("spectral.lu_solve_bytes", counts["spectral.lu_solve_bytes"], "B_computed")

    put("operators.linearized_matrix_s", incl["operators.linearized_matrix"], "s")
    put("operators.linearized_matrix_calls", calls["operators.linearized_matrix"], "count")
    put("operators.quarter_reduce_s", incl["operators.QuarterMaps.reduce"], "s")
    put("operators.quarter_reduce_calls", calls["operators.QuarterMaps.reduce"], "count")
    put("operators.tw_residual_calls", calls["operators.tw_residual_values"], "count")

    for name in ("assemble", "kernel_and_negative", "ritz_basis"):
        put(f"spectral.{name}_s", incl[f"spectral.{name}"], "s")
    put("spectral.ritz_basis_calls", calls["spectral.ritz_basis"], "count")
    put("spectral.coercivity_self_s", self_s["spectral.constrained_coercivity"], "s")
    put("spectral.coercivity_sets", counts["spectral.coercivity_sets"], "count")
    put("spectral.coercivity_unconverged", counts["spectral.coercivity_unconverged"],
        "count")
    evolve = incl["spectral.evolve_linearized"]
    steps = counts["spectral.evolve_steps"]
    put("spectral.evolve_s", evolve, "s")
    put("spectral.evolve_steps", steps, "count")
    factor = tracer.child_time("spectral.evolve_linearized", "spectral.lu_factor")
    put("spectral.evolve_step_s", (evolve - factor) / steps if steps else 0.0, "s")

    put("linearization.prop12_report_s", incl["linearization.prop12_report"], "s")
    put("linearization.build_directions_s", incl["linearization.build_directions"], "s")
    for name in ("save_field", "load_field"):
        put(f"field_core.{name}_s", incl[f"field_core.{name}"], "s")
        put(f"field_core.{name}_bytes", counts[f"field_core.{name}_bytes"], "B")
    put("ansatz.build_two_vortex_s", incl["ansatz.build_two_vortex"], "s")
    put("ansatz.build_two_vortex_calls", calls["ansatz.build_two_vortex"], "count")
    put("vortex_profile.solve_vortex_ode_s", incl["vortex_profile.solve_vortex_ode"], "s")

    # the self times of each stage's spans, as a share of its wall time
    child = tracer._child_durations()
    root_self = defaultdict(float)
    for s in tracer.spans:
        root = s
        while root.parent is not None:
            root = root.parent
        root_self[id(root)] += (s.end - s.start) - child[id(s)]
    roots = [s for s in tracer.spans if s.parent is None]
    shares = [root_self[id(r)] / wall for r, (_, wall) in zip(roots, stage_walls)]
    put("trace.self_time_frac", min(shares) if len(shares) == len(stage_walls) else 0.0,
        "ratio")
    put("trace.spans", len(tracer.spans), "count")
    return out
