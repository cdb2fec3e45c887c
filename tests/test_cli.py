"""Command-line driver: subcommands, exit codes, persistence layout,
idempotent resume, and deterministic outputs."""

import ast
import hashlib
import json
import os
import re
import runpy
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import Future
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gpvortex
from conftest import READER_STAGES, read_prop12_csv, src_env
from gpvortex import cli
from gpvortex.ansatz import MAX_SPEED
from gpvortex.cli import main
from gpvortex.config import STABILITY_EDGE_MARGIN, RunConfig, load_config
from gpvortex.field_core import ComplexField, grid_l2
from gpvortex.tw_solver import (
    _perturbation,
    linearized_lu,
    load_branch,
    newton_solve,
)
from gpvortex.vortex_profile import RadialProfile

FAST = ["--speeds", "0.2,0.17"]


def run(args, tmp_path, extra_cfg=None):
    cfgfile = tmp_path / "run.cfg"
    cfg = {"max_nx": 201, "newton_tol": 1e-10, "stability_T": 10.0,
           "stability_dt": 0.5, "stability_samples": 1,
           "stability_speed": 0.2, "uniqueness_speed": 0.2,
           "basis_size": 60}
    cfg.update(extra_cfg or {})
    cfgfile.write_text("\n".join(f"{k} = {v}" for k, v in cfg.items()) + "\n")
    return main(["--config", str(cfgfile), "--out", str(tmp_path / "out")]
                + FAST + args)


def test_config_roundtrip(tmp_path):
    cfg = RunConfig()
    path = tmp_path / "cfg.txt"
    path.write_text(cfg.canonical_text())
    back = load_config(path)
    assert back == cfg
    assert back.config_hash == cfg.config_hash


positive = st.floats(1e-3, 1e3)
odd_cap = st.integers(3, 600).map(lambda k: 2 * k + 1)


@st.composite
def run_configs(draw):
    drawn = draw(st.lists(st.floats(1e-3, MAX_SPEED), min_size=1, max_size=4,
                          unique=True))
    # a speed whose derivative triple would overlap the last one kept is
    # dropped: the config refuses such a pair
    triple, speeds = RunConfig().neighbor_triple, []
    for c in sorted(drawn, reverse=True):
        if not speeds or triple(speeds[-1])[-1] > triple(c)[0]:
            speeds.append(c)
    return RunConfig(
        speeds=tuple(speeds),
        box_factor=draw(positive), h_target=draw(positive), max_nx=draw(odd_cap),
        newton_tol=draw(st.floats(1e-14, 1e-6)),
        r_ball=draw(st.floats(5.001, 50.0)),
        basis_size=draw(st.integers(16, 400)), seed=draw(st.integers(0, 2**63)),
        stability_T=draw(positive), stability_dt=draw(positive),
        stability_samples=draw(st.integers(0, 20)),
        stability_speed=draw(st.floats(1e-3, MAX_SPEED)),
        uniqueness_delta=draw(st.floats(1e-8, 1e-2)),
        uniqueness_speed=draw(st.floats(1e-3, MAX_SPEED)),
        out_dir="runs/" + draw(st.from_regex(r"[a-z0-9_/.-]{0,20}", fullmatch=True)))


@settings(max_examples=100, deadline=None)
@given(cfg=run_configs())
def test_config_text_roundtrip_property(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.txt")
        with open(path, "w") as fh:
            fh.write(cfg.canonical_text())
        back = load_config(path)
    assert back == cfg
    assert back.config_hash == cfg.config_hash


@pytest.mark.parametrize("key", ["jobs", "eta_shape", "kernel_speed",
                                 "kernel_box_factor", "neighbor_quad",
                                 "diag_box_factor", "diag_max_nx",
                                 "max_newton_steps", "constraint_sets"])
def test_removed_config_keys_are_config_errors(tmp_path, capsys, key):
    with pytest.raises(ValueError, match=f"unknown configuration keys.*{key}"):
        load_config(None, {key: "1"})
    cfgfile = tmp_path / "old.cfg"
    cfgfile.write_text(f"{key} = 1\n")
    assert main(["--config", str(cfgfile), "--out", str(tmp_path / "out"),
                 "spectrum"]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["--jobs", "2", "report"],
                                  ["spectrum", "--eta-check"],
                                  ["branch", "--diag"]])
def test_removed_flags_exit_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path / "out")] + FAST + argv)
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def _config_reads() -> set:
    """Attribute names read as ``self.X`` or ``cfg.X`` in the package
    modules, outside the ``__post_init__`` validators."""
    pkg = os.path.dirname(gpvortex.__file__)
    reads = set()
    for name in sorted(f for f in os.listdir(pkg) if f.endswith(".py")):
        with open(os.path.join(pkg, name)) as fh:
            tree = ast.parse(fh.read())
        validators = {id(n) for fn in ast.walk(tree)
                      if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
                      for n in ast.walk(fn)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("self", "cfg")
                    and id(node) not in validators):
                reads.add(node.attr)
    return reads


def test_every_config_field_is_read():
    # a knob that nothing reads changes no run; the text round trip and
    # the config hash read every field generically, so they do not count
    reads = _config_reads()
    assert [f.name for f in fields(RunConfig) if f.name not in reads] == []


def _refs(node):
    """Nodes under ``node``, without the bodies of the methods of a class:
    a method is walked only once something names it."""
    todo = [node]
    while todo:
        cur = todo.pop()
        yield cur
        for child in ast.iter_child_nodes(cur):
            if not (isinstance(cur, ast.ClassDef)
                    and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))):
                todo.append(child)


def _unreached_definitions() -> set:
    """Top-level functions and classes of the package modules (all but
    ``__init__``), and methods of the classes, that no chain of name or
    attribute references reaches from ``main``, ``console_main`` and the
    module-level statements.  References match by name across modules.
    A reached class reaches its decorators, bases and class-level
    statements, and its dunder methods; any other method is reached when
    reached code names it as an attribute.  Names are matched, not
    types: a method is taken as reached when reached code reads any
    attribute of its name, so one that shares a name with a NumPy method
    such as ``ndarray.copy`` escapes this test."""
    pkg = os.path.dirname(gpvortex.__file__)
    defs, methods, roots = {}, {}, []
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        with open(os.path.join(pkg, name)) as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
            else:
                roots.append(node)
    reached = {"main", "console_main"}
    attrs = set()               # attribute names that reached code reads
    todo = roots + defs["main"] + defs["console_main"]
    while todo:
        for ref in _refs(todo.pop()):
            if isinstance(ref, ast.ClassDef):
                for fn in ref.body:
                    if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    if fn.name.startswith("__") and fn.name.endswith("__"):
                        todo.append(fn)
                    else:
                        methods[f"{ref.name}.{fn.name}"] = fn
                continue
            if isinstance(ref, ast.Name) and isinstance(ref.ctx, ast.Load):
                ident = ref.id
            elif isinstance(ref, ast.Attribute) and isinstance(ref.ctx, ast.Load):
                ident = ref.attr
                attrs.add(ident)
            else:
                continue
            if ident in defs and ident not in reached:
                reached.add(ident)
                todo += defs[ident]
        for qual, fn in list(methods.items()):
            if fn.name in attrs and qual not in reached:
                reached.add(qual)
                todo.append(fn)
    return (set(defs) | set(methods)) - reached


def test_every_definition_is_reached_from_the_cli():
    # code that no CLI stage runs is a second path to keep in step; a
    # definition kept on purpose without a caller is named here: the
    # benchmark's branch check counts the listed speeds with
    # ``speeds_with_neighbors``
    allowed = {"RunConfig.speeds_with_neighbors"}
    assert sorted(_unreached_definitions() - allowed) == []


def _unread_parameters() -> set:
    """``module.function.parameter`` (``module.Class.method.parameter``
    for a method, ``<lambda>`` for a lambda) of each parameter of a
    function, method or lambda in the package that its body never reads
    by name; reads in nested definitions count.  A method's receiver is
    not a parameter here: the instance passes it."""
    pkg = os.path.dirname(gpvortex.__file__)
    unread = set()

    def visit(node, qual):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{qual}.{child.name}")
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = f"{qual}.{getattr(child, 'name', '<lambda>')}"
                a = child.args
                params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                          + [a.vararg, a.kwarg] if p is not None]
                if isinstance(node, ast.ClassDef):
                    params = params[1:]
                body = child.body if isinstance(child.body, list) else [child.body]
                reads = {n.id for stmt in body for n in ast.walk(stmt)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                unread.update(f"{name}.{p}" for p in params if p not in reads)
                visit(child, name)
                continue
            visit(child, qual)

    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                visit(ast.parse(fh.read()), name[:-3])
    return unread


def test_every_parameter_is_read():
    # a parameter that its body never reads is a knob that changes
    # nothing; the one exception is the chord solve of the uniqueness
    # re-solves, whose lambda takes the iterate and the speed because
    # ``newton_solve`` passes them to every linear solve
    allowed = {"tw_solver.perturb_and_resolve.<lambda>.W",
               "tw_solver.perturb_and_resolve.<lambda>.c"}
    assert sorted(_unread_parameters() - allowed) == []


def _gradient_callers() -> set:
    """``module.function`` (``module.Class.method`` for a method) of each
    definition in the package that calls ``np.gradient``."""
    pkg = os.path.dirname(gpvortex.__file__)
    callers = set()

    def visit(node, qual):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{qual}.{child.name}")
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "gradient"
                    and isinstance(child.func.value, ast.Name)
                    and child.func.value.id == "np"):
                callers.add(qual)
            visit(child, qual)

    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                visit(ast.parse(fh.read()), name[:-3])
    return callers


def test_np_gradient_only_in_the_shared_stencil():
    # every derivative of a wave comes from one stencil; the radial
    # profile's own mesh is the one other caller
    allowed = {"vortex_profile.RadialProfile.curvature_maxima"}
    callers = _gradient_callers()
    assert "linearization.translation_direction" in callers
    assert sorted(callers - {"linearization.translation_direction"} - allowed) == []


def _defaulted_parameters() -> dict:
    """``function.parameter`` -> (function name, position in a call or
    None for keyword-only, parameter name) for each parameter with a
    default of a function or method in the package modules; a method is
    named by its class, ``Class.method.parameter``."""
    pkg = os.path.dirname(gpvortex.__file__)
    out = {}
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg, name)) as fh:
            tree = ast.parse(fh.read())
        funcs = [(fn.name, fn, False) for fn in tree.body
                 if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
        funcs += [(f"{cls.name}.{fn.name}", fn, True) for cls in tree.body
                  if isinstance(cls, ast.ClassDef) for fn in cls.body
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for qual, fn, method in funcs:
            args = fn.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], first):
                # a call on an instance passes no self
                out[f"{qual}.{arg.arg}"] = (fn.name, i - method, arg.arg)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    out[f"{qual}.{arg.arg}"] = (fn.name, None, arg.arg)
    return out


def _unset_defaulted_parameters() -> list:
    """The defaulted parameters of ``_defaulted_parameters`` that no call
    in the package or the tests passes, by position or by keyword.  Calls
    match by the called name or attribute across modules; a call with
    ``*args`` or ``**kwargs`` passes every parameter it could reach."""
    roots = [os.path.dirname(gpvortex.__file__), os.path.dirname(__file__)]
    passed = {}                 # called name -> (most positional, keywords)
    for root in roots:
        for name in sorted(os.listdir(root)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(root, name)) as fh:
                tree = ast.parse(fh.read())
            for call in ast.walk(tree):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                callee = (func.id if isinstance(func, ast.Name)
                          else func.attr if isinstance(func, ast.Attribute) else None)
                if callee is None:
                    continue
                npos, kws = passed.get(callee, (0, set()))
                npos = max(npos, float("inf") if any(
                    isinstance(a, ast.Starred) for a in call.args) else len(call.args))
                kws = kws | {k.arg for k in call.keywords}
                passed[callee] = (npos, kws)
    unset = []
    for qual, (fname, index, arg) in _defaulted_parameters().items():
        npos, kws = passed.get(fname, (0, set()))
        if not (None in kws or arg in kws or (index is not None and npos > index)):
            unset.append(qual)
    return sorted(unset)


def test_every_defaulted_parameter_is_set_by_a_caller():
    # a default that no caller overrides is a constant in disguise: a
    # knob that changes no run; make it a constant or a literal instead
    assert _unset_defaulted_parameters() == []


def test_uniqueness_delta_zero_exits_2(tmp_path, capsys):
    # an unperturbed run checks nothing: the scale must be positive
    assert run(["uniqueness"], tmp_path, {"uniqueness_delta": 0}) == 2
    assert "uniqueness perturbation" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(speeds=(0.5,))
    with pytest.raises(ValueError):
        RunConfig(speeds=(0.05, 0.1))
    with pytest.raises(ValueError):
        RunConfig(r_ball=4.0)
    with pytest.raises(ValueError):
        load_config(None, {"no_such_key": 1})


@pytest.mark.parametrize("key, value", [
    ("seed", 1.5), ("seed", -3), ("h_target", 0), ("stability_dt", 0),
    ("basis_size", 0), ("basis_size", 1), ("basis_size", 8), ("basis_size", 2.5),
    ("stability_samples", 1.5), ("stability_samples", -1), ("stability_T", 0)])
def test_malformed_config_value_exits_2(tmp_path, capsys, key, value):
    code = run(["spectrum" if key == "basis_size" else "stability"], tmp_path,
               {key: value})
    err = capsys.readouterr().err
    assert code == 2
    assert key in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_config_hash_ignores_out_dir(tmp_path):
    cfg = RunConfig(out_dir="a")
    moved = RunConfig(out_dir="b")
    assert moved.config_hash == cfg.config_hash
    assert RunConfig(seed=7).config_hash != cfg.config_hash
    path = tmp_path / "cfg.txt"
    path.write_text(moved.canonical_text())
    assert load_config(path).out_dir == "b"


@pytest.mark.parametrize("speeds", [(0.2, 0.17), (0.1, 0.05, 0.03)])
def test_grid_rule_margin_holds_for_every_neighbour(speeds):
    # every listed speed, neighbours included, is solved on the grids of
    # its main speed: those keep its cores, at 1/c, inside the margins
    from gpvortex.ansatz import BOUNDARY_MARGIN
    cfg = RunConfig(speeds=speeds)
    listed, anchors = cfg.speeds_with_neighbors()
    for c in listed:
        wide = cfg.stability_grid_rule(anchors[c])
        for g in (cfg.grid_rule(anchors[c]), wide):
            assert g.lx >= 1.0 / c + max(BOUNDARY_MARGIN, cfg.r_ball) + 2 * g.hx
        # the stability box's own promise: its edge lies STABILITY_EDGE_MARGIN
        # beyond the cores at 1/anchor
        assert wide.lx >= 1.0 / anchors[c] + STABILITY_EDGE_MARGIN + 2 * wide.hx


@settings(max_examples=200, deadline=None)
@given(cfg=run_configs())
@example(cfg=RunConfig())
@example(cfg=RunConfig(speeds=(0.2, 0.17)))
def test_grid_rules_keep_their_margins_for_every_triple(cfg):
    # the grid of a main speed serves its whole triple: the cores of the
    # slowest entry, at 1/c_lo, keep the margin of the ansatz check and
    # of the orthogonality balls
    from gpvortex.ansatz import BOUNDARY_MARGIN
    for c in cfg.speeds:
        c_lo = cfg.neighbor_triple(c)[-1]
        wide = cfg.stability_grid_rule(c)
        for g in (cfg.grid_rule(c), wide):
            assert g.lx >= 1.0 / c_lo + max(BOUNDARY_MARGIN, cfg.r_ball) + 2 * g.hx
        # the stability box's own promise: its edge lies STABILITY_EDGE_MARGIN
        # beyond the cores at 1/c
        assert wide.lx >= 1.0 / c + STABILITY_EDGE_MARGIN + 2 * wide.hx


@pytest.mark.parametrize("key", ["stability_speed", "uniqueness_speed"])
def test_stage_speed_not_on_branch_is_config_error(tmp_path, capsys, key):
    code = run([key.split("_")[0]], tmp_path, extra_cfg={key: 0.15})
    assert code == 2
    assert key in capsys.readouterr().err


def test_cmd_vortex_default(tmp_path, capsys):
    code = run(["vortex"], tmp_path)
    out = capsys.readouterr().out
    assert code == 0
    assert "kappa" in out
    assert (tmp_path / "out" / "vortex_profile.txt").exists()
    report = json.loads((tmp_path / "out" / "vortex_report.json").read_text())
    assert report["checks"]["far_field_attach"]
    assert report["ok"] is True
    assert report["kappa"] == pytest.approx(0.5832, abs=1e-3)


def test_cmd_vortex_failed_invariant_fails_the_report(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(RadialProfile, "validate",
                        lambda self: {"zero_at_origin": True, "monotone": False})
    assert run(["vortex"], tmp_path) == 1
    assert "monotone" in capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "vortex_report.json").read_text())
    assert report["ok"] is False
    assert run(["report"], tmp_path) == 1
    assert "stored checks failed: vortex_report" in capsys.readouterr().out


def test_branch_ignores_profile_files_in_the_output_directory(tmp_path, profile):
    # the branch solves its vortex profile in the run: no profile file in
    # the output directory, from `vortex` or from elsewhere, changes it
    fresh, seeded = tmp_path / "fresh", tmp_path / "seeded"
    fresh.mkdir()
    (seeded / "out").mkdir(parents=True)
    other = replace(profile, rho=0.99 * profile.rho)
    for name in ("vortex_profile.txt", "vortex_profile_p1.txt",
                 "vortex_profile_m1.txt"):
        other.save(seeded / "out" / name)
    for sub in (fresh, seeded):
        assert run(["branch"], sub) == 0
    names = ["diagnostics.csv"] + [f"entry_{k:03d}.fld" for k in range(6)]
    for name in names:
        assert ((fresh / "out" / "branch" / name).read_bytes()
                == (seeded / "out" / "branch" / name).read_bytes()), name


def test_cmd_branch_and_resume(tmp_path, capsys):
    code = run(["branch"], tmp_path)
    assert code == 0
    outdir = tmp_path / "out" / "branch"
    csv = (outdir / "diagnostics.csv").read_text().splitlines()
    assert len(csv) == 1 + 6      # two speeds with two neighbours each
    assert (outdir / "prop12.csv").exists()
    capsys.readouterr()
    code = run(["branch"], tmp_path)
    out = capsys.readouterr().out
    assert code == 0
    assert "resume" in out


def test_repeated_speeds_exit_2_before_any_solve(tmp_path, capsys):
    # a repeated speed is refused before the vortex stage writes anything
    with pytest.raises(ValueError, match="strictly decreasing"):
        RunConfig(speeds=(0.1, 0.1))
    assert main(["--out", str(tmp_path / "out"), "--speeds", "0.1,0.1",
                 "vortex"]) == 2
    err = capsys.readouterr().err
    assert "strictly decreasing" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_overlapping_triples_exit_2_before_any_solve(tmp_path, capsys):
    # 0.2 and 0.195 are decreasing, but the low neighbour 0.196 of 0.2
    # lies below the high neighbour 0.1987 of 0.195
    with pytest.raises(ValueError, match="triples overlap"):
        RunConfig(speeds=(0.2, 0.195))
    assert main(["--out", str(tmp_path / "out"), "--speeds", "0.2,0.195",
                 "vortex"]) == 2
    err = capsys.readouterr().err
    assert "0.2 and 0.195" in err and "triples overlap" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_close_main_speeds_keep_their_own_triples(tmp_path, capsys):
    # the low neighbour 0.196 of 0.2 lies nearer to 0.1924 than to 0.2;
    # it is still solved on the grid of 0.2, and prop12.csv has one row
    # per main speed
    cfg = RunConfig(speeds=(0.2, 0.1924))
    assert main(["--out", str(tmp_path / "out"), "--speeds", "0.2,0.1924",
                 "branch"]) == 0
    branch = load_branch(tmp_path / "out" / "branch")
    for c in cfg.speeds:
        i = branch.index_of(c)
        assert [e.c for e in branch.entries[i - 1:i + 2]] == cfg.neighbor_triple(c)
        assert all(e.field.grid == cfg.grid_rule(c)
                   for e in branch.entries[i - 1:i + 2])
    rows = read_prop12_csv(tmp_path / "out" / "branch" / "prop12.csv")
    assert [r["c"] for r in rows] == [0.2, 0.1924]


@pytest.mark.parametrize("sets", ["none, bogus", "none, none"])
def test_bad_constraint_sets_exit_2_before_any_solve(tmp_path, capsys, sets):
    # the deleted setting is refused before the branch is solved, and the
    # message names the sets spectrum always computes
    assert run(["spectrum"], tmp_path, {"constraint_sets": sets}) == 2
    err = capsys.readouterr().err
    assert "constraint_sets" in err and "phase4" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["5", ""])
def test_bad_out_dir_in_config_exits_2(tmp_path, capsys, monkeypatch, value):
    # the file's out_dir, with no --out to override it: a number or an
    # empty path is refused before anything is written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.cfg").write_text(f"out_dir = {value}\n")
    assert main(["--config", "c.cfg", "vortex"]) == 2
    err = capsys.readouterr().err
    assert "out_dir" in err
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == ["c.cfg"]


def test_unreadable_config_exits_2(tmp_path, capsys):
    # a --config path that cannot be read as a file (here a directory)
    assert main(["--config", str(tmp_path), "--out", str(tmp_path / "out"),
                 "report"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("manifest", [None, "n_entries = x\n", "n_entries = 1\n"])
def test_cmd_report_unusable_branch_exits_1(tmp_path, capsys, manifest):
    # a branch tree without its manifest (an interrupted `branch`), with a
    # malformed one, or without an entry the manifest lists
    tree = tmp_path / "out" / "branch"
    tree.mkdir(parents=True)
    if manifest is not None:
        (tree / "manifest.txt").write_text(manifest)
    assert main(["--out", str(tmp_path / "out"), "report"]) == 1
    err = capsys.readouterr().err
    assert f"branch at {tree} unusable" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text", ['{"ok": tru', "3", '{"coercivity_check": 5}',
                                  '{"coercivity_check": {"none": 1}}'])
def test_cmd_report_unparsable_json_exits_1(tmp_path, capsys, text):
    # a truncated stored output, one that is not a JSON object, or one
    # whose coercivity_check is not a mapping of sets to checks with
    # "converged"
    path = tmp_path / "out" / "spectrum_c0.2.json"
    path.parent.mkdir()
    path.write_text(text)
    assert main(["--out", str(tmp_path / "out"), "report"]) == 1
    err = capsys.readouterr().err
    assert str(path) in err
    assert "Traceback" not in err


def test_cmd_branch_corrupted_field(tmp_path, capsys):
    assert run(["branch"], tmp_path) == 0
    target = tmp_path / "out" / "branch" / "entry_000.fld"
    raw = bytearray(target.read_bytes())
    raw[70] ^= 0xFF
    target.write_bytes(bytes(raw))
    code = run(["branch"], tmp_path)
    assert code == 1
    assert "checksum" in capsys.readouterr().err


def test_cmd_spectrum(tmp_path, capsys):
    code = run(["spectrum"], tmp_path)
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads((tmp_path / "out" / "spectrum_c0.2.json").read_text())
    assert payload["negative_count"] == 1
    assert set(payload["coercivity"]) == {"none", "three", "four", "phase4", "sym3"}
    assert "negative_count=1" in out
    sectors = payload["sectors"]
    assert sorted(sectors) == ["++", "+-", "-+", "--"]
    assert sorted(v for s in sectors.values() for v in s["eigenvalues"]) \
        == payload["eigenvalues"]
    assert sum(s["negative_count"] for s in sectors.values()) == 1
    assert sectors["++"]["negative_count"] == 1
    assert sum(s["near_zero_count"] for s in sectors.values()) \
        == payload["near_zero_count"]
    check = payload["coercivity_check"]
    assert set(check) == set(payload["coercivity"])
    for name, entry in check.items():
        assert set(entry) == {"value_half_basis", "converged"}
        assert isinstance(entry["converged"], bool)
        assert isinstance(entry["value_half_basis"], float)
    # the Ritz account: basis columns and LU fill per norm, and the
    # mirrored exp-norm columns the sym3 basis keeps
    ritz = payload["ritz"]
    assert set(ritz) == {"C", "exp"}
    assert set(ritz["C"]) == {"columns", "lu_fill"}
    assert set(ritz["exp"]) == {"columns", "lu_fill", "sym3_columns"}
    assert all(type(v) is int for a in ritz.values() for v in a.values())
    assert ritz["C"]["columns"] == ritz["exp"]["columns"] == 60
    assert 0 < ritz["exp"]["sym3_columns"] < 60


def test_cmd_stability_and_uniqueness(tmp_path):
    assert run(["stability"], tmp_path) == 0
    payload = json.loads((tmp_path / "out" / "stability.json").read_text())
    assert all(r["fitted_rate"] <= 0.02 for r in payload["runs"])
    assert run(["uniqueness"], tmp_path) == 0
    payload = json.loads((tmp_path / "out" / "uniqueness.json").read_text())
    assert set(payload) == {"config_hash", "c", "delta", "lu_fill", "runs", "ok"}
    assert payload["ok"] is True
    # the Newton account of every run and the fill of the shared factor
    assert type(payload["lu_fill"]) is int and payload["lu_fill"] > 0
    assert [r["shape"] for r in payload["runs"]] \
        == ["bump_re", "bump_im", "phase", "mixed", "random"]
    for r in payload["runs"]:
        assert set(r) == {"shape", "mismatch", "steps", "residual_history",
                          "violation"}
        assert r["mismatch"] <= 1e-6 and r["violation"] is False
        assert type(r["steps"]) is int and r["steps"] >= 1
        assert r["steps"] == len(r["residual_history"]) - 1
        assert r["residual_history"][-1] <= 1e-10


@pytest.fixture(scope="module")
def uniqueness_run(tmp_path_factory):
    """The branch stage, then the uniqueness stage, of one output
    directory: the directory, the speed of every ``linearized_matrix``
    call during the branch stage, and the ordering of every ``splu``
    call during the uniqueness stage."""
    import scipy.sparse.linalg as spla

    from gpvortex import operators

    tmp = tmp_path_factory.mktemp("uniqueness")
    assemble, splu = operators.linearized_matrix, spla.splu
    calls, orderings = [], []

    def counted(Q, c):
        calls.append(c)
        return assemble(Q, c)

    def spy(A, **kwargs):
        orderings.append(kwargs.get("permc_spec", "COLAMD"))
        return splu(A, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        for name, module in list(sys.modules.items()):
            if name.startswith("gpvortex") and getattr(module, "linearized_matrix",
                                                       None) is assemble:
                mp.setattr(module, "linearized_matrix", counted)
        assert run(["branch"], tmp) == 0
        branch_calls = list(calls)
        mp.setattr(spla, "splu", spy)
        assert run(["uniqueness"], tmp) == 0
    return tmp, branch_calls, orderings


def test_uniqueness_factors_once_and_branch_assembles_quarter_rows(uniqueness_run):
    # the branch Newton never assembles the full matrix; the re-solves
    # share one minimum-degree factorization at the wave
    _, branch_calls, orderings = uniqueness_run
    assert branch_calls == []
    assert orderings == ["MMD_AT_PLUS_A"]


def test_cmd_uniqueness_matches_resolves_on_one_factorization(uniqueness_run):
    tmp, _, _ = uniqueness_run
    out = tmp / "out"
    payload = json.loads((out / "uniqueness.json").read_text())
    cfg = load_config(str(tmp / "run.cfg"), {"out_dir": str(out), "speeds": FAST[1]})
    branch = load_branch(out / "branch")
    entry = branch.entries[branch.index_of(cfg.uniqueness_speed)]
    lu = linearized_lu(entry.field, entry.c)
    Q, delta = entry.field, cfg.uniqueness_delta
    floor = 10.0 * delta**2 + 100.0 * cfg.newton_tol
    runs = []
    for shape in ("bump_re", "bump_im", "phase", "mixed", "random"):
        # the chord re-solve, one run after the other, and its distance to Q
        pert = _perturbation(entry, shape, np.random.default_rng(cfg.seed))
        pert[0, :] = pert[-1, :] = pert[:, 0] = pert[:, -1] = 0.0
        W, info = newton_solve(ComplexField(Q.grid, Q.values + delta * pert),
                               entry.c, cfg.newton_tol, lambda W, c, b: lu.solve(b))
        mism = grid_l2(W.values - Q.values, Q.grid)
        runs.append({"shape": shape, "mismatch": mism, "steps": info["steps"],
                     "residual_history": info["history"],
                     "violation": mism > floor})
    assert payload["runs"] == runs
    assert payload["lu_fill"] == lu.nnz
    assert payload["ok"] is True
    assert all(r["mismatch"] <= 1e-6 for r in runs)


def test_cmd_uniqueness_worker_failure_exits_3(tmp_path, capsys, monkeypatch):
    resolve = cli.perturb_and_resolve

    def failing(entry, delta, newton_tol, lu, shape="bump_re", seed=0):
        if shape == "phase":
            raise RuntimeError("phase re-solve diverged")
        return resolve(entry, delta, newton_tol, lu, shape=shape, seed=seed)

    monkeypatch.setattr(cli, "perturb_and_resolve", failing)
    before = set(threading.enumerate())
    assert run(["uniqueness"], tmp_path) == 3
    err = capsys.readouterr().err
    assert "solver failure: phase re-solve diverged" in err
    assert "Traceback" not in err
    assert [t for t in threading.enumerate() if t not in before] == []
    assert not (tmp_path / "out" / "uniqueness.json").exists()


class _InlineExecutor:
    """Stand-in for ``ThreadPoolExecutor`` that runs each task at submit."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args, **kwargs):
        future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:
            future.set_exception(exc)
        return future


@pytest.fixture(scope="module")
def threaded_spectrum(tmp_path_factory):
    """A spectrum run with the sector eigensolve on the worker thread:
    its directory and the bytes of its ``spectrum_c0.2.json``."""
    tmp = tmp_path_factory.mktemp("spectrum")
    assert run(["spectrum"], tmp) == 0
    return tmp, (tmp / "out" / "spectrum_c0.2.json").read_bytes()


def test_cmd_spectrum_worker_matches_inline_eigensolve(threaded_spectrum,
                                                       monkeypatch):
    tmp, threaded = threaded_spectrum
    monkeypatch.setattr(cli, "ThreadPoolExecutor", _InlineExecutor)
    assert run(["spectrum"], tmp) == 0
    inline = (tmp / "out" / "spectrum_c0.2.json").read_bytes()
    assert inline == threaded
    assert json.loads(inline)["ritz"] == json.loads(threaded)["ritz"]


def test_cmd_spectrum_without_malloc_trim(threaded_spectrum, monkeypatch):
    tmp, threaded = threaded_spectrum
    monkeypatch.setattr(cli, "_malloc_trim", None)
    assert run(["spectrum"], tmp) == 0
    assert (tmp / "out" / "spectrum_c0.2.json").read_bytes() == threaded


def test_cmd_spectrum_worker_failure_exits_3(tmp_path, capsys, monkeypatch):
    def failing(handle):
        raise RuntimeError("sector eigensolve diverged")

    coercivity = cli.constrained_coercivity
    norms = []

    def spy(handle, basis, constraint_set, **kwargs):
        norms.append(basis.norm)
        return coercivity(handle, basis, constraint_set, **kwargs)

    monkeypatch.setattr(cli, "kernel_and_negative", failing)
    monkeypatch.setattr(cli, "constrained_coercivity", spy)
    before = set(threading.enumerate())
    assert run(["spectrum"], tmp_path) == 3
    err = capsys.readouterr().err
    assert "solver failure: sector eigensolve diverged" in err
    assert "Traceback" not in err
    assert [t for t in threading.enumerate() if t not in before] == []
    assert list((tmp_path / "out").glob("spectrum_c*.json")) == []
    # the eigensolve failed while the exp basis was built: the C-norm
    # group is never submitted, and no set runs
    assert norms == []


@pytest.mark.parametrize("where", ["C", "exp"])
def test_cmd_spectrum_set_failure_exits_3(tmp_path, capsys, monkeypatch, where):
    # a failing C-norm set on the worker, or exp-norm set on the main thread
    coercivity = cli.constrained_coercivity

    def failing(handle, basis, constraint_set, **kwargs):
        if basis.norm == where:
            raise RuntimeError(f"{basis.norm}-norm Ritz solve diverged")
        return coercivity(handle, basis, constraint_set, **kwargs)

    monkeypatch.setattr(cli, "constrained_coercivity", failing)
    before = set(threading.enumerate())
    assert run(["spectrum"], tmp_path) == 3
    err = capsys.readouterr().err
    assert f"solver failure: {where}-norm Ritz solve diverged" in err
    assert "Traceback" not in err
    assert [t for t in threading.enumerate() if t not in before] == []
    assert list((tmp_path / "out").glob("spectrum_c*.json")) == []


def test_spectrum_c05_prints_the_benchmark_reference(stored_run):
    # the counts and the five constants that the benchmark compares, at its
    # seed and with its one BLAS thread: a change that moves the c = 0.05
    # branch fields or the exp-norm path fails here.  The c = 0.05 triple
    # of the default run is the one the benchmark solves alone.  The
    # reference is read without importing the benchmark package.
    workloads = runpy.run_path(os.path.join(os.path.dirname(__file__), os.pardir,
                                            "perfbench", "workloads.py"))
    want = workloads["WORKLOADS"]["spectrum-c05"].reference["spectrum"]
    pattern = re.compile(r"c=0.05: negative_count=(\d+) near_zero=(\d+) coercivity=(.*)")
    [line] = filter(None, map(pattern.fullmatch,
                              stored_run.stdout["spectrum"].splitlines()))
    assert line.group(1, 2) == ("1", "2")
    printed = [kv.split("=", 1) for kv in line.group(3).split(", ")]
    assert printed == [[k, v] for k, v in want.items()]


def test_stored_run_solves_the_branch_once(stored_run):
    # each reader stage loads the stored branch and solves no entry
    for stage in READER_STAGES:
        assert stored_run.stdout[stage].startswith(
            f"resume: {stored_run.out / 'branch'} already solved; skipping\n")


def test_report_on_the_stored_run_names_only_the_sym3_failure(stored_run, capsys):
    # the unconverged c = 0.05 sym3 minimum (ROADMAP item 1) is the one
    # failure that the default run records; any other false "ok" or
    # unconverged set in a stored output fails here
    assert main(["--out", str(stored_run.out), "--seed", "1234", "report"]) == 1
    failures = [ln for ln in capsys.readouterr().out.splitlines()
                if ln.startswith("[numeric-check FAIL]")]
    assert failures == ["[numeric-check FAIL] stored checks failed: "
                        "spectrum_c0.05 sym3 unconverged"]


def test_cli_import_leaves_scipy_interpolate_unloaded():
    # only a stage that solves a vortex profile or a branch needs it; the
    # import loads every layer module, which the benchmark's traced mode
    # looks up in sys.modules to wrap (perfbench/tracer.py LAYERS)
    layers = ["ansatz", "cli", "field_core", "linearization", "operators",
              "spectral", "tw_solver", "vortex_profile"]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, gpvortex.cli; print('scipy.interpolate' in sys.modules); "
         "print(' '.join(sorted(m[9:] for m in sys.modules "
         "if m.startswith('gpvortex.'))))"],
        capture_output=True, text=True, env=src_env(), check=True)
    interpolate, loaded = proc.stdout.splitlines()
    assert interpolate == "False"
    assert set(layers) <= set(loaded.split())


def test_cmd_stability_resumes_widened_branch(tmp_path, capsys):
    # c = 0.2 on the 201-node spectral box leaves an edge margin of 10, so
    # the stage solves that one entry on the widened stability box once,
    # and never the main branch
    assert run(["stability"], tmp_path) == 0
    out = capsys.readouterr().out
    assert "stability: solving" in out
    first = json.loads((tmp_path / "out" / "stability.json").read_text())
    stored = tmp_path / "out" / "branch_stability"
    assert len((stored / "diagnostics.csv").read_text().splitlines()) == 1 + 1
    assert not (tmp_path / "out" / "branch").exists()
    assert run(["stability"], tmp_path) == 0
    out = capsys.readouterr().out
    assert f"resume: {stored}" in out
    assert "stability: solving" not in out
    again = json.loads((tmp_path / "out" / "stability.json").read_text())
    assert again == first


@pytest.mark.parametrize("box_factor", [3.0, 10.0])
def test_stability_builds_no_coercivity_handle(tmp_path, monkeypatch, box_factor):
    # the evolution needs L alone: neither the coercivity handle nor the
    # derivative directions, on a widened box (box factor 3: edge margin
    # 10 at c = 0.2) or on the spectral-scale one (box factor 10: 45)
    def refuse(*args, **kwargs):
        raise AssertionError("stability built a coercivity handle")

    monkeypatch.setattr(cli, "assemble", refuse)
    monkeypatch.setattr(cli, "build_directions", refuse)
    cfg = RunConfig(speeds=(0.2, 0.17), box_factor=box_factor, max_nx=201)
    widened = cfg.grid_rule(0.2) != cfg.stability_grid_rule(0.2)
    assert widened == (box_factor == 3.0)
    assert run(["stability"], tmp_path, {"box_factor": box_factor}) == 0
    payload = json.loads((tmp_path / "out" / "stability.json").read_text())
    assert payload["ok"] is True
    assert payload["lx"] - 1.0 / payload["c"] >= STABILITY_EDGE_MARGIN
    assert payload["runs"][0]["energy_change"] <= 0.01
    assert all(r["fitted_rate"] <= 0.02 and r["form_drift"] <= 0.01
               for r in payload["runs"])
    assert (tmp_path / "out" / "branch").exists() != widened


def test_cmd_report_aggregates_and_refuses_mixed_hashes(tmp_path, capsys):
    assert run(["branch"], tmp_path) == 0
    assert run(["stability"], tmp_path) == 0
    assert run(["report"], tmp_path) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert "branch" in summary["sections"]
    # a stored output that records a failed check fails the report
    path = tmp_path / "out" / "stability.json"
    stored = json.loads(path.read_text())
    assert stored["ok"] is True
    path.write_text(json.dumps({**stored, "ok": False}))
    assert run(["report"], tmp_path) == 1
    capsys.readouterr()
    # a different config hash must be refused
    code = run(["report"], tmp_path, extra_cfg={"seed": 999})
    assert code == 2
    assert "config" in capsys.readouterr().err


def test_cmd_report_refuses_unconverged_constraint_set(tmp_path, capsys):
    # at this basis size "four" does not converge at c = 0.2
    assert run(["spectrum"], tmp_path) == 0
    capsys.readouterr()
    assert run(["report"], tmp_path) == 1
    assert "spectrum_c0.2 four unconverged" in capsys.readouterr().out
    paths = sorted((tmp_path / "out").glob("spectrum_c*.json"))
    assert len(paths) == 2
    for path in paths:
        stored = json.loads(path.read_text())
        assert set(stored["coercivity_check"]) == {"none", "three", "four",
                                                   "phase4", "sym3"}
        for check in stored["coercivity_check"].values():
            check["converged"] = True
        path.write_text(json.dumps(stored))
    assert run(["report"], tmp_path) == 0
    stored["coercivity_check"]["phase4"]["converged"] = False
    path.write_text(json.dumps(stored))
    capsys.readouterr()
    assert run(["report"], tmp_path) == 1
    assert f"{path.stem} phase4 unconverged" in capsys.readouterr().out


def test_cmd_report_prints_sections_in_name_order(tmp_path, capsys, monkeypatch):
    # the printed report does not depend on the order the filesystem lists
    out = tmp_path / "out"
    out.mkdir()
    for name in ("beta", "alpha", "gamma"):
        (out / f"{name}.json").write_text(json.dumps({"ok": True}))
    listdir = os.listdir
    monkeypatch.setattr(os, "listdir", lambda path: sorted(listdir(path), reverse=True))
    assert main(["--out", str(out), "report"]) == 0
    printed = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("[")]
    assert printed == ["[alpha]", "[beta]", "[gamma]"]


def _tree_digest(root):
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            digest.update(name.encode())
            with open(os.path.join(dirpath, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def test_outputs_bit_identical_across_runs(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for sub in (a, b):
        sub.mkdir()
        assert run(["branch"], sub) == 0
        assert run(["uniqueness"], sub) == 0
    assert _tree_digest(a / "out") == _tree_digest(b / "out")


def test_configuration_error_exit(tmp_path, capsys):
    code = main(["--config", str(tmp_path / "missing.cfg"), "vortex"])
    assert code == 2


def test_module_run_reaches_the_cli(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "gpvortex.cli", "--out", str(tmp_path / "missing"),
         "report"], capture_output=True, text=True, env=src_env())
    assert proc.returncode == 2
    assert "does not exist" in proc.stderr


def test_cmd_report_missing_out_dir(tmp_path, capsys):
    out = tmp_path / "missing"
    assert main(["--out", str(out), "report"]) == 2
    err = capsys.readouterr().err
    assert f"output directory {out} does not exist" in err
    assert not out.exists()
