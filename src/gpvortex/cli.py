"""Command-line driver.

Subcommands: vortex | branch | spectrum | stability | uniqueness | report.
Exit codes: 0 pass, 1 numeric-check failure, 2 configuration error,
3 solver failure.  ``main`` maps exceptions to them in one place:
``ValueError``/``KeyError`` and an unreadable config file (``OSError``)
-> 2, ``FieldFileError`` (an unusable stored output) -> 1,
``RuntimeError`` -> 3.  Outputs depend only on the
config and the seed, and every file carries the config hash: a stage
reads back only the branches it stored under that hash, and solves the
vortex profile in the run rather than reading a file.  The one exception
is the unconverged ``sym3`` minimum of ``spectrum``: its digits follow
the BLAS thread count until it is computed per symmetry sector (ROADMAP
item 1).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .config import STABILITY_EDGE_MARGIN, RunConfig, load_config
from .field_core import FieldFileError, _atomic_write
from .linearization import build_directions, prop12_report, write_prop12_csv
from .spectral import (
    CONSTRAINT_SETS,
    assemble,
    constrained_coercivity,
    evolve_linearized,
    kernel_and_negative,
    midpoint_step,
    random_data,
    ritz_basis,
    sym3_basis,
)
from .tw_solver import (
    continue_branch,
    linearized_lu,
    load_branch,
    perturb_and_resolve,
    save_branch,
)
from .vortex_profile import solve_vortex_ode

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _find_malloc_trim():
    """glibc's ``int malloc_trim(size_t pad)``, or None where the C
    library has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError, TypeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


_malloc_trim = _find_malloc_trim()


def _write_json(path, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# subcommands

def _require_main_speed(cfg: RunConfig, name: str) -> None:
    """Reject, before any solve, a stage speed that is not a main speed."""
    c = getattr(cfg, name)
    if not any(math.isclose(c, m, rel_tol=1e-9) for m in cfg.speeds):
        raise ValueError(f"{name} = {c} is not among the speeds "
                         f"{', '.join(map(str, cfg.speeds))}")


def cmd_vortex(cfg: RunConfig, args) -> int:
    """Store the vortex profile the branch solves, with its checks."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    prof = solve_vortex_ode()
    path = os.path.join(cfg.out_dir, "vortex_profile.txt")
    prof.save(path)
    checks = {k: bool(v) for k, v in prof.validate().items()}
    ok = all(checks.values())
    d2, d3 = prof.curvature_maxima()
    report = {
        "config_hash": cfg.config_hash,
        "kappa": prof.kappa,
        "r_max": prof.r_max,
        "max_ode_residual": float(np.max(np.abs(prof.ode_residual()))),
        "max_abs_rho2": d2,
        "max_abs_rho3": d3,
        "checks": checks,
        "ok": ok,
    }
    _write_json(os.path.join(cfg.out_dir, "vortex_report.json"), report)
    print(f"profile written to {path} (kappa = {prof.kappa:.8f})")
    if not ok:
        failed = [k for k, v in checks.items() if not v]
        print(f"invariant failures: {failed}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_NUMERIC


def _branch_dir(cfg: RunConfig, diag: bool) -> str:
    return os.path.join(cfg.out_dir, "branch_diag" if diag else "branch")


def _load_or_solve_branch(cfg: RunConfig, outdir: str, speeds, rule,
                          announce: str = ""):
    """Branch at ``speeds`` on the grid rule ``rule``, kept in ``outdir``:
    loaded when it carries this config's hash and every entry, else
    solved (after printing ``announce``, if given) and saved."""
    if os.path.isdir(outdir):
        branch = load_branch(outdir)
        if (branch.config_hash == cfg.config_hash
                and len(branch.entries) == len(speeds)):
            print(f"resume: {outdir} already solved; skipping")
            return branch
    if announce:
        print(announce)
    branch = continue_branch(speeds, cfg.newton_tol, solve_vortex_ode(),
                             grid_rule=rule, config_hash=cfg.config_hash)
    save_branch(branch, outdir)
    return branch


def _main_branch(cfg: RunConfig, diag: bool = False):
    """The branch over every main speed and its derivative neighbours, on
    the spectral-scale grids or, with ``diag``, the diagnostics-scale ones."""
    return _load_or_solve_branch(cfg, _branch_dir(cfg, diag),
                                 cfg.speeds_with_neighbors()[0],
                                 cfg.diag_grid_rule if diag else cfg.grid_rule)


def cmd_branch(cfg: RunConfig, args) -> int:
    os.makedirs(cfg.out_dir, exist_ok=True)
    branch = _main_branch(cfg, args.diag)
    rows = prop12_report(branch)
    write_prop12_csv(rows, os.path.join(_branch_dir(cfg, args.diag), "prop12.csv"))
    ok = True
    for e in branch.entries:
        line = (f"c={e.c:.6f} residual={e.residual_norm:.2e} "
                f"d_tilde={e.half_separation:.4f} c*d={e.c * e.half_separation:.4f}")
        good = (e.residual_norm <= cfg.newton_tol
                and 0.8 <= e.c * e.half_separation <= 1.2)
        ok = ok and good
        print(("" if good else "[numeric-check FAIL] ") + line)
    return EXIT_OK if ok else EXIT_NUMERIC


def _trimmed(task, *args):
    """``task(*args)``, then glibc ``malloc_trim(0)``: freed factors stay
    in the calling thread's malloc arena, where the other thread cannot
    reuse them; without the trim after the sector eigensolve the stage's
    peak RSS rose by 12% at c = 0.05."""
    try:
        return task(*args)
    finally:
        if _malloc_trim is not None:
            _malloc_trim(0)


def _spectrum_one(cfg: RunConfig, branch, c: float) -> dict:
    idx = branch.index_of(c)
    e = branch.entries[idx]
    handle = assemble(e.field, e.c, R=cfg.r_ball,
                      directions=build_directions(branch, idx))
    groups = {"C": [], "exp": []}
    for name in cfg.constraint_sets:
        groups[CONSTRAINT_SETS[name][0]].append(name)

    def run_sets(basis, names):
        """The value and the checks of each set in ``names`` on ``basis``."""
        results = {}
        for name in names:
            val, info = constrained_coercivity(handle, basis, name, return_info=True)
            results[name] = (val, {"value_half_basis": info["value_half_basis"],
                                   "converged": bool(info["converged"])})
        return results

    def run_c_sets():
        """The C-norm sets and the account of their basis."""
        if not groups["C"]:
            return {}, None
        basis = ritz_basis(handle, "C", cfg.basis_size, cfg.seed)
        return run_sets(basis, groups["C"]), basis.account

    # Two memory phases on one worker, so that no two Ritz LUs are alive
    # at once.  Phase 1: the worker runs the sector eigensolve (it reads
    # only the handle, and SuperLU releases the GIL in its factorizations
    # and solves) while the main thread builds the exp-norm basis; its LU
    # is freed when ``ritz_basis`` returns.  This phase holds the stage's
    # peak, so it comes first.  Phase 2: the worker builds the C-norm
    # basis and runs its sets while the main thread runs the plain exp
    # sets and then sym3, whose basis consumes the plain one.  Each worker
    # task ends with a trim.  Each thread holds only its own basis.
    with ThreadPoolExecutor(max_workers=1) as pool:
        futures = [pool.submit(_trimmed, kernel_and_negative, handle)]
        try:
            exp = (ritz_basis(handle, "exp", cfg.basis_size, cfg.seed)
                   if groups["exp"] else None)
            if futures[0].done():
                futures[0].result()     # a failed eigensolve stops the stage here
            futures.append(pool.submit(_trimmed, run_c_sets))
            exp_results = run_sets(exp, [n for n in groups["exp"] if n != "sym3"])
            if "sym3" in groups["exp"]:
                exp = sym3_basis(handle, exp)
                exp_results.update(run_sets(exp, ["sym3"]))
            exp_account = exp.account if exp else None
            exp = None                  # freed before the wait for the worker
            payload = futures[0].result()
            c_results, c_account = futures[1].result()
        finally:
            for future in futures:
                future.cancel()         # only what has not started
    results = {**c_results, **exp_results}
    payload["coercivity"] = {name: results[name][0] for name in cfg.constraint_sets}
    payload["coercivity_check"] = {name: results[name][1]
                                   for name in cfg.constraint_sets}
    payload["ritz"] = {norm: account for norm, account
                       in (("C", c_account), ("exp", exp_account)) if account}
    payload["config_hash"] = cfg.config_hash
    payload["r_ball"] = cfg.r_ball
    return payload


def cmd_spectrum(cfg: RunConfig, args) -> int:
    os.makedirs(cfg.out_dir, exist_ok=True)
    branch = _main_branch(cfg)
    ok = True
    for c in cfg.speeds:
        payload = _spectrum_one(cfg, branch, c)
        print(f"c={c}: negative_count={payload['negative_count']} "
              f"near_zero={payload['near_zero_count']} coercivity="
              + ", ".join(f"{k}={v:.3e}" for k, v in payload["coercivity"].items()))
        good = payload["negative_count"] == 1
        if not good:
            print(f"[numeric-check FAIL] negative count {payload['negative_count']} != 1")
        payload["ok"] = good
        _write_json(os.path.join(cfg.out_dir, f"spectrum_c{c:g}.json"), payload)
        ok = ok and good
    return EXIT_OK if ok else EXIT_NUMERIC


def _stability_branch(cfg: RunConfig, branch):
    """Branch and entry index the stability stage evolves on.

    The translation mode d1 Q decays slowly, and a box edge too close to
    the cores cuts it off, so its energy is not conserved to 1%.  The
    spectral entry is used when ``stability_grid_rule`` keeps its grid;
    otherwise the ``stability_speed`` triple on the widened box is
    loaded from, or solved into, ``<out_dir>/branch_stability``."""
    c = cfg.stability_speed
    idx = branch.index_of(c)
    if branch.entries[idx].field.grid == cfg.stability_grid_rule(c):
        return branch, idx
    wide = _load_or_solve_branch(
        cfg, os.path.join(cfg.out_dir, "branch_stability"), cfg.neighbor_triple(c),
        cfg.stability_grid_rule,
        announce=f"stability: solving c = {c} on a box with edge margin "
                 f">= {STABILITY_EDGE_MARGIN:g}")
    return wide, 1


def cmd_stability(cfg: RunConfig, args) -> int:
    _require_main_speed(cfg, "stability_speed")
    os.makedirs(cfg.out_dir, exist_ok=True)
    branch, idx = _stability_branch(cfg, _main_branch(cfg))
    e = branch.entries[idx]
    handle = assemble(e.field, e.c, R=cfg.r_ball,
                      directions=build_directions(branch, idx))
    g = e.field.grid
    # one factorization serves the kernel mode and the block of random data
    step = midpoint_step(handle, cfg.stability_dt)
    samples = [f"random_{k}" for k in range(cfg.stability_samples)]
    runs = []
    for kinds, U0, T in ((["kernel_mode"], handle.directions["dx1"], 50.0),
                         (samples, random_data(g, cfg.seed, len(samples)),
                          cfg.stability_T)):
        if kinds:
            out = evolve_linearized(handle, step, U0, T)
            runs += [{"kind": kind, "steps": len(out["times"]) - 1,
                      "fitted_rate": float(out["fitted_rate"][j]),
                      "energy_change": float(out["relative_energy_change"][j]),
                      "form_drift": float(out["form_drift"][j])}
                     for j, kind in enumerate(kinds)]
    ok = (runs[0]["energy_change"] <= 0.01
          and all(r["fitted_rate"] <= 0.02 for r in runs))
    # the fill is SuperLU.nnz: reading L and U would copy the factors
    payload = {"config_hash": cfg.config_hash, "c": e.c, "lx": g.lx, "nx": g.nx,
               "lu_fill": int(step.lu.nnz), "runs": runs, "ok": ok}
    _write_json(os.path.join(cfg.out_dir, "stability.json"), payload)
    for r in runs:
        print(f"{r['kind']}: rate={r['fitted_rate']:.3e}")
    return EXIT_OK if ok else EXIT_NUMERIC


def cmd_uniqueness(cfg: RunConfig, args) -> int:
    _require_main_speed(cfg, "uniqueness_speed")
    os.makedirs(cfg.out_dir, exist_ok=True)
    branch = _main_branch(cfg)
    entry = branch.entries[branch.index_of(cfg.uniqueness_speed)]
    # every re-solve iterates with this one factorization at the wave
    lu = linearized_lu(entry.field, entry.c)

    runs, ok = [], True
    for shape in ("bump_re", "bump_im", "phase", "mixed", "random"):
        rep = perturb_and_resolve(entry, cfg.uniqueness_delta, cfg.newton_tol, lu,
                                  shape=shape, seed=cfg.seed)
        runs.append({"shape": shape, "mismatch": rep["mismatch"],
                     "steps": rep["steps"],
                     "residual_history": rep["residual_history"],
                     "violation": rep["uniqueness_violation"]})
        ok = ok and not rep["uniqueness_violation"] and rep["mismatch"] <= 1e-6
        print(f"{shape}: mismatch={rep['mismatch']:.2e} steps={rep['steps']}")
    # the fill is SuperLU.nnz: reading lu.L and lu.U would copy the factors
    payload = {"config_hash": cfg.config_hash, "c": entry.c,
               "delta": cfg.uniqueness_delta, "lu_fill": int(lu.nnz),
               "runs": runs, "ok": ok}
    _write_json(os.path.join(cfg.out_dir, "uniqueness.json"), payload)
    return EXIT_OK if ok else EXIT_NUMERIC


def cmd_report(cfg: RunConfig, args) -> int:
    """Aggregate the stored outputs into ``summary.json``; exit 1 when a
    stored output records a failed check (``"ok": false``) or a constraint
    set whose minimum did not converge (``coercivity_check``)."""
    if not os.path.isdir(cfg.out_dir):
        raise ValueError(f"output directory {cfg.out_dir} does not exist")
    hashes = set()
    summary = {"config_hash": cfg.config_hash, "sections": {}}
    branch_dir = _branch_dir(cfg, False)
    if os.path.isdir(branch_dir):
        branch = load_branch(branch_dir)
        hashes.add(branch.config_hash)
        rows = [{"c": e.c, "residual": e.residual_norm,
                 "c_d_tilde": e.c * e.half_separation} for e in branch.entries]
        summary["sections"]["branch"] = rows
    for name in os.listdir(cfg.out_dir):
        if name.endswith(".json") and name != "summary.json":
            path = os.path.join(cfg.out_dir, name)
            try:
                with open(path) as fh:
                    payload = json.load(fh)
                if not isinstance(payload, dict):
                    raise ValueError("not a JSON object")
            except ValueError as exc:   # also JSONDecodeError, UnicodeDecodeError
                raise FieldFileError(f"{path}: unusable JSON: {exc}") from exc
            if "config_hash" in payload:
                hashes.add(payload["config_hash"])
            summary["sections"][name[:-5]] = payload
    if len(hashes) > 1:
        print(f"error: outputs mix config hashes {sorted(hashes)}", file=sys.stderr)
        return EXIT_CONFIG
    if hashes and hashes != {cfg.config_hash}:
        print("error: outputs were produced under a different configuration",
              file=sys.stderr)
        return EXIT_CONFIG
    _write_json(os.path.join(cfg.out_dir, "summary.json"), summary)
    failed = []
    for section, payload in summary["sections"].items():
        print(f"[{section}]")
        print(json.dumps(payload, indent=2, sort_keys=True)[:600])
        if not isinstance(payload, dict):
            continue
        if payload.get("ok") is False:
            failed.append(section)
        failed += [f"{section} {name} unconverged"
                   for name, check in payload.get("coercivity_check", {}).items()
                   if not check["converged"]]
    if failed:
        print(f"[numeric-check FAIL] stored checks failed: {', '.join(failed)}")
    return EXIT_NUMERIC if failed else EXIT_OK


# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpvortex",
        description="Small-speed travelling waves of the 2-D Gross-Pitaevskii "
                    "equation: branch solver and spectral diagnostics")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", metavar="PATH", help="key = value config file")
    parser.add_argument("--out", metavar="DIR", help="output directory")
    parser.add_argument("--speeds", metavar="LIST",
                        help="comma-separated speeds, e.g. 0.1,0.05,0.03")
    parser.add_argument("--seed", type=int, metavar="N")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("vortex", help="solve the radial vortex modulus that branch "
                   "uses (one modulus serves windings +-1) and store it with "
                   "its checks")

    p = sub.add_parser("branch", help="continue the travelling-wave branch")
    p.add_argument("--diag", action="store_true",
                   help="use the large-box diagnostics grid rule")

    sub.add_parser("spectrum", help="coercivity and kernel diagnostics")
    sub.add_parser("stability", help="linearized time evolution")
    sub.add_parser("uniqueness", help="perturb-and-resolve experiment")
    sub.add_parser("report", help="aggregate existing outputs")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {}
    if args.out:
        overrides["out_dir"] = args.out
    if args.speeds:
        overrides["speeds"] = args.speeds
    if args.seed is not None:
        overrides["seed"] = args.seed
    try:
        cfg = load_config(args.config, overrides)
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    handler = {
        "vortex": cmd_vortex,
        "branch": cmd_branch,
        "spectrum": cmd_spectrum,
        "stability": cmd_stability,
        "uniqueness": cmd_uniqueness,
        "report": cmd_report,
    }[args.command]
    try:
        return handler(cfg, args)
    except FieldFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, KeyError) as exc:
        # str() of a KeyError quotes its message
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"configuration error: {msg}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
