"""One workload pass in a fresh process.

Modes:
  setup    start the interpreter, import gpvortex, prepare the output
           directory, then stop; reports the set-up time only
  fixture  run the workload's fixture stages on an empty output directory
  run      prepare the output directory, then run the workload's stages
           through ``gpvortex.cli.main``, traced with ``--trace 1``

The BLAS/OpenMP thread count is pinned to 1 before NumPy is imported.
The report (timings, stage results, check failures, environment and, when
traced, the per-layer metrics) is written as JSON to ``--report``.
"""

import os
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"


def main() -> int:
    import argparse
    import contextlib
    import io
    import json
    import resource
    import shutil
    import traceback

    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=("setup", "fixture", "run"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--reduced", action="store_true")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fixture", default="")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--report", required=True)
    args = p.parse_args()

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import numpy
    import scipy
    import gpvortex.cli
    from gpvortex.config import load_config
    import workloads

    w = workloads.WORKLOADS[args.workload]
    if args.reduced:
        w = workloads.reduced(w)
    out = args.out
    shutil.rmtree(out, ignore_errors=True)
    if args.fixture:
        shutil.copytree(args.fixture, out)
    else:
        os.makedirs(out)
    config_path = None
    if w.config:
        config_path = out.rstrip("/") + ".cfg"
        with open(config_path, "w") as fh:
            fh.write("".join(f"{k} = {v}\n" for k, v in w.config.items()))
    cfg = load_config(config_path, w.overrides(out, args.seed))
    report = {
        "setup_s": time.perf_counter() - args.t0,
        "config_hash": cfg.config_hash,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "stages": [],
    }
    if args.mode != "setup":
        stages = w.fixture if args.mode == "fixture" else w.stages
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        base = w.argv(out, args.seed, config_path)
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t_first = time.perf_counter()
        for stage in stages:
            buf = io.StringIO()
            t = time.perf_counter()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                try:
                    # looked up per call, so the traced run enters the wrapper
                    rc = gpvortex.cli.main(base + list(stage))
                except SystemExit as exc:
                    rc = exc.code
                except Exception:
                    traceback.print_exc()
                    rc = "exception"
            wall = time.perf_counter() - t
            report["stages"].append({"stage": list(stage), "rc": rc, "wall_s": wall,
                                     "stdout": buf.getvalue()})
            if rc != 0:
                break
        report["wall_s"] = time.perf_counter() - t_first
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        report["cpu_s"] = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
        if tracer is not None:
            tracer.restore()
            tracer.write(os.path.splitext(args.report)[0] + ".spans.tsv")
            from tracer import per_layer_metrics
            walls = [(s["stage"][0], s["wall_s"]) for s in report["stages"]]
            report["per_layer"] = per_layer_metrics(tracer, walls, report["cpu_s"])
        reference = w.reference if args.mode == "run" else None
        for k, rec in enumerate(report["stages"]):
            expect_resume = k > 0 or (args.mode == "run" and bool(w.fixture))
            rec["failures"] = workloads.check_stage(
                tuple(rec["stage"]), rec["rc"], rec["stdout"], out, cfg, reference,
                args.seed, expect_resume)
        for stage in stages[len(report["stages"]):]:
            report["stages"].append({"stage": list(stage), "rc": None, "wall_s": 0.0,
                                     "stdout": "", "failures": ["not run"]})
        for rec in report["stages"]:
            sys.stderr.write(rec["stdout"])
            for f in rec["failures"]:
                sys.stderr.write(f"[check FAIL] {f}\n")
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.report, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.exit(main())
