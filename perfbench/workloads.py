"""Workloads of the gpvortex benchmark and the checks on their outputs.

A workload is a sequence of CLI stages run through ``gpvortex.cli.main``
in one fresh process, on a fresh output directory.  Workloads that start
from an already solved branch name the stages that solve it as their
``fixture``; the fixture is built once per checkout and seed, untimed, and
copied into the output directory before each timed pass.

The CLI seed is the benchmark seed.  It moves the random vectors of the
Ritz bases, the stability samples and the uniqueness ``random`` shape, but
not the amount of work.  It is part of the config hash, so each seed has
its own fixture.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field, replace

# seed at which the seed-dependent reference values below were printed
REFERENCE_SEED = 1234


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stages: tuple                 # CLI argument tails, one per timed stage
    fixture: tuple = ()           # stages run once, untimed, before the passes
    speeds: str | None = None     # --speeds argument, if any
    config: dict = field(default_factory=dict)   # config-file keys
    reference: dict | None = None

    def argv(self, out_dir: str, seed: int, config_path: str | None) -> list:
        """Global CLI options shared by every stage (never ``--jobs``)."""
        args = ["--out", out_dir, "--seed", str(seed)]
        if config_path:
            args += ["--config", config_path]
        if self.speeds:
            args += ["--speeds", self.speeds]
        return args

    def overrides(self, out_dir: str, seed: int) -> dict:
        """The overrides ``gpvortex.cli.main`` derives from ``argv``."""
        out = {"out_dir": out_dir, "seed": seed}
        if self.speeds:
            out["speeds"] = self.speeds
        return out


WORKLOADS = {w.name: w for w in (
    Workload(
        name="branch-desk",
        why="default config: branch (9 entries, largest nx 401) then uniqueness; "
            "Newton, Jacobian assembly, quarter reduction and quarter LU do the work",
        stages=(("branch",), ("uniqueness",)),
        reference={
            # c, d_tilde, c*d as `branch` prints them; seed-independent
            "branch": [
                ("0.100500", "9.9778", "1.0028"), ("0.100000", "10.0285", "1.0029"),
                ("0.099500", "10.0792", "1.0029"), ("0.050063", "19.9864", "1.0006"),
                ("0.050000", "20.0119", "1.0006"), ("0.049938", "20.0373", "1.0006"),
                ("0.030014", "33.3244", "1.0002"), ("0.030000", "33.3392", "1.0002"),
                ("0.029986", "33.3541", "1.0002"),
            ],
        },
    ),
    Workload(
        name="spectrum-c05",
        why="spectrum at c=0.05 from a pre-solved branch: eigsh, two Ritz bases "
            "over two full LUs (n=178802) and 5 constraint sets; Newton is idle",
        stages=(("spectrum",),),
        fixture=(("branch",),),
        speeds="0.05",
        reference={
            "spectrum": {"none": "-2.033e-03", "three": "4.503e-03",
                         "four": "2.511e-01", "phase4": "1.361e-03",
                         "sym3": "1.152e-01"},
            # sym3 moves with the Ritz seed: 1.152e-01 to 1.270e-01 over
            # seeds 1-3, 7 and 1234, where four reads 2.511e-01 or 2.512e-01
            "seed_dependent": ("sym3",),
        },
    ),
    Workload(
        name="stability-c05",
        why="stability at c=0.05 from a pre-solved branch, 1 sample to T=50: one "
            "full LU, then 500 implicit-midpoint solves",
        stages=(("stability",),),
        fixture=(("branch",),),
        speeds="0.05",
        config={"stability_samples": 1, "stability_T": 50},
        reference={
            "stability": {"kernel_mode": "-9.585e-06", "random_0": "-3.988e-04"},
            "seed_dependent": ("random_0",),
        },
    ),
)}

# the workloads BENCHMARK.json lists; stability-c05 is run by hand only:
# each listed workload is measured 22 times within 3420 s, and a third
# workload of about 45 s per pass does not fit
LISTED = ("branch-desk", "spectrum-c05")

# reduced config for the harness self-test: one speed on a coarse box
REDUCED_CONFIG = {"box_factor": 4.5, "max_nx": 121, "basis_size": 100,
                  "stability_T": 20, "stability_speed": 0.1}


def reduced(w: Workload) -> Workload:
    """The same stage sequence at c = 0.1 on a coarse grid, unreferenced."""
    return replace(w, speeds="0.1", config={**w.config, **REDUCED_CONFIG},
                   reference=None)


# ----------------------------------------------------------------------
# output checks; each returns a list of failure messages

def _read_json(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


# at a seed other than REFERENCE_SEED, a printed value may differ from the
# reference by this many units of its last digit; seed-dependent values
# are compared at REFERENCE_SEED only
SEED_DIGITS = 2


def _compare(label: str, printed: dict, reference: dict, seed: int,
             seed_dependent=()) -> list:
    """Printed values against the reference strings printed at this commit."""
    digits = 0 if seed == REFERENCE_SEED else SEED_DIGITS
    fails = []
    for key, want in reference.items():
        got = printed.get(key)
        if got == want or (digits and key in seed_dependent):
            continue
        if digits and got is not None:
            mantissa, _, exp = want.partition("e")
            unit = 10.0 ** (int(exp or 0) - len(mantissa.partition(".")[2]))
            if abs(float(got) - float(want)) <= (digits + 0.5) * unit:
                continue
        fails.append(f"{label} {key}: printed {got} != reference {want}")
    return fails


_BRANCH_LINE = re.compile(r"^(?:\[numeric-check FAIL\] )?c=(\S+) residual=\S+ "
                          r"d_tilde=(\S+) c\*d=(\S+)$", re.M)


def check_branch(stdout, out_dir, cfg, reference, seed) -> list:
    fails = []
    with open(os.path.join(out_dir, "branch", "diagnostics.csv")) as fh:
        header, *rows = [ln.split(",") for ln in fh.read().split()]
    col = {name: k for k, name in enumerate(header)}
    if len(rows) != len(cfg.speeds_with_neighbors()[0]):
        fails.append(f"branch has {len(rows)} entries")
    for row in rows:
        c, d, res = (float(row[col[k]]) for k in ("c", "d_tilde", "residual"))
        if res > cfg.newton_tol:
            fails.append(f"c={c}: Newton residual {res:.3e} > {cfg.newton_tol}")
        if not 0.8 <= c * d <= 1.2:
            fails.append(f"c={c}: c*d_tilde = {c * d:.4f} outside [0.8, 1.2]")
    if reference:
        printed = _BRANCH_LINE.findall(stdout)
        if printed != [tuple(r) for r in reference["branch"]]:
            fails.append(f"branch lines {printed} != reference")
    return fails


def check_uniqueness(stdout, out_dir, cfg, reference, seed) -> list:
    runs = _read_json(out_dir, "uniqueness.json")["runs"]
    perturbed = [r for r in runs if "violation" in r]
    fails = [] if len(perturbed) == 5 else [f"{len(perturbed)} perturbed runs, want 5"]
    for r in perturbed:
        if r["violation"] or r["mismatch"] > 1e-6:
            fails.append(f"{r['shape']}: mismatch {r['mismatch']:.3e}, "
                         f"violation {r['violation']}")
    return fails


_SPECTRUM_LINE = re.compile(r"^c=(\S+): negative_count=(\d+) near_zero=(\d+) "
                            r"coercivity=(.*)$", re.M)


def check_spectrum(stdout, out_dir, cfg, reference, seed) -> list:
    fails = []
    for c in cfg.speeds:
        rep = _read_json(out_dir, f"spectrum_c{c:g}.json")
        coer = rep["coercivity"]
        if rep["negative_count"] != 1 or rep["near_zero_count"] != 2:
            fails.append(f"c={c}: negative_count {rep['negative_count']}, "
                         f"near_zero_count {rep['near_zero_count']}")
        if not coer["none"] < 0.0 < coer["three"] <= coer["four"]:
            fails.append(f"c={c}: coercivity order none < 0 < three <= four "
                         f"broken: {coer}")
    if reference:
        lines = _SPECTRUM_LINE.findall(stdout)
        if len(lines) != 1:
            return fails + [f"{len(lines)} spectrum lines, want 1"]
        _, neg, near, coer_text = lines[0]
        if (neg, near) != ("1", "2"):
            fails.append(f"printed counts {neg}, {near}, want 1, 2")
        printed = dict(kv.split("=", 1) for kv in coer_text.split(", "))
        fails += _compare("spectrum", printed, reference["spectrum"], seed,
                          reference["seed_dependent"])
    return fails


_RATE_LINE = re.compile(r"^(\w+): rate=(\S+)$", re.M)


def check_stability(stdout, out_dir, cfg, reference, seed) -> list:
    fails = []
    runs = _read_json(out_dir, "stability.json")["runs"]
    if len(runs) != 1 + cfg.stability_samples:
        fails.append(f"{len(runs)} stability runs, want {1 + cfg.stability_samples}")
    for r in runs:
        if r["fitted_rate"] > 0.02:
            fails.append(f"{r['kind']}: fitted rate {r['fitted_rate']:.3e} > 0.02")
        if r["form_drift"] > 0.01:
            fails.append(f"{r['kind']}: form drift {r['form_drift']:.3e} > 1%")
        if r["kind"] == "kernel_mode" and r["energy_change"] > 0.01:
            fails.append(f"kernel mode energy change {r['energy_change']:.3e} > 1%")
    if reference:
        printed = dict(_RATE_LINE.findall(stdout))
        fails += _compare("rate", printed, reference["stability"], seed,
                          reference["seed_dependent"])
    return fails


CHECKS = {
    "branch": check_branch,
    "uniqueness": check_uniqueness,
    "spectrum": check_spectrum,
    "stability": check_stability,
}


def check_stage(stage: tuple, rc, stdout: str, out_dir: str, cfg,
                reference: dict | None, seed: int, expect_resume: bool) -> list:
    """Failure messages for one stage invocation; empty when it passed."""
    if rc != 0:
        return [f"{' '.join(stage)}: exit code {rc}"]
    fails = []
    if expect_resume and "resume:" not in stdout:
        # the stage solved the branch itself, so the run measured the wrong work
        fails.append("branch re-solved: 'resume' not printed")
    check = CHECKS.get(stage[0])
    if check is not None:
        try:
            fails += check(stdout, out_dir, cfg, reference, seed)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            fails.append(f"unreadable output: {exc!r}")
    return [f"{stage[0]}: {f}" for f in fails]
