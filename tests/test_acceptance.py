"""Acceptance suite: every criterion at its stated tolerance, one
printed pass/fail line per criterion (run with -s to see them inline).

Desk scale: grids <= 1024^2, speeds {0.1, 0.05, 0.03}.
"""

import numpy as np
import pytest

from conftest import compact_test_field, edge_gradient_energy, quadratic_form_naive
from gpvortex.config import DIAG_BOX_FACTOR, DIAG_MAX_NX
from gpvortex.field_core import ComplexField, grid_l2
from gpvortex.linearization import (
    apply_L,
    build_directions,
    fd_gradient,
    prop12_report,
    quadratic_form_B,
)
from gpvortex.operators import interior_to_real
from gpvortex.spectral import constrained_coercivity, kernel_and_negative, ritz_basis
from gpvortex.tw_solver import (
    continue_branch,
    default_grid_rule,
    linearized_lu,
    locate_zeros,
    perturb_and_resolve,
    winding_number,
)
from test_vortex_profile import shooting_kappa

RESULTS = []


def check(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else "")
    RESULTS.append(line)
    print(line)
    assert ok, line


# ----------------------------------------------------------------------

def test_criterion_1_vortex_far_field_and_kappa(profile):
    prof = profile
    defects = {r: abs(1 - prof.modulus(np.array([r]))[0] - 1 / (2 * r * r))
               for r in (20.0, 30.0, 40.0)}
    check("1a far-field |1 - rho - 1/(2r^2)| <= 5/r^3 at r in {20,30,40}",
          all(d <= 5.0 / r**3 for r, d in defects.items()),
          ", ".join(f"r={r:g}: {d:.2e}" for r, d in defects.items()))
    dk = abs(prof.kappa - shooting_kappa())
    check("1b kappa matches shooting oracle to 1e-6", dk <= 1e-6, f"|dk| = {dk:.2e}")


def test_criterion_2_branch(branch_spec, run_cfg):
    mains = [branch_spec.entries[branch_spec.index_of(c)] for c in run_cfg.speeds]
    res = {e.c: e.residual_norm for e in mains}
    check("2a Newton residual <= 1e-9 at the three speeds",
          all(v <= 1e-9 for v in res.values()),
          ", ".join(f"c={c:g}: {v:.1e}" for c, v in res.items()))
    ok = True
    detail = []
    for e in mains:
        zp, zm = locate_zeros(e.field)
        ok = ok and winding_number(e.field, zp) == 1 \
            and winding_number(e.field, zm) == -1
        detail.append(f"c={e.c:g}: w=({winding_number(e.field, zp)},"
                      f"{winding_number(e.field, zm)})")
    check("2b exactly two zeros with windings +1/-1", ok, ", ".join(detail))
    cds = {e.c: e.c * e.half_separation for e in mains}
    check("2c c * d_tilde in [0.8, 1.2]",
          all(0.8 <= v <= 1.2 for v in cds.values()),
          ", ".join(f"{v:.4f}" for v in cds.values()))


def test_criterion_3_momentum_energy(branch_diag, run_cfg):
    from gpvortex.linearization import momentum

    mains = [branch_diag.entries[branch_diag.index_of(c)] for c in run_cfg.speeds]
    p1s = [abs(momentum(e.field)[0]) for e in mains]
    check("3a |P1| <= 1e-10", all(p <= 1e-10 for p in p1s),
          ", ".join(f"{p:.1e}" for p in p1s))
    cp2 = [e.c * e.p2 / (2 * np.pi) for e in mains]
    check("3b c P2 / (2 pi) in [0.8, 1.2]",
          all(0.8 <= v <= 1.2 for v in cp2), ", ".join(f"{v:.4f}" for v in cp2))

    rows = prop12_report(branch_diag)
    dp2 = [r["c"] ** 2 * r["dP2_dc"] / (-2 * np.pi) for r in rows]
    check("3c c^2 dP2/dc / (-2 pi) in [0.7, 1.3]",
          all(0.7 <= v <= 1.3 for v in dp2), ", ".join(f"{v:.4f}" for v in dp2))
    idn = [r["rel_dE_identity"] for r in rows]
    check("3d |dE/dc - c dP2/dc| / |dE/dc| <= 0.05",
          all(v <= 0.05 for v in idn), ", ".join(f"{v:.4f}" for v in idn))

    ratios = [e.energy / (2 * np.pi * np.log(1 / e.c)) for e in mains]
    gaps = [abs(r - 1) for r in ratios]
    # measured at desk scale the ratio approaches 1 monotonically from
    # above as c decreases (see the decisions ledger on the wording)
    check("3e E/(2 pi ln(1/c)) approaches 1 monotonically; in [0.6,1.4] at c=0.03",
          gaps[0] > gaps[1] > gaps[2] and 0.6 <= ratios[-1] <= 1.4,
          ", ".join(f"{r:.4f}" for r in ratios))


def test_criterion_4_form_values(branch_diag, run_cfg, profile, newton_tol):
    rows = {r["c"]: r for r in prop12_report(branch_diag)}

    # h^2-extrapolated floor from a coarse companion solve at 2h
    floors = {}
    for c in run_cfg.speeds:
        grid_c = default_grid_rule(c, box_factor=DIAG_BOX_FACTOR,
                                   h_target=2 * run_cfg.h_target,
                                   max_nx=(DIAG_MAX_NX + 1) // 2 + 1)
        br = continue_branch([c], newton_tol, profile, grid_rule=lambda s: grid_c)
        e = br.entries[0]
        gx, gy = fd_gradient(e.field)
        floors[c] = (quadratic_form_B(gx, e.field, c),
                     quadratic_form_B(gy, e.field, c))
    ok, detail = True, []
    for c in run_cfg.speeds:
        for k, key in ((0, "B_dx1"), (1, "B_dx2")):
            fine = rows[c][key]
            floor = abs(floors[c][k] - fine) / 3.0
            ok = ok and abs(fine) <= 100.0 * floor
            detail.append(f"c={c:g} {key}: |{fine:.1e}| vs floor {floor:.1e}")
    check("4a |B(dx1)|, |B(dx2)| <= 100x h^2-extrapolated floor", ok,
          "; ".join(detail))

    dcv = [rows[c]["c2_B_dc"] / (-2 * np.pi) for c in run_cfg.speeds]
    check("4b c^2 B(dc) / (-2 pi) in [0.7, 1.3]",
          all(0.7 <= v <= 1.3 for v in dcv), ", ".join(f"{v:.4f}" for v in dcv))
    rot = [rows[c]["B_drot"] / (2 * np.pi) for c in run_cfg.speeds]
    check("4c B(drot) / (2 pi) in [0.7, 1.3]",
          all(0.7 <= v <= 1.3 for v in rot), ", ".join(f"{v:.4f}" for v in rot))
    r1 = [rows[c]["resid_dc_rhs"] for c in run_cfg.speeds]
    r2 = [rows[c]["resid_drot_dir"] for c in run_cfg.speeds]
    check("4d identity residuals <= 0.05 "
          "(speed: vs rhs; rotation: vs direction norm, see ledger)",
          all(v <= 0.05 for v in r1 + r2),
          "dc: " + ", ".join(f"{v:.3f}" for v in r1)
          + "; drot: " + ", ".join(f"{v:.3f}" for v in r2))


def test_criterion_5_coercivity(spec_handles, run_cfg):
    four, three, none = {}, {}, {}
    for c, h in spec_handles.items():
        basis = ritz_basis(h, norm="C", size=run_cfg.basis_size)
        none[c] = constrained_coercivity(h, basis, "none")
        three[c] = constrained_coercivity(h, basis, "three")
        four[c] = constrained_coercivity(h, basis, "four")
    spread = max(four.values()) / min(four.values())
    check("5a 4-constraint constant positive with <= 3x spread",
          all(v > 0 for v in four.values()) and spread <= 3.0,
          ", ".join(f"{v:.4f}" for v in four.values()) + f" (spread {spread:.2f})")
    cs = sorted(three, reverse=True)
    vals = [three[c] for c in cs]
    slope = float(np.polyfit(np.log(cs), np.log(vals), 1)[0])
    check("5b 3-constraint constant positive, decaying, exponent in [1.5, 3.5]",
          all(v > 0 for v in vals) and vals[0] > vals[1] > vals[2]
          and 1.5 <= slope <= 3.5,
          ", ".join(f"{v:.5f}" for v in vals) + f" (exponent {slope:.2f})")
    check("5c unconstrained minimum negative",
          all(v < 0 for v in none.values()),
          ", ".join(f"{v:.5f}" for v in none.values()))
    check("5d constraint-nesting monotonicity exact",
          all(none[c] <= three[c] <= four[c] for c in cs))


def test_criterion_6_kernel_and_index(kernel_handle):
    rep = kernel_and_negative(kernel_handle, k=16)
    check("6a exactly 1 eigenvalue below -tol_zero", rep["negative_count"] == 1,
          f"count = {rep['negative_count']}, tol = {rep['tol_zero']:.2e}")
    check("6b exactly 2 eigenvalues in [-tol_zero, tol_zero]",
          rep["near_zero_count"] == 2, f"count = {rep['near_zero_count']}")
    angles = rep["kernel_angles"]
    check("6c principal angles to the translation span <= 0.1 rad",
          len(angles) == 2 and max(angles) <= 0.1,
          ", ".join(f"{a:.4f}" for a in angles))


def test_criterion_7_spectral_stability(spec_handles, run_cfg):
    from gpvortex.spectral import evolve_linearized, midpoint_step, random_data

    h = spec_handles[0.05]
    step = midpoint_step(h, 0.2)
    kern = evolve_linearized(h, step, h.directions["dx1"], T=50.0)
    change = kern["relative_energy_change"][0]
    check("7a kernel-mode gradient energy constant to 1%",
          change <= 0.01, f"change = {change:.3e}")
    out = evolve_linearized(h, step, random_data(h.grid, run_cfg.seed, 5), T=100.0)
    rates, drifts = out["fitted_rate"], out["form_drift"]
    check("7b fitted exponential rate <= 0.02 for 5 random data at c = 0.05",
          all(r <= 0.02 for r in rates), ", ".join(f"{r:.2e}" for r in rates))
    check("7c conserved form drifts <= 1%", all(d <= 0.01 for d in drifts),
          ", ".join(f"{d:.1e}" for d in drifts))


def test_criterion_8_local_uniqueness(branch_spec, newton_tol):
    entry = branch_spec.entries[branch_spec.index_of(0.1)]
    delta = 1e-3
    shapes = ("bump_re", "bump_im", "phase", "mixed", "random")
    mism = []
    lu = linearized_lu(entry.field, entry.c)
    for shape in shapes:
        rep = perturb_and_resolve(entry, delta, newton_tol, lu, shape=shape, seed=7)
        mism.append(rep["mismatch"])
    check("8a returns to Q with mismatch <= 1e-6",
          all(m <= 1e-6 for m in mism), ", ".join(f"{m:.1e}" for m in mism))


def test_criterion_9_property_suite(entry01, handle01, dirs01):
    Q, c = entry01.field, entry01.c
    A = handle01.A
    sym = abs(A - A.T).max() / abs(A).max()
    check("9a operator symmetry to 1e-12", sym <= 1e-12, f"defect {sym:.1e}")

    phi = compact_test_field(Q.grid, 40)
    B = quadratic_form_B(phi, Q, c)
    x = interior_to_real(phi.values)
    ray = float(x @ (A @ x))
    check("9b form/matrix agreement to 1e-8", abs(ray - B) <= 1e-8 * abs(B),
          f"rel = {abs(ray - B) / abs(B):.1e}")
    dd = abs(quadratic_form_naive(phi, Q, c) - B) / abs(B)
    check("9c form equals the plain discrete form to 1e-8 on compact fields",
          dd <= 1e-8, f"rel = {dd:.1e}")
    iQ = ComplexField(Q.grid, 1j * Q.values)
    scale = edge_gradient_energy(iQ)
    bq = abs(quadratic_form_B(iQ, Q, c))
    check("9d form finite and vanishing on the phase direction i Q to 1e-6",
          bq <= 1e-6 * scale, f"|B(iQ)| / edge gradient energy = {bq / scale:.1e}")
    ok = True
    for lam in (0.1, 1.0):
        shifted = ComplexField(Q.grid, phi.values + 1j * lam * Q.values)
        ok = ok and abs(quadratic_form_B(shifted, Q, c) - B) <= 1e-8 * abs(B)
    check("9e phase invariance B(phi + i lam Q) = B(phi) to 1e-8", ok)

    # Poincare inequality on circles for random smooth fields
    rng = np.random.default_rng(3)
    ok = True
    for trial in range(5):
        ks = rng.uniform(-0.7, 0.7, (3, 2))
        co = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        for rad in (1.0, 2.0, 5.0):
            th = 2 * np.pi * np.arange(512) / 512
            xs = entry01.zeros[0][0] + rad * np.cos(th)
            ys = rad * np.sin(th)
            psi = sum(cc * np.exp(1j * (k1 * xs + k2 * ys))
                      for cc, (k1, k2) in zip(co, ks))
            gx = sum(cc * 1j * k1 * np.exp(1j * (k1 * xs + k2 * ys))
                     for cc, (k1, k2) in zip(co, ks))
            gy = sum(cc * 1j * k2 * np.exp(1j * (k1 * xs + k2 * ys))
                     for cc, (k1, k2) in zip(co, ks))
            lhs = np.mean(np.abs(psi - np.mean(psi)) ** 2)
            rhs = rad**2 * np.mean(np.abs(gx) ** 2 + np.abs(gy) ** 2)
            ok = ok and lhs <= rhs * (1 + 1e-12)
    check("9f circle Poincare inequality on random smooth fields", ok)


def test_zzz_summary():
    print()
    for line in RESULTS:
        print(line)
    assert all(line.startswith("[PASS]") for line in RESULTS)
