"""End-to-end acceptance gates: analytic anchors, effective-tensor sanity,
sweep convergence rates, certificates, uniformity and determinism.

Each test records a single pass/fail verdict line before asserting; the
collected lines are replayed in a terminal summary section after the run.
"""

import json
import sys
import time

import numpy as np

from homoglab import geometry, spectral
from homoglab.cell import fhom
from homoglab.harness import body_bytes, fit_rate

K_RECT = (0.25, 0.25, 0.75, 0.75)


def _verdict(log, num: int, name: str, ok: bool, detail: str):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    log.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _rows(report, j):
    return [r for r in report["body"]["rows"] if r["j"] == j]


def test_criterion_01_analytic_anchor(acceptance_log):
    # without holes the problem is the Dirichlet Laplacian on the unit
    # square; the first eigenvalue converges to 2 pi^2 at order h^2
    t0 = time.time()
    pts = []
    for h_ref in (1 / 8, 1 / 16, 1 / 32):
        cfg = geometry.DomainConfig(eps=0.5, hole_radius=0.0, hole_poly=32,
                                    k_rect=K_RECT, h_ref=h_ref)
        spec, _ = spectral.solve_perforated_evp(cfg, 1)
        h = cfg.eps * h_ref
        pts.append((h, abs(float(spec.eigenvalues[0]) - 2 * np.pi**2)))
    slope = fit_rate(pts)["slope"]
    rel = pts[-1][1] / (2 * np.pi**2)
    runtime = time.time() - t0
    ok = 1.8 <= slope <= 2.2 and rel < 0.01 and runtime < 30.0
    _verdict(acceptance_log, 1, "analytic eigenvalue anchor", ok,
             f"slope {slope:.3f} (want [1.8, 2.2]), rel err {rel:.2e} at "
             f"h=1/64, {runtime:.1f} s")


def test_criterion_02_effective_tensor(cell_sol32, acceptance_log):
    t0 = time.time()
    a = cell_sol32.a_hom
    y_exact = 1.0 - 16.0 * 0.25**2 * np.sin(2.0 * np.pi / 32.0)
    checks = {
        "area": abs(cell_sol32.cell_area - y_exact) <= 1e-12,
        "symmetry": np.max(np.abs(a - a.T)) <= 1e-12,
        "isotropy": (abs(a[0, 1]) <= 1e-3 * a[0, 0]
                     and abs(a[0, 0] - a[1, 1]) <= 1e-3 * a[0, 0]),
        "eigenvalues": (np.linalg.eigvalsh(a).min() > 0.0
                        and np.linalg.eigvalsh(a).max() <= y_exact + 1e-12),
    }
    rng = np.random.default_rng(2)
    agree = True
    for _ in range(20):
        xi = rng.standard_normal(2)
        q = fhom(xi, cell_sol32)
        agree &= abs(q - fhom(xi, cell_sol32, direct=True)) <= 1e-12 * max(1.0, abs(q))
    checks["fhom_paths"] = agree
    runtime = time.time() - t0
    ok = all(checks.values()) and runtime < 30.0
    bad = [k for k, v in checks.items() if not v]
    _verdict(acceptance_log, 2, "effective tensor sanity", ok,
             f"a* = {a[0, 0]:.5f}, |Y| = {y_exact:.12f}"
             + (f", failed: {bad}" if bad else ""))


def test_criterion_03_eigenvalue_convergence(study_report, acceptance_log):
    body = study_report["body"]
    dec = {}
    for j in (1, 2):
        errs = [r["abs_err"] for r in _rows(study_report, j)]
        dec[j] = all(b < a for a, b in zip(errs, errs[1:]))
    slope = body["rates"]["abs_err_j1"]["slope"]
    ok = dec[1] and dec[2] and slope >= 0.45
    _verdict(acceptance_log, 3, "eigenvalue convergence", ok,
             f"strictly decreasing j=1 {dec[1]}, j=2 {dec[2]}, "
             f"slope {slope:.3f} (want >= 0.45)")


def test_criterion_04_corrector_rate(study_report, acceptance_log):
    rates = study_report["body"]["rates"]
    h = rates["heps_err_j1"]
    l2 = rates["l2_err_j1"]
    ok = h["slope"] >= 0.4 and h["r2"] >= 0.9 and l2["slope"] >= 0.4
    _verdict(acceptance_log, 4, "corrector rate", ok,
             f"H_eps slope {h['slope']:.3f} (r2 {h['r2']:.3f}), "
             f"L2 slope {l2['slope']:.3f} (want >= 0.4)")


def test_criterion_05_visik_certificate(study_report, acceptance_log):
    rows = _rows(study_report, 1)
    certs = [bool(r.get("visik_certificate")) for r in rows]
    slope = study_report["body"]["rates"]["visik_alpha_j1"]["slope"]
    ok = all(certs) and slope >= 0.4
    _verdict(acceptance_log, 5, "residual certificate", ok,
             f"certificate at all eps {all(certs)}, residual slope "
             f"{slope:.3f} (want >= 0.4)")


def test_criterion_06_spectrum_structure(acceptance_log):
    gaps = []
    signdef = []
    for eps in (1 / 4, 1 / 8, 1 / 16):
        cfg = geometry.DomainConfig(eps=eps, hole_radius=0.25, hole_poly=32,
                                    k_rect=K_RECT, h_ref=1 / 8)
        spec, _ = spectral.solve_perforated_evp(cfg, 2)
        gaps.append(float(spec.eigenvalues[1] - spec.eigenvalues[0]))
        u1 = spec.eigenvectors[:, 0]
        signdef.append(float(u1.min()) * float(u1.max())
                       >= -1e-6 * float(np.max(np.abs(u1)))**2)
    ok = all(g > 1e-8 for g in gaps) and all(signdef)
    _verdict(acceptance_log, 6, "spectrum structure", ok,
             f"min gap {min(gaps):.4f} (> 1e-8), sign-definite {all(signdef)}")


def test_criterion_07_upper_bound(study_report, acceptance_log):
    alpha1 = study_report["body"]["homogenized"]["alpha"][0]
    rows = _rows(study_report, 1)[-2:]  # two smallest eps
    ok = all(r["lambda_eps"] <= 1.05 * alpha1 for r in rows)
    worst = max(r["lambda_eps"] / alpha1 for r in rows)
    _verdict(acceptance_log, 7, "upper bound", ok,
             f"max lambda1_eps / alpha1 = {worst:.3f} (want <= 1.05)")


def test_criterion_08_eigenspace_gap(study_report, acceptance_log):
    gaps = [r["gap"] for r in _rows(study_report, 1)]
    mono = all(b < a for a, b in zip(gaps, gaps[1:]))
    ok = mono and gaps[-1] < 0.2
    _verdict(acceptance_log, 8, "eigenspace gap", ok,
             f"gaps {[round(g, 3) for g in gaps]}, monotone {mono}, "
             f"final {gaps[-1]:.3f} (want < 0.2)")


def test_criterion_09_lab_uniformity(study_report, study_report_repeat, acceptance_log):
    # the lemmas bound each ratio by a constant independent of eps, which is
    # an upper bound only: the gate is the largest growth of the worst ratio
    # toward smaller eps, max r(eps_j) / r(eps_i) over eps_j < eps_i
    lab = study_report["body"]["lab"]
    series, growth = {}, {}
    for check in ("trace", "volsup", "periodic_osc"):
        rows = sorted((r for r in lab if r["check"] == check),
                      key=lambda r: -r["eps"])
        vals = [r["worst_ratio"] for r in rows]
        series[check] = vals
        growth[check] = max(b / a for i, a in enumerate(vals) for b in vals[i + 1:])
    repro = (json.dumps(lab, sort_keys=True)
             == json.dumps(study_report_repeat["body"]["lab"], sort_keys=True))
    ok = all(g <= 4.0 for g in growth.values()) and repro
    _verdict(acceptance_log, 9, "lemma-lab uniformity", ok,
             "; ".join(f"{k} " + " -> ".join(f"{v:.2e}" for v in series[k])
                       + f", growth {growth[k]:.2f}" for k in series)
             + f" (want growth <= 4), bitwise repro {repro}")


def test_criterion_10_determinism(study_report, study_report_repeat, acceptance_log):
    ok = body_bytes(study_report) == body_bytes(study_report_repeat)
    _verdict(acceptance_log, 10, "determinism", ok,
             "study body bytes identical across two runs" if ok
             else "study body bytes differ between runs")
