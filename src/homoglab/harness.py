"""Sweep orchestration: solve the cell problem once, the macro problems once,
then the perforated problem per eps; fit log-log rates and emit reports."""

from __future__ import annotations

import csv
import io
import json
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import corrector as corr
from . import fem, geometry, lab, spectral
from .cell import solve_cell_problem
from .errors import ConfigError, HomoglabError
from .geometry import DomainConfig, Mesh

MODES = ("EIGENVALUES", "CORRECTOR", "EIGENSPACE", "VISIK", "LAB")


@dataclass
class StudyConfig:
    """Everything a sweep needs; defaults sized for a laptop run.  `seed` is
    only echoed in the report (nothing is random); `lab_samples` is ignored,
    accepted only because perfbench/selftest.py passes it."""

    hole_radius: float = 0.25
    hole_poly: int = 32
    k_rect: tuple = (0.25, 0.25, 0.75, 0.75)
    h_ref: float = 1.0 / 8.0
    eps_list: tuple = (1.0 / 4.0, 1.0 / 8.0, 1.0 / 16.0)
    k: int = 4
    modes: tuple = MODES
    seed: int = 20240901
    h_domain: float | None = None      # macro mesh size on A; default side/64
    cell_refine: int = 4               # template refinement for chi and a_hom
    lab_samples: int = 100             # ignored

    def __post_init__(self):
        if len(self.eps_list) < 2:
            raise ConfigError("eps_list needs at least two values for rate fits")
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.cell_refine < 1:
            raise ConfigError(f"cell_refine must be >= 1, got {self.cell_refine}")
        if self.h_domain is not None and not self.h_domain > 0.0:
            raise ConfigError(f"h_domain must be > 0, got {self.h_domain}")
        if sorted(self.eps_list, reverse=True) != list(self.eps_list):
            self.eps_list = tuple(sorted(self.eps_list, reverse=True))
        unknown = set(self.modes) - set(MODES)
        if unknown:
            raise ConfigError(f"unknown modes {sorted(unknown)}")
        for eps in self.eps_list:
            self.domain_config(eps)
        nx, ny = geometry.domain_grid(self.k_rect, self.h_macro)
        interior = (nx - 1) * (ny - 1)
        if interior <= self.k + 1:
            raise ConfigError(
                f"h_domain={self.h_macro} leaves {interior} interior macro nodes; "
                f"the homogenized solve needs more than k + 1 = {self.k + 1}")

    @property
    def h_macro(self) -> float:
        """Macro mesh size on A: h_domain, or side/64 when it is None."""
        x0, _, x1, _ = self.k_rect
        return self.h_domain if self.h_domain is not None else (x1 - x0) / 64.0

    def domain_config(self, eps: float) -> DomainConfig:
        return DomainConfig(eps=eps, hole_radius=self.hole_radius,
                            hole_poly=self.hole_poly, k_rect=self.k_rect,
                            h_ref=self.h_ref)


def fit_rate(points) -> dict:
    """Least-squares slope of log(error) against log(eps)."""
    kept = [(e, v) for e, v in points if v > 0.0]
    dropped = len(list(points)) - len(kept)
    if dropped:
        warnings.warn(f"fit_rate: dropped {dropped} nonpositive error values")
    if len(kept) < 2:
        raise ConfigError("fit_rate needs at least two positive points")
    x = np.log([e for e, _ in kept])
    y = np.log([v for _, v in kept])
    slope, intercept = np.polyfit(x, y, 1)
    yhat = slope * x + intercept
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return {"slope": float(slope), "intercept": float(intercept),
            "r2": float(r2), "points": len(kept)}


def _eigen_clusters(values: np.ndarray, rel_tol: float = 1e-2) -> list[list[int]]:
    """Group near-equal eigenvalues (discrete multiplicities)."""
    clusters = [[0]]
    for j in range(1, len(values)):
        if values[j] - values[clusters[-1][0]] <= rel_tol * max(1.0, values[j]):
            clusters[-1].append(j)
        else:
            clusters.append([j])
    return clusters


def run_study(cfg: StudyConfig) -> dict:
    """Execute the sweep and return the full nested report (dict).

    The report body is a pure function of the configuration; the
    timestamp lives in a separate header so the body is byte-reproducible.
    """
    t_start = time.time()
    body: dict = {"config": _config_echo(cfg), "cell": {}, "homogenized": {},
                  "rows": [], "lab": [], "rates": {}, "flags": {},
                  "complete": False}

    # cell problem on the refined template (used for chi, a_hom, |Y|, C*)
    fine_template = geometry.build_cell_mesh(
        cfg.hole_radius, cfg.hole_poly, cfg.h_ref / cfg.cell_refine)
    cell_sol = solve_cell_problem(fine_template)
    x0, y0, x1, y1 = cfg.k_rect
    body["cell"] = {
        "cell_area": cell_sol.cell_area,
        "hole_perimeter": cell_sol.hole_perimeter,
        "c_star": cell_sol.c_star,
        "c_star_full_boundary": (cell_sol.hole_perimeter + 4.0) / cell_sol.cell_area,
        "a_hom": cell_sol.a_hom.tolist(),
    }

    a_mesh = geometry.build_domain_mesh(cfg.k_rect, cfg.h_macro)
    # mode k + 1 shows whether the cluster holding mode k is cut off at k
    homog_spec, _ = spectral.solve_homogenized_evp(
        a_mesh, cell_sol.a_hom, cell_sol.cell_area, cfg.k + 1)
    alpha_spec, _ = spectral.solve_dirichlet_laplacian(a_mesh, cfg.k)
    body["homogenized"] = {
        "lambda": homog_spec.eigenvalues[:cfg.k].tolist(),
        "alpha": alpha_spec.eigenvalues.tolist(),
        "h_domain": cfg.h_macro,
    }
    clusters = _eigen_clusters(homog_spec.eigenvalues)
    # eigenvectors live on the Dirichlet-reduced DoFs; expand once to nodal
    # fields on the A mesh for interpolation and corrector building
    hom_full = [_expand_dirichlet(a_mesh, homog_spec.eigenvectors[:, j])
                for j in range(cfg.k)]
    alpha1_full = _expand_dirichlet(a_mesh, alpha_spec.eigenvectors[:, 0])

    # the study template at the configured h_ref; micro size is eps * h_ref
    template = geometry.build_cell_mesh(cfg.hole_radius, cfg.hole_poly, cfg.h_ref)

    sweep_specs = {}
    rows = []
    lab_rows = []
    for eps in cfg.eps_list:
        dom = cfg.domain_config(eps)
        spec_eps, bundle = spectral.solve_perforated_evp(dom, cfg.k,
                                                         cell_mesh=template)
        sweep_specs[eps] = spec_eps

        per_mode = {j: {"eps": eps, "j": j + 1,
                        "lambda_eps": float(spec_eps.eigenvalues[j]),
                        "lambda_hom": float(homog_spec.eigenvalues[j]),
                        "abs_err": abs(float(spec_eps.eigenvalues[j]
                                             - homog_spec.eigenvalues[j])),
                        "heps_err": None, "l2_err": None, "gap": None,
                        "visik_alpha": None}
                    for j in range(cfg.k)}

        need_corr = {"CORRECTOR", "EIGENSPACE", "VISIK"} & set(cfg.modes)
        if need_corr:
            U_fields = {}
            for cl in clusters:
                if cl[-1] >= cfg.k:
                    continue
                for j in cl:
                    U_fields[j] = corr.build_corrector(
                        hom_full[j], a_mesh, cell_sol, eps,
                        bundle, cutoff=True, source_index=j)
            if "CORRECTOR" in cfg.modes:
                A_form = bundle.A
                for cl in clusters:
                    if cl[-1] >= cfg.k or any(j not in U_fields for j in cl):
                        continue
                    fam_u = np.stack([spec_eps.eigenvectors[:, j] for j in cl])
                    fam_U = np.stack([U_fields[j].values for j in cl])
                    res = corr.align_eigenspaces(fam_u, fam_U, bundle.M,
                                                 A_form=A_form)
                    for pos, j in enumerate(cl):
                        per_mode[j]["heps_err"] = float(res.heps_errors[pos])
                        per_mode[j]["l2_err"] = float(res.l2_errors[pos])

            if "EIGENSPACE" in cfg.modes:
                mesh = bundle.mesh
                M_omega = fem.assemble_mass(mesh, tris=np.arange(mesh.n_triangles))
                cl = clusters[0]
                ext = np.stack([spectral.extend_Teps(bundle,
                                                     spec_eps.eigenvectors[:, j])
                                for j in cl])
                hom = geometry.interpolate(
                    a_mesh, np.column_stack([hom_full[j] for j in cl]), mesh.nodes).T
                gap = corr.eigenspace_gap(ext, hom, M_omega)
                per_mode[cl[0]]["gap"] = gap

            if "VISIK" in cfg.modes:
                U1 = U_fields.get(0)
                if U1 is None:
                    U1 = corr.build_corrector(hom_full[0], a_mesh, cell_sol,
                                              eps, bundle, cutoff=True,
                                              source_index=0)
                mu = 1.0 / float(homog_spec.eigenvalues[0])
                vres = corr.visik_check(bundle, U1.values, mu, spec_eps)
                per_mode[0]["visik_alpha"] = float(vres.residual)
                per_mode[0]["visik_certificate"] = bool(vres.certificate)
                per_mode[0]["visik_nearest_distance"] = float(vres.nearest_distance)

        if "LAB" in cfg.modes:
            lab_rows.append(lab.check_trace(bundle).as_dict())
            lab_rows.append(lab.check_volsup(bundle, cell_sol, cfg.k_rect).as_dict())

            # smooth H1_0(Omega) fields; v is modulated to break the mesh's
            # mirror symmetries, under which the oscillation integral cancels
            # to machine zero
            def u_fn(p):
                return np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])

            def v_fn(p):
                return (p[:, 0] + 2.0 * p[:, 1]) * u_fn(p)

            lab_rows.append(lab.check_periodic_osc(
                cell_sol, bundle, u_fn, v_fn).as_dict())
            lab_rows.append(lab.check_norm_equivalence(bundle).as_dict())

        rows.extend(per_mode[j] for j in range(cfg.k))

    if "LAB" in cfg.modes:
        side = min(x1 - x0, y1 - y0)
        lab_rows.append(lab.check_strip_poincare(
            a_mesh, alpha1_full, [side / 2.5, side / 5.0, side / 10.0]).as_dict())
        lab_rows.append(lab.check_eigen_bounds(
            sweep_specs, homog_spec, alpha_spec).as_dict())

    body["rows"] = sorted(rows, key=lambda r: (-r["eps"], r["j"]))
    body["lab"] = lab_rows
    body["rates"] = _fit_all_rates(body["rows"], cfg)
    body["flags"] = _study_flags(body, cfg)
    body["complete"] = True
    report = {"header": {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
                         "runtime_s": round(time.time() - t_start, 3)},
              "body": body}
    return report


def _expand_dirichlet(a_mesh: Mesh, u_red: np.ndarray) -> np.ndarray:
    fixed = np.zeros(a_mesh.n_nodes, dtype=bool)
    fixed[a_mesh.outer_nodes()] = True
    out = np.zeros(a_mesh.n_nodes)
    out[~fixed] = u_red
    return out


def _fit_all_rates(rows, cfg: StudyConfig) -> dict:
    rates = {}
    series = {
        "abs_err_j1": [(r["eps"], r["abs_err"]) for r in rows if r["j"] == 1],
        "abs_err_j2": [(r["eps"], r["abs_err"]) for r in rows if r["j"] == 2],
        "heps_err_j1": [(r["eps"], r["heps_err"]) for r in rows
                        if r["j"] == 1 and r["heps_err"] is not None],
        "l2_err_j1": [(r["eps"], r["l2_err"]) for r in rows
                      if r["j"] == 1 and r["l2_err"] is not None],
        "gap_j1": [(r["eps"], r["gap"]) for r in rows
                   if r["j"] == 1 and r["gap"] is not None],
        "visik_alpha_j1": [(r["eps"], r["visik_alpha"]) for r in rows
                           if r["j"] == 1 and r["visik_alpha"] is not None],
    }
    for name, pts in series.items():
        if len(pts) >= 2:
            try:
                rates[name] = fit_rate(pts)
            except ConfigError:
                rates[name] = None
    return rates


def _study_flags(body: dict, cfg: StudyConfig) -> dict:
    """Cheap always-on sanity flags for the report consumer."""
    flags = {}
    for key, col in (("abs_err_j1", "abs_err"), ("heps_err_j1", "heps_err"),
                     ("l2_err_j1", "l2_err"), ("gap_j1", "gap"),
                     ("visik_alpha_j1", "visik_alpha")):
        vals = [r[col] for r in body["rows"] if r["j"] == 1 and r[col] is not None]
        if len(vals) >= 2:
            flags[f"{key}_last_le_first"] = bool(vals[-1] <= vals[0])
            flags[f"{key}_strictly_decreasing"] = bool(
                all(b < a for a, b in zip(vals, vals[1:])))
    lam1 = [r["lambda_eps"] for r in body["rows"] if r["j"] == 1]
    lam2 = [r["lambda_eps"] for r in body["rows"] if r["j"] == 2]
    if lam1 and lam2:
        flags["gap_lambda12_min"] = min(b - a for a, b in zip(lam1, lam2))
    return flags


def _config_echo(cfg: StudyConfig) -> dict:
    return {
        "hole_radius": cfg.hole_radius, "hole_poly": cfg.hole_poly,
        "k_rect": list(cfg.k_rect), "h_ref": cfg.h_ref,
        "eps_list": list(cfg.eps_list), "k": cfg.k,
        "modes": list(cfg.modes), "seed": cfg.seed,
        "h_domain": cfg.h_domain, "cell_refine": cfg.cell_refine,
    }


def body_bytes(report: dict) -> bytes:
    """Canonical byte serialization of the timestamp-free report body."""
    return json.dumps(report["body"], sort_keys=True).encode()


CSV_COLUMNS = ["eps", "j", "lambda_eps", "lambda_hom", "abs_err",
               "heps_err", "l2_err", "gap", "visik_alpha"]


def emit(report: dict, out_dir, formats=("json", "csv")) -> list[Path]:
    """Write the report as JSON (always nested), flat CSV rows and/or SVG."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if "json" in formats:
        p = out / "report.json"
        p.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        written.append(p)
    if "csv" in formats:
        p = out / "report.csv"
        with p.open("w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, extrasaction="ignore")
            w.writeheader()
            for row in report["body"]["rows"]:
                w.writerow({k: row.get(k) for k in CSV_COLUMNS})
        written.append(p)
    if "svg" in formats:
        p = out / "rates.svg"
        p.write_text(_render_svg(report))
        written.append(p)
    return written


def _render_svg(report: dict, width: int = 640, height: int = 480) -> str:
    """Log-log chart: one polyline per error series, fitted dashed overlay."""
    body = report["body"]
    series = {}
    for col in ("abs_err", "heps_err", "l2_err", "gap", "visik_alpha"):
        pts = [(r["eps"], r[col]) for r in body["rows"]
               if r["j"] == 1 and r.get(col)]
        pts = [(e, v) for e, v in pts if v and v > 0.0]
        if len(pts) >= 2:
            series[col] = pts
    if not series:
        return "<svg xmlns='http://www.w3.org/2000/svg'/>\n"
    xs = [np.log(e) for pts in series.values() for e, _ in pts]
    ys = [np.log(v) for pts in series.values() for _, v in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    pad = 50

    def to_px(lx, ly):
        fx = 0.5 if x_hi == x_lo else (lx - x_lo) / (x_hi - x_lo)
        fy = 0.5 if y_hi == y_lo else (ly - y_lo) / (y_hi - y_lo)
        return (pad + fx * (width - 2 * pad), height - pad - fy * (height - 2 * pad))

    colors = {"abs_err": "#1f77b4", "heps_err": "#d62728", "l2_err": "#2ca02c",
              "gap": "#9467bd", "visik_alpha": "#ff7f0e"}
    out = [f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' height='{height}'>"]
    rate_key = {"abs_err": "abs_err_j1", "heps_err": "heps_err_j1",
                "l2_err": "l2_err_j1", "gap": "gap_j1",
                "visik_alpha": "visik_alpha_j1"}
    for name, pts in series.items():
        c = colors[name]
        px = [to_px(np.log(e), np.log(v)) for e, v in pts]
        poly = " ".join(f"{x:.1f},{y:.1f}" for x, y in px)
        out.append(f"<polyline fill='none' stroke='{c}' points='{poly}'/>")
        fit = body["rates"].get(rate_key[name])
        if fit:
            lx = [np.log(e) for e, _ in pts]
            ly = [fit["slope"] * v + fit["intercept"] for v in lx]
            p0 = to_px(lx[0], ly[0])
            p1 = to_px(lx[-1], ly[-1])
            out.append(
                f"<line stroke='{c}' stroke-dasharray='6,4' "
                f"x1='{p0[0]:.1f}' y1='{p0[1]:.1f}' x2='{p1[0]:.1f}' y2='{p1[1]:.1f}'/>")
        out.append(
            f"<text x='{pad}' y='{pad + 16 * list(series).index(name)}' "
            f"fill='{c}' font-size='12'>{name}"
            + (f" (slope {fit['slope']:.2f})" if fit else "") + "</text>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
