"""Sweep orchestration: solve the cell problem once, the macro problems once,
then the perforated problem per eps; fit log-log rates and emit reports."""

from __future__ import annotations

import contextlib
import csv
import ctypes
import importlib
import json
import os
import sys
import time
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

try:
    import resource
except ImportError:  # Windows has no getrusage
    resource = None

from . import corrector as corr
from . import fem, geometry, lab, spectral
from .cell import solve_cell_problem
from .errors import ConfigError, config_float, config_floats, config_int, config_names
from .geometry import DomainConfig

MODES = ("EIGENVALUES", "CORRECTOR", "EIGENSPACE", "VISIK", "LAB")

_CLUSTER_REL_TOL = 1e-2             # relative spread of one eigenvalue cluster
_SVG_WIDTH, _SVG_HEIGHT = 640, 480  # pixel size of the rates chart
# row columns whose j = 1 series are fitted, flagged and charted
_ERROR_COLUMNS = ("abs_err", "heps_err", "l2_err", "gap", "visik_alpha")
# numpy's and scipy's bundled OpenBLAS: a name, a module linked to the
# library, and the suffix of its symbols (numpy's is the 64-bit-integer build)
_OPENBLAS = (("numpy", "numpy._core._multiarray_umath", "64_"),
             ("scipy", "scipy.linalg._fblas", ""))
# the variables OpenBLAS takes its thread count from
_OPENBLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@dataclass
class StudyConfig:
    """Everything a sweep needs; defaults sized for a laptop run.  `seed` is
    only echoed in the report (nothing is random); `lab_samples` is ignored,
    accepted only because perfbench/selftest.py passes it.  The eigenvalues
    are always solved, so the EIGENVALUES mode is accepted only for the echo."""

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
        # stored as Python numbers, which the report serializes
        self.k = config_int("k", self.k, 1)
        self.cell_refine = config_int("cell_refine", self.cell_refine, 1)
        self.hole_poly = config_int("hole_poly", self.hole_poly, geometry.MIN_HOLE_POLY)
        self.seed = config_int("seed", self.seed, 0)
        self.hole_radius = config_float("hole_radius", self.hole_radius)
        self.h_ref = config_float("h_ref", self.h_ref)
        self.k_rect = config_floats("k_rect", self.k_rect, 4)
        self.eps_list = tuple(sorted(config_floats("eps_list", self.eps_list), reverse=True))
        self.modes = config_names("modes", self.modes, MODES)
        if self.h_domain is not None:
            self.h_domain = config_float("h_domain", self.h_domain)
        if len(set(self.eps_list)) < len(self.eps_list):
            raise ConfigError(f"eps_list repeats a value: {list(self.eps_list)}")
        if len(self.eps_list) < 2:
            raise ConfigError("eps_list needs at least two values for rate fits")
        if self.h_domain is not None and not self.h_domain > 0.0:
            raise ConfigError(f"h_domain must be > 0, got {self.h_domain}")
        for eps in self.eps_list:
            self.domain_config(eps)
            if "LAB" in self.modes:
                lab.require_cells_outside_k(eps, self.k_rect)
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
    points = list(points)
    kept = [(e, v) for e, v in points if v > 0.0]
    dropped = len(points) - len(kept)
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


def _eigen_clusters(values: np.ndarray) -> list[list[int]]:
    """Group near-equal eigenvalues (discrete multiplicities)."""
    clusters = [[0]]
    for j in range(1, len(values)):
        if values[j] - values[clusters[-1][0]] <= _CLUSTER_REL_TOL * max(1.0, values[j]):
            clusters[-1].append(j)
        else:
            clusters.append([j])
    return clusters


@contextlib.contextmanager
def _one_blas_thread():
    """Pin numpy's and scipy's bundled OpenBLAS to one thread each, and
    give each its earlier count back on exit, unless one of the variables
    OpenBLAS reads its count from is set: the caller then chose the count
    (the CLI sets them from HOMOGLAB_THREADS), and nothing is pinned.
    Yields the names of the libraries pinned.  The thread setters are
    looked up on each call, through ctypes.  A library without them
    (another BLAS, or another build) is left as it is."""
    pinned = []
    chosen = any(var in os.environ for var in _OPENBLAS_THREAD_VARS)
    for name, module, suffix in () if chosen else _OPENBLAS:
        try:
            lib = ctypes.CDLL(importlib.import_module(module).__file__)
            get = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
            put = getattr(lib, "scipy_openblas_set_num_threads" + suffix)
        except (ImportError, OSError, AttributeError):
            continue
        pinned.append((name, put, get()))
        put(1)
    try:
        yield [name for name, *_ in pinned]
    finally:
        for _, put, count in pinned:
            put(count)


def run_study(cfg: StudyConfig) -> dict:
    """Execute the sweep and return the full nested report (dict).

    With none of OpenBLAS's thread variables set (OPENBLAS_NUM_THREADS,
    GOTO_NUM_THREADS, OMP_NUM_THREADS), the sweep runs with numpy's and
    scipy's bundled OpenBLAS pinned to one thread, and their counts are
    restored on return; header["blas_pinned"] names the libraries pinned.
    A caller who set one of them keeps the count it gives, as does a
    library missing from blas_pinned.  With one BLAS thread the body is a
    pure function of the configuration; the timestamp lives in the header,
    so the body is byte-reproducible.
    """
    with _one_blas_thread() as pinned:
        report = _sweep(cfg)
    report["header"]["blas_pinned"] = pinned
    return report


def _sweep(cfg: StudyConfig) -> dict:
    """`run_study`'s report, with the BLAS threads as they are."""
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
        "a_hom": cell_sol.a_hom.tolist(),
    }

    a_mesh = geometry.build_domain_mesh(cfg.k_rect, cfg.h_macro)
    # mode k + 1 shows whether the cluster holding mode k is cut off at k
    homog_spec, homog_bundle = spectral.solve_homogenized_evp(
        a_mesh, cell_sol.a_hom, cell_sol.cell_area, cfg.k + 1)
    alpha_spec, alpha_bundle = spectral.solve_dirichlet_laplacian(a_mesh, cfg.k)
    body["homogenized"] = {
        "lambda": homog_spec.eigenvalues[:cfg.k].tolist(),
        "alpha": alpha_spec.eigenvalues.tolist(),
        "h_domain": cfg.h_macro,
    }
    clusters = _eigen_clusters(homog_spec.eigenvalues)
    # eigenvectors live on the Dirichlet-reduced DoFs; expand once to (N, k)
    # nodal fields on the A mesh for interpolation and corrector building,
    # then free the two macro bundles and their LUs before the sweep
    hom_full = homog_bundle.red.expand(homog_spec.eigenvectors[:, :cfg.k])
    alpha1_full = alpha_bundle.red.expand(alpha_spec.eigenvectors[:, 0])
    del homog_bundle, alpha_bundle

    sweep_eigenvalues = {}
    rows = []
    lab_rows = []
    eps_peaks = []
    for eps in cfg.eps_list:
        # each eps's bundle (mesh, matrices, LUs) is freed when _eps_rows
        # returns, before the next eps is built
        sweep_eigenvalues[eps], eps_rows, eps_lab = _eps_rows(
            cfg, eps, cell_sol, a_mesh, hom_full,
            homog_spec.eigenvalues, clusters)
        rows.extend(eps_rows)
        lab_rows.extend(eps_lab)
        eps_peaks.append({"eps": eps, "peak_rss_mb": peak_rss_mb()})

    if "LAB" in cfg.modes:
        side = min(x1 - x0, y1 - y0)
        lab_rows.append(lab.check_strip_poincare(
            a_mesh, alpha1_full, [side / 2.5, side / 5.0, side / 10.0]).as_dict())
        lab_rows.append(lab.check_eigen_bounds(
            sweep_eigenvalues, alpha_spec.eigenvalues).as_dict())

    body["rows"] = sorted(rows, key=lambda r: (-r["eps"], r["j"]))
    body["lab"] = lab_rows
    body["rates"] = _fit_all_rates(body["rows"], cfg)
    body["flags"] = _study_flags(body, cfg)
    body["complete"] = True
    report = {"header": {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
                         "runtime_s": round(time.time() - t_start, 3),
                         "peak_rss_mb": peak_rss_mb(),
                         "eps_peak_rss_mb": eps_peaks},
              "body": body}
    return report


def peak_rss_mb() -> float | None:
    """This process's peak resident set size so far, in MB (2^20 bytes):
    ru_maxrss counts KB on Linux and bytes on macOS.  None on Windows."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return round(peak / (2**20 if sys.platform == "darwin" else 2**10), 1)


# smooth H1_0(Omega) fields for the periodic-oscillation check; v is
# modulated to break the mesh's mirror symmetries, under which the
# oscillation integral cancels to machine zero
def _lab_u(p):
    return np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])


def _lab_v(p):
    return (p[:, 0] + 2.0 * p[:, 1]) * _lab_u(p)


def _eps_rows(cfg: StudyConfig, eps: float, cell_sol, a_mesh,
              hom_full: np.ndarray, lam_hom: np.ndarray, clusters):
    """Solve the perforated problem at one eps and run the configured modes.

    Returns the eigenvalues, the k report rows and the lab rows; nothing
    returned refers to the eps's bundle.  The corrector is built before any
    LU exists.  VISIK's share of K_eps U^1 and norm equivalence's Lanczos
    run read each sector's LU in the eigensolve's one visit of the sector
    (`solve_gevp`'s readers), norm equivalence last since it drops the LU;
    so no LU outlives its visit, and at most one is alive at any moment.
    """
    U, KU, norm_rows = None, [], []

    def readers(bundle):
        nonlocal U
        out = []
        if {"CORRECTOR", "VISIK"} & set(cfg.modes):
            U = corr.build_corrector(hom_full, a_mesh, cell_sol, eps, bundle,
                                     cutoff=True)
        if "VISIK" in cfg.modes:
            out.append(lambda s: KU.append(
                spectral.apply_Keps(bundle, U[0], sectors=(s,))))
        if "LAB" in cfg.modes:
            out.append(lambda s: norm_rows.append(
                lab.check_norm_equivalence(bundle, sectors=(s,))))
        return out

    spec_eps, bundle = spectral.solve_perforated_evp(cfg.domain_config(eps), cfg.k,
                                                     readers=readers)
    rows = [{"eps": eps, "j": j + 1,
             "lambda_eps": float(spec_eps.eigenvalues[j]),
             "lambda_hom": float(lam_hom[j]),
             "abs_err": abs(float(spec_eps.eigenvalues[j] - lam_hom[j])),
             "heps_err": None, "l2_err": None, "gap": None, "visik_alpha": None}
            for j in range(cfg.k)]

    if "VISIK" in cfg.modes:
        mu = 1.0 / float(lam_hom[0])
        vres = corr.visik_check(bundle, U[0], mu, spec_eps, KU=sum(KU))
        rows[0]["visik_alpha"] = float(vres.residual)
        rows[0]["visik_certificate"] = bool(vres.certificate)
        rows[0]["visik_nearest_distance"] = float(vres.nearest_distance)

    if "CORRECTOR" in cfg.modes:
        for cl in clusters:
            if cl[-1] >= cfg.k:
                continue
            res = corr.align_eigenspaces(spec_eps.eigenvectors[:, cl].T,
                                         U[cl], bundle.red.M, A_form=bundle.red.A)
            for pos, j in enumerate(cl):
                rows[j]["heps_err"] = float(res.heps_errors[pos])
                rows[j]["l2_err"] = float(res.l2_errors[pos])

    if "EIGENSPACE" in cfg.modes and clusters[0][-1] < cfg.k:
        cl = clusters[0]
        rows[cl[0]]["gap"] = _eigenspace_gap(bundle, spec_eps.eigenvectors[:, cl],
                                             a_mesh, hom_full[:, cl])

    lab_rows = []
    if "LAB" in cfg.modes:
        lab_rows = [lab.check_trace(bundle).as_dict(),
                    lab.check_volsup(bundle, cell_sol, cfg.k_rect).as_dict(),
                    lab.check_periodic_osc(cell_sol, bundle, _lab_u, _lab_v).as_dict(),
                    max(norm_rows, key=lambda r: r.worst_ratio).as_dict()]

    return spec_eps.eigenvalues, rows, lab_rows


def _eigenspace_gap(bundle, U_eps: np.ndarray, a_mesh, u_hom: np.ndarray) -> float:
    """Largest L2(Omega) principal-angle sine between T_eps U_eps and the macro
    modes u_hom interpolated onto the tiled mesh, zero off closed A, where
    no node is located.  The full-mesh mass and the fields it builds die on
    return, before the lab factorizes its pencils."""
    mesh = bundle.mesh
    inside = geometry.point_in_closed_rect(a_mesh.bounds(), mesh.nodes)
    macro = np.zeros((mesh.n_nodes, u_hom.shape[1]))
    macro[inside] = geometry.interpolate(a_mesh, u_hom, mesh.nodes[inside])[0]
    return corr.eigenspace_gap(
        spectral.extend_Teps(bundle, U_eps).T, macro.T,
        fem.assemble_mass(mesh, tris=np.arange(mesh.n_triangles)))


def _j1_series(rows, col: str) -> list:
    """(eps, value) of column `col` over the j = 1 rows where it was measured."""
    return [(r["eps"], r[col]) for r in rows if r["j"] == 1 and r[col] is not None]


def _fit_all_rates(rows, cfg: StudyConfig) -> dict:
    rates = {}
    series = {f"{col}_j1": _j1_series(rows, col) for col in _ERROR_COLUMNS}
    series["abs_err_j2"] = [(r["eps"], r["abs_err"]) for r in rows if r["j"] == 2]
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
    for col in _ERROR_COLUMNS:
        vals = [v for _, v in _j1_series(body["rows"], col)]
        if len(vals) >= 2:
            flags[f"{col}_j1_last_le_first"] = bool(vals[-1] <= vals[0])
            flags[f"{col}_j1_strictly_decreasing"] = bool(
                all(b < a for a, b in zip(vals, vals[1:])))
    lam1 = [r["lambda_eps"] for r in body["rows"] if r["j"] == 1]
    lam2 = [r["lambda_eps"] for r in body["rows"] if r["j"] == 2]
    if lam1 and lam2:
        flags["gap_lambda12_min"] = min(b - a for a, b in zip(lam1, lam2))
    return flags


def _config_echo(cfg: StudyConfig) -> dict:
    """Every field but the ignored `lab_samples`; tuples serialize as lists."""
    return {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name != "lab_samples"}


def body_bytes(report: dict) -> bytes:
    """Canonical byte serialization of the timestamp-free report body."""
    return json.dumps(report["body"], sort_keys=True).encode()


CSV_COLUMNS = ["eps", "j", "lambda_eps", "lambda_hom", *_ERROR_COLUMNS]


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


def _render_svg(report: dict) -> str:
    """Log-log chart: one polyline per error series, fitted dashed overlay."""
    width, height = _SVG_WIDTH, _SVG_HEIGHT
    body = report["body"]
    series = {}
    for col in _ERROR_COLUMNS:
        pts = [(e, v) for e, v in _j1_series(body["rows"], col) if v > 0.0]
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
    for name, pts in series.items():
        c = colors[name]
        px = [to_px(np.log(e), np.log(v)) for e, v in pts]
        poly = " ".join(f"{x:.1f},{y:.1f}" for x, y in px)
        out.append(f"<polyline fill='none' stroke='{c}' points='{poly}'/>")
        fit = body["rates"].get(f"{name}_j1")
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
