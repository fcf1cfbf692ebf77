"""Command line front end: mesh dumps, cell constants, spectra, sweeps, checks."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


def _configure_threads():
    """Pin BLAS/OpenMP thread counts before numpy gets imported."""
    n = os.environ.get("HOMOGLAB_THREADS", "1")
    try:
        int(n)
    except ValueError:
        print(f"error: HOMOGLAB_THREADS must be an integer, got {n!r}",
              file=sys.stderr)
        raise SystemExit(1)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, n)


def _parse_number(text: str) -> float:
    """Accept plain floats and fractions like 1/16."""
    if "/" in text:
        num, den = text.split("/", 1)
        return float(num) / float(den)
    return float(text)


def _parse_krect(text: str):
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected x0,y0,x1,y1")
    return tuple(parts)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="homoglab",
        description="Finite-element laboratory for spectral homogenization of "
                    "a Neumann-Robin eigenproblem on perforated domains.")
    sub = p.add_subparsers(dest="command", required=True)

    def geo_flags(sp):
        sp.add_argument("--eps", type=_parse_number, default=0.25,
                        help="cell size, must be 1/n (default 1/4)")
        sp.add_argument("--radius", type=float, default=0.25,
                        help="hole radius (default 0.25)")
        sp.add_argument("--npoly", type=int, default=32,
                        help="hole polygon vertex count (default 32)")
        sp.add_argument("--href", type=_parse_number, default=0.125,
                        help="template mesh size (default 1/8)")
        sp.add_argument("--krect", type=_parse_krect,
                        default=(0.25, 0.25, 0.75, 0.75),
                        help="Robin-free rectangle x0,y0,x1,y1")

    sp = sub.add_parser("mesh", help="build a mesh and dump it as text")
    geo_flags(sp)
    sp.add_argument("--kind", choices=("template", "perforated", "domain"),
                    default="perforated")
    sp.add_argument("--out", type=Path, default=None,
                    help="output file (default stdout)")

    sp = sub.add_parser("cell", help="solve the cell problem, print a_hom")
    sp.add_argument("--radius", type=float, default=0.25)
    sp.add_argument("--npoly", type=int, default=32)
    sp.add_argument("--href", type=_parse_number, default=0.03125)
    sp.add_argument("--out", type=Path, default=None, help="optional JSON file")

    sp = sub.add_parser("spectrum", help="solve the perforated eigenproblem")
    geo_flags(sp)
    sp.add_argument("--k", type=int, default=4, help="number of modes")
    sp.add_argument("--out", type=Path, default=None, help="optional JSON file")

    for name, helptext in (("study", "run the full convergence sweep"),
                           ("check", "run the sweep and grade its sanity flags")):
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--config", type=Path, default=None,
                        help="key = value file overriding sweep defaults")
        sp.add_argument("--out", type=Path, default=Path("study_out"),
                        help="output directory (default ./study_out)")
        sp.add_argument("--csv", action="store_true", help="also write CSV")
        sp.add_argument("--svg", action="store_true", help="also write SVG")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the sweep seed")
    return p


def _load_study_config(path, seed):
    from .errors import ConfigError
    from .harness import StudyConfig
    kwargs = {}
    if path is not None:
        for ln, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected 'key = value'")
            key, val = (s.strip() for s in line.split("=", 1))
            if key in ("hole_radius", "h_ref", "h_domain"):
                kwargs[key] = _parse_number(val)
            elif key in ("hole_poly", "k", "seed", "cell_refine"):
                kwargs[key] = int(val)
            elif key == "eps_list":
                kwargs[key] = tuple(_parse_number(v) for v in val.split(","))
            elif key == "k_rect":
                kwargs[key] = tuple(float(v) for v in val.split(","))
            elif key == "modes":
                kwargs[key] = tuple(v.strip().upper() for v in val.split(","))
            else:
                raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
    if seed is not None:
        kwargs["seed"] = seed
    return StudyConfig(**kwargs)


def _cmd_mesh(args) -> int:
    from . import geometry
    if args.kind == "domain":
        mesh = geometry.build_domain_mesh(args.krect, args.href)
    else:
        cell = geometry.build_cell_mesh(args.radius, args.npoly, args.href)
        if args.kind == "template":
            mesh = cell
        else:
            cfg = geometry.DomainConfig(eps=args.eps, hole_radius=args.radius,
                                        hole_poly=args.npoly, k_rect=args.krect,
                                        h_ref=args.href)
            mesh = geometry.build_perforated_mesh(cfg, cell)
    text = geometry.write_mesh_text(mesh)
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
        print(f"wrote {args.out}")
    return 0


def _cmd_cell(args) -> int:
    from . import geometry
    from .cell import solve_cell_problem
    mesh = geometry.build_cell_mesh(args.radius, args.npoly, args.href)
    sol = solve_cell_problem(mesh)
    payload = {"a_hom": sol.a_hom.tolist(), "cell_area": sol.cell_area,
               "hole_perimeter": sol.hole_perimeter, "c_star": sol.c_star}
    print(f"a_hom      = {sol.a_hom[0].tolist()}")
    print(f"             {sol.a_hom[1].tolist()}")
    print(f"|Y|        = {sol.cell_area:.12g}")
    print(f"|Sigma^0|  = {sol.hole_perimeter:.12g}")
    print(f"C*         = {sol.c_star:.12g}")
    if args.out is not None:
        args.out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


def _cmd_spectrum(args) -> int:
    from . import spectral
    from .geometry import DomainConfig
    cfg = DomainConfig(eps=args.eps, hole_radius=args.radius,
                       hole_poly=args.npoly, k_rect=args.krect, h_ref=args.href)
    spec, bundle = spectral.solve_perforated_evp(cfg, args.k)
    print(f"eps = {cfg.eps}, reduced dim = {bundle.red.dim}")
    for j, (lam, res) in enumerate(zip(spec.eigenvalues, spec.residuals), start=1):
        print(f"lambda_{j} = {lam:.12g}   (residual {res:.2e})")
    if args.out is not None:
        payload = {"eps": cfg.eps, "eigenvalues": spec.eigenvalues.tolist(),
                   "residuals": spec.residuals.tolist()}
        args.out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0


def _cmd_study(args, grade: bool) -> int:
    from .harness import emit, run_study
    cfg = _load_study_config(args.config, args.seed)
    report = run_study(cfg)
    formats = ["json"] + (["csv"] if args.csv else []) + (["svg"] if args.svg else [])
    written = emit(report, args.out, formats=formats)
    for p in written:
        print(f"wrote {p}")
    body = report["body"]
    for name, fit in sorted(body["rates"].items()):
        if fit:
            print(f"rate {name}: slope {fit['slope']:.3f} (r2 {fit['r2']:.3f})")
    if not grade:
        return 0
    failures = []
    for row in body["lab"]:
        status = "pass" if row["passed"] else "FAIL"
        print(f"lab {row['check']} (eps={row['eps']}): worst ratio "
              f"{row['worst_ratio']:.4g} [{status}]")
        if not row["passed"]:
            failures.append(f"lab:{row['check']}")
    for name, val in sorted(body["flags"].items()):
        print(f"flag {name} = {val}")
        if val is False:
            failures.append(f"flag:{name}")
    if failures:
        print(f"FAILED: {', '.join(failures)}")
        return 2
    print("all checks passed")
    return 0


def main(argv=None) -> int:
    _configure_threads()
    args = _build_parser().parse_args(argv)
    from .errors import HomoglabError
    try:
        if args.command == "mesh":
            return _cmd_mesh(args)
        if args.command == "cell":
            return _cmd_cell(args)
        if args.command == "spectrum":
            return _cmd_spectrum(args)
        if args.command == "study":
            return _cmd_study(args, grade=False)
        if args.command == "check":
            return _cmd_study(args, grade=True)
        raise AssertionError(f"unhandled command {args.command}")
    except HomoglabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
