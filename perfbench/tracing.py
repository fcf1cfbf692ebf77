"""Per-layer tracing from outside the program.

`install` wraps the public functions of each homoglab layer and puts the
wrapper at every binding site: each module attribute, in any homoglab
module, that holds the original function (so `from .x import f` copies are
covered too).  `Tracer.restore` puts the originals back.

Each wrapped call records a span (name, start, end, parent).  The hot leaves
in LEAVES are aggregated under their parent span instead: one entry per
(parent span, leaf) with calls, total and self time.  A function's self time
is its duration minus the time of the wrapped calls made inside it, so the
self times of all wrapped functions add up to the duration of the root call.

Probes read work counters from arguments and results (modes solved, LU fill,
unknowns).  The tracer's clock is paused while a probe runs, so probes cost
traced wall time but no span's time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

TRACED = {
    "geometry": ("build_cell_mesh", "tile_template", "build_perforated_mesh",
                 "build_domain_mesh", "locate_point"),
    "fem": ("assemble_stiffness", "assemble_mass", "assemble_robin_mass",
            "apply_constraints"),
    "eigensolve": ("solve_gevp", "solve_source", "factorized_solver"),
    "cell": ("solve_cell_problem", "eval_chi"),
    "spectral": ("solve_perforated_evp", "solve_homogenized_evp",
                 "solve_dirichlet_laplacian", "apply_Keps", "extend_Teps"),
    "corrector": ("build_corrector", "align_eigenspaces", "eigenspace_gap",
                  "visik_check"),
    "lab": ("check_trace", "check_volsup", "check_periodic_osc",
            "check_norm_equivalence", "check_strip_poincare"),
    "harness": ("run_study",),
}

FUNCTIONS = tuple(f"{layer}.{name}" for layer, names in TRACED.items()
                  for name in names)

# called tens of thousands of times per study: one span per call would cost
# more than the call itself
LEAVES = frozenset({"geometry.locate_point", "cell.eval_chi"})

# binding sites made by `from .module import name`; install fails if any of
# them is missed
REQUIRED_SITES = ("spectral.solve_gevp", "spectral.solve_source",
                  "cell.solve_source", "harness.solve_cell_problem",
                  "corrector.eval_chi", "lab.eval_chi", "corrector.apply_Keps")

# work counters beyond calls/s/self_s; all start at zero
COUNTERS = ("eigensolve.solve_gevp.modes", "eigensolve.solve_gevp.max_n",
            "eigensolve.lu_fill_factors_nnz", "eigensolve.lu_fill_matrix_nnz",
            "spectral.solve_perforated_evp.unknowns",
            "spectral.solve_perforated_evp.nnz",
            "spectral.solve_perforated_evp.modes")


def _probe_gevp(c, args, kwargs, spec):
    c["eigensolve.solve_gevp.modes"] += spec.k
    c["eigensolve.solve_gevp.max_n"] = max(c["eigensolve.solve_gevp.max_n"],
                                           int(args[0].shape[0]))


def _probe_factorized(c, args, kwargs, solve):
    lu = solve.__self__  # the SuperLU object behind the returned lu.solve
    c["eigensolve.lu_fill_factors_nnz"] += int(lu.L.nnz + lu.U.nnz)
    c["eigensolve.lu_fill_matrix_nnz"] += int(args[0].nnz)


def _probe_perforated(c, args, kwargs, result):
    spec, bundle = result
    c["spectral.solve_perforated_evp.unknowns"] += int(bundle.red.dim)
    c["spectral.solve_perforated_evp.nnz"] += int(bundle.A.nnz)
    c["spectral.solve_perforated_evp.modes"] += spec.k


PROBES = {"eigensolve.solve_gevp": _probe_gevp,
          "eigensolve.factorized_solver": _probe_factorized,
          "spectral.solve_perforated_evp": _probe_perforated}


class Tracer:
    """Spans, per-function totals and work counters for one traced call."""

    def __init__(self):
        self.spans: list[dict] = []
        self.roots: dict = {}     # leaf aggregates made outside any span
        self.stats = {q: [0, 0.0, 0.0] for q in FUNCTIONS}  # calls, total, self
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.paused = 0.0
        self.origin = time.perf_counter()
        self.sites: list = []     # (module, attribute, original)
        self._stack: list = []    # frames: [owning span id or None, child time]

    def now(self) -> float:
        """Seconds since the tracer was made, probe time left out."""
        return time.perf_counter() - self.paused - self.origin

    def wrap(self, qual: str, fn):
        stats = self.stats[qual]
        probe = PROBES.get(qual)
        leaf = qual in LEAVES
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            owner = stack[-1][0] if stack else None
            if leaf:
                frame = [owner, 0.0]
            else:
                frame = [len(spans), 0.0]
                spans.append({"id": frame[0], "name": qual, "parent": owner,
                              "start": None, "end": None, "self_s": None,
                              "leaves": {}})
            stack.append(frame)
            t0 = self.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = self.now()
                stack.pop()
                dt = t1 - t0
                own = dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += own
                if leaf:
                    agg = spans[owner]["leaves"] if owner is not None else self.roots
                    entry = agg.setdefault(qual, [0, 0.0, 0.0])
                    entry[0] += 1
                    entry[1] += dt
                    entry[2] += own
                else:
                    span = spans[frame[0]]
                    span["start"], span["end"], span["self_s"] = t0, t1, own
            if probe is not None:
                p0 = time.perf_counter()
                probe(self.counters, args, kwargs, result)
                self.paused += time.perf_counter() - p0
            return result

        return wrapper

    def install(self):
        """Wrap every traced function at every homoglab binding site."""
        modules = sorted((name, mod) for name, mod in sys.modules.items()
                         if mod is not None
                         and (name == "homoglab" or name.startswith("homoglab.")))
        for qual in FUNCTIONS:
            layer, name = qual.split(".")
            original = getattr(importlib.import_module(f"homoglab.{layer}"), name)
            wrapper = self.wrap(qual, original)
            for _, mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self.sites.append((mod, attr, original))
        missing = sorted(set(REQUIRED_SITES) - set(self.site_names()))
        if missing:
            self.restore()
            raise RuntimeError(f"binding sites not wrapped: {missing}")

    def site_names(self) -> list[str]:
        return [f"{mod.__name__.removeprefix('homoglab.')}.{attr}"
                for mod, attr, _ in self.sites]

    def restore(self) -> list[str]:
        """Put the originals back; returns the sites that did not take."""
        for mod, attr, original in reversed(self.sites):
            setattr(mod, attr, original)
        return [f"{mod.__name__}.{attr}" for mod, attr, original in self.sites
                if getattr(mod, attr) is not original]

    def accounted_s(self) -> float:
        """Sum of all self times: the root calls' duration on the tracer clock."""
        return sum(s[2] for s in self.stats.values())

    def metrics(self, reported_modes: int) -> dict:
        """Per-layer metrics of this traced call (trace_overhead_s excluded)."""
        out = {}
        for qual, (calls, total, own) in self.stats.items():
            out[f"{qual}.calls"] = calls
            out[f"{qual}.s"] = total
            out[f"{qual}.self_s"] = own
        c = self.counters
        out["eigensolve.solve_gevp.modes"] = c["eigensolve.solve_gevp.modes"]
        out["eigensolve.solve_gevp.max_n"] = c["eigensolve.solve_gevp.max_n"]
        den = c["eigensolve.lu_fill_matrix_nnz"]
        out["eigensolve.lu_fill"] = c["eigensolve.lu_fill_factors_nnz"] / den if den else 0.0
        out["spectral.solve_perforated_evp.unknowns"] = c["spectral.solve_perforated_evp.unknowns"]
        out["spectral.solve_perforated_evp.nnz"] = c["spectral.solve_perforated_evp.nnz"]
        solved = c["spectral.solve_perforated_evp.modes"]
        out["spectral.modes_used_ratio"] = reported_modes / solved if solved else 0.0
        return out


TIME_SUFFIXES = (".s", ".self_s")


def is_time(metric: str) -> bool:
    return metric.endswith(TIME_SUFFIXES) or metric == "trace_overhead_s"


def render_tree(spans: list[dict], roots: dict) -> list[str]:
    """Indented text tree: total and self seconds per span, leaves as '·'."""
    children: dict = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    lines = []

    def leaf_lines(agg: dict, depth: int):
        for qual, (calls, total, own) in sorted(agg.items()):
            lines.append(f"{'  ' * depth}· {qual} x{calls}  "
                         f"{total:.3f} s  self {own:.3f} s")

    def walk(span: dict, depth: int):
        dur = span["end"] - span["start"]
        lines.append(f"{'  ' * depth}{span['name']}  {dur:.3f} s  "
                     f"self {span['self_s']:.3f} s  "
                     f"[{span['start']:.3f} .. {span['end']:.3f}]")
        leaf_lines(span["leaves"], depth + 1)
        for child in children.get(span["id"], ()):
            walk(child, depth + 1)

    leaf_lines(roots, 0)
    for root in children.get(None, ()):
        walk(root, 0)
    return lines
