"""The benchmark's workloads: how each one builds its inputs from the seed,
calls the public API of homoglab, and summarizes the answer for the
correctness check.

`homoglab` is imported inside `setup`, so a child's set-up time covers the
package imports as well as the construction of the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# Columns of a study row that the correctness check compares.  Rows may carry
# more keys than these; the reference lists only what the seed commit had.
ROW_KEYS = ("eps", "j", "lambda_eps", "lambda_hom", "abs_err", "heps_err",
            "l2_err", "gap", "visik_alpha", "visik_certificate")


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable        # seed -> inputs (imports homoglab)
    call: Callable         # inputs -> raw result
    summarize: Callable    # raw result -> JSON-clean dict compared to the reference
    reported_modes: Callable  # raw result -> number of eigenmodes the user gets
    must_run: tuple        # traced functions that record zero calls only if tracing broke


def _study_summary(report: dict) -> dict:
    body = report["body"]
    return {
        "complete": body["complete"],
        "c_star": body["cell"]["c_star"],
        "a_hom": body["cell"]["a_hom"],
        "lambda_hom": body["homogenized"]["lambda"],
        "alpha": body["homogenized"]["alpha"],
        "rows": body["rows"],
        "lab_checks": [row["check"] for row in body["lab"]],
    }


def _study_call(cfg):
    import homoglab
    return homoglab.run_study(cfg)


def _setup_default(seed: int):
    from homoglab import StudyConfig
    return StudyConfig(seed=seed)


def _setup_certify(seed: int):
    from homoglab import StudyConfig
    return StudyConfig(eps_list=(1.0 / 16.0, 1.0 / 32.0),
                       modes=("EIGENVALUES", "VISIK"))


def _setup_deep(seed: int):
    from homoglab import DomainConfig
    return DomainConfig(eps=1.0 / 64.0, hole_radius=0.25)


def _deep_call(cfg):
    import homoglab.spectral
    return homoglab.spectral.solve_perforated_evp(cfg, k=4)


def _deep_summary(result) -> dict:
    spec, bundle = result
    return {"eigenvalues": spec.eigenvalues.tolist(),
            "unknowns": int(bundle.red.dim)}


_STUDY_CORE = ("harness.run_study", "cell.solve_cell_problem",
               "geometry.build_cell_mesh", "geometry.tile_template",
               "geometry.build_perforated_mesh", "geometry.build_domain_mesh",
               "geometry.locate_point", "fem.assemble_stiffness",
               "fem.assemble_mass", "fem.assemble_robin_mass",
               "fem.apply_constraints", "eigensolve.solve_gevp",
               "eigensolve.solve_source", "eigensolve.factorized_solver",
               "spectral.solve_perforated_evp", "spectral.solve_homogenized_evp",
               "spectral.solve_dirichlet_laplacian", "spectral.apply_Keps",
               "cell.eval_chi", "corrector.build_corrector",
               "corrector.visik_check")

WORKLOADS = {w.name: w for w in (
    Workload(
        # what `homoglab study` runs; scalar point location dominates and it
        # is the only workload that runs the lemma lab
        name="study_default",
        setup=_setup_default, call=_study_call, summarize=_study_summary,
        reported_modes=lambda report: len(report["body"]["rows"]),
        must_run=_STUDY_CORE + (
            "spectral.extend_Teps", "corrector.align_eigenspaces",
            "corrector.eigenspace_gap", "lab.check_trace", "lab.check_volsup",
            "lab.check_periodic_osc", "lab.check_norm_equivalence",
            "lab.check_strip_poincare")),
    Workload(
        # what `homoglab spectrum --eps 1/64 --k 4` computes: tiling,
        # assembly and shift-invert Lanczos, with no point location at all
        name="deep_eigen",
        setup=_setup_deep, call=_deep_call, summarize=_deep_summary,
        reported_modes=lambda result: result[0].k,
        must_run=("spectral.solve_perforated_evp", "geometry.build_cell_mesh",
                  "geometry.tile_template", "geometry.build_perforated_mesh",
                  "fem.assemble_stiffness", "fem.assemble_mass",
                  "fem.assemble_robin_mass", "fem.apply_constraints",
                  "eigensolve.solve_gevp")),
    Workload(
        # the residual certificate: 16 modes solved to report 4, a second
        # factorization in apply_Keps and 4 correctors per eps
        name="study_certify",
        setup=_setup_certify, call=_study_call, summarize=_study_summary,
        reported_modes=lambda report: len(report["body"]["rows"]),
        must_run=_STUDY_CORE),
)}


def reference_view(summary: dict) -> dict:
    """The part of a summary that is recorded as the reference."""
    if "rows" not in summary:
        return summary
    out = dict(summary)
    out["rows"] = [{k: row[k] for k in ROW_KEYS if k in row}
                   for row in summary["rows"]]
    return out
