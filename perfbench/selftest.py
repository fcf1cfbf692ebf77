"""Self-test of the benchmark's own machinery; runs in about ten seconds.

    python3 perfbench/selftest.py

Checks that the correctness check tolerates roundoff drift and added keys
but catches a perturbed eigenvalue, that such a failure is counted in
`failed` (fail_ratio), that the tracer reaches every traced function at every
binding site on a small study and restores the originals, that its self
times account for the traced call, and that BENCHMARK.json names exactly the
metrics the benchmark reports.
"""

import copy
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from child import THREAD_VARS  # noqa: E402

for _var in THREAD_VARS:
    os.environ[_var] = "1"     # before numpy is imported
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _scale_first_float(obj, factor) -> bool:
    """Multiply the first float found in a nested summary, in place."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in list(items):
        if isinstance(value, float):
            obj[key] = value * factor
            return True
        if isinstance(value, (dict, list)) and _scale_first_float(value, factor):
            return True
    return False


def test_check_tolerance():
    for name in ("study_default", "deep_eigen", "study_certify"):
        ref = check.load_reference(name)
        assert check.compare(ref, copy.deepcopy(ref)) == [], name

        drift = copy.deepcopy(ref)
        assert _scale_first_float(drift, 1.0 + 1e-13)
        assert check.compare(ref, drift) == [], name

        wrong = copy.deepcopy(ref)
        assert _scale_first_float(wrong, 1.0 + 1e-4)
        assert check.compare(ref, wrong), name

    ref = check.load_reference("study_default")
    extra = copy.deepcopy(ref)
    extra["rows"][0]["lambda_well"] = 24.9
    extra["new_section"] = {}
    assert check.compare(ref, extra) == []

    wrong = copy.deepcopy(ref)
    wrong["rows"][0]["lambda_eps"] = ref["rows"][1]["lambda_eps"]
    assert check.compare(ref, wrong)

    flipped = copy.deepcopy(ref)
    flipped["rows"][0]["visik_certificate"] = not ref["rows"][0]["visik_certificate"]
    assert check.compare(ref, flipped)

    missing = copy.deepcopy(ref)
    del missing["rows"][0]["gap"]
    assert check.compare(ref, missing) == ["rows[0].gap: missing"]

    short = copy.deepcopy(ref)
    short["rows"].pop()
    assert check.compare(ref, short)


def test_perturbed_result_counts_as_failed():
    ref = check.load_reference("deep_eigen")
    perturbed = copy.deepcopy(ref)
    perturbed["eigenvalues"][0] *= 1.0 + 1e-4
    calls = []
    for summary in (ref, perturbed, ref):
        errors = check.compare(ref, summary)
        calls.append({"mode": "run", "ok": not errors, "errors": errors,
                      "wall_s": 10.0, "setup_s": 0.4, "peak_rss_mb": 700.0})
    values, _ = run.aggregate([], calls, trace=False)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = run.result_line(values, calls, spec["end_to_end"])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 3, 1)


def _small_study():
    from homoglab import StudyConfig
    return StudyConfig(eps_list=(0.25, 0.125), lab_samples=5)


def _traced_small_study():
    import homoglab
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = homoglab.run_study(_small_study())
    finally:
        not_restored = tracer.restore()
    assert not_restored == [], not_restored
    return tracer, report


def test_tracer_coverage_and_restore():
    import homoglab
    from homoglab import cell, corrector, geometry, harness, lab, spectral
    from workloads import WORKLOADS

    originals = {(m, a): getattr(m, a) for m, a in (
        (geometry, "locate_point"), (spectral, "solve_gevp"),
        (cell, "solve_source"), (harness, "solve_cell_problem"),
        (corrector, "eval_chi"), (lab, "eval_chi"),
        (corrector, "apply_Keps"), (homoglab, "run_study"))}

    tracer, traced_report = _traced_small_study()

    for (mod, attr), fn in originals.items():
        assert getattr(mod, attr) is fn, f"{mod.__name__}.{attr} not restored"
    assert set(tracing.REQUIRED_SITES) <= set(tracer.site_names())
    never = [q for q, (calls, _, _) in tracer.stats.items() if calls == 0]
    assert never == [], f"wrapped but never reached: {never}"

    root = [s for s in tracer.spans if s["parent"] is None]
    assert [s["name"] for s in root] == ["harness.run_study"]
    assert abs(tracer.accounted_s() - (root[0]["end"] - root[0]["start"])) < 1e-6

    # the traced answer is the untraced answer
    plain = homoglab.run_study(_small_study())
    summarize = WORKLOADS["study_default"].summarize
    assert check.compare(summarize(plain), summarize(traced_report)) == []

    # counts repeat exactly; a differing count fails the later traced child
    tracer2, _ = _traced_small_study()
    m1 = tracer.metrics(reported_modes=8)
    m2 = tracer2.metrics(reported_modes=8)
    assert {k: v for k, v in m1.items() if not tracing.is_time(k)} == \
        {k: v for k, v in m2.items() if not tracing.is_time(k)}
    m2["geometry.locate_point.calls"] += 1
    calls = [{"mode": "run", "ok": True, "errors": [], "wall_s": 1.0},
             {"mode": "trace", "ok": True, "errors": [], "wall_s": 1.1, "metrics": m1},
             {"mode": "trace", "ok": True, "errors": [], "wall_s": 1.1, "metrics": m2}]
    values, _ = run.aggregate([], calls, trace=True)
    assert [c["ok"] for c in calls] == [True, True, False]
    assert values["geometry.locate_point.calls"] == m1["geometry.locate_point.calls"]


def test_benchmark_json_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    emitted = list(tracing.Tracer().metrics(reported_modes=0)) + ["trace_overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == emitted


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    print(f"{len(tests)} self-tests passed")
