"""One measured child process: set up one workload, optionally run it, check
the answer, print one JSON line.

    python3 perfbench/child.py MODE WORKLOAD SEED T_SPAWN

MODE is `setup` (set-up only), `run` (untraced call), `trace` (traced call)
or `record` (untraced call whose summary is written as the new reference).
T_SPAWN is the parent's `time.monotonic()` just before it started this
process; set-up time runs from then until the inputs are ready.  The parent
sets the thread variables before this process starts, so they are in place
before numpy is imported.
"""

import json
import os
import sys
import time

THREAD_VARS = ("HOMOGLAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git_commit() -> str:
    """HEAD of the repository the benchmark sits in, or "unknown"."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    import subprocess
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv) -> dict:
    mode, name, seed, t_spawn = argv[0], argv[1], int(argv[2]), float(argv[3])
    unpinned = [v for v in THREAD_VARS if os.environ.get(v) != "1"]
    if unpinned:
        raise SystemExit(f"thread variables not set to 1: {unpinned}")

    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    inputs = workload.setup(seed)
    out = {"setup_s": time.monotonic() - t_spawn}
    if mode == "setup":
        return out

    import resource

    import numpy
    import scipy

    import check
    out["versions"] = {"python": sys.version.split()[0],
                       "numpy": numpy.__version__, "scipy": scipy.__version__}
    tracer = None
    if mode == "trace":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    errors = []
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        result = workload.call(inputs)
    except Exception as exc:  # a failed call is a counted failure, not a crash
        errors.append(f"{type(exc).__name__}: {exc}")
        result = None
    finally:
        out["wall_s"] = time.perf_counter() - t0
        out["cpu_s"] = time.process_time() - c0
        if tracer is not None:
            errors.extend(f"not restored: {s}" for s in tracer.restore())
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if result is not None:
        summary = workload.summarize(result)
        if mode == "record":
            from workloads import reference_view
            path = check.reference_path(name)
            path.parent.mkdir(exist_ok=True)
            head = {"commit": git_commit(), **out["versions"], "seed": seed,
                    "threads": dict.fromkeys(THREAD_VARS, "1")}
            path.write_text(json.dumps({"header": head,
                                        "summary": reference_view(summary)},
                                       indent=1) + "\n")
        errors.extend(check.compare(check.load_reference(name), summary))

    if tracer is not None:
        errors.extend(_trace_checks(tracer, workload, out["wall_s"]))
        out["metrics"] = tracer.metrics(
            workload.reported_modes(result) if result is not None else 0)
        out["spans"] = tracer.spans
        out["root_leaves"] = tracer.roots
        out["probe_s"] = tracer.paused
        out["sites"] = tracer.site_names()
    out["ok"] = not errors
    out["errors"] = errors
    return out


def _trace_checks(tracer, workload, wall_s) -> list[str]:
    """Coverage and accounting checks of one traced call."""
    errors = [f"traced function never called: {q}" for q in workload.must_run
              if tracer.stats[q][0] == 0]
    # self times telescope to the root calls' duration, which is the traced
    # wall time less probe time and the root wrapper's own few microseconds
    accounted = tracer.accounted_s()
    expected = wall_s - tracer.paused
    if abs(accounted - expected) > 0.01 * wall_s:
        errors.append(f"self times add up to {accounted:.4f} s, "
                      f"traced wall less probes is {expected:.4f} s")
    return errors


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
