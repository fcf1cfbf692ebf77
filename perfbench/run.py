"""homoglab benchmark: one workload, measured in fresh single-threaded children.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ./src.  One
caller in a closed loop: each child process sets up the workload, calls the
public API once, checks the answer against perfbench/reference/ and reports.
Children are started one after another for as long as one more brings the
run's end nearer to --seconds (at least one runs).  Before them, one
set-up-only child warms the bytecode caches and SETUP_CHILDREN more measure
set-up time alone.

--trace 0 reports the end-to-end metrics of BENCHMARK.json (medians over
the children).  --trace 1 alternates an untraced and a traced child and
reports the per-layer metrics; counts must repeat exactly between traced
children.  The last line of standard output is the result as JSON; the run
record, with its header and the span tree, goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import THREAD_VARS, git_commit
from tracing import is_time, render_tree
from workloads import WORKLOADS

T_START = time.monotonic()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_CHILDREN = 3
# no child may run past this many seconds after start, so the run ends
# within three minutes even if the program hangs
RUN_LIMIT_S = 170.0


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(mode: str, workload: str, seed: int, env: dict) -> dict:
    """Run one child and return its report; a crash or timeout is a failure."""
    timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - T_START))
    t_spawn = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), mode, workload, str(seed),
           repr(t_spawn)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"mode": mode, "ok": False,
                "errors": [f"{mode} child killed after {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"mode": mode, "ok": False,
                "errors": [f"{mode} child exited with {proc.returncode}"] + tail}
    report = json.loads(lines[-1])
    report["mode"] = mode
    return report


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = _child_env()
    spawn("setup", workload, seed, env)
    t0 = time.monotonic()
    setups = [spawn("setup", workload, seed, env) for _ in range(SETUP_CHILDREN)]
    calls, durations = [], []
    while True:
        c0 = time.monotonic()
        calls.append(spawn("run", workload, seed, env))
        if trace:
            calls.append(spawn("trace", workload, seed, env))
        durations.append(time.monotonic() - c0)
        est = statistics.median(durations)
        # one more call if that ends the run nearer to `seconds` than stopping
        if (time.monotonic() - t0 + est / 2.0 > seconds
                or time.monotonic() - T_START + est > RUN_LIMIT_S - 10.0):
            break
    return {"setups": setups, "calls": calls}


def _median(values, what: str) -> float:
    if not values:
        raise RuntimeError(f"no child measured {what}")
    return statistics.median(values)


def aggregate(setups: list, calls: list, trace: bool) -> tuple[dict, list]:
    """Metric values, plus the traced children's reports in order.

    A child counts as failed when it crashed, raised, failed the correctness
    check, or (traced) reported counts that differ from the first traced one.
    """
    runs = [c for c in calls if c["mode"] == "run"]
    traced = [c for c in calls if c["mode"] == "trace"]
    for c in traced[1:]:
        if c["ok"] and traced[0]["ok"]:
            diff = sorted(k for k, v in c["metrics"].items()
                          if not is_time(k) and v != traced[0]["metrics"][k])
            if diff:
                c["ok"] = False
                c["errors"].append(f"counts differ from the first traced run: {diff}")

    def timed(group, key):
        good = [c[key] for c in group if c["ok"] and key in c]
        return good or [c[key] for c in group if key in c]

    if not trace:
        values = {
            "wall_s": _median(timed(runs, "wall_s"), "wall_s"),
            "setup_s": _median([c["setup_s"] for c in setups + calls
                                if "setup_s" in c], "setup_s"),
            "peak_rss_mb": _median(timed(runs, "peak_rss_mb"), "peak_rss_mb"),
        }
        return values, traced
    reported = [c for c in traced if "metrics" in c]
    if not reported:
        raise RuntimeError("no traced child reported metrics")
    timing = [c for c in reported if c["ok"]] or reported
    values = {k: statistics.median(c["metrics"][k] for c in timing) if is_time(k) else v
              for k, v in reported[0]["metrics"].items()}
    values["trace_overhead_s"] = (_median(timed(traced, "wall_s"), "traced wall_s")
                                  - _median(timed(runs, "wall_s"), "wall_s"))
    return values, traced


def result_line(values: dict, calls: list, wanted: list) -> dict:
    """The JSON result: every failed child counts against `correct`."""
    failed = sum(not c["ok"] for c in calls)
    return {"correct": failed == 0, "attempted": len(calls), "failed": failed,
            "metrics": {w["name"]: {"value": values[w["name"]], "unit": w["unit"]}
                        for w in wanted}}


def header(args, calls: list) -> dict:
    versions = next((c["versions"] for c in calls if "versions" in c), {})
    return {"commit": git_commit(), **versions,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "threads": dict.fromkeys(THREAD_VARS, "1"), "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z")}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "homoglab" / "__init__.py").is_file():
        print(f"error: no homoglab sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        values, traced = aggregate(m["setups"], m["calls"], bool(args.trace))
    except RuntimeError as exc:
        for c in m["calls"]:
            for err in c.get("errors", ()):
                print(f"{c['mode']}: {err}", file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    missing = [w["name"] for w in wanted if w["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    result = result_line(values, m["calls"], wanted)
    attempted, failed = result["attempted"], result["failed"]

    OUT_DIR.mkdir(exist_ok=True)
    record = {"header": header(args, m["calls"]), "result": result,
              "children": [{k: v for k, v in c.items()
                            if k not in ("spans", "root_leaves", "metrics")}
                           for c in m["setups"] + m["calls"]]}
    if traced and "spans" in traced[0]:
        record["span_tree"] = render_tree(traced[0]["spans"], traced[0]["root_leaves"])
        record["spans"] = traced[0]["spans"]
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    for c in m["calls"]:
        for err in c["errors"]:
            print(f"{c['mode']} child failed: {err}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{args.workload:14s} {name:48s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{args.workload:14s} {'fail_ratio':48s} {failed / attempted:>16.6g} "
          f"ratio ({failed}/{attempted})")
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
