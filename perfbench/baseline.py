"""Append a baseline entry to perfbench/baselines.json from the run records
in .perfbench_out/.

    python3 perfbench/baseline.py --label "seed commit"

For every workload, untraced records (one per seed) give each end-to-end
metric's median, quartiles and per-seed values; traced records give the
per-layer metrics (counts from the first record, which the runs already
check are identical; times as the median over records).  The entry's
header is the first record's header without its seed and timestamp.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE.parent / ".perfbench_out"
BASELINES = HERE / "baselines.json"


def _spread(values: list) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "values": values}


def entry(label: str, records: list[dict]) -> dict:
    from tracing import is_time
    out = {"label": label, "workloads": {}}
    for rec in records:
        h = rec["header"]
        w = out["workloads"].setdefault(h["workload"], {"untraced": {}, "traced": {}})
        w["untraced" if h["trace"] == 0 else "traced"].setdefault(h["seed"], rec)
        out.setdefault("header", {k: v for k, v in h.items()
                                  if k not in ("seed", "timestamp", "workload", "trace")})
    for name, w in out["workloads"].items():
        untraced = [w["untraced"][s] for s in sorted(w["untraced"])]
        traced = [w["traced"][s] for s in sorted(w["traced"])]
        w["seeds"] = sorted(w["untraced"])
        w["correct"] = all(r["result"]["correct"] for r in untraced + traced)
        w["untraced"] = {m: dict(_spread([r["result"]["metrics"][m]["value"]
                                          for r in untraced]),
                                 unit=untraced[0]["result"]["metrics"][m]["unit"])
                         for m in (untraced[0]["result"]["metrics"] if untraced else ())}
        metrics = traced[0]["result"]["metrics"] if traced else {}
        w["traced"] = {m: (statistics.median(r["result"]["metrics"][m]["value"]
                                             for r in traced)
                           if is_time(m) else v["value"])
                       for m, v in metrics.items()}
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--label", required=True)
    args = p.parse_args()
    records = [json.loads(f.read_text()) for f in sorted(OUT_DIR.glob("*.json"))]
    if not records:
        raise SystemExit(f"no run records in {OUT_DIR}")
    entries = json.loads(BASELINES.read_text()) if BASELINES.exists() else []
    entries.append(entry(args.label, records))
    BASELINES.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"appended entry {len(entries)} to {BASELINES.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
