"""Correctness check: compare a workload's summary with the recorded reference.

Only keys present in the reference are compared, so a later version may add
report columns.  Floats must agree to RTOL relative (ATOL absolute near zero).
That survives roundoff-level drift from reordered sums (1e-13 relative), and
eigensolver changes within the solver's own residual tolerance, and still
catches a wrong eigenvalue or a wrong error column.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

RTOL = 1e-6
ATOL = 1e-12

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> dict:
    return json.loads(reference_path(workload).read_text())["summary"]


def compare(reference, actual, path: str = "") -> list[str]:
    """Mismatches between reference and actual, as readable messages."""
    where = path or "<root>"
    if isinstance(reference, dict):
        if not isinstance(actual, dict):
            return [f"{where}: expected an object, got {type(actual).__name__}"]
        out = []
        for key, ref in reference.items():
            sub = f"{path}.{key}" if path else key
            if key not in actual:
                out.append(f"{sub}: missing")
            else:
                out.extend(compare(ref, actual[key], sub))
        return out
    if isinstance(reference, list):
        if not isinstance(actual, list) or len(actual) != len(reference):
            got = len(actual) if isinstance(actual, list) else type(actual).__name__
            return [f"{where}: expected a list of {len(reference)}, got {got}"]
        out = []
        for i, (ref, act) in enumerate(zip(reference, actual)):
            out.extend(compare(ref, act, f"{path}[{i}]"))
        return out
    if isinstance(reference, float) and not isinstance(actual, bool) \
            and isinstance(actual, (int, float)):
        if math.isclose(reference, actual, rel_tol=RTOL, abs_tol=ATOL):
            return []
        return [f"{where}: expected {reference!r}, got {actual!r}"]
    if type(reference) is not type(actual) or reference != actual:
        return [f"{where}: expected {reference!r}, got {actual!r}"]
    return []
