#!/usr/bin/env python3
"""Compare two benchmark results: ``python3 bench/compare.py A.json B.json``.

A is the baseline (the parent commit), B the change; both are result
files written by ``bench/run.py``.  One row per (workload, end-to-end
metric) with both values, their IQRs, the change, the bound and a
verdict:

``unresolved``
    the run-to-run spread (IQR) of a side is wider than the bound and
    the two sides' repetitions overlap: the runs cannot tell, whichever
    way the median moved.  Looked at first.
``better`` / ``worse``
    B's median moved past the metric's bound.
``same``
    it did not.  Metrics that are exact for a seed (simulated times,
    counts) are also compared for equality and printed as ``identical``
    or ``differs``.

Exit status 1 on any ``worse`` row or any rise in ``failed_share``.
"""

from __future__ import annotations

import json
import sys


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        result = json.load(fh)
    if result.get("schema") != 1 or "workloads" not in result:
        sys.exit(f"compare: {path} is not a bench/run.py result file")
    return result


def verdict(a: dict, b: dict) -> str:
    """The row's verdict; the bound, slack and direction travel with A."""
    va, vb = a["value"], b["value"]
    # how far the median may move, in the metric's unit; a baseline of 0
    # (failed_share) has no share to worsen by, so any rise is past it
    allowed = max(a["bound"] * abs(va), a["slack"])
    spread = max(a.get("iqr", 0.0), b.get("iqr", 0.0))
    # disjoint repetitions resolve themselves: every one of B's is on one side
    overlap = "min" in a and "min" in b and a["min"] <= b["max"] and b["min"] <= a["max"]
    if spread > allowed and overlap:
        return "unresolved"
    worse_by = (vb - va) if a["better"] == "lower" else (va - vb)
    if abs(worse_by) <= allowed:
        return "same"
    return "worse" if worse_by > 0 else "better"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[0])
    a, b = load(argv[0]), load(argv[1])
    for label, result in (("A", a), ("B", b)):
        if not result.get("comparable", True):
            print(f"compare: {label} is a --quick run; its numbers are not comparable")
    if a["seed"] != b["seed"]:
        print(f"compare: seeds differ ({a['seed']} vs {b['seed']}): exact metrics will differ")
    print(f"{'workload':<15} {'metric':<24} {'A':>12} {'iqr':>9} {'B':>12} {'iqr':>9} "
          f"{'change':>8} {'bound':>7}  verdict")
    status = 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"{name:<15} missing from B")
            status = 1
            continue
        rows_a, rows_b = (r["workloads"][name]["end_to_end"] for r in (a, b))
        for metric, row_a in rows_a.items():
            row_b = rows_b.get(metric)
            if row_b is None:
                print(f"{name:<15} {metric:<24} missing from B")
                status = 1
                continue
            bound, slack = row_a["bound"], row_a["slack"]
            word = verdict(row_a, row_b)
            if row_a["exact"]:
                word += " (identical)" if row_a["value"] == row_b["value"] else " (differs)"
            if word.startswith("worse"):
                status = 1
            change = (row_b["value"] - row_a["value"]) / abs(row_a["value"]) if row_a["value"] else 0.0
            shown_bound = f"{slack:g} pt" if not bound and slack else f"{bound:.0%}"
            print(f"{name:<15} {metric:<24} {row_a['value']:>12.6g} {row_a.get('iqr', 0.0):>9.3g} "
                  f"{row_b['value']:>12.6g} {row_b.get('iqr', 0.0):>9.3g} {change:>+8.2%} "
                  f"{shown_bound:>7}  {word}")
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
