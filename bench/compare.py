#!/usr/bin/env python3
"""Compare two result documents of ``run.py``, metric by metric.

    python3 bench/compare.py A.json B.json

A is the reference (the parent commit, or the first of two sets of runs
of one commit), B the candidate. For every workload and every
end-to-end metric of ``spec.END_TO_END`` one row is printed with the
verdict

* ``same`` — within the metric's bound (simulated metrics: equal);
* ``better`` / ``worse`` — B differs from A by more than the bound, in
  the metric's own direction (simulated metrics: by anything);
* ``unresolved`` — cannot be judged: the metric or the untraced run is
  missing on a side, a run failed its output checks, or a simulated
  metric differs between documents made from different seeds.

For a ``worse`` row the layer metrics that ``moves.json`` says move
that metric on that workload are named, so the traced runs can be read
next. Exit code 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

import spec

MOVES = Path(__file__).resolve().parent / "moves.json"


def untraced_runs(document: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """workload name -> its untraced run (where end-to-end metrics are
    measured)."""
    return {run["workload"]: run for run in document["runs"] if not run["trace"]}


def verdict(policy: spec.Policy, a: float, b: float, same_seed: bool) -> str:
    """Judge B against A under one metric's direction and bound."""
    gain = (b - a) if policy.better == "higher" else (a - b)
    if policy.bound is None:
        if gain == 0:
            return "same"
        if not same_seed:
            return "unresolved"
        return "better" if gain > 0 else "worse"
    if a == 0:
        return "same" if b == 0 else "unresolved"
    share = gain / abs(a)
    if share < -policy.bound:
        return "worse"
    return "better" if share > policy.bound else "same"


def compare(a_doc: dict[str, Any], b_doc: dict[str, Any]) -> list[tuple[str, ...]]:
    """One ``(workload, metric, a, b, change, verdict)`` row per
    workload and applicable end-to-end metric."""
    same_seed = a_doc["seed"] == b_doc["seed"]
    a_runs, b_runs = untraced_runs(a_doc), untraced_runs(b_doc)
    rows = []
    for workload in spec.ALL:
        a_run, b_run = a_runs.get(workload), b_runs.get(workload)
        for policy in spec.END_TO_END:
            if workload not in policy.workloads:
                continue
            a = a_run and a_run["metrics"].get(policy.name)
            b = b_run and b_run["metrics"].get(policy.name)
            if not a or not b:
                rows.append((workload, policy.name, "-", "-", "-", "unresolved"))
                continue
            a_value, b_value = a["value"], b["value"]
            change = f"{(b_value - a_value) / a_value:+.2%}" if a_value else "-"
            if a_run["correct"] and b_run["correct"]:
                judged = verdict(policy, a_value, b_value, same_seed)
            else:
                judged = "unresolved"
            rows.append(
                (workload, policy.name, f"{a_value:.6g}", f"{b_value:.6g}", change, judged)
            )
    return rows


def hints(workload: str, metric: str) -> list[str]:
    """Layer metrics predicted to move ``metric`` on ``workload``."""
    names: list[str] = []
    for entry in json.loads(MOVES.read_text(encoding="utf-8")):
        if metric in entry["moves"] and workload in entry["on"]:
            names.extend(entry["layer"])
    return names


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a_doc, b_doc = (json.loads(Path(arg).read_text(encoding="utf-8")) for arg in args)
    rows = compare(a_doc, b_doc)
    header = ("workload", "metric", "A", "B", "change", "verdict")
    widths = [max(len(row[i]) for row in [header, *rows]) for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
        if row[-1] == "worse":
            layer = hints(row[0], row[1])
            if layer:
                print(f"    look at (traced run): {', '.join(layer)}")
    counts = {name: sum(row[-1] == name for row in rows) for name in ("same", "better", "worse", "unresolved")}
    print(", ".join(f"{count} {name}" for name, count in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
