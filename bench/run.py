#!/usr/bin/env python3
"""The repository's one benchmark command.

    python3 bench/run.py [--workload W] [--seed S] [--seconds T]
                         [--trace 0|1] [--smoke] [--out FILE]

Runs each selected workload in a process of its own (``harness.py``),
untraced for the end-to-end metrics and traced for the per-layer ones
(both when ``--trace`` is omitted), watches that process's memory,
prints every metric by name with its unit and sample count, and writes
all results to one JSON document ``compare.py`` can read.

With one workload and one ``--trace`` value the last line of standard
output is the result object of the benchmark contract: ``correct``,
``attempted``, ``failed`` and the metrics ``BENCHMARK.json`` lists for
that mode. Exit code 0 means every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import spec

HERE = Path(__file__).resolve().parent
CONTRACT = HERE.parent / "BENCHMARK.json"
OUT_DIR = HERE / "out"
PAGE_MB = os.sysconf("SC_PAGE_SIZE") / (1 << 20)
SINGLE_THREAD = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}


def rss_mb(pid: int) -> float:
    """Resident set of ``pid`` in MiB (0 once it is gone)."""
    try:
        fields = Path(f"/proc/{pid}/statm").read_text().split()
    except OSError:
        return 0.0
    return int(fields[1]) * PAGE_MB


def run_child(
    w: spec.Workload, seed: int, seconds: float, trace: int, smoke: bool, rss_limit_mb: float
) -> dict[str, Any] | None:
    """One workload in its own process under the memory guard; returns
    its result document, or ``None`` when it died without writing one."""
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{seed}" + ("-smoke" if smoke else "")
    result = OUT_DIR / f"result-{stem}-trace{trace}.json"
    result.unlink(missing_ok=True)
    command = [
        sys.executable,
        str(HERE / "harness.py"),
        "--workload", w.name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--result", str(result),
        "--spans", str(OUT_DIR / f"spans-{stem}.jsonl"),
    ]  # fmt: skip
    if smoke:
        command.append("--smoke")
    process = subprocess.Popen(command, env={**os.environ, **SINGLE_THREAD})
    over = 0.0
    try:
        while process.poll() is None:
            rss = rss_mb(process.pid)
            if rss > rss_limit_mb:
                over = rss
                break
            time.sleep(0.1)
    finally:
        if process.poll() is None:
            process.kill()
        process.wait()
    if over:
        planned = (w.smoke() if smoke else w).planned_requests
        return {
            "workload": w.name,
            "trace": trace,
            "seed": seed,
            "correct": False,
            "attempted": planned,
            "failed": planned,
            "checks": {"memory_guard": f"RSS {over:.0f} MiB passed {rss_limit_mb:.0f} MiB; killed"},
            "flags": [],
            "metrics": {"failed_share": {"value": 1.0, "unit": "ratio", "samples": planned}},
        }
    if not result.exists():
        return None
    return json.loads(result.read_text(encoding="utf-8"))


def share_lines(metrics: dict[str, Any]) -> list[str]:
    """The layer shares the issue's acceptance criteria name, each with
    its base, from one traced result."""

    def value(name: str) -> float:
        return float(metrics[name]["value"])

    lines = []
    if value("serve.batch_s") > 0:
        lines.append(
            f"serve_batch self time {value('serve.batch_self_s'):.3f} s = "
            f"{value('serve.batch_self_s') / value('serve.batch_s'):.1%} of "
            f"serve_batch {value('serve.batch_s'):.3f} s"
        )
    if value("churn.plain_epoch_ms_p50") > 0:
        plain_s = value("churn.plain_epoch_ms_p50") / 1e3
        lines.append(
            f"repair epoch p50 {value('churn.repair_epoch_s_p50'):.3f} s = "
            f"{value('churn.repair_epoch_s_p50') / plain_s:.1f} x plain epoch p50 {plain_s:.3f} s"
        )
    if value("churn.run_epoch_s") > 0:
        lines.append(
            f"membership.advance {value('membership.advance_s'):.3f} s = "
            f"{value('membership.advance_s') / value('churn.run_epoch_s'):.1%} of "
            f"run_epoch {value('churn.run_epoch_s'):.3f} s"
        )
    return lines


def print_report(document: dict[str, Any]) -> None:
    """Every metric of one result by name, with unit and sample count."""
    mode = "traced" if document["trace"] else "untraced"
    print(f"== {document['workload']} ({mode}, seed {document['seed']}) ==")
    for name, metric in document["metrics"].items():
        value = metric["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<36} {shown:>14} {metric['unit']:<9} n={metric['samples']}")
    if document["trace"] and "serve.batch_s" in document["metrics"]:
        for line in share_lines(document["metrics"]):
            print(f"  share: {line}")
    for flag in document["flags"]:
        print(f"  FLAG: {flag}")
    for check, verdict in document["checks"].items():
        print(f"  check {check}: {verdict}")
    print(f"  correct={document['correct']}", flush=True)


def contract_line(document: dict[str, Any]) -> tuple[str, list[str]]:
    """The contract's result object for one run, and the names
    ``BENCHMARK.json`` lists for this mode that the run did not emit."""
    contract = json.loads(CONTRACT.read_text(encoding="utf-8"))
    listed = contract["per_layer" if document["trace"] else "end_to_end"]
    metrics = {}
    missing = []
    for entry in listed:
        metric = document["metrics"].get(entry["name"])
        if metric is None:
            missing.append(entry["name"])
        else:
            metrics[entry["name"]] = {"value": metric["value"], "unit": metric["unit"]}
    line = json.dumps(
        {
            "correct": bool(document["correct"]) and not missing,
            "attempted": document["attempted"],
            "failed": document["failed"],
            "metrics": metrics,
        }
    )
    return line, missing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=spec.ALL, help="default: all four")
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="measured window per run (default: run_seconds of BENCHMARK.json; 0 with --smoke)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), help="default: an untraced then a traced run"
    )
    parser.add_argument("--smoke", action="store_true", help="2k peers, minimum rounds")
    parser.add_argument("--rss-limit-mb", type=float, default=spec.RSS_LIMIT_MB)
    parser.add_argument("--out", type=Path, help="result document (default: bench/out/)")
    args = parser.parse_args(argv)
    # A terminated run must not leave its workload process behind:
    # SystemExit unwinds through run_child's ``finally``.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.seconds is None:
        args.seconds = (
            0.0 if args.smoke else json.loads(CONTRACT.read_text(encoding="utf-8"))["run_seconds"]
        )
    workloads = [spec.BY_NAME[args.workload]] if args.workload else list(spec.WORKLOADS)
    traces = [args.trace] if args.trace is not None else [0, 1]

    runs = []
    for w in workloads:
        for trace in traces:
            document = run_child(w, args.seed, args.seconds, trace, args.smoke, args.rss_limit_mb)
            if document is None:
                print(f"bench: {w.name} (trace {trace}) ended without a result", file=sys.stderr)
                return 2
            print_report(document)
            runs.append(document)

    out = args.out or OUT_DIR / f"run-seed{args.seed}{'-smoke' if args.smoke else ''}.json"
    out.write_text(
        json.dumps(
            {
                "schema": 1,
                "seed": args.seed,
                "seconds": args.seconds,
                "smoke": args.smoke,
                "host": {
                    "machine": platform.machine(),
                    "cpus": os.cpu_count(),
                    "python": platform.python_version(),
                },
                "runs": runs,
            },
            indent=1,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {out}")
    ok = all(run["correct"] for run in runs)
    if len(runs) == 1:
        line, missing = contract_line(runs[0])
        if missing:
            print(f"bench: metrics not emitted: {', '.join(missing)}", file=sys.stderr)
            ok = False
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
