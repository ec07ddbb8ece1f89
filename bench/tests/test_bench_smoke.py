"""Smoke test of the benchmark harness: ``python -m pytest bench/tests``.

Runs ``bench/run.py --smoke`` once (2k peers, the minimum of rounds, all
four workloads, untraced and traced) and checks the shape of what it
emits against ``BENCHMARK.json``. Not collected by the tier-1 command
(``pytest.ini`` pins ``testpaths = tests``).
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spec  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 5


def run_bench(*args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory: pytest.TempPathFactory) -> dict:
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    started = time.monotonic()
    done = run_bench("--smoke", "--seed", str(SEED), "--out", str(out))
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout + done.stderr
    document = json.loads(out.read_text(encoding="utf-8"))
    document["elapsed_s"] = elapsed
    document["stdout"] = done.stdout
    document["path"] = out
    return document


def test_smoke_runs_every_workload_both_ways_in_time(smoke: dict) -> None:
    assert smoke["elapsed_s"] < 30.0
    assert [(r["workload"], r["trace"]) for r in smoke["runs"]] == [
        (name, trace) for name in spec.ALL for trace in (0, 1)
    ]
    for run in smoke["runs"]:
        assert run["correct"], run["checks"]
        assert run["failed"] == 0 and run["attempted"] >= 1
        assert all(verdict == "ok" for verdict in run["checks"].values())


def test_every_contract_metric_is_emitted_with_its_unit(smoke: dict) -> None:
    for run in smoke["runs"]:
        listed = CONTRACT["per_layer" if run["trace"] else "end_to_end"]
        for entry in listed:
            metric = run["metrics"].get(entry["name"])
            assert metric is not None, (run["workload"], entry["name"])
            assert metric["unit"] == entry["unit"], (run["workload"], entry["name"])
            assert isinstance(metric["value"], (int, float))
            # Printed by name with its unit and sample count.
            assert f"  {entry['name']} " in smoke["stdout"]
        if not run["trace"]:
            for entry in listed:
                assert run["metrics"][entry["name"]]["value"] > 0, (run["workload"], entry)


def test_issue_metrics_are_emitted_where_they_apply(smoke: dict) -> None:
    for run in smoke["runs"]:
        for policy in spec.END_TO_END:
            if run["workload"] in policy.workloads:
                assert run["metrics"][policy.name]["unit"] == policy.unit


def test_contract_agrees_with_spec() -> None:
    assert [w["name"] for w in CONTRACT["workloads"]] == list(spec.ALL)
    assert CONTRACT["paths"] == ["bench"]
    policies = {p.name: p for p in spec.END_TO_END}
    for entry in CONTRACT["end_to_end"]:
        policy = policies[entry["name"]]
        assert (entry["unit"], entry["better"]) == (policy.unit, policy.better)
        assert policy.workloads == spec.ALL  # gated metrics exist on every workload
        if policy.bound is not None:
            assert entry["bound"] == policy.bound
    known = set(policies) | {entry["name"] for entry in CONTRACT["per_layer"]}
    for entry in json.loads((BENCH / "moves.json").read_text(encoding="utf-8")):
        assert set(entry["layer"]) | set(entry["moves"]) <= known, entry
        assert set(entry["on"]) | set(entry["no_change_on"]) <= set(spec.ALL), entry


def test_spans_nest_and_self_times_are_non_negative(smoke: dict) -> None:
    for run in smoke["runs"]:
        if not run["trace"]:
            continue
        lines = Path(run["spans_file"]).read_text(encoding="utf-8").splitlines()
        spans = [json.loads(line) for line in lines]
        assert len(spans) == run["metrics"]["trace.spans"]["value"] > 0
        children_s = [0.0] * len(spans)
        for index, span in enumerate(spans):
            assert span["end"] >= span["start"]
            parent = span["parent"]
            if parent == -1:
                assert span["request"] == index
                continue
            assert 0 <= parent < index  # resolves, and started earlier
            outer = spans[parent]
            assert outer["start"] <= span["start"] and span["end"] <= outer["end"]
            assert span["request"] == outer["request"]
            children_s[parent] += span["end"] - span["start"]
        for span, inner in zip(spans, children_s):
            assert inner <= (span["end"] - span["start"]) + 1e-9  # self time >= 0
        assert run["metrics"]["serve.batch_self_s"]["value"] >= 0.0
        assert run["metrics"]["churn.epoch_self_s"]["value"] >= 0.0
        assert 0.0 <= run["metrics"]["trace.overhead_share"]["value"] < 0.05


def test_single_run_ends_with_the_contract_line() -> None:
    done = run_bench("--workload", "serve-cold", "--smoke", "--seed", str(SEED), "--trace", "0")
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [entry["name"] for entry in CONTRACT["end_to_end"]]
    assert all(set(metric) == {"value", "unit"} for metric in line["metrics"].values())


def test_memory_guard_reports_the_workload_as_failed() -> None:
    done = run_bench(
        "--workload", "serve-cold", "--smoke", "--seed", str(SEED), "--trace", "0",
        "--rss-limit-mb", "20",
    )  # fmt: skip
    assert done.returncode == 1
    assert "memory_guard" in done.stdout
    line = json.loads(done.stdout.splitlines()[-1])
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] == spec.BY_NAME["serve-cold"].smoke().planned_requests


def test_compare_flags_a_regression(smoke: dict, tmp_path: Path) -> None:
    def compare(other: Path) -> subprocess.CompletedProcess[str]:
        return subprocess.run(
            [sys.executable, str(BENCH / "compare.py"), str(smoke["path"]), str(other)],
            capture_output=True,
            text=True,
            timeout=60,
        )

    same = compare(smoke["path"])
    assert same.returncode == 0 and " worse" not in same.stdout.rsplit("\n", 2)[0]

    worse = copy.deepcopy({k: smoke[k] for k in ("schema", "seed", "seconds", "smoke", "runs")})
    for run in worse["runs"]:
        if run["workload"] == "serve-cold":
            run["metrics"]["serve_rps"]["value"] *= 0.5
            run["metrics"]["hops_p99"]["value"] += 1
    path = tmp_path / "worse.json"
    path.write_text(json.dumps(worse), encoding="utf-8")
    flagged = compare(path)
    assert flagged.returncode == 1
    rows = [line.split() for line in flagged.stdout.splitlines()]
    verdicts = {(row[0], row[1]): row[-1] for row in rows if len(row) == 6}
    assert verdicts[("serve-cold", "serve_rps")] == "worse"
    assert verdicts[("serve-cold", "hops_p99")] == "worse"
    assert verdicts[("serve-hot", "serve_rps")] == "same"
    assert "serve.self_ns_per_hop" in flagged.stdout  # the moves.json hint
