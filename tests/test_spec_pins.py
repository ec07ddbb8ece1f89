"""The throughput specs are the only producers of their numbers: pin them.

``tests/data/spec_scalars.json`` holds every non-timing scalar of the
five specs ``scripts/bench_ci.py`` and CI record, captured at
``scale=0.02, seed=42`` *before* their shared preamble moved into one
builder and their clock reads into ``Stopwatch``, plus ``ext-latency``
captured the same way *before* ``simnet.replay_routes`` replaced the
generator event kernel under it — any change to RNG labels, call order
or scalar names shows up here as a diff against that recording.
``tests/data/spec_series.json`` holds every non-timing series of the
three churn specs from the same runs, recorded before their three epoch
loops were folded into one. ``fig1b``, ``ext-mercury`` and
``abl-partitions`` (scalars and series) were recorded the same way
before Mercury's builder and the partition ablation moved from per-peer
objects onto the substrate columns. ``fig1c``, ``fig2a``, ``fig2b`` and
``ext-keydist`` (scalars and series), which measure through
``BatchQueryEngine.measure``, were recorded the same way before the
fault-free scalar router moved onto the walk kernel. ``abl-power-of-two``,
``abl-sampling`` and ``scenario`` (scalars and series), which grow
through ``draw_positions`` and ``Ring.insert_many``, were recorded the
same way before the ring began to refuse a second peer in one ``2**-64``
key cell. ``fig1a`` (scalars and series) was recorded the same way
before the grow-and-measure specs became declarations over one loop.
``net-churn`` is the one spec not pinned: its ``messages`` scalar counts
probe traffic on wall-clock timers and differs from run to run. The ``bench_ci``
table is checked against the same runs: its rows must name registered
specs, declared parameters and scalars the specs really emit.
"""

from __future__ import annotations

import functools
import json
import re
from pathlib import Path

import pytest

from repro.experiments import Runner, RunRecord, get_spec
from repro.experiments.base import jsonify

from scripts.bench_ci import OPS, ROWS  # type: ignore[import-not-found]

DATA = Path(__file__).parent / "data"
PINS = json.loads((DATA / "spec_scalars.json").read_text())
SERIES = json.loads((DATA / "spec_series.json").read_text())

#: Scalar and series names that report wall time (or a ratio of wall
#: times); everything else a spec emits is a pure function of (seed, params).
TIMING = re.compile(r"seconds|per.second|qps_|/sec|_speedup")


@functools.cache
def tiny(spec_id: str) -> RunRecord:
    return Runner(defaults={"scale": 0.02, "seed": 42}).run(spec_id)


def deterministic(values: dict) -> dict:
    return {name: value for name, value in values.items() if not TIMING.search(name)}


@pytest.mark.parametrize("spec_id", sorted(PINS))
class TestPinnedSpecs:
    def test_scalars_match_the_parent_recording(self, spec_id):
        measured = deterministic(tiny(spec_id).result.scalars)
        assert sorted(measured) == sorted(PINS[spec_id])
        assert measured == pytest.approx(PINS[spec_id], rel=1e-12, abs=0.0)

    def test_spec_layer_stamps_id_title_and_parameters(self, spec_id):
        record, spec = tiny(spec_id), get_spec(spec_id)
        result = record.result
        assert (result.experiment_id, result.title) == (spec.id, spec.title)
        # Every resolved parameter is in the metadata; only the scaled
        # sizes and the catalog size (``items=0`` = one per peer) a spec
        # derives stand in for a parameter of their name.
        differs = {k for k, v in record.params.items() if result.metadata[k] != jsonify(v)}
        assert differs <= {"size", "sizes", "free_size", "items"}

    def test_same_seed_same_result(self, spec_id):
        first, second = tiny(spec_id).result, tiny.__wrapped__(spec_id).result
        assert deterministic(second.scalars) == deterministic(first.scalars)
        assert deterministic(second.series) == deterministic(first.series)


@pytest.mark.parametrize("spec_id", sorted(SERIES))
def test_series_match_the_parent_recording(spec_id):
    measured = deterministic(tiny(spec_id).result.series)
    assert sorted(measured) == sorted(SERIES[spec_id])
    for name, points in SERIES[spec_id].items():
        assert [[float(x), float(y)] for x, y in measured[name]] == points, name


class TestBenchCiTable:
    def test_rows_name_registered_specs_and_declared_params(self):
        for name, row in ROWS.items():
            spec = get_spec(row.spec)  # KeyError = unregistered
            assert set(row.params) <= set(spec.param_names), name

    def test_baselined_rows_have_committed_baselines(self):
        baselines = Path(__file__).parent.parent / "benchmarks" / "baselines"
        baselined = {f"BENCH_{name}.json" for name, row in ROWS.items() if row.baselined}
        assert baselined == {path.name for path in baselines.glob("BENCH_*.json")}

    def test_gates_name_scalars_the_spec_emits(self):
        for name, row in ROWS.items():
            for scalar, op, bound in row.gates:
                assert op in OPS, (name, op)
                # ``run_row`` adds ``wall_seconds`` to the spec's scalars.
                emitted = {"wall_seconds", *tiny(row.spec).result.scalars}
                assert scalar in emitted, (name, scalar)
