"""Bit-identity of ``route()`` against the recorded golden fixture.

``tests/data/golden_routes.json`` was captured *before* the keyspace
migration (float ``[0, 1)`` ring geometry) by
``scripts/make_golden_routes.py``. These tests rebuild the same three
overlays at the same seeds and assert every routing decision — per-query
hop counts, responsible peer, delivery peer, and range-query owner
sweeps — is unchanged. Any geometry refactor that alters a single hop
fails loudly here instead of silently shifting experiment figures.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.engine import BatchQueryEngine
from repro.routing.range_query import route_range
from repro.rng import split
from repro.workloads import QueryWorkload

from scripts.make_golden_routes import SEED, build  # type: ignore[import-not-found]

FIXTURE = Path(__file__).parent / "data" / "golden_routes.json"

KINDS = ("oscar", "chord", "mercury")


@pytest.fixture(scope="module")
def fixture() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def overlays() -> dict:
    return {kind: build(kind) for kind in KINDS}


@pytest.mark.parametrize("kind", KINDS)
def test_point_routes_bit_identical(fixture, overlays, kind):
    entry = fixture[kind]
    overlay = overlays[kind]
    rng = split(SEED, "golden-routes", kind)
    sources, targets = QueryWorkload().generate_arrays(
        overlay.ring, rng, len(entry["hops"])
    )
    # The workload itself must be reproducible before routes can be.
    assert [int(s) for s in sources] == entry["sources"]
    assert [float(t).hex() for t in targets] == entry["targets"]
    for i, (source, target) in enumerate(zip(sources, targets)):
        result = overlay.route(int(source), float(target))
        assert result.hops == entry["hops"][i], f"query {i} hop count drifted"
        assert result.responsible == entry["responsible"][i]
        assert result.delivered_to == entry["delivered"][i]


@pytest.mark.parametrize("kind", KINDS)
def test_batched_routes_match_fixture(fixture, overlays, kind):
    entry = fixture[kind]
    overlay = overlays[kind]
    rng = split(SEED, "golden-routes", kind)
    sources, targets = QueryWorkload().generate_arrays(
        overlay.ring, rng, len(entry["hops"])
    )
    batch = BatchQueryEngine(overlay).route_batch(sources, targets)
    assert batch.hops.tolist() == entry["hops"]
    assert batch.responsible.tolist() == entry["responsible"]


@pytest.mark.parametrize("kind", KINDS)
def test_snapshot_fast_path_matches_scalar_fallback(overlays, kind):
    """The snapshot's walk table must offer exactly what the public
    per-peer ``neighbors_of`` scan offers on the golden overlays — same
    successor pointers, same candidates, each row in ascending clockwise
    progress (padding, progress 0, first)."""
    from repro.engine.batch import TopologySnapshot

    overlay = overlays[kind]
    snap = TopologySnapshot.capture(overlay)
    table = snap.table
    assert table.progress.shape == table.cand_rows.shape
    assert table.progress.shape[0] == snap.all_ids.size
    assert (table.progress[:, 1:] >= table.progress[:, :-1]).all()
    assert (table.progress == snap.all_keys[table.cand_rows] - snap.all_keys[:, None]).all()
    for row, node_id in enumerate(snap.all_ids.tolist()):
        expected = [int(snap.row_of[nbr]) for nbr in overlay.neighbors_of(node_id)]
        offered = table.cand_rows[row][table.progress[row] > 0].tolist()
        assert sorted(offered) == sorted(r for r in expected if r >= 0), f"node {node_id}"
        successor = overlay.pointers.successor.get(node_id)
        assert table.succ_row[row] == (-1 if successor is None else snap.row_of[successor])


@pytest.mark.parametrize("kind", KINDS)
def test_range_queries_bit_identical(fixture, overlays, kind):
    overlay = overlays[kind]
    for i, recorded in enumerate(fixture[kind]["ranges"]):
        lo = float.fromhex(recorded["lo"])
        hi = float.fromhex(recorded["hi"])
        result = route_range(
            overlay.ring, overlay.pointers, overlay, recorded["source"], lo, hi
        )
        assert list(result.owners) == recorded["owners"], f"range {i} owners drifted"
        assert result.sweep_hops == recorded["sweep_hops"]
        assert result.entry_route.hops == recorded["entry_hops"]
