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

from conftest import assert_walk_table
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
    """The snapshot's walk table must hold exactly what the public
    per-peer ``neighbors_of`` scan offers on the golden overlays — same
    successor pointers, and per row the successor's offset, then the
    offsets of the candidates that beat it, ascending (recomputed from
    the keys by ``assert_walk_table``)."""
    from repro.engine.batch import TopologySnapshot

    overlay = overlays[kind]
    snap = TopologySnapshot.capture(overlay)
    table = snap.table.whole()
    assert table.offsets.shape[0] == snap.all_ids.size
    for row, node_id in enumerate(snap.all_ids.tolist()):
        successor = overlay.pointers.successor.get(node_id)
        assert table.succ_row[row] == (-1 if successor is None else snap.row_of[successor])
    assert_walk_table(
        table,
        [
            [int(snap.row_of[nbr]) for nbr in overlay.neighbors_of(node_id)]
            for node_id in snap.all_ids.tolist()
        ],
    )


@pytest.mark.parametrize("kind", KINDS)
def test_range_queries_bit_identical(fixture, overlays, kind):
    overlay = overlays[kind]
    for i, recorded in enumerate(fixture[kind]["ranges"]):
        lo = float.fromhex(recorded["lo"])
        hi = float.fromhex(recorded["hi"])
        result = route_range(overlay, recorded["source"], lo, hi)
        assert list(result.owners) == recorded["owners"], f"range {i} owners drifted"
        assert result.sweep_hops == recorded["sweep_hops"]
        assert result.entry_route.hops == recorded["entry_hops"]
