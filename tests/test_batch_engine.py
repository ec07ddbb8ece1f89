"""Tests for the batched query engine (repro.engine.batch) and the
Substrate protocol it drives.

The headline guarantee under test: the batched walk is *bit-identical*
to the live runtime's per-hop ``GreedyRouter`` driven hop by hop
(``conftest.greedy_oracle``), to the kernel's own twin and to the scalar
``Substrate.route`` for the same seed, on every substrate — same hop
counts per query, same folded statistics — and the engine's topology
snapshot (the successor-lookup cache) invalidates exactly when
membership or links change.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_walk_table,
    build_mercury,
    build_overlay,
    crash_wave,
    greedy_oracle,
    hand_built,
)
from repro import ChordOverlay, Substrate
from repro.degree import ConstantDegrees
from repro.engine import BatchQueryEngine, TopologySnapshot
from repro.engine import ServeSnapshot
from repro.engine.walk import WalkCode, WalkTable, greedy_walk, greedy_walk_reference
from repro.errors import DuplicateNodeError, RoutingError
from repro.index import ReplicatedStore
from repro.membership import OracleView
from repro.ring import keyspace
from repro.rng import make_rng, split
from repro.routing import summarize_routes
from repro.workloads import GnutellaLikeDistribution, QueryWorkload


def build_chord(n: int = 100, seed: int = 42) -> ChordOverlay:
    overlay = ChordOverlay(seed=seed)
    overlay.grow(n, GnutellaLikeDistribution())
    overlay.rewire()
    return overlay


def build_substrate(kind: str, n: int = 120, seed: int = 21):
    if kind == "oscar":
        return build_overlay(n=n, seed=seed, cap=8)
    if kind == "mercury":
        return build_mercury(n=n, seed=seed, cap=8)
    return build_chord(n=n, seed=seed)

KINDS = ("oscar", "chord", "mercury")


class TestSubstrateProtocol:
    @pytest.mark.parametrize("kind", KINDS)
    def test_all_overlays_satisfy_protocol(self, kind):
        overlay = build_substrate(kind, n=30)
        assert isinstance(overlay, Substrate)
        assert overlay.size == len(overlay) == 30

    @pytest.mark.parametrize("kind", KINDS)
    def test_leave_shrinks_live_population_and_repairs(self, kind):
        from repro.ring import verify

        overlay = build_substrate(kind, n=40)
        victim = overlay.random_live_node(make_rng(3))
        overlay.leave(victim)
        assert overlay.size == 39
        assert not overlay.ring.is_alive(victim)
        verify(overlay.ring, overlay.pointers)  # pointers re-stabilized

    def test_leave_without_repair_leaves_stale_pointers(self):
        overlay = build_overlay(n=30, seed=5)
        victim = overlay.random_live_node(make_rng(4))
        overlay.leave(victim, repair=False)
        assert victim in overlay.pointers.successor  # stale entry remains
        assert overlay.repair_ring() > 0


class TestBatchMatchesScalar:
    @pytest.mark.parametrize("kind", KINDS)
    def test_stats_identical_for_fixed_seed(self, kind):
        """The kernel, its twin (``vectorized=False``) and the per-hop
        oracle fold to the same statistics."""
        overlay = build_substrate(kind)
        oracle = summarize_routes(
            greedy_oracle(overlay, q.source, q.target_key)
            for q in QueryWorkload().generate(overlay.ring, split(9, "q"), 400)
        )
        batched = BatchQueryEngine(overlay).measure(split(9, "q"), n_queries=400)
        twin = BatchQueryEngine(overlay, vectorized=False).measure(split(9, "q"), n_queries=400)
        assert batched == twin == oracle

    @pytest.mark.parametrize("kind", KINDS)
    def test_per_query_hops_identical(self, kind):
        overlay = build_substrate(kind)
        engine = BatchQueryEngine(overlay)
        sources, targets = QueryWorkload().generate_arrays(
            overlay.ring, split(11, "pairs"), 200
        )
        batch = engine.route_batch(sources, targets)
        assert batch.success.all()
        for i in range(sources.size):
            oracle = greedy_oracle(overlay, int(sources[i]), float(targets[i]))
            result = overlay.route(int(sources[i]), float(targets[i]), record_path=True)
            assert result.hops == oracle.hops == batch.hops[i]
            assert result.responsible == oracle.delivered_to == batch.responsible[i]
            assert result.path == oracle.path

    def test_scalar_route_agrees_with_the_batch_inside_a_keyspace_cell(self):
        """``Substrate.route`` decides in the batch's key domain: a
        target inside a peer's ``2**-64`` cell is that peer's, at the
        batch's hop count, with or without a recorded path."""
        overlay = build_overlay(n=60, seed=5)
        peer = overlay.join(2.0**-70, 8, 8)
        sources = overlay.live_node_ids()[::7]
        for target in (2.0**-70, 1.5 * 2.0**-70, 2.0**-69):
            batch = BatchQueryEngine(overlay).route_batch(
                np.asarray(sources), np.full(len(sources), target)
            )
            assert (batch.responsible == peer).all()
            for source, hops in zip(sources, batch.hops.tolist()):
                for record_path in (False, True):
                    result = overlay.route(source, target, record_path=record_path)
                    assert (result.responsible, result.delivered_to) == (peer, peer)
                    assert result.hops == hops

    def test_distinct_keys_inside_one_keyspace_cell_stay_distinct(self):
        """Truth-path twin of the serve-path case of the same name: a
        peer sits at ``2**-70`` and two distinct target floats share its
        ``2**-64`` cell. Owner lookup and walk decide in the one key
        domain, so both resolve to that peer at the same hop count (a
        float lookup sends the second one peer — and one hop — past it)."""
        overlay = build_overlay(n=60, seed=5)
        peer = overlay.join(2.0**-70, 8, 8)
        on_peer, past_peer = 2.0**-70, 1.5 * 2.0**-70
        cell = overlay.ring.key_of(peer)
        assert keyspace.from_unit(on_peer) == keyspace.from_unit(past_peer) == cell
        sources = np.full(2, overlay.live_node_ids()[30])
        engine = BatchQueryEngine(overlay)
        batch = engine.route_batch(sources, np.asarray([on_peer, past_peer]))
        assert batch.responsible.tolist() == [peer, peer]
        assert batch.hops[0] == batch.hops[1] > 0
        snap = engine.snapshot()
        hops, code, stopped = greedy_walk_reference(
            snap.table,
            snap.row_of[sources],
            snap.row_of[batch.responsible],
            keyspace.from_units(batch.target_keys),
            overlay.routing.budget,
        )
        assert hops.tolist() == batch.hops.tolist() and not code.any()
        assert snap.all_ids[stopped].tolist() == batch.responsible.tolist()

    def test_target_on_a_shared_cell_key_reaches_the_cells_lowest_row(self):
        """A target sharing key cell 0 with peer 0 (at ``2**-70``) is
        peer 0's, the cell's lowest — and only — row: the ring refuses a
        second peer there. Peer 1 sits a few cells on and peer 2 links
        to it; no walk stops short of peer 0 or circles back to it."""
        with pytest.raises(DuplicateNodeError):
            hand_built([2.0**-70, 2.0**-69, 0.5, 0.75])
        overlay = hand_built([2.0**-70, 2.0**-63, 0.5, 0.75], {2: [1]})
        sources = np.asarray([1, 2, 3, 0])
        for target in (2.0**-70, 2.0**-69, 0.0):
            batch = BatchQueryEngine(overlay).route_batch(sources, np.full(4, target))
            assert batch.success.all() and (batch.responsible == 0).all()
            # 1 steps back to its predecessor; 2 passes 1 by for its
            # successor 3, whose successor is 0.
            assert batch.hops.tolist() == [1, 2, 1, 0]
            for source, hops in zip(sources.tolist(), batch.hops.tolist()):
                assert overlay.route(source, target, record_path=True).hops == hops

    def test_unrepaired_departure_still_matches_scalar(self):
        # A peer leaves without ring repair: its links dangle but its own
        # pointers survive, so the fault-free greedy walk can pass straight
        # through it. The kernel, its twin and ``Substrate.route`` must
        # follow those links identically (the table they read is held to
        # the neighbor scan with dead rows in TestWalkTable).
        overlay = build_overlay(n=120, seed=0)
        overlay.leave(overlay.random_live_node(make_rng(7)), repair=False)
        batched = BatchQueryEngine(overlay).measure(split(0, "dead"), n_queries=300)
        twin = BatchQueryEngine(overlay, vectorized=False).measure(split(0, "dead"), n_queries=300)
        scalar = summarize_routes(
            overlay.route(q.source, q.target_key)
            for q in QueryWorkload().generate(overlay.ring, split(0, "dead"), 300)
        )
        assert batched == twin == scalar

    def test_faulty_measurement_matches_scalar_router(self):
        overlay = build_overlay(n=150, seed=13)
        victims = crash_wave(overlay, 0.2)
        engine = BatchQueryEngine(overlay)
        batched = engine.measure(split(13, "f"), n_queries=120, faulty=True)
        scalar = summarize_routes(
            overlay.route(q.source, q.target_key, faulty=True)
            for q in QueryWorkload().generate(overlay.ring, split(13, "f"), 120)
        )
        assert batched == scalar
        OracleView(overlay.ring).revive(victims)

    def test_empty_batch(self):
        overlay = build_overlay(n=20, seed=16)
        stats = BatchQueryEngine(overlay).measure(make_rng(0), n_queries=0)
        assert stats.n_routes == 0
        assert stats.mean_cost == 0.0

    def test_budget_exhaustion_raises_like_scalar(self):
        """Where the scalar router raises for the budget, the batch
        reports ``WalkCode.BUDGET`` for that query alone."""
        from repro.config import RoutingConfig

        overlay = build_overlay(n=80, seed=17)
        overlay.routing = RoutingConfig(budget=1)
        sources, targets = QueryWorkload().generate_arrays(overlay.ring, split(17, "b"), 50)
        batch = BatchQueryEngine(overlay).route_batch(sources, targets)
        assert (batch.code == WalkCode.BUDGET).any() and batch.success.any()
        for i in range(sources.size):
            if batch.success[i]:
                assert overlay.route(int(sources[i]), float(targets[i])).hops == batch.hops[i]
            else:
                assert batch.code[i] == WalkCode.BUDGET
                with pytest.raises(RoutingError, match="exceeded budget"):
                    overlay.route(int(sources[i]), float(targets[i]))
        stats = BatchQueryEngine(overlay).measure(split(17, "b"), n_queries=50)
        assert stats.n_success == int(batch.success.sum()) < stats.n_routes


    @pytest.mark.parametrize("kind", KINDS)
    def test_out_of_range_sources_raise_routing_error(self, kind):
        """Regression: ``row_of[sources]`` let numpy wrap ``-2`` to the
        highest-id peer and raised ``IndexError`` past ``max_id + 1``."""
        overlay = build_substrate(kind, n=30)
        engine = BatchQueryEngine(overlay)
        max_id = int(overlay.ring.ids_array(live_only=False).max())
        for source in (-2, -1, max_id + 1, max_id + 5):
            with pytest.raises(RoutingError):
                engine.route_batch(np.asarray([source]), np.asarray([0.5]))


class TestWalkTable:
    """``WalkTable.build`` against a from-scratch per-row Python scan."""

    @settings(max_examples=120, deadline=None)
    @given(
        m=st.integers(1, 12),
        width=st.integers(0, 6),
        seed=st.integers(0, 2**16),
        padding=st.sampled_from([0.0, 0.3, 0.8, 1.0]),
        cells=st.sampled_from([16, 2**20, 2**64]),
    )
    def test_sorted_table_equals_brute_force(self, m, width, seed, padding, cells):
        """Random candidate matrices over distinct keys: ``-1`` anywhere
        in a row, duplicate candidates, self links, zero-width and
        all-padding matrices, rows whose links wrap past key 0, missing,
        self and random successor pointers, and (``cells=16``) rows in
        adjacent key cells."""
        rng = np.random.default_rng(seed)
        keys = np.unique(rng.integers(0, cells, size=m, dtype=np.uint64, endpoint=False))
        m = int(keys.size)
        nbr_rows = rng.integers(0, m, size=(m, width))
        nbr_rows[rng.random((m, width)) < padding] = -1
        succ_row = (np.arange(m) + 1) % m
        draw = rng.random(m)
        succ_row[draw < 0.2] = -1
        succ_row[draw > 0.9] = rng.integers(0, m, size=int((draw > 0.9).sum()))
        table = WalkTable.build(keys, succ_row, nbr_rows)
        assert_walk_table(table, nbr_rows)
        assert table.keys is keys and table.succ_row is succ_row

    @settings(max_examples=25, deadline=None)
    @given(
        kind=st.sampled_from(KINDS),
        seed=st.integers(0, 2**16),
        n=st.integers(8, 40),
        crash=st.sampled_from([0.0, 0.3, 0.6]),
        repair=st.booleans(),
    )
    def test_truth_snapshot_table_is_the_neighbor_scan_sorted(self, kind, seed, n, crash, repair):
        """Dead rows (``succ_row == -1`` after a repair), dangling links
        and the successor offered twice (pointer and link)."""
        overlay = build_substrate(kind, n=n, seed=seed)
        rng = split(seed, "table")
        overlay.leave(overlay.random_live_node(rng), repair=False)
        OracleView(overlay.ring).crash_fraction(rng, crash)
        if repair:
            overlay.repair_ring()
        snap = TopologySnapshot.capture(overlay)
        assert_walk_table(
            snap.table,
            [
                [int(snap.row_of[nbr]) for nbr in overlay.neighbors_of(node_id)]
                for node_id in snap.all_ids.tolist()
            ],
        )
        pointerless = snap.table.succ_row < 0
        if repair and crash:
            assert pointerless.any()
        assert (snap.table.offsets[pointerless, 0] == 0).all()
        assert (snap.table.offsets[pointerless, 1:] == snap.all_ids.size).all()

    def test_wide_table_with_narrow_rows_drops_the_padding_columns(self):
        keys = keyspace.from_units(np.asarray([0.1, 0.4, 0.7, 0.9]))
        nbr_rows = np.full((4, 8), -1, dtype=np.int64)
        nbr_rows[0, 5], nbr_rows[2, [1, 6]] = 2, [0, 3]
        table = WalkTable.build(keys, np.asarray([1, 2, 3, 0]), nbr_rows)
        # Row 2 (0.7): successor 3 (0.9) one row on, its link to 3 is
        # the successor again and dropped, its link past key 0 to row 0
        # (0.1) is two rows on.
        assert table.offsets[2].tolist() == [1, 2, 4]
        assert table.offsets.shape == (4, 3)
        assert_walk_table(table, nbr_rows)

    @pytest.mark.parametrize("kind", ["truth", "belief"])
    def test_snapshot_bytes_per_peer_are_bounded(self, kind):
        """A snapshot costs 4 bytes per stored candidate (an ``int32``
        row offset), the successor's and the trailing ``m`` included,
        and a handful of columns per peer — a table of ``uint64``
        distances does not fit."""
        cap = 8
        overlay = build_overlay(n=400, seed=3, cap=cap)
        if kind == "truth":
            snap, width = TopologySnapshot.capture(overlay), cap + 2
        else:
            snap = ServeSnapshot.capture(
                overlay, OracleView(overlay.ring), 0, ReplicatedStore(overlay.ring)
            )
            width = cap
        assert snap.table.offsets.shape[1] <= width + 2
        arrays = {
            id(a): a.nbytes
            for holder in (snap, snap.table)
            for a in vars(holder).values()
            if isinstance(a, np.ndarray)
        }
        assert sum(arrays.values()) / overlay.size <= 4 * (width + 2) + 96


def kernel(table, source_rows, owner_rows, targets, budget):
    """``greedy_walk`` asked as its twin is: handed the targets' bounds."""
    return greedy_walk(table, source_rows, owner_rows, table.bounds(targets), budget)


WALKS = [pytest.param(kernel, id="greedy_walk"), greedy_walk_reference]


def _walk_outcome(walk, table, source_rows, owner_rows, targets, budget):
    return [column.tolist() for column in walk(table, source_rows, owner_rows, targets, budget)]


def _alone_and_batch(walk, table, source_rows, owner_rows, targets, budget):
    """Each query alone, then the whole batch in lock-step."""
    alone = [
        _walk_outcome(walk, table, source_rows[q], owner_rows[q], targets[q], budget)
        for q in (slice(i, i + 1) for i in range(source_rows.size))
    ]
    return alone, _walk_outcome(walk, table, source_rows, owner_rows, targets, budget)


def ring_table(keys, succ_row, nbr_rows=None):
    if nbr_rows is None:
        nbr_rows = np.empty((len(keys), 0), dtype=np.int64)  # no link table yet
    return WalkTable.build(
        keyspace.from_units(np.asarray(keys)), np.asarray(succ_row), np.asarray(nbr_rows)
    )


class TestWalkKernelTwins:
    """``greedy_walk`` and ``greedy_walk_reference`` are one function
    written twice: equal hop, code and stop-row arrays — on ground-truth
    snapshots, where (unlike believed-live ones) rows can be dead peers
    with stale or missing successor pointers. The twin rescans every
    candidate from ``keys``, so agreement pins the table's distances,
    its sort and the kernel's prefix count together."""

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(KINDS),
        seed=st.integers(0, 2**16),
        n=st.integers(8, 40),
        crash=st.sampled_from([0.0, 0.1, 0.3, 0.6]),
        stale_leaves=st.integers(0, 3),
        repair=st.booleans(),
        budget=st.sampled_from([3, 64]),
    )
    def test_twins_agree_on_truth_snapshots(
        self, kind, seed, n, crash, stale_leaves, repair, budget
    ):
        overlay = build_substrate(kind, n=n, seed=seed)
        rng = split(seed, "twin")
        for __ in range(stale_leaves):  # departures that leave stale pointers behind
            overlay.leave(overlay.random_live_node(rng), repair=False)
        OracleView(overlay.ring).crash_fraction(rng, crash)  # crashed, links dangling
        if repair:
            overlay.repair_ring()  # dead peers lose their successor pointer
        snap = TopologySnapshot.capture(overlay)
        target_keys = rng.random(8)
        source_rows = rng.integers(0, snap.all_ids.size, size=8)  # dead rows included
        targets = keyspace.from_units(target_keys)
        owner_rows = snap.responsible_rows(targets)

        query = (snap.table, source_rows, owner_rows, targets, budget)
        alone, batch = _alone_and_batch(kernel, *query)
        assert (alone, batch) == _alone_and_batch(greedy_walk_reference, *query)
        # A failed query stops alone: the batch is the per-query results.
        assert batch == [[value for [value] in column] for column in zip(*alone)]
        hops, code, stopped = (np.asarray(column) for column in batch)
        assert (stopped[code == WalkCode.OK] == owner_rows[code == WalkCode.OK]).all()
        assert (hops[code == WalkCode.BUDGET] == budget).all()
        assert (snap.table.succ_row[stopped[code == WalkCode.NO_SUCCESSOR]] == -1).all()

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_twins_agree_on_adversarial_tables(self, seed):
        """Raw tables no overlay builds, 1-13 rows: distinct keys
        crowded into a few cells around the circle, padding anywhere,
        missing, self and random successor pointers, targets exactly on
        a row's key, random owners, budgets 2, 5 and 40."""
        rng = np.random.default_rng(seed)
        width = int(rng.integers(0, 6))
        cells = (3, 5, 8, 2**64 - 1)[int(rng.integers(4))]
        budget = (2, 5, 40)[int(rng.integers(3))]
        size = int(rng.integers(1, 14))
        keys = np.unique(rng.integers(0, cells, size=size, dtype=np.uint64, endpoint=True))
        if cells < 2**64 - 1:
            keys <<= np.uint64(60)  # a few cells spread around the circle
        m = int(keys.size)
        succ_row = (np.arange(m) + 1) % m
        draw = rng.random(m)
        succ_row[draw < 0.15] = -1
        succ_row[(draw >= 0.15) & (draw < 0.3)] = np.flatnonzero((draw >= 0.15) & (draw < 0.3))
        succ_row[draw > 0.8] = rng.integers(0, m, size=int((draw > 0.8).sum()))
        table = WalkTable.build(keys, succ_row, rng.integers(-1, m, size=(m, width)))
        q = 12
        targets = rng.integers(0, 2**64, size=q, dtype=np.uint64, endpoint=False)
        on_key = rng.random(q) < 0.4
        targets[on_key] = keys[rng.integers(0, m, size=int(on_key.sum()))]
        owner_rows = np.searchsorted(keys, targets) % m
        stray = rng.random(q) < 0.3
        owner_rows[stray] = rng.integers(0, m, size=int(stray.sum()))
        query = (table, rng.integers(0, m, size=q), owner_rows, targets, budget)
        alone, batch = _alone_and_batch(kernel, *query)
        assert (alone, batch) == _alone_and_batch(greedy_walk_reference, *query)
        assert batch == [[value for [value] in column] for column in zip(*alone)]

    def test_build_refuses_keys_that_do_not_strictly_increase(self):
        """Rows 2 and 3 in one key cell — two peers the ring would not
        admit — or rows out of key order: no table is built."""
        succ_row = np.asarray([1, 2, 3, 4, 0])
        nbr_rows = np.asarray([[2, 3], [-1, -1], [-1, -1], [-1, -1], [-1, -1]])
        for cells in ([0, 2, 5, 5, 9], [0, 2, 5, 4, 9]):
            keys = np.asarray(cells, dtype=np.uint64) << np.uint64(60)
            with pytest.raises(ValueError, match="strictly increase"):
                WalkTable.build(keys, succ_row, nbr_rows)

    @pytest.mark.parametrize("walk", WALKS)
    def test_each_failure_condition_is_a_code(self, walk):
        keys = [0.1, 0.4, 0.7]
        source, owner = np.asarray([0]), np.asarray([2])
        target = keyspace.from_units(np.asarray([0.65]))
        ring = [1, 2, 0]
        no_links = np.full((3, 1), -1, dtype=np.int64)
        for table in (ring_table(keys, ring), ring_table(keys, ring, no_links)):
            assert table.offsets.shape == (3, 2)
            assert _walk_outcome(walk, table, source, owner, target, 8) == [[2], [WalkCode.OK], [2]]
        assert _walk_outcome(walk, ring_table(keys, ring), source, owner, target, 1) == [
            [1],
            [WalkCode.BUDGET],
            [1],
        ]
        assert _walk_outcome(walk, ring_table(keys, [1, -1, 0]), source, owner, target, 8) == [
            [1],
            [WalkCode.NO_SUCCESSOR],
            [1],
        ]
        assert _walk_outcome(walk, ring_table(keys, [0, 2, 0]), source, owner, target, 8) == [
            [0],
            [WalkCode.STUCK],
            [0],
        ]

    @pytest.mark.parametrize("walk", WALKS)
    def test_failed_queries_stop_alone(self, walk):
        """One stuck, one over-budget and one pointer-less query beside
        good ones: good rows carry the hops they get alone, bad rows
        their code, on a ring with one long link per row."""
        m = 12
        keys = (np.arange(m) + 0.5) / m
        succ_row = (np.arange(m) + 1) % m
        succ_row[3], succ_row[7] = 3, -1  # row 3 loops on itself, row 7 has no pointer
        links = ((np.arange(m) + 4) % m)[:, None]
        table = ring_table(keys, succ_row, links)
        #                    good  good  stuck  hole  budget  good(0 hops)
        source = np.asarray([0, 8, 3, 7, 9, 5])
        owner = np.asarray([2, 1, 6, 9, 8, 5])
        targets = table.keys[owner]
        hops, code, stopped = walk(table, source, owner, targets, 4)
        assert code.tolist() == [
            WalkCode.OK,
            WalkCode.OK,
            WalkCode.STUCK,
            WalkCode.NO_SUCCESSOR,
            WalkCode.BUDGET,
            WalkCode.OK,
        ]
        assert hops.tolist() == [2, 2, 0, 0, 4, 0]
        assert stopped.tolist() == [2, 1, 3, 7, 7, 5]
        for q in range(source.size):
            alone = walk(table, source[q : q + 1], owner[q : q + 1], targets[q : q + 1], 4)
            assert [int(column[0]) for column in alone] == [hops[q], code[q], stopped[q]]


class TestSnapshotCache:
    def test_snapshot_reused_while_topology_unchanged(self):
        overlay = build_overlay(n=60, seed=19)
        engine = BatchQueryEngine(overlay)
        engine.measure(make_rng(1), n_queries=30)
        first = engine.cached_snapshot
        engine.measure(make_rng(2), n_queries=30)
        assert engine.cached_snapshot is first

    def test_join_invalidates(self):
        overlay = build_overlay(n=60, seed=19)
        engine = BatchQueryEngine(overlay)
        first = engine.snapshot()
        overlay.join(0.123456789, 8, 8)
        second = engine.snapshot()
        assert second is not first
        assert second.live_keys.size == first.live_keys.size + 1

    def test_leave_invalidates(self):
        overlay = build_overlay(n=60, seed=19)
        engine = BatchQueryEngine(overlay)
        first = engine.snapshot()
        overlay.leave(overlay.random_live_node(make_rng(5)))
        second = engine.snapshot()
        assert second is not first
        assert second.live_keys.size == first.live_keys.size - 1

    def test_rewire_invalidates(self):
        overlay = build_overlay(n=60, seed=19)
        engine = BatchQueryEngine(overlay)
        first = engine.snapshot()
        overlay.rewire()
        assert engine.snapshot() is not first

    def test_routing_correct_across_membership_change(self):
        # The integration property behind the cache: measure, mutate,
        # measure again — second batch must agree with scalar routing on
        # the *new* topology, not the cached one.
        overlay = build_overlay(n=80, seed=23)
        engine = BatchQueryEngine(overlay)
        engine.measure(split(23, "warm"), n_queries=50)
        overlay.leave(overlay.random_live_node(make_rng(6)))
        overlay.grow(90, GnutellaLikeDistribution(), ConstantDegrees(8))
        overlay.rewire()
        batched = engine.measure(split(23, "after"), n_queries=200)
        oracle = summarize_routes(
            greedy_oracle(overlay, q.source, q.target_key)
            for q in QueryWorkload().generate(overlay.ring, split(23, "after"), 200)
        )
        assert batched == oracle

    def test_manual_invalidate(self):
        overlay = build_overlay(n=40, seed=25)
        engine = BatchQueryEngine(overlay)
        first = engine.snapshot()
        engine.invalidate()
        assert engine.cached_snapshot is None
        assert engine.snapshot() is not first

    def test_snapshot_capture_shape(self):
        overlay = build_overlay(n=50, seed=27)
        snap = TopologySnapshot.capture(overlay)
        assert snap.all_ids.size == snap.table.keys.size == len(overlay.ring)
        assert snap.live_keys.size == overlay.size
        assert snap.table.offsets.shape[0] == snap.all_ids.size
        # every live row's successor pointer resolves
        assert np.all(snap.table.succ_row[snap.live_rows] >= 0)


class TestWorkloadArrays:
    def test_generate_and_generate_arrays_agree(self):
        overlay = build_overlay(n=40, seed=29)
        arr_sources, arr_targets = QueryWorkload().generate_arrays(
            overlay.ring, split(29, "w"), 100
        )
        queries = list(QueryWorkload().generate(overlay.ring, split(29, "w"), 100))
        assert [q.source for q in queries] == arr_sources.tolist()
        assert [q.target_key for q in queries] == arr_targets.tolist()
