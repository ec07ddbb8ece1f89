"""Tests for the batched query engine (repro.engine.batch) and the
Substrate protocol it drives.

The headline guarantee under test: batched evaluation is *bit-identical*
to scalar ``route()`` for the same seed, on every substrate — same hop
counts per query, same folded statistics — and the engine's topology
snapshot (the successor-lookup cache) invalidates exactly when
membership or links change.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_mercury, build_overlay
from repro import ChordOverlay, Substrate
from repro.churn import apply_churn, revive_all
from repro.config import ChurnConfig
from repro.degree import ConstantDegrees
from repro.engine import BatchQueryEngine, TopologySnapshot
from repro.engine.walk import greedy_walk, greedy_walk_reference
from repro.errors import RoutingError
from repro.membership import OracleView
from repro.ring import keyspace
from repro.metrics import measure_search_cost
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
        overlay = build_substrate(kind)
        engine = BatchQueryEngine(overlay)
        scalar = summarize_routes(
            overlay.route(q.source, q.target_key)
            for q in QueryWorkload().generate(overlay.ring, split(9, "q"), 400)
        )
        batched = engine.measure(split(9, "q"), n_queries=400)
        assert batched == scalar

    @pytest.mark.parametrize("kind", KINDS)
    def test_per_query_hops_identical(self, kind):
        overlay = build_substrate(kind)
        engine = BatchQueryEngine(overlay)
        sources, targets = QueryWorkload().generate_arrays(
            overlay.ring, split(11, "pairs"), 200
        )
        batch = engine.route_batch(sources, targets)
        for i in range(sources.size):
            result = overlay.route(int(sources[i]), float(targets[i]))
            assert result.hops == batch.hops[i]
            assert result.responsible == batch.responsible[i]
            assert result.success and bool(batch.success[i])

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
        reference = greedy_walk_reference(
            snap.all_keys,
            snap.succ_row,
            snap.nbr_rows,
            snap.all_ids,
            snap.row_of[sources],
            snap.row_of[batch.responsible],
            keyspace.from_units(batch.target_keys),
            overlay.routing.budget,
        )
        assert reference.tolist() == batch.hops.tolist()

    def test_unrepaired_departure_still_matches_scalar(self):
        # A peer leaves without ring repair: its links dangle but its own
        # pointers survive, so the fault-free greedy walk can pass straight
        # through it. The batched walk must follow those links identically
        # instead of falling back to ring hops (regression: snapshot used
        # to build neighbor rows for live peers only).
        overlay = build_overlay(n=120, seed=0)
        overlay.leave(overlay.random_live_node(make_rng(7)), repair=False)
        engine = BatchQueryEngine(overlay)
        batched = engine.measure(split(0, "dead"), n_queries=300)
        scalar = summarize_routes(
            overlay.route(q.source, q.target_key)
            for q in QueryWorkload().generate(overlay.ring, split(0, "dead"), 300)
        )
        assert batched == scalar

    def test_engine_overlay_mismatch_rejected(self):
        a = build_overlay(n=30, seed=1)
        b = build_overlay(n=30, seed=2)
        with pytest.raises(ValueError, match="different overlay"):
            measure_search_cost(a, make_rng(0), n_queries=5, engine=BatchQueryEngine(b))

    def test_faulty_measurement_matches_scalar_router(self):
        overlay = build_overlay(n=150, seed=13)
        victims = apply_churn(overlay.ring, overlay.pointers, ChurnConfig(kill_fraction=0.2))
        engine = BatchQueryEngine(overlay)
        batched = engine.measure(split(13, "f"), n_queries=120, faulty=True)
        scalar = summarize_routes(
            overlay.route(q.source, q.target_key, faulty=True)
            for q in QueryWorkload().generate(overlay.ring, split(13, "f"), 120)
        )
        assert batched == scalar
        revive_all(overlay.ring, victims)

    def test_measure_search_cost_goes_through_engine(self):
        overlay = build_overlay(n=100, seed=15)
        engine = BatchQueryEngine(overlay)
        via_metric = measure_search_cost(overlay, split(15, "m"), n_queries=150, engine=engine)
        via_engine = engine.measure(split(15, "m"), n_queries=150)
        assert via_metric == via_engine
        assert engine.cached_snapshot is not None

    def test_empty_batch(self):
        overlay = build_overlay(n=20, seed=16)
        stats = BatchQueryEngine(overlay).measure(make_rng(0), n_queries=0)
        assert stats.n_routes == 0
        assert stats.mean_cost == 0.0

    def test_budget_exhaustion_raises_like_scalar(self):
        from repro.config import RoutingConfig

        overlay = build_overlay(n=80, seed=17)
        engine = BatchQueryEngine(overlay, routing=RoutingConfig(budget=1))
        with pytest.raises(RoutingError):
            engine.measure(split(17, "b"), n_queries=50)


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


def _walk_outcome(walk, snap, source_rows, owner_rows, targets, budget):
    try:
        return walk(
            snap.all_keys,
            snap.succ_row,
            snap.nbr_rows,
            snap.all_ids,
            source_rows,
            owner_rows,
            targets,
            budget,
        ).tolist()
    except RoutingError:
        return "RoutingError"


class TestWalkKernelTwins:
    """``greedy_walk`` and ``greedy_walk_reference`` are one function
    written twice: equal hop arrays, or both raise ``RoutingError`` —
    on ground-truth snapshots, where (unlike believed-live ones) rows
    can be dead peers with stale or missing successor pointers."""

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

        def outcomes(walk):
            """Each query alone (so one abort cannot mask the others),
            then the whole batch in lock-step."""
            alone = [
                _walk_outcome(walk, snap, source_rows[q], owner_rows[q], targets[q], budget)
                for q in (slice(i, i + 1) for i in range(8))
            ]
            return alone, _walk_outcome(walk, snap, source_rows, owner_rows, targets, budget)

        alone, batch = outcomes(greedy_walk)
        assert (alone, batch) == outcomes(greedy_walk_reference)
        assert batch == ("RoutingError" if "RoutingError" in alone else [h for [h] in alone])

    @pytest.mark.parametrize("walk", [greedy_walk, greedy_walk_reference])
    def test_each_abort_condition_raises(self, walk):
        keys = keyspace.from_units(np.asarray([0.1, 0.4, 0.7]))
        ids = np.arange(3)
        no_links = np.full((3, 1), -1, dtype=np.int64)
        source, owner = np.asarray([0]), np.asarray([2])
        target = keyspace.from_units(np.asarray([0.65]))
        ring = np.asarray([1, 2, 0])
        assert walk(keys, ring, no_links, ids, source, owner, target, 8).tolist() == [2]
        zero_width = np.empty((3, 0), dtype=np.int64)  # a substrate with no link table yet
        assert walk(keys, ring, zero_width, ids, source, owner, target, 8).tolist() == [2]
        with pytest.raises(RoutingError, match="budget"):
            walk(keys, ring, no_links, ids, source, owner, target, 1)
        with pytest.raises(RoutingError, match="no ring successor"):
            walk(keys, np.asarray([1, -1, 0]), no_links, ids, source, owner, target, 8)
        with pytest.raises(RoutingError, match="no progressing"):
            walk(keys, np.asarray([0, 2, 0]), no_links, ids, source, owner, target, 8)


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
        scalar = summarize_routes(
            overlay.route(q.source, q.target_key)
            for q in QueryWorkload().generate(overlay.ring, split(23, "after"), 200)
        )
        assert batched == scalar

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
        assert snap.all_pos.size == len(overlay.ring)
        assert snap.live_keys.size == overlay.size
        assert snap.nbr_rows.shape[0] == snap.all_pos.size
        # every live row's successor pointer resolves
        assert np.all(snap.succ_row[snap.live_rows] >= 0)


class TestWorkloadArrays:
    def test_generate_and_generate_arrays_agree(self):
        overlay = build_overlay(n=40, seed=29)
        arr_sources, arr_targets = QueryWorkload().generate_arrays(
            overlay.ring, split(29, "w"), 100
        )
        queries = list(QueryWorkload().generate(overlay.ring, split(29, "w"), 100))
        assert [q.source for q in queries] == arr_sources.tolist()
        assert [q.target_key for q in queries] == arr_targets.tolist()
