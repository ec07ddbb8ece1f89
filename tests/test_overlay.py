"""Tests for the Oscar overlay facade (repro.core.overlay)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SamplingMode
from repro.degree import ConstantDegrees, SteppedDegrees
from repro.errors import EmptyPopulationError, UnknownNodeError
from repro.ring import verify
from repro.rng import make_rng
from repro.workloads import UniformKeys

from repro import OscarOverlay

from conftest import build_overlay, ids_in_cw_range, links_of


class TestJoin:
    def test_first_join_creates_singleton_ring(self):
        overlay = OscarOverlay()
        node_id = overlay.join(0.5, 4, 4)
        assert len(overlay) == 1
        assert overlay.pointers.successor[node_id] == node_id

    def test_join_assigns_dense_ids(self):
        overlay = OscarOverlay()
        ids = [overlay.join(k, 4, 4) for k in (0.1, 0.5, 0.9)]
        assert ids == [0, 1, 2]

    def test_join_estimates_partitions_and_links(self):
        overlay = OscarOverlay()
        for i, key in enumerate(np.linspace(0.05, 0.95, 20)):
            overlay.join(float(key), 4, 4)
        assert overlay.partition_table(19) is not None
        assert len(links_of(overlay)[19]) > 0

    def test_partition_table_none_until_first_estimation(self):
        overlay = OscarOverlay()
        overlay.join(0.5, 4, 4)  # a one-peer ring estimates nothing
        assert overlay.partition_table(0) is None
        overlay.join(0.25, 4, 4)
        assert overlay.partition_table(1) is not None
        with pytest.raises(UnknownNodeError):
            overlay.partition_table(2)

    def test_ring_pointers_stay_valid_through_joins(self):
        overlay = OscarOverlay()
        rng = make_rng(0)
        for __ in range(60):
            overlay.join(float(rng.random()), 4, 4)
        verify(overlay.ring, overlay.pointers)

    def test_duplicate_position_raises(self):
        from repro.errors import DuplicateNodeError

        overlay = OscarOverlay()
        overlay.join(0.5, 4, 4)
        with pytest.raises(DuplicateNodeError):
            overlay.join(0.5, 4, 4)


class TestGrow:
    def test_reaches_target_size(self):
        overlay = OscarOverlay()
        overlay.grow(100, UniformKeys(), ConstantDegrees(6))
        assert len(overlay) == 100

    def test_growth_is_incremental(self):
        overlay = OscarOverlay()
        overlay.grow(50, UniformKeys(), ConstantDegrees(6))
        first_ids = set(overlay.live_node_ids())
        overlay.grow(100, UniformKeys(), ConstantDegrees(6))
        assert first_ids <= set(overlay.live_node_ids())
        assert len(overlay) == 100

    def test_grow_to_smaller_size_is_noop(self):
        overlay = OscarOverlay()
        overlay.grow(50, UniformKeys(), ConstantDegrees(6))
        overlay.grow(20, UniformKeys(), ConstantDegrees(6))
        assert len(overlay) == 50

    def test_caps_drawn_from_distribution(self):
        overlay = OscarOverlay()
        overlay.grow(200, UniformKeys(), SteppedDegrees())
        caps = set(overlay.in_cap_array().tolist())
        assert caps <= {19, 23, 27, 39}
        assert len(caps) > 1

    def test_same_seed_same_network(self):
        a = build_overlay(n=80, seed=21)
        b = build_overlay(n=80, seed=21)
        assert np.array_equal(a.ring.positions_array(), b.ring.positions_array())
        assert links_of(a) == links_of(b)

    def test_different_seeds_different_networks(self):
        a = build_overlay(n=80, seed=21)
        b = build_overlay(n=80, seed=22)
        assert not np.array_equal(a.ring.positions_array(), b.ring.positions_array())


class TestNeighbors:
    def test_neighbors_include_ring_and_long_links(self, shared_overlay):
        node_id, links = next(iter(links_of(shared_overlay).items()))
        neighbors = shared_overlay.neighbors_of(node_id)
        succ = shared_overlay.pointers.successor[node_id]
        pred = shared_overlay.pointers.predecessor[node_id]
        assert succ in neighbors
        assert pred in neighbors
        for link in links:
            assert link in neighbors

    def test_unknown_node_rejected(self, shared_overlay):
        with pytest.raises(UnknownNodeError):
            shared_overlay.neighbors_of(10_000_000)

    def test_random_live_node_is_live(self, shared_overlay):
        rng = make_rng(1)
        for __ in range(20):
            node_id = shared_overlay.random_live_node(rng)
            assert shared_overlay.ring.is_alive(node_id)

    def test_random_live_node_empty_overlay(self):
        with pytest.raises(EmptyPopulationError):
            OscarOverlay().random_live_node()


class TestRouting:
    def test_routes_succeed_across_the_network(self, shared_overlay):
        rng = make_rng(2)
        for __ in range(50):
            source = shared_overlay.random_live_node(rng)
            key = float(rng.random())
            result = shared_overlay.route(source, key)
            assert result.success
            assert result.delivered_to == shared_overlay.ring.successor_of_key(key)

    def test_search_cost_is_logarithmic_ish(self, shared_overlay):
        rng = make_rng(3)
        costs = []
        for __ in range(200):
            source = shared_overlay.random_live_node(rng)
            costs.append(shared_overlay.route(source, float(rng.random())).cost)
        n = len(shared_overlay)
        assert np.mean(costs) < np.log2(n) ** 2  # far below the worst case

    def test_faulty_flag_uses_backtracking_router(self, shared_overlay):
        rng = make_rng(4)
        result = shared_overlay.route(
            shared_overlay.random_live_node(rng), 0.5, faulty=True
        )
        assert result.success


class TestStatArrays:
    def test_arrays_align_with_live_nodes(self, shared_overlay):
        n = len(shared_overlay)
        assert shared_overlay.in_degree_array().shape == (n,)
        assert shared_overlay.in_cap_array().shape == (n,)
        assert shared_overlay.out_degree_array().shape == (n,)
        assert shared_overlay.out_cap_array().shape == (n,)

    def test_out_degrees_respect_caps(self, shared_overlay):
        assert np.all(
            shared_overlay.out_degree_array() <= shared_overlay.out_cap_array()
        )

    def test_in_degrees_respect_caps(self, shared_overlay):
        assert np.all(
            shared_overlay.in_degree_array() <= shared_overlay.in_cap_array()
        )

    def test_repr_mentions_size(self, shared_overlay):
        assert str(len(shared_overlay)) in repr(shared_overlay)


class TestRepairRing:
    def test_repair_after_crash(self):
        overlay = build_overlay(n=60, seed=30)
        victims = [nid for nid in list(overlay.ring.node_ids())[::7]]
        for victim in victims:
            overlay.ring.mark_dead(victim)
        fixed = overlay.repair_ring()
        assert fixed > 0
        verify(overlay.ring, overlay.pointers)

    def test_routes_still_work_after_repair(self):
        overlay = build_overlay(n=60, seed=31)
        for victim in list(overlay.ring.node_ids())[::5]:
            overlay.ring.mark_dead(victim)
        overlay.repair_ring()
        rng = make_rng(5)
        for __ in range(30):
            source = overlay.random_live_node(rng)
            result = overlay.route(source, float(rng.random()), faulty=True)
            assert result.success


class TestLeaveBatch:
    def test_matches_sequential_leaves(self):
        bulk = build_overlay(n=60, seed=33)
        sequential = build_overlay(n=60, seed=33)
        victims = list(bulk.ring.node_ids())[::6]
        fixed = bulk.leave_batch(victims)
        for victim in victims:
            sequential.leave(victim)
        assert fixed > 0
        verify(bulk.ring, bulk.pointers)
        assert bulk.pointers.successor == sequential.pointers.successor
        assert bulk.pointers.predecessor == sequential.pointers.predecessor
        assert bulk.ring.live_count == sequential.ring.live_count

    def test_repair_false_defers_stabilization(self):
        overlay = build_overlay(n=40, seed=34)
        victims = list(overlay.ring.node_ids())[:5]
        assert overlay.leave_batch(victims, repair=False) == 0
        # Pointers still reference the dead peers until repaired.
        assert any(
            succ in victims for succ in overlay.pointers.successor.values()
        )
        overlay.repair_ring()
        verify(overlay.ring, overlay.pointers)

    def test_invalidates_query_engine_snapshot(self):
        from repro.engine import BatchQueryEngine

        overlay = build_overlay(n=50, seed=35)
        engine = BatchQueryEngine(overlay)
        engine.snapshot()
        version = overlay.topology_version
        overlay.leave_batch(list(overlay.ring.node_ids())[:3])
        assert overlay.topology_version != version
        assert engine.snapshot().version == overlay.topology_version


class TestSamplingModes:
    @pytest.mark.parametrize("mode", list(SamplingMode))
    def test_overlay_builds_under_every_mode(self, mode):
        overlay = build_overlay(n=60, seed=32, sampling_mode=mode)
        rng = make_rng(6)
        success = 0
        for __ in range(30):
            source = overlay.random_live_node(rng)
            success += overlay.route(source, float(rng.random())).success
        assert success == 30

    def test_oracle_partitions_halve_exactly(self):
        overlay = build_overlay(n=128, seed=33, sampling_mode=SamplingMode.ORACLE)
        table = overlay.partition_table(overlay.live_node_ids()[0])
        sizes = []
        for index in range(1, table.n_partitions + 1):
            arc = table.arc(index)
            if arc is None:
                sizes.append(0)
                continue
            sizes.append(len(ids_in_cw_range(overlay.ring, arc[0], arc[1])))
        # Outermost partition holds about half the population, then half
        # of the rest, etc.
        n = len(overlay) - 1
        assert sizes[0] == pytest.approx(n / 2, abs=1.5)
        assert sizes[1] == pytest.approx(n / 4, abs=1.5)


class TestSkewResilience:
    def test_skewed_and_uniform_keys_cost_similarly(self):
        uniform = build_overlay(n=250, seed=34, skewed=False)
        skewed = build_overlay(n=250, seed=34, skewed=True)
        rng_a, rng_b = make_rng(7), make_rng(7)

        def mean_cost(overlay, rng):
            costs = []
            for __ in range(150):
                source = overlay.random_live_node(rng)
                target = overlay.ring.position(overlay.random_live_node(rng))
                costs.append(overlay.route(source, target).cost)
            return float(np.mean(costs))

        cost_uniform = mean_cost(uniform, rng_a)
        cost_skewed = mean_cost(skewed, rng_b)
        # The core claim: skew must not blow up routing cost.
        assert cost_skewed < 2.0 * cost_uniform
