"""Tests for fault-aware routing with probing and backtracking
(repro.routing.faulty)."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import hand_built
from repro.config import RoutingConfig
from repro.errors import DeadNodeError
from repro.membership import OracleView
from repro.ring import Ring, build_pointers, repair
from repro.routing import route_faulty


class StaticNeighbors:
    def __init__(self, table: dict[int, list[int]]):
        self.table = table

    def neighbors_of(self, node_id: int) -> list[int]:
        return self.table.get(node_id, [])


def ring_of(n: int) -> Ring:
    ring = Ring()
    for node_id in range(n):
        ring.insert(node_id, node_id / n)
    return ring


def build_topology(n: int, extra: dict[int, list[int]] | None = None):
    ring = ring_of(n)
    pointers = build_pointers(ring)
    table = {
        i: [pointers.successor[i], pointers.predecessor[i]] for i in range(n)
    }
    for node, links in (extra or {}).items():
        table[node] = table[node] + links
    return ring, pointers, StaticNeighbors(table)


class TestFaultFreeEquivalence:
    def test_matches_greedy_without_faults(self):
        sixteen = hand_built([i / 16 for i in range(16)], {0: [4, 8], 8: [12]})
        cases = [
            (sixteen, [0], (0.3, 0.55, 0.8, 0.99)),
            # 1.5 * 2**-70 lies above peer 0's float but inside its 2**-64
            # key cell (cell 0): peer 0 owns it, from every source.
            (hand_built([2**-70, 0.25, 0.5, 0.75]), range(4), (1.5 * 2**-70,)),
        ]
        for overlay, sources, keys in cases:
            for source in sources:
                for key in keys:
                    faulty = route_faulty(overlay.ring, overlay.pointers, overlay, source, key)
                    greedy = overlay.route(source, key)
                    assert faulty.success and greedy.success
                    assert faulty.responsible == greedy.responsible
                    assert faulty.delivered_to == greedy.delivered_to
                    assert faulty.hops == greedy.hops
                    assert faulty.wasted == 0

    def test_source_owns_key(self):
        ring, pointers, neighbors = build_topology(8)
        result = route_faulty(ring, pointers, neighbors, 2, 0.25)
        assert result.success and result.hops == 0 and result.cost == 0


class TestDeadNeighborProbes:
    def test_probe_charged_for_dead_long_link(self):
        ring, pointers, neighbors = build_topology(16, extra={0: [8]})
        OracleView(ring).crash([8])
        repair(ring, pointers)
        result = route_faulty(ring, pointers, neighbors, 0, 0.6)
        assert result.success
        assert result.wasted_probes >= 1  # discovered node 8 is dead

    def test_probe_charged_once_per_route(self):
        # Two paths could re-probe the same dead node; the discovery
        # cache must charge it once.
        ring, pointers, neighbors = build_topology(16, extra={0: [8], 1: [8], 2: [8]})
        OracleView(ring).crash([8])
        repair(ring, pointers)
        result = route_faulty(ring, pointers, neighbors, 0, 0.6)
        assert result.success
        assert result.wasted_probes == 1  # one message, the paper's unit

    def test_source_dead_rejected(self):
        ring, pointers, neighbors = build_topology(8)
        OracleView(ring).crash([3])
        repair(ring, pointers)
        with pytest.raises(DeadNodeError):
            route_faulty(ring, pointers, neighbors, 3, 0.9)


class TestRepairedRingAlwaysDelivers:
    @pytest.mark.parametrize("kill_fraction", [0.1, 0.33, 0.5])
    def test_delivery_after_mass_crash(self, kill_fraction):
        rng = np.random.default_rng(5)
        n = 60
        ring = ring_of(n)
        pointers = build_pointers(ring)
        extra = {
            i: [int(x) for x in rng.choice(n, size=4, replace=False) if int(x) != i]
            for i in range(n)
        }
        table = {
            i: [pointers.successor[i], pointers.predecessor[i]] + extra[i]
            for i in range(n)
        }
        neighbors = StaticNeighbors(table)
        victims = rng.choice(n, size=int(kill_fraction * n), replace=False)
        OracleView(ring).crash(victims)
        repair(ring, pointers)
        live = ring.node_ids(live_only=True)
        for __ in range(60):
            source = int(live[rng.integers(0, len(live))])
            key = float(rng.random())
            result = route_faulty(ring, pointers, neighbors, source, key)
            assert result.success
            assert result.delivered_to == ring.successor_of_key(key, live_only=True)

    def test_churn_costs_more_than_fault_free(self):
        rng = np.random.default_rng(6)
        n = 80
        ring = ring_of(n)
        pointers = build_pointers(ring)
        table = {
            i: [pointers.successor[i], pointers.predecessor[i]]
            + [int(x) for x in rng.choice(n, size=4, replace=False) if int(x) != i]
            for i in range(n)
        }
        neighbors = StaticNeighbors(table)

        def mean_cost() -> float:
            live = ring.node_ids(live_only=True)
            costs = []
            for __ in range(80):
                source = int(live[rng.integers(0, len(live))])
                result = route_faulty(ring, pointers, neighbors, source, float(rng.random()))
                assert result.success
                costs.append(result.cost)
            return float(np.mean(costs))

        healthy = mean_cost()
        OracleView(ring).crash(rng.choice(n, size=n // 3, replace=False))
        repair(ring, pointers)
        damaged = mean_cost()
        assert damaged > healthy


class TestBacktracking:
    def test_backtracks_through_unrepaired_gap(self):
        # No ring repair: node 0's successor pointer leads to dead 1, and
        # a long link from 0 to 3 overshoots key 0.13 (owner: node 2,
        # assuming 1 dead). The only delivery path needs the past-key tier
        # or backtracking, never an exception.
        ring, pointers, neighbors = build_topology(8, extra={0: [3]})
        OracleView(ring).crash([1])
        # deliberate: no repair
        result = route_faulty(ring, pointers, neighbors, 0, 0.13)
        assert result.delivered_to == ring.successor_of_key(0.13, live_only=True)
        assert result.success
        assert result.wasted_probes >= 1

    def test_each_probe_and_backtrack_costs_one_message(self):
        # Unrepaired: 2's successor pointer leads to dead 3. The route
        # 0 -> 2 -> 1 dead-ends, backtracks 1 -> 2 -> 0 and goes round
        # the other way: 6 hops, 1 probe (3, charged once), 2 backtracks.
        ring, pointers, neighbors = build_topology(8, extra={0: [2]})
        OracleView(ring).crash([3])
        result = route_faulty(ring, pointers, neighbors, 0, 0.45, record_path=True)
        assert result.path == (0, 2, 1, 7, 6, 5, 4)
        assert (result.hops, result.wasted_probes, result.backtracks) == (6, 1, 2)
        assert result.cost == 9

    def test_budget_exhaustion_fails_gracefully(self):
        ring, pointers, neighbors = build_topology(32)
        result = route_faulty(
            ring, pointers, neighbors, 0, 0.9, RoutingConfig(budget=3)
        )
        assert not result.success
        assert result.delivered_to is None
        assert result.cost <= 4  # stopped right at the budget

    def test_failed_route_reports_partial_cost(self):
        ring, pointers, neighbors = build_topology(32)
        result = route_faulty(
            ring, pointers, neighbors, 0, 0.9, RoutingConfig(budget=5)
        )
        assert not result.success
        assert result.cost > 0


class TestPathRecording:
    def test_path_contains_only_live_nodes(self):
        ring, pointers, neighbors = build_topology(16, extra={0: [8], 4: [12]})
        OracleView(ring).crash([8])
        repair(ring, pointers)
        result = route_faulty(ring, pointers, neighbors, 0, 0.9, record_path=True)
        assert result.success
        assert all(ring.is_alive(nid) for nid in result.path)
        assert result.path[0] == 0
        assert result.path[-1] == result.delivered_to
