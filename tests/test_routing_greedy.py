"""Fault-free greedy routing through ``Substrate.route`` on hand-built
topologies: the walk kernel (``repro.engine.walk``) answering one query
at a time, with its path and its failure modes."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import hand_built
from repro.errors import RoutingError
from repro.ring import cw_distance


def ring_only(n: int, links: dict[int, list[int]] | None = None, budget: int | None = None):
    """``n`` peers at ``i / n``: ring pointers, plus ``links`` if given."""
    return hand_built([i / n for i in range(n)], links, budget)


class TestDelivery:
    def test_source_is_responsible(self):
        overlay = ring_only(8)
        # Key 0.05 is owned by successor(0.05) = node 1 (position 0.125).
        result = overlay.route(1, 0.05)
        assert result.success
        assert result.hops == 0
        assert result.delivered_to == 1

    def test_exact_peer_position_is_owned_by_that_peer(self):
        result = ring_only(8).route(0, 0.25)
        assert result.delivered_to == 2  # position 0.25

    def test_ring_walk_delivers(self):
        overlay = ring_only(8)
        result = overlay.route(0, 0.66)
        assert result.success
        assert result.delivered_to == overlay.ring.successor_of_key(0.66)
        # Ring-only: hops equal the clockwise node distance.
        assert result.hops == 6

    def test_wrap_around_delivery(self):
        result = ring_only(8).route(5, 0.01)
        assert result.success
        assert result.delivered_to == 1  # successor(0.01) has position 0.125
        assert result.hops == 4  # 5 -> 6 -> 7 -> 0 -> 1

    def test_long_links_cut_hops(self):
        # Chord-style power-of-two fingers from node 0.
        slow = ring_only(64).route(0, 0.9)
        fast = ring_only(64, {0: [2, 4, 8, 16, 32], 32: [48], 48: [56]}).route(0, 0.9)
        assert fast.success and slow.success
        assert fast.delivered_to == slow.delivered_to
        assert fast.hops < slow.hops

    def test_never_overshoots_the_key(self):
        # A link that lands *past* the key must be ignored even though it
        # is closer in circular distance.
        overlay = ring_only(16, {0: [9]})  # position 0.5625, past key 0.51
        result = overlay.route(0, 0.51, record_path=True)
        assert result.success
        assert 9 not in result.path[:-1]  # may be the final owner only if responsible
        assert result.delivered_to == overlay.ring.successor_of_key(0.51)


class TestPathRecording:
    def test_path_recorded_on_demand(self):
        result = ring_only(8).route(0, 0.4, record_path=True)
        assert result.path[0] == 0
        assert result.path[-1] == result.delivered_to
        assert len(result.path) == result.hops + 1

    def test_path_empty_by_default(self):
        assert ring_only(8).route(0, 0.4).path == ()

    def test_path_progress_is_monotone(self):
        overlay = ring_only(32)
        result = overlay.route(3, 0.8, record_path=True)
        remaining = [cw_distance(overlay.ring.position(nid), 0.8) for nid in result.path[:-1]]
        assert all(a > b for a, b in zip(remaining, remaining[1:])) or len(remaining) <= 1

    def test_stepped_path_keeps_the_walks_hops(self):
        overlay = ring_only(64, {0: [2, 4, 8, 16, 32], 32: [48], 48: [56], 8: [40]})
        for key in (0.13, 0.5, 0.9, 0.99):
            walked = overlay.route(0, key, record_path=True)
            assert walked.hops == overlay.route(0, key).hops == len(walked.path) - 1


class TestFailureModes:
    def test_budget_exhaustion_raises(self):
        with pytest.raises(RoutingError, match="exceeded budget 3"):
            ring_only(32, budget=3).route(0, 0.9)

    def test_budget_exhaustion_raises_while_recording(self):
        with pytest.raises(RoutingError, match="exceeded budget 3"):
            ring_only(32, budget=3).route(0, 0.9, record_path=True)

    def test_missing_successor_pointer_raises(self):
        overlay = ring_only(8)
        del overlay.pointers.successor[4]
        with pytest.raises(RoutingError, match="node 4 has no ring successor pointer"):
            overlay.route(3, 0.9)

    def test_self_successor_pointer_raises(self):
        overlay = ring_only(8)
        overlay.pointers.successor[4] = 4
        with pytest.raises(RoutingError, match="node 4 has no progressing neighbor"):
            overlay.route(3, 0.9)

    def test_cost_properties(self):
        result = ring_only(8).route(0, 0.7)
        assert result.cost == result.hops
        assert result.wasted == 0
        assert result.wasted_probes == 0
        assert result.backtracks == 0


class TestAgainstBruteForce:
    def test_always_delivers_to_ground_truth_owner(self):
        rng = np.random.default_rng(11)
        positions = np.sort(rng.random(50)).tolist()
        links = {
            i: [int(x) for x in rng.choice(50, size=3, replace=False) if int(x) != i]
            for i in range(50)
        }
        overlay = hand_built(positions, links)
        for __ in range(100):
            source = int(rng.integers(0, 50))
            key = float(rng.random())
            result = overlay.route(source, key)
            assert result.success
            assert result.delivered_to == overlay.ring.successor_of_key(key)
