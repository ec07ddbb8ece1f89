"""Tests for route results and aggregation (repro.routing.result)
and range queries (repro.routing.range_query)."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import hand_built
from repro.ring import in_cw_interval
from repro.routing import (
    RouteResult,
    route_range,
    summarize_routes,
)


def make_result(**overrides) -> RouteResult:
    defaults = dict(
        source=0,
        target_key=0.5,
        responsible=3,
        delivered_to=3,
        success=True,
        hops=4,
    )
    defaults.update(overrides)
    return RouteResult(**defaults)  # type: ignore[arg-type]


class TestRouteResult:
    def test_cost_sums_all_message_kinds(self):
        result = make_result(hops=4, wasted_probes=2, backtracks=1)
        assert result.cost == 7
        assert result.wasted == 3

    def test_fault_free_costs_equal_hops(self):
        assert make_result(hops=5).cost == 5

    def test_frozen(self):
        with pytest.raises(AttributeError):
            make_result().hops = 9  # type: ignore[misc]


class TestSummarizeRoutes:
    def test_empty_batch(self):
        stats = summarize_routes([])
        assert stats.n_routes == 0
        assert stats.mean_cost == 0.0
        assert stats.success_rate == 0.0

    def test_single_route(self):
        stats = summarize_routes([make_result(hops=6)])
        assert stats.n_routes == 1
        assert stats.mean_cost == 6.0
        assert stats.max_cost == 6
        assert stats.p95_cost == 6.0
        assert stats.success_rate == 1.0

    def test_mixed_batch_statistics(self):
        batch = [
            make_result(hops=2),
            make_result(hops=4, wasted_probes=2),
            make_result(hops=6, backtracks=3, success=False, delivered_to=None),
        ]
        stats = summarize_routes(batch)
        assert stats.n_routes == 3
        assert stats.n_success == 2
        assert stats.mean_cost == pytest.approx((2 + 6 + 9) / 3)
        assert stats.mean_hops == pytest.approx(4.0)
        assert stats.mean_wasted == pytest.approx(5 / 3)
        assert stats.max_cost == 9
        assert stats.success_rate == pytest.approx(2 / 3)

    def test_failed_routes_included_in_cost(self):
        # An abandoned query's traffic was really spent.
        ok = summarize_routes([make_result(hops=2)])
        with_fail = summarize_routes(
            [make_result(hops=2), make_result(hops=100, success=False)]
        )
        assert with_fail.mean_cost > ok.mean_cost

    def test_p95_on_larger_batch(self):
        batch = [make_result(hops=h) for h in range(1, 101)]
        stats = summarize_routes(batch)
        assert stats.p95_cost == pytest.approx(95.0, abs=1.0)

    def test_accepts_any_iterable(self):
        stats = summarize_routes(make_result(hops=i) for i in (1, 2, 3))
        assert stats.n_routes == 3


def range_topology(n: int = 16):
    """``n`` peers at ``i / n`` with ring pointers only."""
    return hand_built([i / n for i in range(n)])


class TestRouteRange:
    def test_owner_set_matches_brute_force(self):
        overlay = range_topology(16)
        ring = overlay.ring
        lo, hi = 0.3, 0.6
        result = route_range(overlay, 0, lo, hi)
        assert result.success
        # Owners = peers whose arc intersects [lo, hi]: every peer with
        # position in (lo, hi], plus successor(lo) (owns lo) and
        # successor(hi) (owns the tail slice up to hi).
        expected = {ring.successor_of_key(lo), ring.successor_of_key(hi)}
        expected |= {
            nid for nid in ring.node_ids(live_only=True)
            if in_cw_interval(ring.position(nid), lo, hi)
        }
        assert set(result.owners) == expected

    def test_owners_in_ring_order(self):
        overlay = range_topology(16)
        result = route_range(overlay, 2, 0.25, 0.7)
        positions = [overlay.ring.position(nid) for nid in result.owners]
        assert positions == sorted(positions)

    def test_wrapped_range(self):
        overlay = range_topology(16)
        result = route_range(overlay, 3, 0.9, 0.1)
        assert result.success
        owned_positions = {overlay.ring.position(n) for n in result.owners}
        # Must include peers just after 0.9 and up to 0.1, wrapping.
        assert any(p > 0.9 for p in owned_positions)
        assert any(p <= 0.1 for p in owned_positions)

    def test_cost_accounts_entry_plus_sweep(self):
        result = route_range(range_topology(16), 0, 0.5, 0.75)
        assert result.total_cost == result.entry_route.cost + result.sweep_hops
        assert result.sweep_hops == len(result.owners) - 1

    def test_point_range_single_owner(self):
        overlay = range_topology(16)
        result = route_range(overlay, 0, 0.5, 0.5)
        assert result.owners == (overlay.ring.successor_of_key(0.5),)
        assert result.sweep_hops == 0

    def test_faulty_entry_phase(self):
        overlay = range_topology(16)
        overlay.leave(5)  # crashed, ring repaired around it
        result = route_range(overlay, 0, 0.35, 0.6)
        assert result.success
        assert 5 not in result.owners

    def test_items_in_range_are_covered_by_owners(self):
        # Every key in [lo, hi] must be owned by one of the returned peers.
        overlay = range_topology(16)
        lo, hi = 0.42, 0.81
        result = route_range(overlay, 7, lo, hi)
        rng = np.random.default_rng(0)
        for __ in range(200):
            key = float(lo + (hi - lo) * rng.random())
            assert overlay.ring.successor_of_key(key) in result.owners
