"""The application contract of ``repro.index`` — put, get, range,
survive a crash wave — as a downstream user meets it:
``ReplicatedStore.seed_items`` / ``ServeEngine.serve_batch`` /
``serve_range`` / ``rereplicate`` under an ``OracleView``. The range
path's differential against the scalar ``route_range`` twin is
``tests/test_serve_range.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import OscarConfig, OscarOverlay, RoutingConfig
from repro.degree import ConstantDegrees
from repro.engine import Outcome, ServeEngine
from repro.index import ReplicatedStore
from repro.membership import OracleView
from repro.rng import make_rng
from repro.workloads import GnutellaLikeDistribution, UniformKeys

from conftest import build_overlay, crash_wave


class Index:
    """An overlay with its view, catalog and (uncached) serve engine."""

    def __init__(self, overlay: OscarOverlay, k: int = 1) -> None:
        self.overlay = overlay
        self.view = OracleView(overlay.ring)
        self.store = ReplicatedStore(overlay.ring, k=k)
        self.serve = ServeEngine(overlay, self.store, self.view, cache_size=0)

    def put(self, *keys: float) -> int:
        return self.store.seed_items(keys, self.view)

    def get(self, source: int, *keys: float):
        return self.serve.serve_batch(np.full(len(keys), source), np.asarray(keys))

    def range(self, source: int, lo: float, hi: float):
        return self.serve.serve_range(np.asarray([source]), np.asarray([lo]), np.asarray([hi]))

    def range_keys(self, source: int, lo: float, hi: float) -> list[float]:
        scan = self.range(source, lo, hi)
        assert scan.outcome[0] == Outcome.SERVED
        rows = self.store.slice_rows(scan.item_first[0], scan.item_count[0])
        return sorted(self.store.item_keys[rows].tolist())


@pytest.fixture
def index():
    return Index(build_overlay(n=120, seed=50, cap=8))


class TestPutGet:
    def test_put_places_at_responsible_peer(self, index):
        assert index.put(0.42) == 1
        owner = index.overlay.ring.successor_of_key(0.42)
        assert index.store.holders.tolist() == [[owner]]
        assert index.get(0, 0.42).owners.tolist() == [owner]

    def test_get_returns_stored_items(self, index):
        index.put(0.42)
        assert index.put(0.42) == 0  # a key is one item
        receipt = index.get(5, 0.42)
        assert receipt.found.all() and receipt.success.all()

    def test_get_missing_key_empty(self, index):
        receipt = index.get(0, 0.9999)
        assert receipt.outcome.tolist() == [Outcome.SERVED]
        assert not receipt.found.any()

    def test_get_does_not_cross_keys(self, index):
        index.put(0.3)
        owner = index.overlay.ring.successor_of_key(0.3)
        near_key = index.overlay.ring.position(owner)  # same owner, different key
        assert near_key != 0.3
        receipt = index.get(0, near_key)
        assert receipt.owners.tolist() == [owner] and not receipt.found.any()

    def test_put_many(self, index):
        keys = make_rng(51).random(40)
        assert index.put(*keys) == 40
        assert index.store.item_count == 40
        assert index.get(0, *keys).success.all()


class TestRangeQueries:
    def test_range_returns_exactly_in_range_items(self, index):
        keys = [float(k) for k in make_rng(52).random(200)]
        index.put(*keys)
        lo, hi = 0.2, 0.5
        assert index.range_keys(7, lo, hi) == sorted(k for k in keys if lo <= k <= hi)

    def test_wrapped_range(self, index):
        keys = [float(k) for k in make_rng(53).random(200)]
        index.put(*keys)
        assert index.range_keys(3, 0.9, 0.1) == sorted(k for k in keys if k > 0.9 or k <= 0.1)

    def test_point_range(self, index):
        index.put(0.5, 0.5001)
        assert index.range_keys(2, 0.5, 0.5) == [0.5]

    def test_range_cost_scales_with_owner_count(self, index):
        narrow = index.range(0, 0.40, 0.41)
        wide = index.range(0, 0.05, 0.95)
        assert wide.sweep_hops[0] > narrow.sweep_hops[0]
        assert (wide.hops + wide.sweep_hops)[0] >= (narrow.hops + narrow.sweep_hops)[0]


class TestStorageBalance:
    def test_skewed_items_balance_across_skewed_peers(self):
        # Peers join under the same skewed distribution as the data, so
        # per-peer item counts stay balanced — the paper's storage claim.
        index = Index(build_overlay(n=200, seed=54, cap=8, skewed=True))
        index.put(*GnutellaLikeDistribution().sample(make_rng(55), 3000))
        loads = np.bincount(index.store.holders[:, 0])
        counts = np.sort(loads[loads > 0]).astype(float)
        n = counts.size
        rank = np.arange(1, n + 1, dtype=float)
        gini = 2.0 * (rank * counts).sum() / (n * counts.sum()) - (n + 1.0) / n
        assert gini < 0.75


class TestChurnRebalance:
    def test_orphans_move_to_live_successor(self):
        overlay = build_overlay(n=150, seed=56, cap=8)
        index = Index(overlay, k=8)
        keys = make_rng(57).random(300)
        index.put(*keys)
        owners_before = index.store.holders[:, 0]

        crash_wave(overlay)
        stats = index.store.rereplicate(index.view, epoch=1)
        assert (index.store.holders[:, 0] != owners_before).any()
        # All items preserved, every copy on a live peer.
        assert stats.items_lost == 0 and index.store.item_count == 300
        assert index.store.truth_live_mask(index.store.holders).all()
        # And each item sits at its new responsible peer.
        for key, owner in zip(index.store.item_keys, index.store.holders[:, 0]):
            assert overlay.ring.successor_of_key(float(key), live_only=True) == owner

    def test_rebalance_noop_without_churn(self, index):
        index.put(0.5)
        before = index.store.holders.copy()
        stats = index.store.rereplicate(index.view, epoch=1)
        assert stats.items_lost == 0 and stats.placed == 1
        np.testing.assert_array_equal(index.store.holders, before)

    def test_gets_work_after_rebalance(self):
        overlay = build_overlay(n=100, seed=58, cap=8)
        index = Index(overlay, k=8)
        index.put(0.37)
        crash_wave(overlay)
        index.store.rereplicate(index.view, epoch=1)
        receipt = index.get(overlay.random_live_node(make_rng(59)), 0.37)
        assert receipt.success.all()


class TestReceipts:
    def test_failed_route_recorded_not_raised(self):
        overlay = OscarOverlay(OscarConfig(), seed=60, routing=RoutingConfig(budget=1))
        overlay.grow(60, UniformKeys(), ConstantDegrees(4))
        index = Index(overlay)
        index.put(0.77)
        sources = overlay.ring.ids_array(live_only=True)
        lo = np.full(sources.size, 0.77)
        gets = index.serve.serve_batch(sources, lo)
        scans = index.serve.serve_range(sources, lo, lo + 0.03)
        for receipt in (gets, scans):
            failed = receipt.outcome == Outcome.BUDGET
            assert failed.any() and not failed.all()
            assert (receipt.owners[failed] == -1).all() and (receipt.hops[failed] == 1).all()
        assert not gets.success[gets.outcome != Outcome.SERVED].any()
        assert not scans.item_count[scans.outcome != Outcome.SERVED].any()
