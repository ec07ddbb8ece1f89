"""Tier-1 tests of successor-list replication (``repro.index.replication``).

The fault-injection half of the PR-10 acceptance criteria:

* placement — the believed owner is ``successor_of_key`` over the
  believed-live set, replicas are the ``k`` clockwise believed-live
  successors, dead/believed-dead peers are skipped, short rings pad;
* the re-replication pass — restores ``k`` truth-live copies under the
  oracle, loses an item only when **every** holder crashes within one
  repair interval (the hypothesis-pinned zero-loss property), and under
  a lagging :class:`~repro.membership.probe.ProbeView` converts
  detection lag into *phantom replicas* and measurable under-replication;
* the differential — the store and its pure-Python reference twin
  (``tests/twins/``) produce bit-identical holder matrices and epoch stats;
* the non-interference contract — attaching replication to
  :class:`~repro.engine.churn.SteadyStateChurnEngine` consumes no
  randomness and leaves every ``churn`` row bit-identical.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import keys_homed_at
from repro.churn.sessions import make_sessions
from repro.degree import ConstantDegrees
from repro.engine import SteadyStateChurnEngine
from repro.errors import ConfigError
from repro.experiments.growth import make_overlay
from repro.index import ReplicatedStore
from repro.membership import DetectorConfig, OracleView, ProbeView
from repro.ring import Ring
from repro.rng import split
from repro.workloads import GnutellaLikeDistribution
from twins import ReferenceStore

#: The store of each path: the kernels, or the loops of the twin.
STORES = {True: ReplicatedStore, False: ReferenceStore}


def make_ring(n: int) -> Ring:
    """A bare live ring with peer ``i`` at position ``i / n``."""
    ring = Ring()
    ring.insert_many((i, i / n) for i in range(n))
    return ring


def build_engine(store: ReplicatedStore | None, view, overlay, seed: int = 7):
    """A churn engine over ``overlay`` with optional replication."""
    sessions = make_sessions("exponential", 8.0)
    return SteadyStateChurnEngine(
        overlay,
        GnutellaLikeDistribution(),
        ConstantDegrees(6),
        sessions,
        arrival_rate=overlay.ring.live_count / sessions.mean,
        repair_every=2,
        n_probes=0,
        seed=seed,
        membership=view,
        replication=store,
    )


class TestPlacement:
    def test_owner_is_successor_of_key(self):
        ring = make_ring(10)
        store = ReplicatedStore(ring, k=3)
        view = OracleView(ring)
        keys = np.asarray([0.05, 0.55, 0.95, 0.0])
        targets = store.successor_targets(keys, view)
        for key, row in zip(keys, targets):
            assert row[0] == ring.successor_of_key(float(key))

    def test_replicas_are_clockwise_successors(self):
        ring = make_ring(8)
        store = ReplicatedStore(ring, k=3)
        targets = store.successor_targets(np.asarray([0.26]), OracleView(ring))
        # 0.26 falls after peer 2 (0.25): owner 3, then 4, 5 clockwise.
        assert targets.tolist() == [[3, 4, 5]]

    def test_wraparound_at_end_of_ring(self):
        ring = make_ring(8)
        store = ReplicatedStore(ring, k=3)
        targets = store.successor_targets(np.asarray([0.95]), OracleView(ring))
        assert targets.tolist() == [[0, 1, 2]]

    def test_dead_peers_are_skipped(self):
        ring = make_ring(8)
        view = OracleView(ring)
        view.crash([3, 4])
        store = ReplicatedStore(ring, k=3)
        targets = store.successor_targets(np.asarray([0.26]), view)
        assert targets.tolist() == [[5, 6, 7]]

    def test_short_ring_pads_with_minus_one(self):
        ring = make_ring(2)
        store = ReplicatedStore(ring, k=3)
        targets = store.successor_targets(np.asarray([0.1]), OracleView(ring))
        assert targets.tolist() == [[1, 0, -1]]

    def test_invalid_k_and_empty_believed_set_rejected(self):
        ring = make_ring(4)
        with pytest.raises(ConfigError):
            ReplicatedStore(ring, k=0)
        OracleView(ring).crash(range(4))
        store = ReplicatedStore(ring, k=2)
        with pytest.raises(ConfigError):
            store.successor_targets(np.asarray([0.5]), OracleView(ring))

    def test_vectorized_matches_reference_targets(self):
        ring = make_ring(17)
        view = OracleView(ring)
        view.crash([2, 3, 11])
        keys = split(5, "placement").random(64)
        vec = ReplicatedStore(ring, k=4)
        ref = ReferenceStore(ring, k=4)
        np.testing.assert_array_equal(
            vec.successor_targets(keys, view), ref.successor_targets(keys, view)
        )

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_owner_is_decided_on_exact_keys_like_serve(self, vectorized):
        """An item inside a peer's ``2**-64`` key cell is placed on that
        peer — the owner ``serve_batch`` names — not on the next peer a
        float search would pick, so the healthy item is served with
        ``success``."""
        from repro.engine import ServeEngine

        from conftest import hand_built

        overlay = hand_built([2.0**-70, 0.25, 0.5, 0.75])
        view = OracleView(overlay.ring)
        store = STORES[vectorized](overlay.ring, k=1)
        store.seed_items(np.asarray([2.0**-69]), view)
        assert store.holders.tolist() == [[0]]
        serve = ServeEngine(overlay, store, view, cache_size=0, vectorized=vectorized)
        result = serve.serve_batch(np.asarray([2]), np.asarray([2.0**-69]))
        assert result.owners.tolist() == [0]
        assert result.found.all() and result.success.all() and not result.stale.any()


class TestSeeding:
    def test_seed_sorts_dedups_and_versions(self):
        ring = make_ring(8)
        store = ReplicatedStore(ring, k=3)
        placed = store.seed_items([0.7, 0.1, 0.7, 0.4], OracleView(ring))
        assert placed == 3
        assert store.item_count == 3
        assert store.item_keys.tolist() == [0.1, 0.4, 0.7]
        assert store.data_version == 1
        # Re-seeding an existing key is a no-op for it.
        assert store.seed_items([0.4, 0.2], OracleView(ring)) == 1
        assert store.item_keys.tolist() == [0.1, 0.2, 0.4, 0.7]

    def test_oracle_seeding_reaches_full_k(self):
        ring = make_ring(12)
        store = ReplicatedStore(ring, k=3)
        store.seed_items(split(0, "seed").random(20), OracleView(ring))
        assert store.replica_histogram() == (0, 0, 0, store.item_count)
        assert store.under_replicated() == 0
        stats = store.history[0]
        assert stats.epoch == 0
        assert stats.placed == 3 * store.item_count
        assert stats.phantom_replicas == 0

    def test_item_ids_are_stable_across_seeding(self):
        ring = make_ring(8)
        store = ReplicatedStore(ring, k=2)
        store.seed_items([0.5], OracleView(ring))
        store.seed_items([0.1], OracleView(ring))
        # Later items get later ids even when sorted earlier by key.
        assert store.item_keys.tolist() == [0.1, 0.5]
        assert store.item_ids.tolist() == [1, 0]


class TestRereplication:
    def test_restores_k_after_partial_crash(self):
        ring = make_ring(12)
        view = OracleView(ring)
        store = ReplicatedStore(ring, k=3)
        store.seed_items(split(1, "seed").random(10), view)
        victim = int(store.holders[0, 0])
        view.crash([victim])
        assert store.under_replicated() > 0
        stats = store.rereplicate(view, epoch=1)
        assert stats.items_lost == 0
        assert store.under_replicated() == 0
        assert store.items_lost_total == 0
        assert store.truth_live_mask(store.holders).all()

    def test_item_lost_only_when_all_holders_die(self):
        ring = make_ring(12)
        view = OracleView(ring)
        store = ReplicatedStore(ring, k=3)
        store.seed_items([0.26], view)  # holders: 4, 5, 6 (pos 4/12...)
        holders = [int(h) for h in store.holders[0]]
        view.crash(holders[:2])
        stats = store.rereplicate(view, epoch=1)
        assert stats.items_lost == 0 and store.item_count == 1
        view.crash([int(store.holders[0, c]) for c in range(store.k)])
        stats = store.rereplicate(view, epoch=2)
        assert stats.items_lost == 1
        assert store.item_count == 0
        assert store.items_lost_total == 1
        assert store.lookup_rows(np.asarray([0.26])).tolist() == [-1]

    def test_empty_store_pass_still_versions_and_records(self):
        ring = make_ring(4)
        store = ReplicatedStore(ring, k=2)
        before = store.data_version
        row = store.rereplicate(OracleView(ring), epoch=3)
        assert vars(row) == dict(
            epoch=3, items=0, items_lost=0, placed=0,
            phantom_replicas=0, under_k=0, histogram=(0, 0, 0),
        )
        assert store.data_version == before + 1
        assert ring.state.obs.table("store")["epoch"].tolist() == [3]

    def test_probe_lag_creates_phantom_replicas(self):
        ring = make_ring(24)
        view = ProbeView(ring, DetectorConfig(loss=0.0), seed=3)
        store = ReplicatedStore(ring, k=3)
        store.seed_items(split(2, "seed").random(16), view)
        victims = [int(store.holders[0, 0]), int(store.holders[4, 0])]
        view.crash(victims)
        view.record_deaths(victims, epoch=1)
        # Crashed but not yet evicted: still believed-live targets.
        stats = store.rereplicate(view, epoch=1)
        assert stats.phantom_replicas > 0
        assert stats.under_k > 0
        assert store.under_replicated() == stats.under_k

    def test_oracle_pass_never_produces_phantoms(self):
        ring = make_ring(24)
        view = OracleView(ring)
        store = ReplicatedStore(ring, k=3)
        store.seed_items(split(2, "seed").random(16), view)
        rng = split(9, "crash")
        for epoch in range(1, 6):
            view.crash_fraction(rng, 0.15)
            stats = store.rereplicate(view, epoch=epoch)
            assert stats.phantom_replicas == 0
            assert stats.under_k == 0 or ring.live_count < store.k

    def test_histogram_is_consistent(self):
        ring = make_ring(16)
        view = OracleView(ring)
        store = ReplicatedStore(ring, k=3)
        store.seed_items(split(4, "seed").random(12), view)
        view.crash_fraction(split(4, "crash"), 0.3)
        hist = store.replica_histogram()
        assert len(hist) == store.k + 1
        assert sum(hist) == store.item_count
        assert store.under_replicated() == sum(hist[: store.k])

    def test_passes_land_in_the_store_table(self):
        ring = make_ring(8)
        view = OracleView(ring)
        store = ReplicatedStore(ring, k=2)
        store.seed_items([0.3, 0.6], view)
        view.crash([int(store.holders[0, 0])])
        store.rereplicate(view, epoch=4)
        t = ring.state.obs.table("store")
        assert t["epoch"].tolist() == [0, 4] and t["items"].tolist() == [2, 2]
        assert t["histogram"].tolist() == [[0, 0, 2], [0, 0, 2]]
        assert t["placed"].tolist() == [4, 4] and t["phantom_replicas"].tolist() == [0, 0]
        assert store.items_lost_total == int(t["items_lost"].sum()) == 0


class TestDifferential:
    def test_vectorized_matches_reference_over_churn(self):
        results = []
        for vectorized in (True, False):
            ring = make_ring(32)
            view = OracleView(ring)
            store = STORES[vectorized](ring, k=3)
            store.seed_items(split(6, "seed").random(24), view)
            rng = split(6, "crash")
            for epoch in range(1, 6):
                view.crash_fraction(rng, 0.12)
                store.rereplicate(view, epoch=epoch)
            results.append((store.holders.copy(), ring.state.obs.table("store")))
        np.testing.assert_array_equal(results[0][0], results[1][0])
        assert results[0][1].keys() == results[1][1].keys()
        for name, column in results[0][1].items():
            np.testing.assert_array_equal(column, results[1][1][name])

    @given(seed=st.integers(0, 50), k=st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_truth_live_mask_twins_agree(self, seed: int, k: int):
        ring = make_ring(20)
        view = OracleView(ring)
        view.crash_fraction(split(seed, "mask-crash"), 0.4)
        ids = split(seed, "mask-ids").integers(-2, 25, size=(6, k))
        vec = ReplicatedStore(ring, k=k)
        ref = ReferenceStore(ring, k=k)
        np.testing.assert_array_equal(
            vec.truth_live_mask(ids), ref.truth_live_mask(ids)
        )


#: Catalog keys the hashed index must tell apart or find: ``0.0`` and
#: ``-0.0``, subnormals, keys sharing the ``2**-64`` cell at 0, the largest
#: float below 1.0, keys sharing one home slot and keys homed at the last
#: slot, whose chains wrap (in every table of up to 4 096 slots).
AWKWARD = np.concatenate(
    [
        [0.0, -0.0, 5e-324, 2.0**-1070, 2.0**-1022, np.nextafter(1.0, 0.0), 0.5],
        np.arange(1, 6) * 2.0**-72,
        keys_homed_at(0x5A5, 12, seed=3),
        keys_homed_at(0xFFF, 12, seed=4),
    ]
)


class TestCatalogIndex:
    @given(
        picks=st.lists(st.integers(0, AWKWARD.size - 1), max_size=AWKWARD.size),
        drawn=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=40),
        split_at=st.integers(0, 60),
        crashed=st.lists(st.integers(0, 15), max_size=15),
        k=st.integers(1, 2),
    )
    @settings(max_examples=150, deadline=None)
    def test_hashed_lookup_equals_the_sorted_search(self, picks, drawn, split_at, crashed, k):
        """The hashed ``lookup_rows`` against its sorted-search twin, on
        a catalog seeded in two calls (the index rebuilt over the merged
        rows), then after a pass that drops every item whose holders
        all crashed: asked for every catalog key, both of its one-ulp
        neighbours, ``±0.0``, every awkward key and keys outside."""
        ring = make_ring(16)
        view = OracleView(ring)
        stores = [cls(ring, k=k) for cls in (ReplicatedStore, ReferenceStore)]
        keys = np.concatenate([AWKWARD[picks], drawn])
        for part in (keys[:split_at], keys[split_at:]):
            for store in stores:
                store.seed_items(part, view)
        self.assert_twins_agree(*stores)
        view.crash(sorted(set(crashed))[:15])
        for store in stores:
            store.rereplicate(view, epoch=1)
        self.assert_twins_agree(*stores)

    @staticmethod
    def assert_twins_agree(hashed: ReplicatedStore, sorted_twin: ReplicatedStore) -> None:
        catalog = hashed.item_keys
        assert catalog.tobytes() == sorted_twin.item_keys.tobytes()
        assert hashed.lookup_rows(catalog).tolist() == list(range(catalog.size))
        queries = np.concatenate(
            [
                catalog,
                np.nextafter(catalog, -1.0),
                np.nextafter(catalog, 1.0),
                [0.0, -0.0, 0.25, 0.75],
                AWKWARD,
            ]
        )
        assert hashed.lookup_rows(queries).tolist() == sorted_twin.lookup_rows(queries).tolist()


class TestZeroLossProperty:
    @given(
        seed=st.integers(0, 40),
        k=st.integers(2, 4),
        n=st.integers(12, 32),
        rounds=st.integers(1, 6),
    )
    @settings(max_examples=30, deadline=None)
    def test_fewer_than_k_departures_per_interval_loses_nothing(
        self, seed: int, k: int, n: int, rounds: int
    ):
        """The acceptance property: with an oracle view and < k departures
        per repair interval, re-replication never loses an item."""
        ring = make_ring(n)
        view = OracleView(ring)
        store = ReplicatedStore(ring, k=k)
        store.seed_items(split(seed, "zl-seed").random(n // 2), view)
        rng = split(seed, "zl-crash")
        for epoch in range(1, rounds + 1):
            live = ring.ids_array(live_only=True)
            if live.size <= k:
                break
            departures = int(rng.integers(0, k))  # strictly < k
            victims = rng.choice(live, size=min(departures, live.size - 1), replace=False)
            view.crash([int(v) for v in victims])
            stats = store.rereplicate(view, epoch=epoch)
            assert stats.items_lost == 0
        assert store.items_lost_total == 0


class TestEngineIntegration:
    def _overlay(self, seed: int = 7, n: int = 150):
        overlay = make_overlay("oscar", seed=seed)
        overlay.grow_batch(n, GnutellaLikeDistribution(), ConstantDegrees(6))
        overlay.rewire_batch()
        return overlay

    def test_attaching_replication_never_shifts_engine_streams(self):
        histories = []
        for attach in (False, True):
            overlay = self._overlay()
            view = OracleView(overlay.ring)
            store = None
            if attach:
                store = ReplicatedStore(overlay.ring, k=3)
                store.seed_items(split(7, "items").random(100), view)
            engine = build_engine(store, view, overlay)
            histories.append([engine.run_epoch() for __ in range(6)])
        assert histories[0] == histories[1]

    def test_rereplication_rides_the_repair_epoch(self):
        overlay = self._overlay()
        view = OracleView(overlay.ring)
        store = ReplicatedStore(overlay.ring, k=3)
        store.seed_items(split(7, "items").random(100), view)
        engine = build_engine(store, view, overlay)
        for __ in range(4):
            engine.run_epoch()
        # repair_every=2 over 4 epochs: the seeding record plus 2 passes.
        pass_epochs = [s.epoch for s in store.history]
        assert pass_epochs == [0, 2, 4]

    def test_mismatched_ring_is_rejected(self):
        overlay = self._overlay()
        other = make_ring(8)
        store = ReplicatedStore(other, k=2)
        view = OracleView(overlay.ring)
        with pytest.raises(ConfigError):
            build_engine(store, view, overlay)

    def test_probe_view_turns_lag_into_data_risk(self):
        overlay = self._overlay(seed=11, n=200)
        view = ProbeView(
            overlay.ring,
            dataclasses.replace(DetectorConfig(), loss=0.1),
            seed=11,
        )
        store = ReplicatedStore(overlay.ring, k=3)
        store.seed_items(split(11, "items").random(150), view)
        engine = build_engine(store, view, overlay, seed=11)
        for __ in range(8):
            engine.run_epoch()
        phantom = sum(s.phantom_replicas for s in store.history)
        assert phantom > 0  # detection lag visible as data risk
