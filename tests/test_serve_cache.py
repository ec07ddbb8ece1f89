"""Tier-1 tests of the cached serve path (``repro.engine.serve``).

The serving half of the PR-10 acceptance criteria:

* :class:`ResultCache` units — version-stamped hits, lazy invalidation,
  LRU eviction order, counters, the capacity-0 kill switch;
* :class:`ServeSnapshot` — believed-live rows only, links to
  believed-dead peers dropped at capture, owner rows matching
  ``successor_of_key``;
* :class:`ServeEngine` — every component of the serve-version triple
  (links/membership, replica placement, probe belief) independently
  invalidates cached results; cache-enabled and cache-disabled serving
  are bit-identical under concurrent membership change; vectorized and
  reference twins agree; and the PR-5 stale-link regression — a serve
  receipt's owner is **never** a peer the membership view has evicted;
* :class:`ServingWorkload` / :class:`FlashCrowdSchedule` — fixed draw
  layout, Zipf skew, flash-crowd redirection;
* the golden serve fixture — one fixed-seed 2k-peer probe-view run,
  bit-identical to ``tests/data/golden_serve.json``.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LruModel, assert_walk_table
from repro.churn.sessions import make_sessions
from repro.config import RoutingConfig
from repro.degree import ConstantDegrees
from repro.engine import Outcome, ResultCache, ServeEngine, SteadyStateChurnEngine
from repro.engine.serve import _DELETED, _EMPTY, HASH_MULTIPLIER, pack_flags
from repro.engine.walk import WalkTable, walk_bounds
from repro.errors import ConfigError, ExperimentError
from repro.experiments.growth import make_overlay
from repro.index import ReplicatedStore
from repro.membership import DetectorConfig, OracleView, ProbeView
from repro.ring import keyspace
from repro.rng import split
from repro.workloads import FlashCrowdSchedule, GnutellaLikeDistribution, ServingWorkload

GOLDEN = Path(__file__).parent / "data" / "golden_serve.json"


def build_plane(
    n: int = 150,
    seed: int = 7,
    k: int = 3,
    n_items: int = 100,
    membership: str = "oracle",
    loss: float = 0.0,
    cache_size: int = 1 << 20,
    vectorized: bool = True,
):
    """A small data plane: overlay + view + store + serve engine."""
    overlay = make_overlay("oscar", seed=seed)
    overlay.grow_batch(n, GnutellaLikeDistribution(), ConstantDegrees(6))
    overlay.rewire_batch()
    if membership == "probe":
        view = ProbeView(overlay.ring, DetectorConfig(loss=loss), seed=seed)
    else:
        view = OracleView(overlay.ring)
    store = ReplicatedStore(overlay.ring, k=k)
    store.seed_items(split(seed, "items").random(n_items), view)
    serve = ServeEngine(overlay, store, view, cache_size=cache_size, vectorized=vectorized)
    return overlay, view, store, serve


def request_batch(view, overlay, store, seed: int, count: int = 64):
    """Believed∩truth sources plus Zipf targets over the catalog."""
    believed = view.live_ids()
    truth = overlay.ring.ids_array(live_only=True)
    pool = believed[np.isin(believed, truth, assume_unique=True)]
    return ServingWorkload(exponent=0.9).generate_arrays(
        pool, store.item_keys, split(seed, "req"), count
    )


A = (1, True, True, False)
B = (2, True, False, True)
C = (3, False, False, False)


class TestResultCache:
    def test_hit_requires_exact_version(self):
        cache = ResultCache(8)
        cache.put(0.5, ("v1",), A)
        cache.put(0.6, ("v1",), B)
        assert cache.get(0.5, ("v1",)) == A
        assert cache.hits == 1
        # A read at another version drops the whole table, eagerly.
        assert cache.get(0.5, ("v2",)) is None
        assert cache.invalidations == 2 and cache.evictions == 0
        assert cache.misses == 1
        assert len(cache) == 0
        # The version contract is monotone: going back finds nothing.
        assert cache.get(0.6, ("v1",)) is None

    def test_absent_key_is_a_miss(self):
        cache = ResultCache(8)
        assert cache.get(0.1, ("v",)) is None
        assert cache.misses == 1 and cache.hits == 0

    def test_payload_columns_round_trip(self):
        cache = ResultCache(8)
        for key, payload in ((0.1, A), (0.2, B), (0.3, C)):
            cache.put(key, "v", payload)
        assert [cache.get(k, "v") for k in (0.3, 0.1, 0.2)] == [C, A, B]
        cache.put(0.2, "v", C)  # overwrite in place
        assert cache.get(0.2, "v") == C and len(cache) == 3

    def test_lru_eviction_order(self):
        cache = ResultCache(2)
        cache.put(0.1, "v", A)
        cache.put(0.2, "v", B)
        cache.put(0.3, "v", C)  # evicts 0.1
        assert cache.evictions == 1 and cache.invalidations == 0
        assert cache.get(0.1, "v") is None
        assert cache.get(0.2, "v") == B

    def test_get_refreshes_recency(self):
        cache = ResultCache(2)
        cache.put(0.1, "v", A)
        cache.put(0.2, "v", B)
        cache.get(0.1, "v")  # 0.1 now most recent
        cache.put(0.3, "v", C)  # evicts 0.2
        assert cache.get(0.2, "v") is None
        assert cache.get(0.1, "v") == A

    def test_batch_probe_refreshes_in_request_order(self):
        keys = np.asarray([0.1, 0.2, 0.3])
        cache = ResultCache(3)
        cache.insert(keys, "v", np.asarray([1, 2, 3]), np.asarray([1, 3, 0], dtype=np.uint8))
        # 0.1 is touched last (its repeat wins), 0.3 not at all.
        hit, owners, flags = cache.probe(np.asarray([0.1, 0.2, 0.9, 0.1]), "v")
        assert hit.tolist() == [True, True, False, True]
        assert owners.tolist() == [1, 2, -1, 1] and flags.tolist() == [1, 3, 0, 1]
        cache.insert(np.asarray([0.4, 0.5]), "v", np.asarray([4, 5]), np.zeros(2, dtype=np.uint8))
        assert cache.evictions == 2  # 0.3, then 0.2
        assert cache.get(0.1, "v") == (1, True, False, False)
        assert cache.get(0.2, "v") is None and cache.get(0.3, "v") is None

    def test_capacity_zero_disables(self):
        cache = ResultCache(0)
        cache.put(0.1, "v", A)
        assert len(cache) == 0
        assert cache.get(0.1, "v") is None
        hit, __, ___ = cache.probe(np.asarray([0.1, 0.2, 0.1]), "v")
        assert not hit.any()
        assert cache.misses == 4 and cache.hits == 0  # every request still counted

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigError):
            ResultCache(-1)

    def test_clear_counts_invalidations_and_hit_rate(self):
        cache = ResultCache(8)
        assert cache.hit_rate == 0.0
        cache.put(0.1, "v", A)
        cache.put(0.2, "v", B)
        cache.get(0.1, "v")
        cache.get(0.9, "v")
        assert cache.hit_rate == 0.5
        cache.clear()
        assert cache.invalidations == 2 and len(cache) == 0
        assert cache.get(0.1, "v") is None


# Distinct floats, four of them inside the first 2**-64 keyspace cell.
KEY_POOL = np.asarray([0.0, 5e-324, 2.0**-70, 1.5 * 2.0**-70, 2.0**-12, 0.1, 0.25, 0.5, 0.75, 0.9])


class TestLruModelDifferential:
    @given(
        capacity=st.integers(0, 6),
        batches=st.lists(
            st.tuples(
                st.booleans(),  # bump the version before this batch
                st.lists(st.integers(0, KEY_POOL.size - 1), min_size=1, max_size=16),
            ),
            min_size=1,
            max_size=8,
        ),
        seed=st.integers(0, 1 << 16),
    )
    @settings(max_examples=200, deadline=None)
    def test_array_cache_serves_what_the_ordered_dict_served(self, capacity, batches, seed):
        cache, model = ResultCache(capacity), LruModel(capacity)
        rng = np.random.default_rng(seed)
        version = 0
        for bump, picks in batches:
            version += int(bump)
            keys = KEY_POOL[picks]
            owners = rng.integers(0, 100, size=keys.size)
            flags = rng.integers(0, 8, size=keys.size).astype(np.uint8)

            hit, got_owners, got_flags = cache.probe(keys, version)
            miss = ~hit
            cache.insert(keys[miss], version, owners[miss], flags[miss])

            want = [model.get(float(key), version) for key in keys]
            for key, served, owner, flag in zip(keys, want, owners, flags):
                if served is None:
                    model.put(float(key), version, (int(owner), int(flag)))

            assert hit.tolist() == [served is not None for served in want]
            assert [
                (int(o), int(f)) for o, f in zip(got_owners[hit], got_flags[hit])
            ] == [served for served in want if served is not None]
            assert (cache.hits, cache.misses) == (model.hits, model.misses)
            live = model.live_keys(version)
            assert len(cache) == len(live)
            replica = copy.deepcopy(cache)  # reading must not disturb recency
            assert {float(k) for k in KEY_POOL if replica.get(float(k), version) is not None} == live


ONE_BITS = 0x3FF0_0000_0000_0000  # the bits of 1.0


def keys_homed_at(top: int, count: int, seed: int) -> np.ndarray:
    """``count`` distinct keys in ``[0, 1)`` whose hash product ``bits *
    HASH_MULTIPLIER`` starts with the 12 bits ``top``. A table of ``2**k``
    slots homes a key at the product's top ``k`` bits, so these keys share
    one home slot in every table of up to 4 096 slots; ``top = 0xFFF``
    homes them at the last slot, and their chains wrap to slot 0."""
    inverse = pow(int(HASH_MULTIPLIER), -1, 1 << 64)
    rng = np.random.default_rng(seed)
    found: list[int] = []
    while len(found) < count:
        bits = ((top << 52) | int(rng.integers(1 << 52))) * inverse % (1 << 64)
        if bits < ONE_BITS and bits not in found:
            found.append(bits)
    return np.asarray(found, dtype=np.uint64).view(np.float64)


SHARED = keys_homed_at(0x5A5, 16, seed=1)
LAST = keys_homed_at(0xFFF, 16, seed=2)
COLLIDING = np.concatenate([SHARED, LAST, KEY_POOL])


def bits_of(keys) -> list[int]:
    return np.asarray(keys, dtype=np.float64).view(np.uint64).tolist()


def assert_slots_consistent(cache: ResultCache) -> None:
    """The slot columns agree with the counts, a slot without an entry
    holds the fill values, live plus deleted slots stay within half the
    table, and every entry is reachable: no empty slot lies between its
    home and its slot."""
    table_bits, stamp, owner, flags = cache._slots
    size = table_bits.size
    live = table_bits < _DELETED
    assert size & (size - 1) == 0
    assert int(live.sum()) == len(cache) and int((table_bits == _DELETED).sum()) == cache._deleted
    assert 2 * (len(cache) + cache._deleted) <= size
    assert (stamp[~live] == np.iinfo(np.int64).max).all()
    assert (owner[~live] == -1).all() and (flags[~live] == 0).all()
    homes = cache._home(table_bits[live])
    for home, slot in zip(homes.tolist(), np.flatnonzero(live).tolist()):
        chain = [(home + i) % size for i in range((slot - home) % size)]
        assert _EMPTY not in table_bits[chain]


class TestCollidingKeys:
    """Keys that share one home slot, or whose home is the last slot so
    their chains wrap past it, against the ``OrderedDict`` model: long
    chains, evictions in the middle of one, re-inserts into deleted
    slots and rehashes — cases ``KEY_POOL``'s ten keys cannot reach."""

    def test_pool_homes(self):
        for size in (64, 256, 4096):
            cache = ResultCache(1)
            cache._slots = tuple(np.resize(column, size) for column in cache._slots)
            assert set(cache._home(SHARED.view(np.uint64)).tolist()) == {0x5A5 * size >> 12}
            assert set(cache._home(LAST.view(np.uint64)).tolist()) == {size - 1}

    @given(
        capacity=st.integers(1, 64),
        batches=st.lists(
            st.tuples(
                st.sampled_from([False, False, False, True]),  # bump the version first
                st.lists(st.integers(0, COLLIDING.size - 1), min_size=1, max_size=40),
            ),
            min_size=1,
            max_size=10,
        ),
        seed=st.integers(0, 1 << 16),
    )
    @settings(max_examples=200, deadline=None)
    def test_colliding_keys_serve_what_the_ordered_dict_served(self, capacity, batches, seed):
        cache, model = ResultCache(capacity), LruModel(capacity)
        rng = np.random.default_rng(seed)
        version = 0
        for bump, picks in batches:
            version += int(bump)
            keys = COLLIDING[picks]
            owners = rng.integers(0, 100, size=keys.size)
            flags = rng.integers(0, 8, size=keys.size).astype(np.uint8)

            hit, got_owners, got_flags = cache.probe(keys, version)
            miss = ~hit
            cache.insert(keys[miss], version, owners[miss], flags[miss])

            want = [model.get(float(key), version) for key in keys]
            for key, served, owner, flag in zip(keys, want, owners, flags):
                if served is None:
                    model.put(float(key), version, (int(owner), int(flag)))

            assert hit.tolist() == [served is not None for served in want]
            assert [
                (int(o), int(f)) for o, f in zip(got_owners[hit], got_flags[hit])
            ] == [served for served in want if served is not None]
            assert (cache.hits, cache.misses) == (model.hits, model.misses)
            assert_slots_consistent(cache)
            live = model.live_keys(version)
            assert len(cache) == len(live)
            replica = copy.deepcopy(cache)  # reading must not disturb recency
            assert {float(k) for k in COLLIDING if replica.get(float(k), version)} == live

    def test_chain_runs_past_a_tombstone_that_a_new_key_then_takes(self):
        a, b, c, d, e = SHARED[:5]
        cache = ResultCache(3)
        for key, payload in ((a, A), (b, B), (c, C)):
            cache.put(key, "v", payload)
        home = 0x5A5 * cache._slots[0].size >> 12
        chain = [home, home + 1, home + 2, home + 3]
        assert cache._slots[0][chain].tolist() == bits_of([a, b, c]) + [int(_EMPTY)]
        cache.get(b, "v")
        cache.get(c, "v")  # a is now the least recently used
        cache.put(d, "v", A)  # d lands after c, then a goes: the chain's head is a tombstone
        assert cache._slots[0][chain].tolist() == [int(_DELETED)] + bits_of([b, c, d])
        assert [cache.get(key, "v") for key in (a, b, c, d)] == [None, B, C, A]
        cache.put(e, "v", B)  # absent past the tombstone; takes it, and b goes
        assert cache._slots[0][chain].tolist() == bits_of([e]) + [int(_DELETED)] + bits_of([c, d])
        assert [cache.get(key, "v") for key in (b, c, d, e)] == [None, C, A, B]
        assert (len(cache), cache._deleted, cache.evictions) == (3, 1, 2)
        assert_slots_consistent(cache)

    def test_chain_wraps_past_the_last_slot(self):
        cache = ResultCache(8)
        for key in LAST[:3]:
            cache.put(key, "v", A)
        last = cache._slots[0].size - 1
        assert cache._slots[0][[last, 0, 1, 2]].tolist() == bits_of(LAST[:3]) + [int(_EMPTY)]
        assert [cache.get(key, "v") for key in LAST[:4]] == [A, A, A, None]
        assert_slots_consistent(cache)

    def test_rehash_keeps_every_entry_and_clear_keeps_the_slots(self):
        cache = ResultCache(40)
        owners = np.arange(COLLIDING.size)
        flags = np.zeros(COLLIDING.size, dtype=np.uint8)
        cache.insert(COLLIDING[:30], "v", owners[:30], flags[:30])
        assert cache._slots[0].size == 64
        cache.insert(COLLIDING[30:], "v", owners[30:], flags[30:])
        # 42 keys pass half of 64 slots: rehashed to 4 slots per key,
        # then the two oldest entries go.
        assert cache._slots[0].size == 256 and cache.evictions == 2
        hit, got, __ = cache.probe(COLLIDING, "v")
        assert hit.tolist() == [False, False] + [True] * 40
        assert got[hit].tolist() == owners[2:].tolist()
        assert_slots_consistent(cache)
        cache.clear()
        assert cache._slots[0].size == 256 and (cache._slots[0] == _EMPTY).all()
        assert_slots_consistent(cache)


HOSTILE = {
    "nan": np.nan,
    "inf": np.inf,
    "-inf": -np.inf,
    "negative": -0.25,
    "negative-denormal": -5e-324,
    "one": 1.0,
    "two": 2.0,
    "empty-sentinel-nan": np.uint64(2**64 - 1).view(np.float64),
    "deleted-sentinel-nan": np.uint64(2**64 - 2).view(np.float64),
}


class TestCacheRefusesHostileKeys:
    """``probe``, ``insert``, ``get`` and ``put`` refuse a key whose bits
    are not below those of 1.0 before any counter, version or slot
    changes — at the cache's version and at a new one, which would drop
    the table were the check late."""

    @staticmethod
    def state_of(cache: ResultCache) -> tuple:
        counters = (cache.hits, cache.misses, cache.evictions, cache.invalidations)
        return (
            counters,
            (cache._clock, cache._version, len(cache), cache._deleted),
            [column.tobytes() for column in cache._slots],
        )

    def test_sentinel_nans_keep_their_bits(self):
        for name, sentinel in (("empty-sentinel-nan", _EMPTY), ("deleted-sentinel-nan", _DELETED)):
            assert (np.asarray([HOSTILE[name]]) + 0.0).view(np.uint64)[0] == sentinel

    @pytest.mark.parametrize("bad", HOSTILE.values(), ids=HOSTILE.keys())
    @pytest.mark.parametrize("capacity", [0, 4])
    def test_every_entry_point_refuses_before_anything_changes(self, capacity, bad):
        cache = ResultCache(capacity)
        cache.insert(KEY_POOL[5:], "v", np.arange(5), np.ones(5, dtype=np.uint8))
        cache.probe(KEY_POOL[6:8], "v")
        before = self.state_of(cache)
        keys = np.asarray([0.25, bad, 0.5])
        owners, flags = np.arange(3), np.zeros(3, dtype=np.uint8)
        for version in ("v", "w"):
            with pytest.raises(keyspace.KeyspaceError):
                cache.probe(keys, version)
            with pytest.raises(keyspace.KeyspaceError):
                cache.insert(keys, version, owners, flags)
            with pytest.raises(keyspace.KeyspaceError):
                cache.get(float(bad), version)
            with pytest.raises(keyspace.KeyspaceError):
                cache.put(float(bad), version, A)
        assert self.state_of(cache) == before

    def test_negative_zero_is_zero(self):
        cache = ResultCache(4)
        cache.put(-0.0, "v", A)
        assert cache.get(0.0, "v") == A and len(cache) == 1


class TestServeSnapshot:
    def test_owner_rows_match_successor_of_key(self):
        overlay, view, store, serve = build_plane()
        snap = serve.serve_snapshot()
        keys = split(3, "probe-keys").random(32)
        rows = snap.owner_rows(keyspace.from_units(keys))
        for key, row in zip(keys, rows):
            assert int(snap.ids[row]) == overlay.ring.successor_of_key(float(key))

    def test_believed_dead_peers_are_excluded(self):
        overlay, view, store, serve = build_plane()
        victim = int(view.live_ids()[0])
        view.crash([victim])
        snap = serve.serve_snapshot()
        assert victim not in snap.ids
        assert snap.row_of[victim] == -1
        assert snap.size == view.live_ids().size
        # Every candidate is a believed row: the table holds each row's
        # links to believed-live peers, and nothing else.
        assert_walk_table(
            snap.table,
            [
                [int(snap.row_of[t]) for t in overlay.state.out_links[slot] if t >= 0]
                for slot in view.live_slots().tolist()
            ],
        )

    def test_successor_column_is_the_believed_ring(self):
        """Under belief the successor of row ``i`` is row ``i + 1``
        (wrapping) — never the ``-1`` a truth snapshot can hold."""
        overlay, view, store, serve = build_plane()
        view.crash([int(i) for i in view.live_ids()[::7]])
        snap = serve.serve_snapshot()
        m = snap.size
        np.testing.assert_array_equal(snap.table.succ_row, (np.arange(m) + 1) % m)
        np.testing.assert_array_equal(snap.table.offsets[:, 0], np.full(m, 1 % m))

    def test_empty_believed_set_rejected(self):
        overlay, view, store, serve = build_plane(n=20, n_items=5)
        for i in view.live_ids():
            overlay.ring.mark_dead(int(i))
        with pytest.raises(ConfigError):
            serve.serve_snapshot()

    def test_snapshot_cached_per_version(self):
        overlay, view, store, serve = build_plane()
        first = serve.serve_snapshot()
        assert serve.serve_snapshot() is first  # unchanged version
        store.rereplicate(view, epoch=1)  # bumps data_version
        assert serve.serve_snapshot() is not first


class TestServeEngine:
    def test_ring_mismatch_rejected(self):
        overlay, view, store, __ = build_plane()
        other, other_view, other_store, ___ = build_plane(seed=9)
        with pytest.raises(ConfigError):
            ServeEngine(overlay, other_store, view)
        with pytest.raises(ConfigError):
            ServeEngine(overlay, store, other_view)

    def test_quiet_ring_serves_everything(self):
        overlay, view, store, serve = build_plane()
        sources, targets = request_batch(view, overlay, store, seed=1)
        result = serve.serve_batch(sources, targets)
        d = result.as_dict()
        assert d["requests"] == 64
        assert d["found"] == 64
        assert d["successes"] == 64
        assert d["stale_serves"] == 0
        assert d["cache_hits"] < 64

    def test_second_batch_is_all_hits_with_zero_hops(self):
        overlay, view, store, serve = build_plane()
        sources, targets = request_batch(view, overlay, store, seed=1)
        cold = serve.serve_batch(sources, targets)
        warm = serve.serve_batch(sources, targets)
        assert warm.hit.all()
        assert warm.hops.sum() == 0
        np.testing.assert_array_equal(warm.owners, cold.owners)
        np.testing.assert_array_equal(warm.success, cold.success)

    def test_mismatched_shapes_rejected(self):
        __, view, store, serve = build_plane()
        with pytest.raises(ValueError):
            serve.serve_batch(np.asarray([1, 2]), np.asarray([0.5]))

    def test_unknown_or_believed_dead_source_rejected(self):
        """The request is rejected — failed, unrouted, uncached — and
        nothing is raised."""
        overlay, view, store, serve = build_plane()
        key = float(store.item_keys[0])
        max_id = int(overlay.ring.ids_array(live_only=False).max())
        victim = int(view.live_ids()[3])
        view.crash([victim])
        for source in (-2, -1, max_id + 1, max_id + 5, 10**6, victim):
            r = serve.serve_batch(np.asarray([source]), np.asarray([key]))
            assert r.outcome.tolist() == [Outcome.BAD_SOURCE]
            assert r.owners.tolist() == [-1] and r.hops.tolist() == [0]
            assert not (r.hit[0] or r.found[0] or r.success[0] or r.stale[0])
        assert len(serve.result_cache) == 0
        assert serve.result_cache.misses == 6

    def test_one_bad_source_fails_only_its_own_row(self):
        absent = 0.123456789  # in no catalog, so in no other request
        clean_plane, poisoned_plane = build_plane(), build_plane()
        overlay, view, store, serve = clean_plane
        sources, targets = request_batch(view, overlay, store, seed=1)
        targets[5] = absent
        clean = serve.serve_batch(sources, targets)
        assert (clean.outcome == Outcome.SERVED).all()

        serve = poisoned_plane[3]
        poisoned_sources = sources.copy()
        poisoned_sources[5] = -1
        poisoned = serve.serve_batch(poisoned_sources, targets)
        others = np.arange(sources.size) != 5
        for column in ("owners", "outcome", "hit", "found", "success", "stale", "hops"):
            np.testing.assert_array_equal(
                getattr(poisoned, column)[others], getattr(clean, column)[others], column
            )
        assert poisoned.outcome[5] == Outcome.BAD_SOURCE
        assert poisoned.owners[5] == -1 and poisoned.hops[5] == 0
        assert not (poisoned.hit[5] or poisoned.success[5])
        # The failed request was not cached; everything else was.
        again = serve.serve_batch(sources, targets)
        assert again.hit.tolist() == others.tolist()
        assert again.outcome[5] == Outcome.SERVED

    def test_cache_hit_never_consults_the_source(self):
        overlay, view, store, serve = build_plane()
        sources, targets = request_batch(view, overlay, store, seed=1)
        cold = serve.serve_batch(sources, targets)
        warm = serve.serve_batch(np.full_like(sources, -1), targets)
        assert warm.hit.all() and (warm.outcome == Outcome.SERVED).all()
        np.testing.assert_array_equal(warm.success, cold.success)

    def test_repeats_of_a_key_inside_one_batch_all_miss(self):
        overlay, view, store, serve = build_plane()
        source = int(view.live_ids()[0])
        key = float(store.item_keys[0])
        first = serve.serve_batch(np.full(3, source), np.full(3, key))
        assert not first.hit.any() and first.success.all()
        assert serve.serve_batch(np.full(3, source), np.full(3, key)).hit.all()

    def test_budget_exhaustion_fails_only_its_own_rows(self):
        overlay, view, store, serve = build_plane()
        sources, targets = request_batch(view, overlay, store, seed=2)
        free = serve.serve_batch(sources, targets)
        budget = int(np.median(free.hops))
        over = free.hops > budget
        assert over.any() and not over.all()
        serve.invalidate()
        serve.routing = RoutingConfig(budget=budget)
        capped = serve.serve_batch(sources, targets)
        assert (capped.outcome[over] == Outcome.BUDGET).all()
        assert (capped.hops[over] == budget).all() and (capped.owners[over] == -1).all()
        assert not capped.success[over].any()
        for column in ("outcome", "hops", "owners", "success", "found"):
            np.testing.assert_array_equal(
                getattr(capped, column)[~over], getattr(free, column)[~over]
            )

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_failed_walks_fail_alone_and_are_not_cached(self, vectorized):
        """A stuck, an over-budget and a pointer-less request beside
        good ones: every row of the batch is what that request gets
        when served alone. Belief never produces a self-loop or a
        missing pointer, so the snapshot's successor column is doctored."""
        overlay, view, store, serve = build_plane(vectorized=vectorized)
        sources, targets = request_batch(view, overlay, store, seed=4, count=48)
        __, first = np.unique(targets, return_index=True)  # one request per key
        sources, targets = sources[first], targets[first]
        clean = serve.serve_batch(sources, targets)
        assert (clean.outcome == Outcome.SERVED).all()
        budget = int(np.median(clean.hops))
        assert 0 < budget < clean.hops.max()
        snap = serve.serve_snapshot()
        loop, hole = snap.row_of[sources[np.flatnonzero(clean.hops > 0)[:2]]]
        succ_row = snap.table.succ_row.copy()
        succ_row[loop], succ_row[hole] = loop, -1
        links = overlay.state.link_rows(view.live_slots(), snap.row_of)
        doctored = WalkTable.build(snap.keys, succ_row, links)
        serve._serve_cache = dataclasses.replace(snap, table=doctored)
        serve.routing = RoutingConfig(budget=budget)

        def uncached(lo, hi):
            serve.result_cache.clear()
            return serve.serve_batch(sources[lo:hi], targets[lo:hi])

        alone = [uncached(i, i + 1) for i in range(sources.size)]
        batch = uncached(0, sources.size)
        for column in ("outcome", "hops", "owners", "hit", "found", "success", "stale"):
            np.testing.assert_array_equal(
                getattr(batch, column), np.concatenate([getattr(r, column) for r in alone])
            )
        assert set(batch.outcome.tolist()) == set(Outcome) - {Outcome.BAD_SOURCE}
        failed = batch.outcome != Outcome.SERVED
        assert (batch.owners[failed] == -1).all() and not batch.success[failed].any()
        assert (batch.hops[batch.outcome == Outcome.BUDGET] == budget).all()
        assert len(serve.result_cache) == int((~failed).sum())
        again = serve.serve_batch(sources, targets)
        np.testing.assert_array_equal(again.hit, ~failed)
        np.testing.assert_array_equal(again.outcome, batch.outcome)

    def test_absent_key_is_found_false(self):
        overlay, view, store, serve = build_plane()
        source = int(view.live_ids()[0])
        result = serve.serve_batch(np.asarray([source]), np.asarray([0.123456789]))
        assert not result.found[0] and not result.success[0]


class TestVersionTriple:
    def test_data_version_invalidates(self):
        overlay, view, store, serve = build_plane()
        sources, targets = request_batch(view, overlay, store, seed=3)
        serve.serve_batch(sources, targets)
        assert serve.serve_batch(sources, targets).hit.all()
        store.rereplicate(view, epoch=1)
        assert not serve.serve_batch(sources, targets).hit.any()

    def test_membership_change_invalidates(self):
        overlay, view, store, serve = build_plane()
        sources, targets = request_batch(view, overlay, store, seed=3)
        serve.serve_batch(sources, targets)
        before = serve.serve_version
        victim = int(view.live_ids()[-1])
        view.crash([victim])  # oracle: ring membership version moves
        assert serve.serve_version != before
        safe = sources[sources != victim]
        assert not serve.serve_batch(safe, targets[sources != victim]).hit.any()

    def test_probe_eviction_invalidates(self):
        overlay, view, store, serve = build_plane(membership="probe")
        sources, targets = request_batch(view, overlay, store, seed=4)
        serve.serve_batch(sources, targets)
        before = serve.serve_version
        victim = int(view.live_ids()[0])
        view.crash([victim])
        view.record_deaths([victim], epoch=1)
        epoch = 1
        while view.evictions == 0:
            view.advance(epoch)
            epoch += 1
            assert epoch < 50, "detector failed to evict"
        assert serve.serve_version != before

    def test_explicit_invalidate_clears_everything(self):
        overlay, view, store, serve = build_plane()
        sources, targets = request_batch(view, overlay, store, seed=5)
        serve.serve_batch(sources, targets)
        serve.invalidate()
        assert len(serve.result_cache) == 0
        assert not serve.serve_batch(sources, targets).hit.any()


class TestDifferential:
    def _run_epochs(self, cache_size: int, vectorized: bool, seed: int = 13):
        overlay = make_overlay("oscar", seed=seed)
        overlay.grow_batch(200, GnutellaLikeDistribution(), ConstantDegrees(6))
        overlay.rewire_batch()
        view = OracleView(overlay.ring)
        store = ReplicatedStore(overlay.ring, k=3)
        store.seed_items(split(seed, "items").random(120), view)
        sessions = make_sessions("exponential", 12.0)
        engine = SteadyStateChurnEngine(
            overlay,
            GnutellaLikeDistribution(),
            ConstantDegrees(6),
            sessions,
            arrival_rate=200 / sessions.mean,
            repair_every=1,
            n_probes=0,
            seed=seed,
            membership=view,
            replication=store,
        )
        serve = ServeEngine(
            overlay, store, view, cache_size=cache_size, vectorized=vectorized
        )
        outcomes = []
        for e in range(1, 5):
            engine.run_epoch()
            sources, targets = request_batch(view, overlay, store, seed=seed + e)
            for __ in range(2):  # cold then warm pass
                r = serve.serve_batch(sources, targets)
                outcomes.append(
                    (
                        r.owners.tolist(),
                        r.found.tolist(),
                        r.success.tolist(),
                        r.stale.tolist(),
                        r.hops.tolist(),
                    )
                )
        return outcomes

    def test_cache_on_equals_cache_off_under_churn(self):
        cached = self._run_epochs(cache_size=1 << 20, vectorized=True)
        uncached = self._run_epochs(cache_size=0, vectorized=True)
        # Hops differ (cache hits charge 0), every outcome must not.
        for c, u in zip(cached, uncached):
            assert c[:4] == u[:4]

    def test_vectorized_equals_reference_under_churn(self):
        vec = self._run_epochs(cache_size=1 << 20, vectorized=True)
        ref = self._run_epochs(cache_size=1 << 20, vectorized=False)
        assert vec == ref

    def test_distinct_keys_inside_one_keyspace_cell_stay_distinct(self):
        """Two floats below ``2**-11`` share the ``2**-64`` cell 0 —
        one a catalog item, one not. The cache must not serve one for
        the other: cache-on ≡ cache-off, vectorized ≡ reference."""
        item, not_item = 2.0**-70, 1.5 * 2.0**-70
        assert keyspace.from_unit(item) == keyspace.from_unit(not_item)
        runs = []
        for cache_size, vectorized in ((1 << 20, True), (0, True), (1 << 20, False)):
            overlay, view, store, serve = build_plane(
                cache_size=cache_size, vectorized=vectorized
            )
            store.seed_items([item], view)
            sources = view.live_ids()[:4]
            targets = np.asarray([item, not_item, not_item, item])
            passes = [serve.serve_batch(sources, targets) for __ in range(2)]
            assert passes[1].hit.all() == bool(cache_size)
            for r in passes:
                assert r.found.tolist() == [True, False, False, True]
                assert r.success.tolist() == [True, False, False, True]
            runs.append([(r.owners.tolist(), r.stale.tolist()) for r in passes])
        assert runs[0] == runs[1] == runs[2]


def spelled_out_bounds(keys, targets):
    """The walk bound from two plain searches: the lowest row keyed at
    the target when one is (``side="left"``), else the last row keyed
    below it (``side="right"`` less one; ``-1`` when there is none)."""
    left = np.searchsorted(keys, targets)
    right = np.searchsorted(keys, targets, side="right")
    return np.where(left < right, left, right - 1)


class TestCatalogColumns:
    """A capture answers every catalog item once: its owner row, walk
    bound and packed verdict equal ``owner_rows``, the bound spelled out
    from two plain searches and the reference ``_verify`` asked per
    request."""

    @staticmethod
    def assert_columns_are_per_request_answers(serve):
        snap, store = serve.serve_snapshot(), serve.store
        targets = keyspace.from_units(store.item_keys)
        owner = snap.owner_rows(targets)
        reference = ServeEngine(serve.substrate, store, serve.membership, vectorized=False)
        verdict = pack_flags(*reference._verify(store.item_keys, snap.ids[owner]))
        bound = spelled_out_bounds(snap.keys, targets)
        assert snap.item_owner.size == snap.item_bound.size == store.item_count + 1
        assert snap.item_owner[:-1].tolist() == owner.tolist()
        assert snap.item_bound[:-1].tolist() == bound.tolist()
        assert snap.item_flags[:-1].tolist() == verdict.tolist()

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(8, 60),
        n_items=st.integers(0, 40),
        on_ring=st.integers(0, 6),
        joins=st.integers(0, 6),
        crashes=st.integers(0, 4),
    )
    def test_columns_equal_per_request_answers(self, seed, n, n_items, on_ring, joins, crashes):
        """Empty catalogs, items on a peer's own key (one ``2**-64``
        cell: that peer owns it, the bound is its row), owners that
        joined after placement (they hold nothing yet) and owners
        crashed but not yet evicted under a ``ProbeView`` (stale)."""
        overlay, view, store, serve = build_plane(
            n=n, seed=seed, n_items=n_items, membership="probe"
        )
        rng = split(seed, "catalog-columns")
        positions = overlay.ring.positions_array(live_only=True)
        store.seed_items(rng.choice(positions, size=min(on_ring, positions.size)), view)
        overlay.grow_batch(n + joins, GnutellaLikeDistribution(), ConstantDegrees(6))
        if store.item_count and crashes:
            keys = rng.choice(store.item_keys, size=crashes)
            owners = sorted({overlay.ring.successor_of_key(float(k)) for k in keys})
            view.crash(owners)
            view.record_deaths(owners, epoch=1)
            assert np.isin(owners, view.live_ids()).all()  # believed alive: the lag window
        self.assert_columns_are_per_request_answers(serve)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_items=st.integers(0, 30),
        outside=st.integers(0, 12),
        crashes=st.integers(0, 3),
    )
    def test_mixed_batches_vectorized_equals_reference(self, seed, n_items, outside, crashes):
        """Catalog and non-catalog keys (random, and on peers' own keys)
        in one batch, some owners stale: the catalog path and the
        masked per-request path together equal the reference twin."""
        planes = [
            build_plane(n=40, seed=seed, n_items=n_items, membership="probe", vectorized=v)
            for v in (True, False)
        ]
        rng = split(seed, "mixed-batch")
        overlay, view, store, __ = planes[0]
        positions = overlay.ring.positions_array(live_only=True)
        others = np.concatenate([rng.random(outside), rng.choice(positions, size=outside)])
        catalog = rng.choice(store.item_keys, size=24) if store.item_count else np.empty(0)
        keys = np.concatenate([catalog, others])
        victims = sorted(int(v) for v in rng.choice(view.live_ids(), size=crashes, replace=False))
        sources = rng.choice(view.live_ids(), size=keys.size)
        runs = []
        for __, plane_view, __, serve in planes:
            plane_view.crash(victims)
            runs.append([serve.serve_batch(sources, keys) for __ in range(2)])
        for vec, ref in zip(*runs):
            for name in (field.name for field in dataclasses.fields(vec)):
                assert np.array_equal(getattr(vec, name), getattr(ref, name)), name

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_owner_from_the_bound_search_in_shared_cells(self, seed):
        """Raw sorted keys, several rows to a cell, targets on and off
        the rows' keys: ``walk_bounds`` gives the lowest row keyed at the
        target, else the last row keyed below it, and the owner — the
        ``side="left"`` search mod ``m`` — is the bound when it is keyed
        at the target, else the row after it. A walk table takes the
        keys only when no two rows share a cell (the ring's rule), and
        then its bounds are the same."""
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 14))
        keys = np.sort(rng.integers(0, 6, size=m, dtype=np.uint64) << np.uint64(60))
        targets = np.concatenate(
            [
                keys[rng.integers(0, m, size=6)],
                rng.integers(0, 6, size=4, dtype=np.uint64) << np.uint64(60),
                rng.integers(0, 2**64, size=6, dtype=np.uint64, endpoint=False),
            ]
        )
        bounds = walk_bounds(keys, targets, np.searchsorted(keys, targets))
        assert bounds.tolist() == spelled_out_bounds(keys, targets).tolist()
        succ_row, links = (np.arange(m) + 1) % m, np.empty((m, 0), dtype=np.int64)
        if np.unique(keys).size < m:
            with pytest.raises(ValueError, match="strictly increase"):
                WalkTable.build(keys, succ_row, links)
        else:
            table = WalkTable.build(keys, succ_row, links)
            assert table.bounds(targets).tolist() == bounds.tolist()
        owners = np.where(keys[bounds] == targets, bounds, bounds + 1) % m
        assert owners.tolist() == (np.searchsorted(keys, targets) % m).tolist()


class TestHostileKeys:
    """Keys the keyspace cannot hold raise at the ``serve_batch``
    boundary before any counter, cache row or snapshot changes."""

    @staticmethod
    def state_of(serve):
        cache = serve.result_cache
        return (
            (cache.hits, cache.misses, cache.evictions, cache.invalidations, cache._clock),
            (len(cache), cache._deleted, [column.tobytes() for column in cache._slots]),
            serve.stale_serves,
            serve._serve_cache,
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.0, -0.25, 2.0])
    def test_bad_key_raises_before_anything_changes(self, bad):
        overlay, view, store, serve = build_plane()
        sources, targets = request_batch(view, overlay, store, seed=4)
        serve.serve_batch(sources, targets)  # a snapshot and cached rows to keep
        store.seed_items([0.123], view)  # a new version: the next serve would re-capture
        before = self.state_of(serve)
        targets = targets.copy()
        targets[5] = bad
        with pytest.raises(keyspace.KeyspaceError):
            serve.serve_batch(sources, targets)
        with pytest.raises(keyspace.KeyspaceError):
            serve.serve_range(sources, targets, targets)
        after = self.state_of(serve)
        assert after[:3] == before[:3]
        assert after[3] is before[3]

    @pytest.mark.parametrize("bad", [np.nan, 1.0, -0.25])
    def test_catalog_refuses_keys_the_keyspace_cannot_hold(self, bad):
        overlay, view, store, serve = build_plane()
        before = (store.item_keys.tolist(), store.data_version, len(store.history))
        with pytest.raises(keyspace.KeyspaceError):
            store.seed_items([0.5, bad], view)
        assert (store.item_keys.tolist(), store.data_version, len(store.history)) == before

    def test_misaligned_raises_value_error_first(self):
        overlay, view, store, serve = build_plane()
        with pytest.raises(ValueError, match="aligned"):
            serve.serve_batch(view.live_ids()[:3], np.asarray([np.nan, 0.5]))
        assert serve._serve_cache is None and serve.result_cache.misses == 0

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_negative_zero_is_served_as_zero(self, vectorized):
        results = []
        for zero in (0.0, -0.0):
            overlay, view, store, serve = build_plane(vectorized=vectorized)
            store.seed_items([0.0], view)
            sources = view.live_ids()[:3]
            targets = np.asarray([zero, 0.5, zero])
            results.append([serve.serve_batch(sources, targets) for __ in range(2)])
        for plus, minus in zip(*results):
            assert np.array_equal(plus.target_keys, minus.target_keys)  # -0.0 == 0.0
            for name in ("owners", "outcome", "hit", "found", "success", "stale", "hops"):
                assert np.array_equal(getattr(plus, name), getattr(minus, name)), name
        assert results[1][0].found[0] and results[1][1].hit[0]


class TestStaleServes:
    def test_owner_is_never_a_believed_dead_peer(self):
        """PR-5 regression, serve-path edition: receipts must never name
        an owner outside the believed-live set, even while crashed peers
        linger undetected."""
        overlay, view, store, serve = build_plane(membership="probe", loss=0.1, seed=21)
        rng = split(21, "crash")
        believed = view.live_ids()
        victims = [int(v) for v in rng.choice(believed, size=20, replace=False)]
        view.crash(victims)
        view.record_deaths(victims, epoch=1)
        sources, targets = request_batch(view, overlay, store, seed=6, count=256)
        result = serve.serve_batch(sources, targets)
        assert np.isin(result.owners, view.live_ids()).all()

    def test_truth_dead_owner_is_a_counted_stale_failure(self):
        overlay, view, store, serve = build_plane(membership="probe", seed=23)
        key = float(store.item_keys[10])
        owner = int(overlay.ring.successor_of_key(key))
        view.crash([owner])
        view.record_deaths([owner], epoch=1)
        assert view.is_live(owner)  # believed alive: the lag window
        source = int(view.live_ids()[0]) if int(view.live_ids()[0]) != owner else int(
            view.live_ids()[1]
        )
        result = serve.serve_batch(np.asarray([source]), np.asarray([key]))
        assert result.stale[0]
        assert not result.success[0]
        assert serve.stale_serves == 1


class TestServingWorkload:
    def test_generation_is_deterministic(self):
        pool = np.arange(10, dtype=np.int64)
        keys = np.sort(split(0, "cat").random(50))
        w = ServingWorkload(exponent=0.9)
        a = w.generate_arrays(pool, keys, split(1, "req"), 128)
        b = w.generate_arrays(pool, keys, split(1, "req"), 128)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_sources_come_from_the_pool(self):
        pool = np.asarray([3, 8, 44], dtype=np.int64)
        keys = np.sort(split(0, "cat").random(20))
        sources, targets = ServingWorkload().generate_arrays(
            pool, keys, split(2, "req"), 100
        )
        assert np.isin(sources, pool).all()
        assert np.isin(targets, keys).all()

    def test_zipf_skew_concentrates_on_low_ranks(self):
        pool = np.arange(4, dtype=np.int64)
        keys = np.sort(split(0, "cat").random(200))
        flat = ServingWorkload(exponent=0.0)
        skew = ServingWorkload(exponent=1.2)
        __, flat_t = flat.generate_arrays(pool, keys, split(3, "req"), 4000)
        __, skew_t = skew.generate_arrays(pool, keys, split(3, "req"), 4000)
        top = keys[0]
        assert (skew_t == top).mean() > 5 * max((flat_t == top).mean(), 1e-3)

    def test_flash_redirects_only_inside_window(self):
        pool = np.arange(6, dtype=np.int64)
        keys = np.linspace(0.0, 0.999, 400)
        flash = FlashCrowdSchedule(start=3, stop=5, fraction=0.9, center=0.5, span=0.02)
        w = ServingWorkload(exponent=0.9, flash=flash)
        region = flash.region_mask(keys)
        __, inside = w.generate_arrays(pool, keys, split(4, "req"), 2000, epoch=3)
        __, outside = w.generate_arrays(pool, keys, split(4, "req"), 2000, epoch=7)
        assert flash.region_mask(inside).mean() > 0.8
        assert flash.region_mask(outside).mean() < 0.1
        assert region.sum() > 0

    def test_flash_draw_layout_is_window_independent(self):
        # Same rng, same flash config: sources identical inside and
        # outside the window (the redirect draws are always consumed).
        pool = np.arange(6, dtype=np.int64)
        keys = np.linspace(0.0, 0.999, 100)
        flash = FlashCrowdSchedule(start=3, stop=5)
        w = ServingWorkload(flash=flash)
        s_in, __ = w.generate_arrays(pool, keys, split(5, "req"), 256, epoch=4)
        s_out, __ = w.generate_arrays(pool, keys, split(5, "req"), 256, epoch=9)
        np.testing.assert_array_equal(s_in, s_out)

    def test_region_mask_wraps_the_circle(self):
        flash = FlashCrowdSchedule(start=0, stop=1, center=0.0, span=0.1)
        mask = flash.region_mask(np.asarray([0.96, 0.04, 0.5]))
        assert mask.tolist() == [True, True, False]

    def test_validation(self):
        with pytest.raises(ExperimentError):
            FlashCrowdSchedule(start=0, stop=1, fraction=1.5)
        with pytest.raises(ExperimentError):
            FlashCrowdSchedule(start=0, stop=1, span=0.0)
        with pytest.raises(ExperimentError):
            ServingWorkload(exponent=-1.0)
        w = ServingWorkload()
        with pytest.raises(ExperimentError):
            w.generate_arrays(np.empty(0, dtype=np.int64), np.asarray([0.5]), split(0, "r"), 4)
        with pytest.raises(ExperimentError):
            w.generate_arrays(np.asarray([1]), np.empty(0), split(0, "r"), 4)
        with pytest.raises(ExperimentError):
            w.rank_cdf(0)


class TestGoldenServe:
    def test_fixture_is_bit_identical(self):
        """Rebuild the recorded 2k-peer probe-view serve-churn run and
        assert every epoch's numbers match ``golden_serve.json``."""
        from scripts.make_golden_serve import capture  # type: ignore[import-not-found]

        fixture = json.loads(GOLDEN.read_text())
        regenerated = json.loads(json.dumps(capture(), sort_keys=True))
        assert regenerated["config"] == fixture["config"]
        assert regenerated["totals"] == fixture["totals"]
        assert len(regenerated["epochs"]) == len(fixture["epochs"])
        for got, want in zip(regenerated["epochs"], fixture["epochs"]):
            assert got == want
