"""Ranges on the one data plane (``ServeEngine.serve_range``).

A range is the point path's walk to the owner of ``lo`` plus two
slices — of the believed ring (``sweep_hops``) and of the sorted key
column (``ReplicatedStore.range_rows``). Pinned here:

* ``serve_range`` ≡ the scalar ``route_range`` twin under an
  ``OracleView`` on repaired Oscar / Chord / Mercury overlays — entry
  hops, first owner, sweep hops, item keys — over wrapped, point and
  repeated ranges, endpoints equal to a peer position, and rings of
  2–4 peers where the full-circle (``m - 1``) and the single-owner
  cases both occur (a hand case each beside the hypothesis run);
* ``vectorized=True`` ≡ ``vectorized=False`` on the same batches;
* a bad source fails alone (``BAD_SOURCE``), as on the point path;
* ``stale_owners`` counts exactly the crashed-but-unevicted peers a
  range sweeps, and is zero once they are evicted;
* ``range_rows`` against a brute-force ``in_closed_cw_range`` filter.

The application-level range cases (exact in-range items, wrapped,
point range, cost grows with owners, a failed request is recorded not
raised) are in ``tests/test_index.py``.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import hand_built
from repro.degree import ConstantDegrees
from repro.engine import Outcome, ServeEngine
from repro.experiments.growth import make_overlay
from repro.index import ReplicatedStore
from repro.membership import DetectorConfig, OracleView, ProbeView
from repro.ring import in_closed_cw_range
from repro.rng import split
from repro.routing.range_query import route_range
from repro.workloads import GnutellaLikeDistribution

SUBSTRATES = ("oscar", "chord", "mercury")
COLUMNS = (
    "outcome", "hops", "owners", "sweep_hops", "item_first", "item_count", "stale_owners"
)  # fmt: skip


def build_plane(substrate: str, n: int, probe: bool = False):
    """A repaired overlay built the scalar way, a 200-item catalog and
    both serve twins (keyed by their ``vectorized`` flag)."""
    overlay = make_overlay(substrate, seed=n)
    overlay.grow(n, GnutellaLikeDistribution(), ConstantDegrees(6))
    overlay.rewire()
    ring = overlay.ring
    view = ProbeView(ring, DetectorConfig(), seed=n) if probe else OracleView(ring)
    store = ReplicatedStore(ring, k=1)
    store.seed_items(GnutellaLikeDistribution().sample(split(n, "items"), 200), view)
    twins = {v: ServeEngine(overlay, store, view, vectorized=v) for v in (True, False)}
    return overlay, view, store, twins


#: Shared, read-only; a test that crashes peers calls ``build_plane``.
plane = functools.cache(build_plane)


def item_keys(store, result, i):
    return store.item_keys[store.slice_rows(result.item_first[i], result.item_count[i])].tolist()


def brute_force(keys, lo, hi):
    return [float(k) for k in keys if in_closed_cw_range(float(k), float(lo), float(hi))]


def assert_matches_route_range(built, sources, lo, hi):
    """One batch through both twins of a ``build_plane`` result and,
    range by range, against the scalar ``route_range``; returns the
    vectorized result."""
    overlay, __, store, serve = built
    result = serve[True].serve_range(sources, lo, hi)
    reference = serve[False].serve_range(sources, lo, hi)
    for column in COLUMNS:
        np.testing.assert_array_equal(getattr(result, column), getattr(reference, column), column)
    assert not result.outcome.any() and not result.stale_owners.any()
    for i in range(len(sources)):
        scalar = route_range(overlay, int(sources[i]), float(lo[i]), float(hi[i]))
        assert result.owners[i] == scalar.owners[0] == overlay.ring.successor_of_key(lo[i])
        assert result.sweep_hops[i] == scalar.sweep_hops == len(scalar.owners) - 1
        owner = scalar.owners[0]
        behind = sources[i] != owner and overlay.pointers.successor[owner] == sources[i]
        if behind and lo[i] == overlay.ring.position(owner):
            # The scalar router may step *back* onto a predecessor whose
            # position is the key itself; belief walks forward only
            # (docs/architecture.md, "The candidate sets differ").
            assert scalar.entry_route.hops == 1 <= result.hops[i]
        else:
            assert result.hops[i] == scalar.entry_route.hops
        # route_range names owners; the items are theirs within [lo, hi].
        assert sorted(item_keys(store, result, i)) == brute_force(store.item_keys, lo[i], hi[i])
    return result


#: An endpoint is a free key, some peer's exact position, or an item key.
endpoint = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False),
    st.tuples(st.sampled_from(["peer", "item"]), st.integers(0, 10**6)),
)
modes = st.sampled_from(["free", "point", "repeat"])
ranges = st.lists(
    st.tuples(st.integers(0, 10**6), endpoint, endpoint, modes), min_size=1, max_size=10
)


def resolve(substrate, n, drawn):
    overlay, __, store, __ = plane(substrate, n)
    ids = overlay.ring.ids_array(live_only=True)
    pools = {"peer": overlay.ring.positions_array(live_only=True), "item": store.item_keys}

    def key(e):
        return float(e) if isinstance(e, float) else float(pools[e[0]][e[1] % pools[e[0]].size])

    batch: list[tuple[int, float, float]] = []
    for source, a, b, mode in drawn:
        if mode == "repeat" and batch:
            batch.append(batch[-1])
        else:
            batch.append((int(ids[source % ids.size]), key(a), key(a if mode == "point" else b)))
    sources, lo, hi = (np.asarray(column) for column in zip(*batch))
    return sources, lo, hi


class TestAgainstRouteRange:
    @pytest.mark.parametrize("substrate", SUBSTRATES)
    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([2, 3, 4, 40]), drawn=ranges)
    # Both ends in one 2**-64 key cell, hi < lo: the full circle, not a point.
    @example(n=2, drawn=[(0, 6.124244195258732e-130, 0.0, "free")])
    def test_differential(self, substrate, n, drawn):
        assert_matches_route_range(plane(substrate, n), *resolve(substrate, n, drawn))

    @pytest.mark.parametrize("substrate", SUBSTRATES)
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_full_circle_and_single_owner_by_hand(self, substrate, n):
        """``lo`` and ``hi`` inside one peer's arc, both orders: ``lo``
        first is a range inside the arc (one owner, no sweep); ``hi``
        first leaves the arc, crosses every peer and comes back (all
        ``n`` owners, ``n - 1`` hops)."""
        overlay = plane(substrate, n)[0]
        ids = overlay.ring.ids_array(live_only=True)
        positions = overlay.ring.positions_array(live_only=True)
        gap = int(np.argmax(np.diff(positions)))
        a, b = positions[gap] + np.diff(positions)[gap] * np.asarray([1, 2]) / 3
        result = assert_matches_route_range(
            plane(substrate, n), np.full(2, ids[0]), np.asarray([a, b]), np.asarray([b, a])
        )
        assert result.sweep_hops.tolist() == [0, n - 1]
        assert result.owners[0] == result.owners[1]
        assert result.item_count.sum() == 200  # the two ranges split the catalog

    def test_whole_ring_of_positions_as_endpoints(self):
        """Every (source, peer position) pair as a point range — the
        boundary a sweep must not step over."""
        overlay = plane("oscar", 40)[0]
        ids = overlay.ring.ids_array(live_only=True)
        positions = overlay.ring.positions_array(live_only=True)
        sources, lo = (grid.ravel() for grid in np.meshgrid(ids, positions))
        result = assert_matches_route_range(plane("oscar", 40), sources, lo, lo)
        assert not result.sweep_hops.any()


    def test_end_inside_a_peers_cell(self):
        """``1.5 * 2**-70`` lies above peer 0's float but inside its
        ``2**-64`` key cell, so it is peer 0's key: as ``lo`` its owner
        is peer 0, as ``hi`` the sweep ends on peer 0, and with ``lo``
        and ``hi`` swapped around peer 0's float the range is the full
        circle."""
        overlay = hand_built([2**-70, 0.25, 0.5, 0.75], {0: [2], 1: [3], 2: [0], 3: [1]})
        view = OracleView(overlay.ring)
        store = ReplicatedStore(overlay.ring, k=1)
        store.seed_items([2**-71, 2**-70, 0.1, 0.3, 0.6, 0.8], view)
        twins = {v: ServeEngine(overlay, store, view, vectorized=v) for v in (True, False)}
        end = 1.5 * 2**-70
        sources = np.asarray([2, 1, 3, 0, 2])
        lo = np.asarray([end, 0.6, end, end, 2**-70])
        hi = np.asarray([0.3, end, end, 2**-70, end])
        result = assert_matches_route_range((overlay, view, store, twins), sources, lo, hi)
        assert result.sweep_hops.tolist() == [2, 1, 0, 3, 0]


class TestFailureIsolation:
    @pytest.mark.parametrize("vectorized", [True, False])
    def test_bad_source_fails_alone(self, vectorized):
        overlay, view, store, serve = build_plane("oscar", 40)
        victim = int(view.live_ids()[7])
        view.crash([victim])
        ids = view.live_ids()
        max_id = int(overlay.ring.ids_array(live_only=False).max())
        lo, hi = np.linspace(0.05, 0.9, 6), np.linspace(0.1, 0.95, 6)[::-1].copy()
        clean = serve[vectorized].serve_range(np.full(6, ids[0]), lo, hi)
        assert not clean.outcome.any()
        sources = np.asarray([ids[0], -1, ids[0], max_id + 3, victim, ids[0]])
        bad = np.asarray([False, True, False, True, True, False])
        result = serve[vectorized].serve_range(sources, lo, hi)
        assert (result.outcome[bad] == Outcome.BAD_SOURCE).all()
        assert (result.owners[bad] == -1).all()
        for column in ("hops", "sweep_hops", "item_count", "stale_owners"):
            assert not getattr(result, column)[bad].any(), column
        for column in COLUMNS:
            np.testing.assert_array_equal(
                getattr(result, column)[~bad], getattr(clean, column)[~bad], column
            )

    def test_misaligned_columns_rejected(self):
        serve = plane("oscar", 40)[3][True]
        with pytest.raises(ValueError):
            serve.serve_range(np.asarray([0, 1]), np.asarray([0.1]), np.asarray([0.2]))

    def test_ranges_bypass_the_result_cache(self):
        serve = plane("oscar", 40)[3][True]
        cache = serve.result_cache
        before = (cache.hits, cache.misses, len(cache))
        serve.serve_range(np.asarray([0, 0]), np.asarray([0.1, 0.1]), np.asarray([0.4, 0.4]))
        assert (cache.hits, cache.misses, len(cache)) == before


class TestStaleOwners:
    def test_counts_the_swept_unevicted_dead_and_clears_on_eviction(self):
        overlay, view, store, serve = build_plane("oscar", 40, probe=True)
        ids, positions = view.live_ids(), overlay.ring.positions_array(live_only=True)
        victim_row = 20
        victim = int(ids[victim_row])
        view.crash([victim])
        view.record_deaths([victim], epoch=1)
        assert view.is_live(victim)  # believed alive: the lag window
        # Ranges ending one peer short of, at, and one past the victim,
        # a wrapped one around it the long way, and one far from it.
        lo = positions[[15, 15, 15, 25, 2]]
        hi = positions[[19, 20, 21, 18, 5]]
        sweeps = np.asarray([False, True, True, False, False])
        source = np.full(lo.size, ids[0])
        for vectorized in (True, False):
            result = serve[vectorized].serve_range(source, lo, hi)
            assert not result.outcome.any()
            assert result.sweep_hops.tolist() == [4, 5, 6, 33, 3]
            assert result.stale_owners.tolist() == sweeps.astype(int).tolist()
        epoch = 1
        while view.evictions == 0:
            view.advance(epoch)
            epoch += 1
            assert epoch < 50, "detector failed to evict"
        for vectorized in (True, False):
            result = serve[vectorized].serve_range(source, lo, hi)
            assert not result.stale_owners.any()
            assert result.sweep_hops.tolist() == [4, 5, 5, 33, 3]  # the believed ring closed up


keys = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False)


class TestRangeRows:
    @settings(max_examples=60, deadline=None)
    @given(
        catalog=st.lists(keys, max_size=40, unique=True),
        bounds=st.lists(st.tuples(keys, keys), min_size=1, max_size=8),
        pin=st.booleans(),
    )
    def test_slice_equals_brute_force_filter(self, catalog, bounds, pin):
        overlay, view = plane("oscar", 4)[:2]
        store = ReplicatedStore(overlay.ring, k=1)
        store.seed_items(catalog, view)
        lo, hi = (np.asarray(column) for column in zip(*bounds))
        if pin and catalog:  # endpoints on item keys: the closed ends
            lo[0], hi[-1] = catalog[0], catalog[-1]
        first, count = store.range_rows(lo, hi)
        assert ((0 <= count) & (count <= store.item_count)).all()
        for i in range(lo.size):
            got = store.item_keys[store.slice_rows(first[i], count[i])].tolist()
            assert sorted(got) == brute_force(store.item_keys, lo[i], hi[i])
            # Clockwise from lo: the slice is in sweep order.
            assert got == sorted(got, key=lambda k: (k < lo[i], k))

    def test_empty_catalog_and_the_range_holding_every_item(self):
        overlay, view = plane("oscar", 4)[:2]
        store = ReplicatedStore(overlay.ring, k=1)
        first, count = store.range_rows(np.asarray([0.2, 0.9]), np.asarray([0.7, 0.1]))
        assert first.tolist() == [0, 0] and count.tolist() == [0, 0]
        store.seed_items([0.1, 0.3, 0.5, 0.7], view)
        lo = np.asarray([0.1, 0.0, 0.5, 0.300001, 0.5])
        hi = np.asarray([0.7, 0.99, 0.3, 0.3, 0.5])
        first, count = store.range_rows(lo, hi)
        assert count.tolist() == [4, 4, 4, 4, 1]
        assert first.tolist() == [0, 0, 2, 2, 2]
