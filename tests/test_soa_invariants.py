"""Structural invariants of the struct-of-arrays substrate state.

The SoA store (:mod:`repro.core.soa`) holds every per-peer column the
substrates read through their node views; these tests pin the storage
contracts the views assume:

* slot recycling — freed slots are reissued smallest-first, never twice,
  and a leave/rejoin sequence lands on deterministic slots;
* compaction (``remove_many``) preserves clockwise ring order and the
  id/slot mappings (:meth:`Ring.verify` must stay silent), and a freed
  slot holds no ring pointer (``succ`` / ``pred`` are ``-1``);
* the liveness bitmap agrees with the ring's live view after
  ``OracleView.crash`` / ``remove_many`` waves;
* the padded link table round-trips through :class:`LinkView` at
  degree 0 and at the maximum width, keeping the padding invariant
  (columns at or past ``out_count`` are -1).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.soa import LinkView, SubstrateState
from repro.errors import RingInvariantError
from repro.membership import OracleView
from repro.ring import Ring, build_pointers


def fresh_ring(n: int, start: int = 0) -> Ring:
    """A ring of ``n`` peers at evenly spaced positions."""
    ring = Ring()
    ring.insert_many((start + i, (i + 0.5) / n) for i in range(n))
    return ring


# ----------------------------------------------------------------------
# slot recycling
# ----------------------------------------------------------------------


class TestSlotRecycling:
    def test_fresh_allocations_are_sequential(self):
        state = SubstrateState()
        slots = state.alloc_many(
            np.arange(5), np.linspace(0.1, 0.5, 5), np.zeros(5, dtype=np.uint64)
        )
        assert list(slots) == [0, 1, 2, 3, 4]

    def test_freed_slots_are_reissued_smallest_first(self):
        state = SubstrateState()
        state.alloc_many(
            np.arange(6), np.linspace(0.1, 0.6, 6), np.zeros(6, dtype=np.uint64)
        )
        state.free_many(np.array([4, 1, 3]))
        slots = state.alloc_many(
            np.array([10, 11]), np.array([0.71, 0.72]), np.zeros(2, dtype=np.uint64)
        )
        assert list(slots) == [1, 3]  # sorted free-list pop, smallest first

    def test_reuse_exhausts_free_list_before_fresh_rows(self):
        state = SubstrateState()
        state.alloc_many(
            np.arange(4), np.linspace(0.1, 0.4, 4), np.zeros(4, dtype=np.uint64)
        )
        state.free_many(np.array([2]))
        slots = state.alloc_many(
            np.array([20, 21]), np.array([0.81, 0.82]), np.zeros(2, dtype=np.uint64)
        )
        assert list(slots) == [2, 4]  # recycled slot, then the next fresh row

    @given(
        frees=st.lists(st.integers(0, 19), min_size=1, max_size=12, unique=True),
        refills=st.integers(1, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_no_double_allocation(self, frees, refills):
        state = SubstrateState()
        n = 20
        state.alloc_many(
            np.arange(n), np.linspace(0.01, 0.99, n), np.zeros(n, dtype=np.uint64)
        )
        state.free_many(np.asarray(frees, dtype=np.int64))
        new_ids = np.arange(100, 100 + refills)
        slots = state.alloc_many(
            new_ids, np.linspace(1.01, 1.99, refills), np.zeros(refills, dtype=np.uint64)
        )
        # Reissued slots are unique and disjoint from every occupied slot.
        assert len(set(int(s) for s in slots)) == refills
        occupied_elsewhere = {
            int(state.slot_of(i)) for i in range(n) if i not in frees
        }
        assert occupied_elsewhere.isdisjoint(int(s) for s in slots)
        # The recycled prefix is exactly the smallest freed slots, in order.
        reused = [int(s) for s in slots if s < n]
        assert reused == sorted(frees)[: len(reused)]

    def test_leave_rejoin_slots_are_deterministic(self):
        """The ring-level contract: remove_many + insert lands newcomers
        on the recycled slots of the departed, smallest-first."""

        def run() -> list[int]:
            ring = fresh_ring(8)
            ring.remove_many([5, 2, 6])
            out = []
            for new_id, pos in ((100, 0.301), (101, 0.302), (102, 0.303)):
                ring.insert(new_id, pos)
                out.append(int(ring.state.slot_of(new_id)))
            return out

        first, second = run(), run()
        assert first == second == sorted(first)
        ring = fresh_ring(8)
        drop_slots = sorted(int(ring.state.slot_of(i)) for i in (5, 2, 6))
        assert run() == drop_slots


# ----------------------------------------------------------------------
# compaction and liveness
# ----------------------------------------------------------------------


class TestCompactionAndLiveness:
    @given(
        drops=st.lists(st.integers(0, 29), min_size=1, max_size=15, unique=True),
    )
    @settings(max_examples=60, deadline=None)
    def test_remove_many_preserves_cw_order(self, drops):
        ring = fresh_ring(30)
        build_pointers(ring)  # every peer holds pointers when its slot is freed
        ring.remove_many(drops)
        ring.verify()  # structural invariants: order, id/slot maps, caches
        free = np.asarray(ring.state._free)
        assert (ring.state.succ[free] == -1).all() and (ring.state.pred[free] == -1).all()
        survivors = ring.node_ids(live_only=False)
        assert survivors == sorted(set(range(30)) - set(drops))
        pos = ring.positions_array(live_only=False)
        assert np.all(np.diff(pos) > 0)

    @given(
        crashes=st.lists(st.integers(0, 29), min_size=0, max_size=20, unique=True),
        removals=st.lists(st.integers(0, 29), min_size=0, max_size=8, unique=True),
    )
    @settings(max_examples=60, deadline=None)
    def test_liveness_bitmap_matches_ring_view(self, crashes, removals):
        ring = fresh_ring(30)
        OracleView(ring).crash(crashes)
        dead_removals = [i for i in removals if i in set(crashes)]
        ring.remove_many(dead_removals)
        ring.verify()
        state = ring.state
        live_slots = ring.slots_array(live_only=True)
        assert bool(np.all(state.alive[live_slots]))
        expected_live = sorted(set(range(30)) - set(crashes))
        assert sorted(int(i) for i in ring.ids_array(live_only=True)) == expected_live
        for node_id in range(30):
            if node_id in set(dead_removals):
                assert node_id not in ring
            else:
                assert ring.is_alive(node_id) == (node_id not in set(crashes))

    def test_verify_catches_corrupted_liveness_cache(self):
        ring = fresh_ring(5)
        ring.mark_dead(2)
        _ = ring.ids_array(live_only=True)  # populate the live cache
        ring.state.alive[ring.state.slot_of(2)] = True  # corrupt behind the cache
        with pytest.raises(RingInvariantError):
            ring.verify()

    def test_verify_catches_dirty_free_slot(self):
        ring = fresh_ring(4)
        ring.remove_many([1])
        ring.state.node_id[ring.state._free[0]] = 99  # simulate a stale write
        with pytest.raises(RingInvariantError, match="still holds a peer"):
            ring.verify()


# ----------------------------------------------------------------------
# padded link tables
# ----------------------------------------------------------------------


class TestLinkTablePadding:
    def padding_ok(self, state: SubstrateState) -> bool:
        """The invariant every kernel relies on: columns at or past
        ``out_count`` are -1."""
        if state.link_width == 0:
            return True
        cols = np.arange(state.link_width)
        pad = cols >= state.out_count[: state._top, None]
        return bool(np.all(state.out_links[: state._top][pad] == -1))

    def test_degree_zero_round_trip(self):
        state = SubstrateState()
        state.alloc_one(0, 0.5, 0)
        view = LinkView(state, 0)
        assert len(view) == 0 and list(view) == []
        assert self.padding_ok(state)

    @given(targets=st.lists(st.integers(0, 10_000), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_append_extend_clear_round_trip(self, targets):
        state = SubstrateState()
        state.alloc_one(0, 0.5, 0)
        view = LinkView(state, 0)
        for t in targets[: len(targets) // 2]:
            view.append(t)
        view.extend(targets[len(targets) // 2 :])
        assert list(view) == targets
        assert view == targets
        assert int(state.out_count[0]) == len(targets)
        assert self.padding_ok(state)
        view.clear()
        assert list(view) == []
        assert self.padding_ok(state)

    def test_max_degree_row_then_free_resets_padding(self):
        state = SubstrateState()
        state.alloc_many(
            np.arange(3), np.array([0.1, 0.2, 0.3]), np.zeros(3, dtype=np.uint64)
        )
        full = list(range(64))
        LinkView(state, 1).extend(full)
        assert list(LinkView(state, 1)) == full
        assert self.padding_ok(state)
        state.free_many(np.array([1]))
        assert self.padding_ok(state)
        # The recycled slot starts at degree 0 with a clean row.
        slot = state.alloc_one(9, 0.9, 0)
        assert int(slot) == 1
        assert list(LinkView(state, 1)) == []

    def test_set_links_replaces_row(self):
        state = SubstrateState()
        state.alloc_one(0, 0.5, 0)
        state.set_links(0, [7, 8, 9])
        assert list(LinkView(state, 0)) == [7, 8, 9]
        state.set_links(0, [3])
        assert list(LinkView(state, 0)) == [3]
        assert self.padding_ok(state)
