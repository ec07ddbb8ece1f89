"""Structural invariants of the struct-of-arrays substrate state.

The SoA store (:mod:`repro.core.soa`) holds every per-peer column the
substrates read and write by slot; these tests pin its storage
contracts:

* slot recycling — freed slots are reissued smallest-first, never twice,
  and a leave/rejoin sequence lands on deterministic slots;
* compaction (``remove_many``) preserves clockwise ring order and the
  id/slot mappings (:meth:`Ring.verify` must stay silent), and a freed
  slot holds no ring pointer (``succ`` / ``pred`` are ``-1``);
* the liveness bitmap agrees with the ring's live view after
  ``OracleView.crash`` / ``remove_many`` waves;
* the padded link table round-trips through ``set_links`` /
  ``clear_links`` at degree 0 and at the maximum width, keeping the
  padding invariant (columns at or past ``out_count`` are -1);
* Mercury's histogram round-trips exactly through its ``hist_cdf`` row;
* the column lifecycle — every column declared in
  ``SubstrateState.COLUMNS`` is back at its cleared value on a freed
  slot, under random alloc / write / widen / free programs and on a
  real overlay of each substrate (detector schedule, belief, histogram,
  links and medians included), and a seeded mutant of each kind (a
  column skipped by the free pass, a bank that skips its revive reset)
  is caught;
* ``docs/architecture.md`` lists exactly the declared columns.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import re
from pathlib import Path
from unittest import mock

from repro.core.soa import SubstrateState
from repro.degree import ConstantDegrees
from repro.errors import RingInvariantError
from repro.experiments.growth import make_overlay
from repro.membership import DetectorConfig, OracleView, ProbeView, VectorizedDetectorBank
from repro.mercury.construction import _read_histogram, _store_histogram
from repro.ring import Ring, build_pointers
from repro.sampling import NodeDensityHistogram
from repro.workloads import GnutellaLikeDistribution


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
        OracleView(ring).crash([2])
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

    @staticmethod
    def row(state: SubstrateState, slot: int) -> list[int]:
        return state.out_links[slot, : state.out_count[slot]].tolist()

    def test_degree_zero_round_trip(self):
        state = SubstrateState()
        state.alloc_one(0, 0.5, 0)
        assert self.row(state, 0) == []
        state.set_links(0, [])
        assert self.row(state, 0) == [] and int(state.out_count[0]) == 0
        assert self.padding_ok(state)

    @given(targets=st.lists(st.integers(0, 10_000), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_append_extend_clear_round_trip(self, targets):
        state = SubstrateState()
        state.alloc_one(0, 0.5, 0)
        for t in targets[: len(targets) // 2]:  # one append at a time
            state.set_links(0, [*self.row(state, 0), t])
            assert self.padding_ok(state)
        state.set_links(0, self.row(state, 0) + targets[len(targets) // 2 :])
        assert self.row(state, 0) == targets
        assert int(state.out_count[0]) == len(targets)
        assert self.padding_ok(state)
        state.clear_links(np.array([0]))
        assert self.row(state, 0) == []
        assert self.padding_ok(state)

    def test_max_degree_row_then_free_resets_padding(self):
        state = SubstrateState()
        state.alloc_many(
            np.arange(3), np.array([0.1, 0.2, 0.3]), np.zeros(3, dtype=np.uint64)
        )
        full = list(range(64))
        state.set_links(1, full)
        assert self.row(state, 1) == full
        assert self.padding_ok(state)
        state.free_many(np.array([1]))
        assert self.padding_ok(state)
        # The recycled slot starts at degree 0 with a clean row.
        slot = state.alloc_one(9, 0.9, 0)
        assert int(slot) == 1
        assert self.row(state, 1) == []

    def test_set_links_replaces_row(self):
        state = SubstrateState()
        state.alloc_one(0, 0.5, 0)
        state.set_links(0, [7, 8, 9])
        assert self.row(state, 0) == [7, 8, 9]
        state.set_links(0, [3])
        assert self.row(state, 0) == [3]
        assert self.padding_ok(state)


# ----------------------------------------------------------------------
# column lifecycle: one declaration, one clearing pass
# ----------------------------------------------------------------------

#: The declarations as imported — the mutants below patch the class's.
DECLARED = dict(SubstrateState.COLUMNS)
MATRICES = sorted(name for name, col in DECLARED.items() if col.matrix)
#: ``alloc_many`` writes the first four itself, so they are never at
#: their cleared value on a slot in use; the ``write`` op dirties the rest.
IDENTITY = ("node_id", "pos", "key", "alive")
REST = tuple(name for name in DECLARED if name not in IDENTITY)
MEMBERSHIP = ("probe_fails", "probe_pending", "probe_monitor", "believed_dead", "died_at")


def assert_cleared(state: SubstrateState, slots, names=tuple(DECLARED)) -> None:
    slots = np.asarray(slots, dtype=np.int64)
    for name in names:
        cells, fill = getattr(state, name)[slots], DECLARED[name].fill
        clean = np.array_equal(cells, np.full_like(cells, fill), equal_nan=True)
        assert clean, f"column {name!r} not at its cleared value {fill!r}"


def dirty(state: SubstrateState, slot: int) -> None:
    """Write a non-cleared value through every declared column."""
    for name in REST:
        junk = {"b": True, "f": 0.25}.get(np.dtype(DECLARED[name].dtype).kind, 7)
        assert junk != DECLARED[name].fill
        getattr(state, name)[slot] = junk


lifecycle_ops = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(1, 6)),
        st.tuples(st.just("write"), st.integers(0, 10**6)),
        st.tuples(st.just("widen"), st.sampled_from(MATRICES), st.integers(1, 9)),
        st.tuples(st.just("free"), st.lists(st.integers(0, 10**6), max_size=6)),
    ),
    max_size=40,
)


def run_lifecycle(ops) -> None:
    """alloc / write / widen / free on a ring's state: a freed slot is
    cleared in every column at once, a reissued one everywhere but the
    identity ``alloc_many`` writes, and ``Ring.verify`` holds."""
    ring = Ring()
    state, next_id = ring.state, 0
    for op, *args in [("alloc", 4), *ops]:
        present = ring.node_ids(live_only=False)
        if op == "alloc":
            ids = list(range(next_id, next_id + args[0]))
            next_id += args[0]
            ring.insert_many((i, (i + 0.5) / 4096) for i in ids)
            assert_cleared(state, state.slots_of(np.asarray(ids)), REST)
        elif op == "widen":
            state.ensure_width(*args)
            assert getattr(state, args[0]).shape[1] >= args[1]
        elif present and op == "write":
            dirty(state, state.slot_of(present[args[0] % len(present)]))
        elif present and op == "free":
            gone = sorted({present[i % len(present)] for i in args[0]})
            slots = state.slots_of(np.asarray(gone, dtype=np.int64))
            ring.remove_many(gone)
            assert_cleared(state, slots)
        ring.verify()
        assert_cleared(state, state._free)
        assert_cleared(state, np.arange(state._top, state.capacity))


class TestColumnLifecycle:
    @given(ops=lifecycle_ops)
    @settings(max_examples=60, deadline=None)
    def test_recycled_slots_are_cleared_in_every_column(self, ops):
        run_lifecycle(ops)

    def test_mutant_column_left_out_of_the_free_pass_is_caught(self, monkeypatch):
        program = [("widen", "probe_fails", 3), ("widen", "hist_cdf", 2), ("alloc", 3)]
        program += [("write", 1), ("write", 2), ("free", [1, 2]), ("alloc", 2)]
        run_lifecycle(program)
        real_free = SubstrateState.free_many
        for name in ("died_at", "probe_fails", "hist_cdf"):
            mutant = {k: v for k, v in DECLARED.items() if k != name}

            def leaky_free(self, slots, mutant=mutant):
                with mock.patch.object(SubstrateState, "COLUMNS", mutant):
                    real_free(self, slots)

            monkeypatch.setattr(SubstrateState, "free_many", leaky_free)
            with pytest.raises(AssertionError, match=name):
                run_lifecycle(program)

    def test_ensure_width_is_exact_then_grows_a_quarter(self):
        state = SubstrateState(4)
        state.ensure_width("probe_fails", 8)
        assert state.probe_fails.shape == (4, 8)
        state.probe_fails[:] = 5
        state.ensure_width("probe_fails", 9)
        assert state.probe_fails.shape == (4, 10)
        assert (state.probe_fails[:, :8] == 5).all() and (state.probe_fails[:, 8:] == 0).all()
        state.ensure_width("probe_fails", 13)
        assert state.probe_fails.shape == (4, 13)
        state.ensure_width("probe_fails", 2)
        assert state.probe_fails.shape == (4, 13)

    def test_rows_grow_a_quarter_past_what_they_must_hold(self):
        """A full table grows to 5/4 of its rows (8 at least), never to
        double: a 100k-peer overlay under churn holds ~25k idle slots."""
        ring = Ring()
        ring.insert_many((i, (i + 0.5) / 4096) for i in range(100))
        assert ring.state.capacity == 100
        ring.insert_many([(100, 100.5 / 4096)])
        assert ring.state.capacity == 125
        assert ring.state._slot_of.size == 125
        assert SubstrateState(0).capacity == 0
        empty = Ring()
        empty.insert_many([(0, 0.5)])
        assert empty.state.capacity == 8

    def test_architecture_doc_lists_the_declared_columns(self):
        text = (Path(__file__).parents[1] / "docs" / "architecture.md").read_text()
        rows = re.findall(r"^\| `(\w+)` \| (\w+)( matrix)? \| `([^`]+)` \|", text, re.MULTILINE)
        assert [row[0] for row in rows] == list(DECLARED)
        for name, dtype, matrix, fill in rows:
            col = DECLARED[name]
            assert np.dtype(col.dtype).name == dtype, name
            assert col.matrix == bool(matrix), name
            documented = {"False": False, "True": True}.get(fill, fill)
            assert np.array_equal(
                np.asarray(documented, dtype=col.dtype),
                np.asarray(col.fill, dtype=col.dtype),
                equal_nan=True,
            ), name


# ----------------------------------------------------------------------
# the same on a real overlay: detector, belief, histogram, links, medians
# ----------------------------------------------------------------------

DETECT = DetectorConfig(failure_threshold=2, quorum=2, n_monitors=3, rounds_per_epoch=2)


@pytest.mark.parametrize("substrate", ["oscar", "chord", "mercury"])
def test_overlay_slots_recycle_clean_without_forget(substrate):
    """grow -> rewire -> probe epochs with evictions -> leave_batch ->
    retire -> grow into the recycled slots. ``view.forget`` is *not*
    called: what is keyed by slot must be clean by construction."""
    keys, degrees = GnutellaLikeDistribution(), ConstantDegrees(6)
    overlay = make_overlay(substrate, seed=5)
    overlay.grow_batch(48, keys, degrees)
    overlay.rewire_batch()
    state, ring = overlay.state, overlay.ring
    view = ProbeView(ring, DETECT, seed=5)
    live = ring.ids_array(live_only=True)
    evicted, lingering = live[[3, 17, 30]].tolist(), live[[8, 40]].tolist()
    view.crash(evicted)
    view.record_deaths(evicted, 1)
    epoch = 1
    while view.evictions < len(evicted):
        view.advance(epoch)
        epoch += 1
        assert epoch < 40
    # A second wave leaves mid-detection: stamped, counted, not yet evicted.
    overlay.leave_batch(lingering)
    view.record_deaths(lingering, epoch)
    view.advance(epoch)
    gone = evicted + lingering
    slots = state.slots_of(np.asarray(gone))
    assert state.believed_dead[slots].sum() == len(evicted)
    assert (state.died_at[slots] >= 0).sum() == len(lingering)
    assert state.probe_fails[slots].any() and (state.probe_monitor[slots] >= 0).any()
    assert state.out_count[slots].all()
    assert (state.n_medians[slots] >= 0).all() == (substrate == "oscar")
    assert (~np.isnan(state.hist_cdf[slots])).any() == (substrate == "mercury")

    overlay.retire(gone)
    assert_cleared(state, slots)
    ring.verify()

    first_new = overlay._next_id
    overlay.grow_batch(48, keys, degrees)
    new_ids = np.arange(first_new, overlay._next_id)
    assert sorted(state.slots_of(new_ids)) == sorted(slots)  # recycled, all of them
    assert_cleared(state, slots, MEMBERSHIP)
    assert all(view.is_live(int(i)) for i in new_ids)
    assert not np.isin(state.out_links[slots], gone).any()
    ring.verify()
    before = view.evictions
    for e in range(epoch + 1, epoch + 6):  # zero loss: a clean schedule evicts nobody
        view.advance(e)
    assert view.evictions == before and view.false_evictions == 0


def revive_resets_the_schedule() -> None:
    ring = fresh_ring(16)
    view = ProbeView(ring, DETECT, seed=8)
    view.crash([5])
    view.record_deaths([5], 1)
    epoch = 1
    while not view.evictions:
        view.advance(epoch)
        epoch += 1
    slot = ring.state.slot_of(5)
    assert ring.state.believed_dead[slot] and ring.state.probe_fails[slot].any()
    assert view.revive([5]) == [5]
    assert_cleared(ring.state, [slot], MEMBERSHIP)


def test_revive_resets_the_schedule_and_a_bank_that_skips_it_is_caught(monkeypatch):
    revive_resets_the_schedule()
    monkeypatch.setattr(VectorizedDetectorBank, "forget", lambda self, node_ids: None)
    with pytest.raises(AssertionError, match="probe_fails"):
        revive_resets_the_schedule()


def test_evicting_an_id_the_ring_no_longer_knows_is_a_counted_no_op():
    ring = fresh_ring(8)
    view = ProbeView(ring, DETECT, seed=1)
    ring.remove_many([3])  # compacted while its report was still spreading
    # Counted as the ``moot`` outcome of its epoch's ``membership`` row.
    assert [view._evict(3, epoch=4), view._evict(999, epoch=4)] == ["moot", "moot"]
    assert ring.state.obs.table("detection") == {} and view.false_evictions == 0
    assert view.live_count == 7 and not ring.state.believed_dead.any()


# ----------------------------------------------------------------------
# Mercury's histogram is a row of ``hist_cdf``
# ----------------------------------------------------------------------


class TestHistogramColumn:
    def test_round_trips_exactly_and_is_read_only(self):
        samples = GnutellaLikeDistribution().sample(np.random.default_rng(3), 200)
        for buckets in (1, 7, 32):
            histogram = NodeDensityHistogram.from_samples(samples, buckets)
            state = SubstrateState()
            slot = state.alloc_one(2, 0.25, 0)
            assert _read_histogram(state, slot) is None
            _store_histogram(state, slot, histogram)
            stored = _read_histogram(state, slot)
            assert stored == histogram and stored.buckets == buckets
            assert stored.cumulative.tobytes() == histogram.cumulative.tobytes()
            assert not stored.cumulative.flags.writeable
            with pytest.raises(ValueError):
                stored.cumulative[0] = 0.5
            assert stored.quantile(0.37) == histogram.quantile(0.37)
            _store_histogram(state, slot, None)
            assert _read_histogram(state, slot) is None

    def test_rows_of_different_lengths_share_one_table(self):
        overlay = make_overlay("mercury", seed=2)
        overlay.grow(6, GnutellaLikeDistribution(), ConstantDegrees(3))
        state = overlay.state
        a, b = overlay.ring.slots_array()[:2]
        samples = np.linspace(0.0, 0.99, 50)
        small = NodeDensityHistogram.from_samples(samples, 4)
        large = NodeDensityHistogram.from_samples(samples, 4 * overlay.config.histogram_buckets)
        _store_histogram(state, a, small)
        _store_histogram(state, b, large)
        assert _read_histogram(state, a) == small and _read_histogram(state, b) == large
        assert state.hist_cdf.shape[1] >= large.cumulative.size
        _store_histogram(state, b, small)  # a shorter vector leaves no tail behind
        assert _read_histogram(state, b) == small
        assert np.isnan(state.hist_cdf[b, small.cumulative.size :]).all()
