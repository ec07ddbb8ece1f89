"""Whole-overlay kernels in row blocks: the same answers, bounded memory.

Every kernel that passes over all rows of the overlay — both snapshot
captures, the sampled estimation levels, arc packing, the refill's link
pass and the stale-link count — works one block of
``repro.core.soa.ROW_BLOCK`` rows at a time. These tests hold that to
three things:

* **the same tables:** the blocked ``WalkTable.build`` against the
  whole-matrix build it replaced (``tests/conftest.py::
  whole_matrix_table``), at block sizes 1, 7, ``m - 1``, ``m`` and
  ``2m``, and both captures of a churned overlay against whole-matrix
  reference captures;
* **the same draws:** a level drawn one block at a time consumes the
  stream exactly as one draw per level (values and final generator
  state), and ``golden_build.json`` is reproduced byte for byte with
  blocks of 1 and of 7 rows;
* **bounded memory:** under ``tracemalloc`` on a 20k-peer overlay, the
  peak of each capture, of ``rewire_batch``'s estimation and of a refill
  epoch stays within the tables the operation must hold plus a few
  blocks — a temporary the size of the overlay does not fit.
"""

from __future__ import annotations

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_same_table,
    reference_serve_table,
    reference_truth_table,
    row_block,
    whole_matrix_table,
)
from repro.churn import ExponentialSessions
from repro.core import soa
from repro.degree import ConstantDegrees
from repro.engine import ServeSnapshot, SteadyStateChurnEngine, TopologySnapshot
from repro.engine.construct import BatchConstructionEngine
from repro.engine.walk import NO_ROW, WalkTable
from repro.experiments import make_overlay
from repro.index import ReplicatedStore
from repro.membership import OracleView
from repro.rng import split
from repro.workloads import GnutellaLikeDistribution

FIXTURE = Path(__file__).parent / "data" / "golden_build.json"
BLOCKS = ["1", "7", "m-1", "m", "2m"]


def block_rows(name: str, m: int) -> int:
    """The block size ``name`` stands for over ``m`` rows (at least 1)."""
    return max(1, {"1": 1, "7": 7, "m-1": m - 1, "m": m, "2m": 2 * m}[name])


class TestBlockedWalkTable:
    @settings(max_examples=150, deadline=None)
    @given(
        size=st.integers(1, 30),
        width=st.integers(0, 7),
        seed=st.integers(0, 2**32 - 1),
        padding=st.sampled_from([0.0, 0.3, 1.0]),
        block=st.sampled_from(BLOCKS),
        as_function=st.booleans(),
    )
    def test_blocked_build_equals_whole_matrix_build(
        self, size, width, seed, padding, block, as_function
    ):
        """Rows without a successor (``-1``) or whose successor is the
        row itself, self and duplicate links, the successor among the
        links, padding anywhere — handed over as the matrix (``-1``
        padding) or as a function of a row block (``NO_ROW`` padding)."""
        rng = np.random.default_rng(seed)
        keys = np.unique(rng.integers(0, 2**64 - 1, size=size, dtype=np.uint64))
        m = int(keys.size)
        succ_row = (np.arange(m) + 1) % m
        draw = rng.random(m)
        succ_row[draw < 0.15] = -1
        itself = (draw >= 0.15) & (draw < 0.25)
        succ_row[itself] = np.flatnonzero(itself)
        nbr_rows = rng.integers(0, m, size=(m, width))
        if width:
            cell = rng.random((m, width))
            nbr_rows[cell < 0.15] = np.broadcast_to(np.arange(m)[:, None], (m, width))[cell < 0.15]
            with_succ = (cell > 0.85) & (succ_row[:, None] >= 0)
            nbr_rows[with_succ] = np.broadcast_to(succ_row[:, None], (m, width))[with_succ]
            if width > 1:
                nbr_rows[:, 1] = nbr_rows[:, 0]  # duplicates
        nbr_rows[rng.random((m, width)) < padding] = -1
        reference = whole_matrix_table(keys, succ_row, nbr_rows)
        padded = np.where(nbr_rows < 0, NO_ROW, nbr_rows)
        candidates = (lambda b: padded[b]) if as_function else nbr_rows
        with row_block(block_rows(block, m)):
            table = WalkTable.build(keys, succ_row, candidates)
        assert_same_table(table, reference)

    @pytest.mark.parametrize("kind", ["oscar", "chord", "mercury"])
    def test_captures_of_a_churned_overlay_equal_whole_matrix_captures(self, kind):
        """Dead peers with and without successor pointers, dangling
        links and a believed-live subset of a ring that holds them."""
        overlay = make_overlay(kind, seed=11)
        keys, degrees = GnutellaLikeDistribution(), ConstantDegrees(5)
        overlay.grow_batch(90, keys, degrees)
        overlay.rewire_batch()
        view = OracleView(overlay.ring)
        store = ReplicatedStore(overlay.ring, k=3)
        store.seed_items(split(11, "items").random(40), view)
        engine = SteadyStateChurnEngine(
            overlay,
            keys,
            degrees,
            ExponentialSessions(4.0),
            arrival_rate=12.0,
            repair_every=3,
            n_probes=4,
            seed=11,
            membership=view,
            replication=store,
        )
        engine.run(4)  # the last wave's dead peers still hold ring slots
        view.crash_fraction(split(11, "crash"), 0.2)
        overlay.repair_ring()
        assert len(overlay.ring) > overlay.ring.live_count
        truth = reference_truth_table(overlay)
        belief = reference_serve_table(overlay, view)
        for block in BLOCKS:
            with row_block(block_rows(block, len(overlay.ring))):
                assert_same_table(TopologySnapshot.capture(overlay).table.whole(), truth)
                snapshot = ServeSnapshot.capture(overlay, view, 0, store)
                assert_same_table(snapshot.table, belief)


class TestDrawStream:
    @pytest.mark.parametrize("rows", [1, 6, 7, 8, 50])
    @pytest.mark.parametrize("block", [1, 7])
    def test_one_draw_per_block_is_one_draw_per_level(self, rows, block):
        """``rng.random`` block by block: the values and the final PCG64
        state of one ``rng.random((rows, sample_size))`` call."""
        whole, blocked = np.random.default_rng(5), np.random.default_rng(5)
        level = whole.random((rows, 16))
        with row_block(block):
            parts = [blocked.random((len(range(rows)[part]), 16)) for part in soa.row_blocks(rows)]
        assert np.array_equal(np.concatenate(parts), level)
        assert blocked.bit_generator.state == whole.bit_generator.state

    @pytest.mark.parametrize("block", [1, 7])
    def test_blocked_levels_equal_the_twin_and_leave_the_stream_where_it_does(self, block):
        """A rewire whose sampled levels are drawn in blocks of ``block``
        rows leaves the partition tables, the links and the rewire
        stream exactly where the twin — one draw per level — leaves
        them."""
        built = []
        for vectorized in (True, False):
            overlay = make_overlay("oscar", seed=3)
            overlay.grow_batch(60, GnutellaLikeDistribution(), ConstantDegrees(4))
            rng = split(3, "blocked-rewire")
            with row_block(block):
                stats = BatchConstructionEngine(overlay, vectorized=vectorized).rewire(rng)
            built.append((overlay, stats, rng.bit_generator.state))
        (fast, fast_stats, fast_rng), (twin, twin_stats, twin_rng) = built
        assert fast_stats.as_dict() == twin_stats.as_dict()
        assert fast_rng == twin_rng
        for name in ("n_medians", "medians", "part_far_end", "out_count", "out_links", "in_deg"):
            assert np.array_equal(getattr(fast.state, name), getattr(twin.state, name)), name

    @pytest.mark.parametrize("block", [1, 7])
    def test_golden_build_is_byte_identical_in_small_blocks(self, block):
        from scripts.make_golden_build import payload  # type: ignore[import-not-found]

        with row_block(block):
            assert payload() == FIXTURE.read_text()


# ----------------------------------------------------------------------
# the memory guard
# ----------------------------------------------------------------------

GUARD_PEERS = 20_000
GUARD_CAP = 27
GUARD_BLOCK = 1024
#: One block of candidate rows, 8 bytes a cell: a link row and two more.
BLOCK_BYTES = GUARD_BLOCK * (GUARD_CAP + 2) * 8
#: The "small multiple of one block" every guard allows on top of what
#: the operation must hold. An ``(m, 27)`` ``int32`` matrix is 2.2 MB at
#: 20k peers, more than the whole slack (0.95 MB).
SLACK = 4 * BLOCK_BYTES
#: Six 8-byte columns per peer: the per-peer vectors a capture computes
#: next to its table.
COLUMNS = 6 * 8


def traced_peak(operation):
    """``(result, bytes of the peak above the start)`` of one call."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = operation()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def array_bytes(*holders) -> int:
    """Bytes of the distinct arrays the holders' fields reference."""
    arrays = {
        id(value): value.nbytes
        for holder in holders
        for value in vars(holder).values()
        if isinstance(value, np.ndarray)
    }
    return sum(arrays.values())


@pytest.fixture(scope="module")
def guarded():
    """A 20k-peer Oscar overlay with a 2k-item catalog, built untraced in
    blocks of :data:`GUARD_BLOCK` rows (a block is 1/20 of it)."""
    overlay = make_overlay("oscar", seed=5)
    keys, degrees = GnutellaLikeDistribution(), ConstantDegrees(GUARD_CAP)
    with row_block(GUARD_BLOCK):
        overlay.grow_batch(GUARD_PEERS, keys, degrees)
    view = OracleView(overlay.ring)
    store = ReplicatedStore(overlay.ring, k=3)
    store.seed_items(split(5, "items").random(GUARD_PEERS // 10), view)
    return overlay, view, store, keys, degrees


class TestMemoryGuard:
    """Traced peaks at 20k peers against what each operation must hold.
    A mutant serve capture that translates the whole link table at once
    (the code before row blocks) peaks 7.0 MB above its 3.0 MB table,
    where the guard allows 2.0 MB, and fails."""

    def test_serve_capture(self, guarded):
        overlay, view, store = guarded[:3]
        with row_block(GUARD_BLOCK):
            snapshot, peak = traced_peak(lambda: ServeSnapshot.capture(overlay, view, 0, store))
        # The snapshot, its per-item answers (six 8-byte columns while
        # they are computed) and six 8-byte columns per peer: the id ->
        # row tables and the successor column with its offsets.
        items = store.item_count * 8 * 6
        held = array_bytes(snapshot, snapshot.table) + items + COLUMNS * overlay.size
        assert peak <= held + SLACK

    def test_truth_capture(self, guarded):
        overlay = guarded[0]
        with row_block(GUARD_BLOCK):
            snapshot, peak = traced_peak(lambda: TopologySnapshot.capture(overlay))
        # The snapshot and six 8-byte columns per peer: the predecessor
        # and successor columns with the successor's offsets.
        assert peak <= array_bytes(snapshot, snapshot.table) + COLUMNS * overlay.size + SLACK

    def test_rewire_estimation(self, guarded, monkeypatch):
        """The rewire's estimation holds the partition tables (a float
        border and an ``int32`` rank per level) and the packed arcs (two
        ``int32`` per partition), plus eight 8-byte columns per peer;
        the whole rewire holds no more than its acquisition needs on top
        of the arcs: the link columns (4 bytes a slot) and forty 8-byte
        columns of round state."""
        overlay = guarded[0]
        m = overlay.size
        levels = overlay.config.partitions_for(m) - 1
        peaks = []
        estimate = BatchConstructionEngine._estimate

        def traced_estimate(engine, *args, **kwargs):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            arcs = estimate(engine, *args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            return arcs

        monkeypatch.setattr(BatchConstructionEngine, "_estimate", traced_estimate)
        with row_block(GUARD_BLOCK):
            __, peak = traced_peak(overlay.rewire_batch)
        arcs = 8 * (levels + 1) * m
        assert peaks[0] <= 12 * levels * m + arcs + 8 * 8 * m + SLACK
        assert peak <= arcs + 4 * GUARD_CAP * m + 40 * 8 * m + SLACK

    def test_refill_epoch(self, guarded):
        """A refill epoch holds at once no more than the larger of the
        truth snapshot its probe captures and the refill's tables (the
        packed arcs and the link columns), plus forty 8-byte columns of
        round state — and no snapshot once it returns."""
        overlay, view, store, keys, degrees = guarded
        engine = SteadyStateChurnEngine(
            overlay,
            keys,
            degrees,
            ExponentialSessions(64.0),
            arrival_rate=GUARD_PEERS / ExponentialSessions(64.0).mean,
            repair_every=2,
            n_probes=1,
            seed=5,
            membership=view,
            replication=store,
        )
        with row_block(GUARD_BLOCK):
            engine.run_epoch()  # grows the state past its first 20k rows
            stats, peak = traced_peak(engine.run_epoch)
            truth = TopologySnapshot.capture(overlay)
        assert stats.link_repair and stats.repair_links_placed > 0
        assert engine._query_engine.cached_snapshot is None
        m = overlay.size
        levels = overlay.config.partitions_for(m) - 1
        tables = 8 * (levels + 1) * m + 4 * GUARD_CAP * m
        assert peak <= max(array_bytes(truth, truth.table), tables) + 40 * 8 * m + SLACK
