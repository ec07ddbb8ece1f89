"""The split walk: a large batch walks in two halves on two threads, bit
for bit the walk of the whole batch.

``greedy_walk`` hands the second half of a batch of ``walk.SPLIT_AT`` or
more queries over a table built whole to the walk's worker thread, walks
the first half itself and joins the halves in query order, when the
process may run on two CPUs. These tests force the split
(``tests/conftest.py::split_walks``: ``SPLIT_AT`` 2, two CPUs on any
host) and hold it to the serial walk and to ``greedy_walk_reference``:
on raw tables with every stop code in either half, and through
``serve_batch``, ``serve_range`` and ``route_batch``. A one-CPU affinity
and a deferred truth table walk on the caller's thread, and a
fork-started child of a process whose worker has started splits its own
walk and returns.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_overlay, split_walks
from repro.config import RoutingConfig
from repro.engine import BatchQueryEngine, ServeEngine, TopologySnapshot, walk
from repro.engine.walk import WalkCode, WalkTable, greedy_walk, greedy_walk_reference
from repro.index import ReplicatedStore
from repro.membership import OracleView
from repro.ring import keyspace
from repro.rng import split
from twins import ReferenceQueryEngine

#: A ``SPLIT_AT`` no batch reaches: every walk runs on the caller's thread.
SERIAL = 1 << 40


@contextmanager
def walks_seen():
    """``(on the main thread, queries)`` of every ``walk._walk`` call —
    one per walked half — made while open."""
    seen: list[tuple[bool, int]] = []
    inner = walk._walk

    def recorded(table, source_rows, *rest):
        seen.append((threading.current_thread() is threading.main_thread(), source_rows.size))
        return inner(table, source_rows, *rest)

    walk._walk = recorded
    try:
        yield seen
    finally:
        walk._walk = inner


def walked_in_halves(seen: list[tuple[bool, int]], n: int) -> bool:
    """``seen`` is one split walk of ``n`` queries: the first half on
    the caller's thread, the rest on the worker."""
    return sorted(seen, reverse=True) == [(True, n // 2), (False, n - n // 2)]


def all_walks(table, sources, owners, targets, budget):
    """``(serial, split, reference)`` answers of one batch, as lists."""
    answers = []
    for at in (SERIAL, 2):
        with split_walks(at), walks_seen() as seen:
            answers.append(greedy_walk(table, sources, owners, table.bounds(targets), budget))
        assert len(seen) == (1 if at == SERIAL or sources.size < 2 else 2)
    answers.append(greedy_walk_reference(table, sources, owners, targets, budget))
    return [[column.tolist() for column in answer] for answer in answers]


def codes_table() -> WalkTable:
    """Twelve rows on a ring with one long link each (4 rows on); row 3
    is its own successor and row 7 has none."""
    m = 12
    keys = keyspace.from_units((np.arange(m) + 0.5) / m)
    succ_row = (np.arange(m) + 1) % m
    succ_row[3], succ_row[7] = 3, -1
    return WalkTable.build(keys, succ_row, ((np.arange(m) + 4) % m)[:, None])


class TestSplitWalk:
    def test_codes_in_either_half_stay_in_query_order(self):
        """Nine queries, each half holding an ``OK``, a ``STUCK`` (from
        row 3), a ``NO_SUCCESSOR`` (from row 7) and a ``BUDGET`` (two
        hops short of a far owner): the split answers as the serial walk
        and the twin, row by row."""
        table = codes_table()
        sources = np.asarray([0, 3, 8, 7, 7, 3, 9, 0, 5])
        owners = np.asarray([1, 5, 6, 9, 10, 4, 6, 2, 6])
        targets = table.keys[owners]
        serial, split_walk, reference = all_walks(table, sources, owners, targets, 2)
        assert split_walk == serial == reference
        codes = np.asarray(split_walk[1])
        for half in (codes[:4], codes[4:]):
            assert set(half.tolist()) == set(WalkCode)

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3, 5, 8, 13, 31]))
    def test_split_is_the_serial_walk_and_its_twin_on_raw_tables(self, seed, n):
        """Raw tables of 1-13 rows — keys crowded into a few cells,
        padding anywhere, missing, self and random successor pointers,
        targets on a row's key, random owners, budgets 1, 3 and 40 — and
        batches of ``n`` queries, odd and two included."""
        rng = np.random.default_rng(seed)
        cells = (3, 5, 8, 2**64 - 1)[int(rng.integers(4))]
        keys = np.unique(rng.integers(0, cells, size=int(rng.integers(1, 14)), dtype=np.uint64))
        if cells < 2**64 - 1:
            keys <<= np.uint64(60)
        m = int(keys.size)
        succ_row = (np.arange(m) + 1) % m
        draw = rng.random(m)
        succ_row[draw < 0.15] = -1
        succ_row[(draw >= 0.15) & (draw < 0.3)] = np.flatnonzero((draw >= 0.15) & (draw < 0.3))
        succ_row[draw > 0.8] = rng.integers(0, m, size=int((draw > 0.8).sum()))
        table = WalkTable.build(keys, succ_row, rng.integers(-1, m, size=(m, int(rng.integers(6)))))
        targets = rng.integers(0, 2**64, size=n, dtype=np.uint64)
        on_key = rng.random(n) < 0.4
        targets[on_key] = keys[rng.integers(0, m, size=int(on_key.sum()))]
        owners = np.searchsorted(keys, targets) % m
        stray = rng.random(n) < 0.3
        owners[stray] = rng.integers(0, m, size=int(stray.sum()))
        budget = (1, 3, 40)[int(rng.integers(3))]
        serial, split_walk, reference = all_walks(
            table, rng.integers(0, m, size=n), owners, targets, budget
        )
        assert split_walk == serial == reference

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(12, 60),
        queries=st.sampled_from([2, 3, 7, 16]),
        crash=st.sampled_from([0.0, 0.2, 0.5]),
        repair=st.booleans(),
        budget=st.sampled_from([2, 64]),
    )
    def test_engines_answer_alike_split_or_not(self, seed, n, queries, crash, repair, budget):
        """``serve_batch`` and ``serve_range`` split, serial and on the
        reference twin; ``route_batch`` (its deferred truth table walks
        serially) against the split walk over that table built whole and
        against its twin — over crash waves, unrepaired or repaired, and
        budgets short enough to stop walks."""
        overlay = build_overlay(n=n, seed=seed, cap=4)
        overlay.routing = RoutingConfig(budget=budget)
        rng = split(seed, "split-walk")
        OracleView(overlay.ring).crash_fraction(rng, crash)
        if repair:
            overlay.repair_ring()
        view = OracleView(overlay.ring)
        store = ReplicatedStore(overlay.ring, k=3)
        store.seed_items(rng.random(n), view)
        live = overlay.ring.ids_array(live_only=True)
        sources = live[rng.integers(0, live.size, size=queries)]
        keys, ends = rng.random(queries), rng.random(queries)

        reference = ServeEngine(overlay, store, view, cache_size=0, vectorized=False)
        expected = (
            reference.serve_batch(sources, keys),
            reference.serve_range(sources, keys, ends),
        )
        for at in (SERIAL, 2):
            serve = ServeEngine(overlay, store, view, cache_size=0)
            with split_walks(at), walks_seen() as seen:
                got = (serve.serve_batch(sources, keys), serve.serve_range(sources, keys, ends))
            assert len(seen) == (2 if at == SERIAL else 4)
            for result, twin in zip(got, expected):
                for name, column in vars(twin).items():
                    assert np.array_equal(getattr(result, name), column), name

        every = overlay.ring.ids_array(live_only=False)
        sources = every[rng.integers(0, every.size, size=queries)]  # dead peers too
        batch = BatchQueryEngine(overlay).route_batch(sources, keys)
        twin = ReferenceQueryEngine(overlay).route_batch(sources, keys)
        snap = BatchQueryEngine(overlay).snapshot()
        whole, targets = snap.table.whole(), keyspace.from_units(keys)
        with split_walks(), walks_seen() as seen:
            hops, code, __ = greedy_walk(
                whole,
                snap.row_of[sources],
                snap.responsible_rows(targets),
                whole.bounds(targets),
                budget,
            )
        assert walked_in_halves(seen, queries)
        for got_ in (batch, twin):
            assert np.array_equal(got_.hops, hops) and np.array_equal(got_.code, code)

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity here")
    @pytest.mark.parametrize("cpus", [{0}, {0, 1}])
    def test_the_affinity_decides(self, monkeypatch, cpus):
        """A process that may run on one CPU walks on the caller's
        thread; on two it splits."""
        monkeypatch.setattr(walk, "SPLIT_AT", 2)
        monkeypatch.setattr(walk.os, "sched_getaffinity", lambda pid: cpus)
        table = codes_table()
        sources, owners = np.arange(12), (np.arange(12) + 5) % 12
        with walks_seen() as seen:
            answer = greedy_walk(table, sources, owners, table.bounds(table.keys[owners]), 40)
        if len(cpus) == 1:
            assert seen == [(True, 12)]
        else:
            assert walked_in_halves(seen, 12)
        assert [column.tolist() for column in answer] == all_walks(
            table, sources, owners, table.keys[owners], 40
        )[2]

    def test_a_deferred_truth_table_never_splits(self, split_walk):
        """``WalkTable.visit`` writes the table, so a capture's deferred
        table walks on the caller's thread, split forced or not; its
        answer is the split walk's over the table built whole."""
        overlay = build_overlay(n=80, seed=3, cap=4)
        snap = TopologySnapshot.capture(overlay)
        assert snap.table.built is not None
        rng = split(3, "deferred")
        sources = rng.integers(0, snap.all_ids.size, size=40)
        targets = keyspace.from_units(rng.random(40))
        owners = snap.responsible_rows(targets)
        with walks_seen() as seen:
            deferred = greedy_walk(snap.table, sources, owners, snap.table.bounds(targets), 64)
        assert seen == [(True, 40)]
        whole = snap.table.whole()
        with walks_seen() as seen:
            split_answer = greedy_walk(whole, sources, owners, whole.bounds(targets), 64)
        assert walked_in_halves(seen, 40)
        assert all(np.array_equal(a, b) for a, b in zip(deferred, split_answer))


def _split_walk_in_child(send, table, sources, owners, targets) -> None:
    """A fork-started child's split walk: its pool's pid, its answer and
    where its halves walked."""
    with split_walks(), walks_seen() as seen:
        answer = greedy_walk(table, sources, owners, table.bounds(targets), 64)
    send.send((walk._pool[0], [column.tolist() for column in answer], seen))


@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_fork_started_child_splits_its_own_walk():
    """The parent starts the worker with a split walk; a child forked
    afterwards (as the ``Runner``'s process pool forks) inherits the
    executor but not its thread, so it must start its own pool — it
    returns the parent's answer within the timeout instead of hanging on
    a dead worker."""
    overlay = build_overlay(n=200, seed=11, cap=6)
    view = OracleView(overlay.ring)
    store = ReplicatedStore(overlay.ring, k=3)
    store.seed_items(split(11, "fork-items").random(200), view)
    snap = ServeEngine(overlay, store, view, cache_size=0).serve_snapshot()
    rng = split(11, "fork-queries")
    sources = rng.integers(0, snap.size, size=64)
    targets = rng.integers(0, 2**64, size=64, dtype=np.uint64)
    owners, __ = snap.locate(targets)
    with split_walks(), walks_seen() as seen:
        parent = greedy_walk(snap.table, sources, owners, snap.table.bounds(targets), 64)
    assert walked_in_halves(seen, 64) and walk._pool[0] == os.getpid()

    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(
        target=_split_walk_in_child, args=(send, snap.table, sources, owners, targets)
    )
    child.start()
    try:
        assert receive.poll(60), "the child's split walk did not return"
        pool_pid, answer, child_seen = receive.recv()
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
    assert pool_pid == child.pid != os.getpid()
    assert walked_in_halves(child_seen, 64)
    assert answer == [column.tolist() for column in parent]
    assert child.exitcode == 0
