"""Epidemic dissemination of dead reports with a bounded staleness age.

Once a quorum of monitors agrees a peer is dead, the report does not
teleport into every membership view — it *spreads*: each round, every
informed peer pushes the report to ``gossip_fanout`` uniformly drawn
peers, the classic push epidemic whose informed set grows by roughly
``(1 + fanout)`` per round and covers ``n`` peers in
``O(log_{1+fanout} n)`` rounds with high probability. A report is
**complete** — and only then acted on by repair/compaction — when its
informed set covers the believed-live population, or when its age
reaches the staleness bound (:meth:`DetectorConfig.staleness_bound
<repro.membership.config.DetectorConfig.staleness_bound>`), whichever
comes first. The bound is the contract that keeps membership knowledge
*boundedly* stale: no report older than ``staleness_bound(n)`` rounds
can still be spreading.

Layout (:class:`GossipMembership`): the reports in flight are
bit-packed ``uint8`` rows — bit ``c & 7`` of byte ``c >> 3`` in row
``r``: report ``r`` has informed the peer owning column ``c`` — beside
``target``, ``age`` and ``count`` (the row's popcount) columns. Columns
are keyed by node id (an ``id -> column`` table; ids are never reused)
and only ever appended: a believed-live id or report origin without one
gets the next, so a member that has left still counts in
``informed_count`` (and the next draw size) and a revived id finds its
old column. Columns no row has set and no live peer owns are dropped in
one compaction once they are over half the width. Rows are appended
with capacity doubling, compacted on completion.

Determinism: no generator of its own — the caller passes the round's
``rng`` (the ``("steady-detect", epoch)`` stream). A report with ``k``
informed members (its count at round start) consumes ``integers(0, n,
(k, fanout))`` per round, reports in ascending target order. The round
walks them in blocks of at most :data:`DRAW_CHUNK` draw rows and
:data:`BLOCK_BYTES` unpacked bytes (at least one row; a report over the
draw budget is drawn in pieces): unpack, one flat ``integers(0, n,
rows * fanout)`` draw plus a per-draw row offset, one flat scatter,
repack. A report in its last round — its age at the staleness bound,
so it retires whatever it draws — consumes the same draws and nothing
else: runs of them are drawn and dropped, never unpacked, and no block
mixes them with spreading reports. Bounded ``integers`` calls
concatenate exactly on PCG64 at any cut, and a flat call equals the
``(rows, fanout)`` one (``test_batched_gossip_draw_matches_per_report_draws``),
so no block boundary shows in the stream.

Memory is reports in flight × columns / 8 bytes plus one block of
scratch: ``detector-churn`` at ``size=100_000, half_life=64,
epochs=12`` peaks at 499 MiB RSS (48 s on a 2-vCPU container); a
Python ``set`` per report passed 15 GB there.

:class:`ScalarGossipMembership` is that set-per-report code, kept as
the reference twin: ``ProbeView(backend="scalar")`` pairs it with the
scalar detector bank, and the hypothesis differential in
``tests/test_membership.py`` holds the two bit-identical in
completions, ``active``, ``informed_count`` and generator position.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..types import NodeId
from .config import DetectorConfig

__all__ = ["GossipMembership", "ScalarGossipMembership"]

DRAW_CHUNK = 1 << 16  # draw rows materialised at a time: one block's, or one report's piece
BLOCK_BYTES = 1 << 20  # unpacked bytes of one block's rows (a block holds at least one row)


class GossipMembership:
    """The spreading state of every in-flight dead report.

    Attributes:
        completed: Targets whose reports already finished (not
            restarted until :meth:`forget` — a dead peer is reported
            dead exactly once per life).
    """

    __slots__ = ("config", "completed", "_col_of", "_cols", "_bits", "_count", "_target", "_age")

    def __init__(self, config: DetectorConfig | None = None) -> None:
        self.config = config or DetectorConfig()
        self.completed: set[int] = set()
        self._col_of = np.empty(0, dtype=np.int64)  # node id -> column, -1 for none
        self._cols = np.empty(0, dtype=np.int64)  # column -> node id
        self._bits = np.zeros((0, 0), dtype=np.uint8)
        self._count = np.empty(0, dtype=np.int64)
        self._target = np.empty(0, dtype=np.int64)
        self._age = np.empty(0, dtype=np.int64)

    @property
    def active(self) -> list[int]:
        """Targets with an in-flight report, ascending."""
        return sorted(self._target.tolist())

    def informed_count(self, target: NodeId) -> int:
        """Size of the informed set for ``target``'s report (0 if no
        report is in flight)."""
        rows = np.flatnonzero(self._target == int(target))
        return int(self._count[rows[0]]) if rows.size else 0

    def start(self, target: NodeId, origin: NodeId) -> bool:
        """Begin spreading "``target`` is dead" from ``origin``.

        Returns whether a new report actually started (duplicates of
        in-flight or completed reports are ignored).
        """
        return bool(self.start_many([target], [origin]))

    def start_many(self, targets: "Iterable[NodeId]", origins: "Iterable[NodeId]") -> int:
        """:meth:`start` for aligned arrays (a repeated target keeps
        its first origin); returns how many reports started."""
        targets, first = np.unique(np.asarray(targets, dtype=np.int64), return_index=True)
        origins = np.asarray(origins, dtype=np.int64)[first]
        done = np.fromiter(self.completed, dtype=np.int64, count=len(self.completed))
        fresh = ~(np.isin(targets, self._target) | np.isin(targets, done))
        targets, origins = targets[fresh], origins[fresh]
        if targets.size:
            r, m = self._target.size, targets.size
            cols = self._columns(origins)
            self._reserve(r + m)
            new = self._bits[r : r + m]
            new[:] = 0  # compaction leaves stale bits past the last row
            new[np.arange(m), cols >> 3] = 1 << (cols & 7)
            self._target = np.concatenate([self._target, targets])
            self._age = np.concatenate([self._age, np.zeros(m, dtype=np.int64)])
            self._count = np.concatenate([self._count, np.ones(m, dtype=np.int64)])
        return int(targets.size)

    def cancel(self, target: NodeId) -> None:
        """Abort an in-flight report (completed reports are untouched —
        :meth:`forget` drops those too)."""
        self._keep(self._target != int(target))

    def forget(self, targets: "Iterable[NodeId]") -> None:
        """Drop in-flight *and* completed state of ``targets``: they
        were revived or compacted away, and may be reported again."""
        ids = [int(t) for t in targets]
        self.completed.difference_update(ids)
        self._keep(~np.isin(self._target, ids))

    def spread(self, live_ids: np.ndarray, rng: np.random.Generator) -> list[int]:
        """Advance every in-flight report one push round.

        ``live_ids`` is the believed-live population the epidemic runs
        over (push targets are drawn uniformly from it — including,
        wastefully but faithfully, the dying peer itself until its
        report completes). Returns the targets whose reports completed
        this round, ascending — the eviction wave the membership view
        applies.
        """
        r = int(self._target.size)
        live_ids = np.asarray(live_ids, dtype=np.int64)
        n = int(live_ids.size)
        self._age += 1
        live_cols = self._columns(live_ids)
        last = self._age >= self.config.staleness_bound(max(n, 2))  # retires whatever it draws
        if n > 0:
            self._push(live_cols, last, rng)
        stale = np.ones(self._cols.size, dtype=bool)  # columns no live peer owns
        stale[live_cols] = False
        n_stale, mask = int(stale.sum()), np.packbits(stale, bitorder="little")
        hit = np.flatnonzero(mask)  # a covered report's count is its stale bits + every live one
        off_live = np.bitwise_count(self._bits[:r, hit] & mask[hit]).sum(axis=1, dtype=np.int64)
        covered = self._count - off_live == stale.size - n_stale
        done = covered | last
        finished = np.sort(self._target[done]).tolist()
        self.completed.update(finished)
        self._keep(~done)
        if 2 * n_stale > stale.size:
            self._drop_columns(stale)
        return finished

    def _push(self, live_cols: np.ndarray, last: np.ndarray, rng: np.random.Generator) -> None:
        """One push round of every report, block by block (module
        docstring); the reports ``last`` marks only consume their draws."""
        nbytes = -(-self._cols.size // 8)
        width = 8 * nbytes
        fanout = self.config.gossip_fanout
        piece = DRAW_CHUNK * fanout
        order = np.argsort(self._target)
        sizes = self._count[order]
        ends = np.cumsum(sizes)
        last = last[order]
        runs = np.append(np.flatnonzero(last[1:] != last[:-1]) + 1, order.size)
        per_block = max(1, BLOCK_BYTES // width)
        i = 0
        while i < order.size:
            stop = int(runs[np.searchsorted(runs, i, side="right")])
            if last[i]:  # a run of last-round reports: the stream moves, the rows do not
                left = int(ends[stop - 1] - ends[i] + sizes[i]) * fanout
                for lo in range(0, left, piece):
                    rng.integers(0, live_cols.size, size=min(piece, left - lo))
                i = stop
                continue
            j = int(np.searchsorted(ends, ends[i] - sizes[i] + DRAW_CHUNK, side="right"))
            j = min(max(j, i + 1), i + per_block, stop)
            rows = order[i:j]
            block = np.unpackbits(self._bits[rows, :nbytes], axis=1, bitorder="little").reshape(-1)
            owner = np.repeat(np.arange(0, (j - i) * width, width), sizes[i:j] * fanout)
            for lo in range(0, owner.size, piece):  # > 1 piece: one report over budget
                part = owner[lo : lo + piece]
                flat = live_cols[rng.integers(0, live_cols.size, size=part.size)]
                flat += part
                block[flat] = 1
            packed = np.packbits(block.reshape(j - i, width), axis=1, bitorder="little")
            self._bits[rows, :nbytes] = packed
            self._count[rows] = np.bitwise_count(packed).sum(axis=1)
            i = j

    def _columns(self, ids: np.ndarray) -> np.ndarray:
        """The column of each of ``ids``, appending one for every id without."""
        top = int(ids.max()) + 1 if ids.size else 0
        if top > self._col_of.size:
            grown = np.full(max(top, 2 * self._col_of.size), -1, dtype=np.int64)
            grown[: self._col_of.size] = self._col_of
            self._col_of = grown
        fresh = np.unique(ids[self._col_of[ids] < 0])
        if fresh.size:
            self._col_of[fresh] = np.arange(self._cols.size, self._cols.size + fresh.size)
            self._cols = np.concatenate([self._cols, fresh])
            self._reserve(self._target.size)
        return self._col_of[ids]

    def _drop_columns(self, stale: np.ndarray) -> None:
        """Drop the ``stale`` columns no row has set, if they are over
        half the width, repacking the rows block by block."""
        r, width = self._target.size, self._cols.size
        used = np.bitwise_or.reduce(self._bits[:r], axis=0)
        keep = ~stale | np.unpackbits(used, count=width, bitorder="little").astype(bool)
        if 2 * int(keep.sum()) >= width:
            return
        self._col_of[self._cols[~keep]] = -1
        self._cols = self._cols[keep]
        self._col_of[self._cols] = np.arange(self._cols.size)
        step = max(1, BLOCK_BYTES // (8 * self._bits.shape[1]))
        for lo in range(0, r, step):
            rows = self._bits[lo : min(lo + step, r)]
            unpacked = np.unpackbits(rows, axis=1, count=width, bitorder="little")
            packed = np.packbits(unpacked[:, keep], axis=1, bitorder="little")
            rows[:] = 0
            rows[:, : packed.shape[1]] = packed

    def _keep(self, keep: np.ndarray) -> None:
        """Compact the rows down to those ``keep`` marks."""
        if not keep.all():
            self._bits[: int(keep.sum())] = self._bits[: keep.size][keep]
            self._target, self._age = self._target[keep], self._age[keep]
            self._count = self._count[keep]

    def _reserve(self, rows: int) -> None:
        """Room for ``rows`` rows of every column (capacities double)."""
        need = (rows, -(-self._cols.size // 8))
        shape = tuple(c if k <= c else max(k, 2 * c) for k, c in zip(need, self._bits.shape))
        if shape != self._bits.shape:
            grown = np.zeros(shape, dtype=np.uint8)
            r = self._target.size
            grown[:r, : self._bits.shape[1]] = self._bits[:r]
            self._bits = grown


class ScalarGossipMembership:
    """The reference twin of :class:`GossipMembership`: one Python
    ``set`` of informed ids per report, one draw per report per round.
    Slow, obvious, same public surface."""

    def __init__(self, config: DetectorConfig | None = None) -> None:
        self.config = config or DetectorConfig()
        self.completed: set[int] = set()
        self._informed: dict[int, set[int]] = {}
        self._age: dict[int, int] = {}

    @property
    def active(self) -> list[int]:
        return sorted(self._informed)

    def informed_count(self, target: NodeId) -> int:
        return len(self._informed.get(int(target), ()))

    def start(self, target: NodeId, origin: NodeId) -> bool:
        target = int(target)
        if target in self._informed or target in self.completed:
            return False
        self._informed[target] = {int(origin)}
        self._age[target] = 0
        return True

    def start_many(self, targets: "Iterable[NodeId]", origins: "Iterable[NodeId]") -> int:
        return sum(self.start(t, o) for t, o in zip(targets, origins))

    def cancel(self, target: NodeId) -> None:
        self._informed.pop(int(target), None)
        self._age.pop(int(target), None)

    def forget(self, targets: "Iterable[NodeId]") -> None:
        for target in targets:
            self.cancel(target)
            self.completed.discard(int(target))

    def spread(self, live_ids: np.ndarray, rng: np.random.Generator) -> list[int]:
        n = int(live_ids.size)
        bound = self.config.staleness_bound(max(n, 2))
        done: list[int] = []
        for target in self.active:
            informed = self._informed[target]
            self._age[target] += 1
            if n > 0:
                draws = rng.integers(0, n, size=(len(informed), self.config.gossip_fanout))
                informed.update(live_ids[draws.ravel()].tolist())
            if self._age[target] >= bound or informed.issuperset(live_ids.tolist()):
                done.append(target)
        for target in done:
            self.cancel(target)
            self.completed.add(target)
        return done
