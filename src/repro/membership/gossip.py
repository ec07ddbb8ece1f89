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

Layout (:class:`GossipMembership`): the reports in flight are the rows
of one ``bool`` matrix — ``M[r, c]``: report ``r`` has informed the
peer owning column ``c`` — beside ``target`` and ``age`` columns. The
**column universe** is a sorted id array, the believed-live ids ∪ every
id some in-flight report has informed: a member that has left the
population still counts in ``informed_count`` (and the next draw size),
a revived id finds its old column and is never counted twice, and a
column no row has set and no live peer owns is dropped at the next
round. Rows are appended with capacity doubling, compacted on completion.

Determinism: no generator of its own — the caller passes the round's
``rng`` (the ``("steady-detect", epoch)`` stream). A report with ``k``
informed members consumes ``integers(0, n, (k, fanout))`` per round,
reports in ascending target order; every ``k`` is a row sum of the
state at round start, so the round is **one** ``integers(0, n, (Σk,
fanout))`` call (cut between reports every :data:`DRAW_CHUNK` rows to
bound the scratch arrays) — consecutive bounded ``integers`` calls
concatenate exactly on PCG64, pinned by
``test_batched_gossip_draw_matches_per_report_draws``.

Memory is reports in flight × columns bytes (transiently 3× while the
universe is re-indexed): ``detector-churn`` at 10k peers, half-life 64
peaks at 666 × 11 108, a 7 MB matrix (129 MiB peak RSS); one run at
``size=100_000, half_life=64, epochs=12`` peaked at 7 364 × 112 831,
0.83 GB (2.5 GiB peak RSS, 266 s wall; 282 and 442 s in earlier runs)
where a Python ``set`` per report passed 15 GB.

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

DRAW_CHUNK = 1 << 20  # rows of a round's draw matrix materialised at a time (+ one report)


class GossipMembership:
    """The spreading state of every in-flight dead report.

    Attributes:
        completed: Targets whose reports already finished (not
            restarted until :meth:`forget` — a dead peer is reported
            dead exactly once per life).
    """

    __slots__ = ("config", "completed", "_cols", "_informed", "_target", "_age")

    def __init__(self, config: DetectorConfig | None = None) -> None:
        self.config = config or DetectorConfig()
        self.completed: set[int] = set()
        self._cols = np.empty(0, dtype=np.int64)
        self._informed = np.zeros((0, 0), dtype=bool)
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
        return int(self._informed[rows[0]].sum()) if rows.size else 0

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
            r = self._target.size
            self._relayout(r + targets.size, np.union1d(self._cols, origins))
            new = self._informed[r : r + targets.size]
            new[:] = False  # compaction leaves stale bits past the last row
            new[np.arange(targets.size), np.searchsorted(self._cols, origins)] = True
            self._target = np.concatenate([self._target, targets])
            self._age = np.concatenate([self._age, np.zeros(targets.size, dtype=np.int64)])
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
        if r == 0:
            return []
        live_ids = np.asarray(live_ids, dtype=np.int64)
        n = int(live_ids.size)
        self._age += 1
        needed = self._informed[:r].any(axis=0)
        self._relayout(r, np.union1d(self._cols[needed], live_ids))
        informed = self._informed[:r]
        live_cols = np.searchsorted(self._cols, live_ids)
        if n > 0:
            order = np.argsort(self._target)
            sizes = informed.sum(axis=1)[order]
            cuts = np.flatnonzero(np.diff(np.cumsum(sizes) // DRAW_CHUNK)) + 1
            for part, k in zip(np.split(order, cuts), np.split(sizes, cuts)):
                rows = np.repeat(part, k)
                draws = rng.integers(0, n, size=(rows.size, self.config.gossip_fanout))
                informed[rows[:, None], live_cols[draws]] = True
        covered = informed.all(axis=1, where=np.isin(self._cols, live_ids, assume_unique=True))
        done = covered | (self._age >= self.config.staleness_bound(max(n, 2)))
        finished = np.sort(self._target[done]).tolist()
        self.completed.update(finished)
        self._keep(~done)
        return finished

    def _keep(self, keep: np.ndarray) -> None:
        """Compact the rows down to those ``keep`` marks."""
        if not keep.all():
            self._informed[: int(keep.sum())] = self._informed[: keep.size][keep]
            self._target, self._age = self._target[keep], self._age[keep]

    def _relayout(self, rows: int, cols: np.ndarray) -> None:
        """Re-index the matrix onto the sorted universe ``cols`` with
        room for ``rows`` rows (capacity doubles when it must grow)."""
        capacity = self._informed.shape[0]
        if rows <= capacity and np.array_equal(cols, self._cols):
            return
        if rows > capacity:
            capacity = max(rows, 2 * capacity)
        r = self._target.size
        kept = np.isin(self._cols, cols, assume_unique=True)
        informed = np.zeros((capacity, cols.size), dtype=bool)
        informed[:r, np.searchsorted(cols, self._cols[kept])] = self._informed[:r][:, kept]
        self._informed, self._cols = informed, cols


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
