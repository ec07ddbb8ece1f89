"""Push-gossip of dead reports with a bounded staleness age.

Each round every informed peer pushes a dead report to ``gossip_fanout``
uniformly drawn believed-live peers; the report completes once it has
informed all ``n`` of them or its age reaches
:meth:`~repro.membership.config.DetectorConfig.staleness_bound`. It
carries its informed *count*, not its set: ``k`` informed (capped at
``n``) miss a peer with probability ``(1 - 1/n)^(k * fanout)``, so a
round informs ``binomial(n - k, 1 - (1 - 1/n)^(k * fanout))`` more, the
binomial stand-in for the per-peer model's occupancy law
(``docs/membership.md``). A round is one array-argument ``rng.binomial``
over the reports in ascending target order; the power is taken by
repeated squaring (IEEE products round alike in Python and numpy), so
the per-report reference twin in ``tests/twins/``, one scalar draw per
report, is bit-identical in completions, counts and generator position.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..types import NodeId
from .config import DetectorConfig

__all__ = ["GossipMembership"]


class GossipMembership:
    """Every in-flight dead report as ``target``, ``age`` and ``count``
    columns in ascending target order, and the targets whose reports
    finished as one ascending column ``_done`` (reported dead once per
    life: until :meth:`forget`)."""

    __slots__ = ("config", "_done", "_target", "_age", "_count")

    def __init__(self, config: DetectorConfig | None = None) -> None:
        self.config = config or DetectorConfig()
        self._target = np.empty(0, dtype=np.int64)
        self._age, self._count = self._target.copy(), self._target.copy()
        self._done = self._target.copy()

    @property
    def completed(self) -> set[int]:
        """Targets whose reports finished."""
        return set(self._done.tolist())

    @property
    def active(self) -> list[int]:
        """Targets with an in-flight report, ascending."""
        return self._target.tolist()

    def informed_count(self, target: NodeId) -> int:
        """Informed peers of ``target``'s report (0 if none is in flight)."""
        return int(self._count[self._target == int(target)].sum())

    def start(self, target: NodeId, origin: NodeId) -> bool:
        """Begin spreading "``target`` is dead" from ``origin``; False
        for a duplicate of an in-flight or completed report."""
        return bool(self.start_many([target], [origin]))

    def start_many(self, targets: "Iterable[NodeId]", origins: "Iterable[NodeId]") -> int:
        """:meth:`start` for aligned arrays; returns how many started.
        Each origin is its report's one informed peer: only the count is
        kept, so ``origins`` is never read."""
        targets = np.unique(np.asarray(targets, dtype=np.int64))
        targets = targets[~(np.isin(targets, self._target) | np.isin(targets, self._done))]
        if targets.size:
            order = np.argsort(np.concatenate([self._target, targets]))
            self._target = np.concatenate([self._target, targets])[order]
            self._age = np.append(self._age, np.zeros_like(targets))[order]
            self._count = np.append(self._count, np.ones_like(targets))[order]
        return int(targets.size)

    def cancel(self, target: NodeId) -> None:
        """Abort an in-flight report (a completed one stays completed)."""
        self._keep(self._target != int(target))

    def forget(self, targets: "Iterable[NodeId]") -> None:
        """Drop in-flight *and* completed state of ``targets`` (revived
        or compacted away: they may be reported again)."""
        ids = np.fromiter(targets, dtype=np.int64)
        self._done = self._done[~np.isin(self._done, ids)]
        self._keep(~np.isin(self._target, ids))

    def spread(self, live_ids: np.ndarray, rng: np.random.Generator) -> list[int]:
        """One push round over the believed-live ``live_ids`` (only their
        number matters); returns the targets it completed, ascending."""
        n = int(np.asarray(live_ids).size)
        self._age += 1
        if n > 0:
            k = np.minimum(self._count, n)
            miss = np.ones(k.size)
            base, e = 1.0 - 1.0 / n, k * self.config.gossip_fanout
            while e.any():  # miss = base ** e, bit for bit the scalar twin's
                miss[(e & 1).astype(bool)] *= base
                base, e = base * base, e >> 1
            self._count = k + rng.binomial(n - k, 1.0 - miss)
        done = (self._count >= n) | (self._age >= self.config.staleness_bound(max(n, 2)))
        finished = self._target[done]
        self._done = np.union1d(self._done, finished)
        self._keep(~done)
        return finished.tolist()

    def _keep(self, keep: np.ndarray) -> None:
        self._target, self._age = self._target[keep], self._age[keep]
        self._count = self._count[keep]
