"""Successor-list replication: k copies of every item, churn-surviving.

An item placed on one peer is lost with that peer's departure, so each
item lives on its **owner** (the first believed-live clockwise
successor of its key) plus ``k - 1`` further clockwise believed-live
successors, and a periodic **re-replication pass** — wired into
:class:`~repro.engine.churn.SteadyStateChurnEngine`'s repair epoch —
restores the replication factor after deaths.

The pass acts on a :class:`~repro.membership.views.MembershipView`, not
on ground truth, which is the whole point:

* under :class:`~repro.membership.views.OracleView` belief **is** truth,
  so every pass lands all ``k`` copies on truth-live peers and an item
  can only die when all ``k`` of its holders crash within one repair
  interval — fewer than ``k`` departures per interval guarantees zero
  loss (the property ``tests/test_replication.py`` pins);
* under :class:`~repro.membership.probe.ProbeView` belief lags truth by
  the detection lag: the pass happily targets crashed-but-undetected
  peers, and a copy "transferred" to a dead peer never materializes —
  a **phantom replica**. Detection lag thereby becomes measurable
  data-risk exposure (phantom counts, under-replication histograms,
  and real loss once lag eats a whole successor list).

Storage is struct-of-arrays — item keys, ids and a ``(n_items, k)``
holder matrix — so seeding, membership checks and the re-replication
pass are single numpy passes even at millions of items. The
``vectorized=False`` reference twin replays the same decisions with
pure-Python loops and must stay **bit-identical** (holders, loss
counts, histograms); the differential suite asserts it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import ConfigError
from ..ring.keyspace import from_units, search_sorted

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..membership import MembershipView
    from ..ring import Ring

__all__ = ["ReplicationEpochStats", "ReplicatedStore"]


@dataclass(frozen=True)
class ReplicationEpochStats:
    """Outcome of one re-replication pass.

    Attributes:
        epoch: The churn epoch the pass ran in (0 for the seeding pass).
        items: Items surviving after the pass.
        items_lost: Items whose every replica was truth-dead when the
            pass ran — unrecoverable, removed from the catalog.
        placed: Replica copies actually materialized this pass (targets
            that were truth-live).
        phantom_replicas: Copies "transferred" to believed-live but
            truth-dead peers — the detection-lag data-risk exposure
            (always 0 under the oracle).
        under_k: Items holding fewer than ``k`` truth-live replicas
            *after* the pass (phantom targets leave gaps).
        histogram: ``histogram[r]`` = items with exactly ``r``
            truth-live replicas after the pass, ``r in 0..k``.
    """

    epoch: int
    items: int
    items_lost: int
    placed: int
    phantom_replicas: int
    under_k: int
    histogram: tuple[int, ...]

    def as_dict(self) -> dict[str, object]:
        """Flat JSON-ready view (golden fixtures, benchmarks)."""
        return {
            "epoch": self.epoch,
            "items": self.items,
            "items_lost": self.items_lost,
            "placed": self.placed,
            "phantom_replicas": self.phantom_replicas,
            "under_k": self.under_k,
            "histogram": list(self.histogram),
        }


class ReplicatedStore:
    """A k-replicated item catalog over one ring.

    Args:
        ring: The overlay's :class:`~repro.ring.ring.Ring` (ground truth
            for whether a transfer target can actually receive a copy).
        k: Replication factor — owner plus ``k - 1`` further clockwise
            believed-live successors.
        vectorized: ``True`` runs the numpy kernels; ``False`` the
            bit-identical pure-Python reference twin.

    Attributes:
        item_keys: Sorted item positions on the unit circle (float,
            aligned with ``item_ids`` / ``holders``).
        item_ids: Stable per-item identifiers (survive catalog
            compaction when neighbors are lost).
        holders: ``(n_items, k)`` int64 matrix of node ids truly holding
            a copy; ``-1`` marks an empty replica slot.
        data_version: Monotonic counter bumped whenever stored results
            may change (seeding, puts, every re-replication pass) — the
            result-cache invalidation hook.
        items_lost_total: Cumulative unrecoverable losses.
        history: Every :class:`ReplicationEpochStats` recorded so far.
    """

    def __init__(self, ring: "Ring", k: int = 3, vectorized: bool = True) -> None:
        if k < 1:
            raise ConfigError(f"replication factor k must be >= 1, got {k}")
        self.ring = ring
        self.k = int(k)
        self.vectorized = bool(vectorized)
        self.item_keys = np.empty(0, dtype=float)
        self.item_ids = np.empty(0, dtype=np.int64)
        self.holders = np.empty((0, self.k), dtype=np.int64)
        self.data_version = 0
        self.items_lost_total = 0
        self.history: list[ReplicationEpochStats] = []
        self._next_item_id = 0

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------

    @property
    def item_count(self) -> int:
        """Items currently surviving in the catalog."""
        return int(self.item_keys.size)

    def _believed_ring(self, view: "MembershipView") -> tuple[np.ndarray, np.ndarray]:
        """``(keys, ids)`` of the believed-live peers, ring order — the
        exact ``uint64`` key and id columns gathered at
        ``view.live_slots()``."""
        state, slots = self.ring.state, view.live_slots()
        return state.key[slots], state.node_id[slots]

    def successor_targets(self, keys: np.ndarray, view: "MembershipView") -> np.ndarray:
        """First ``k`` believed-live clockwise successors of each key.

        Column 0 is the believed owner (``successor_of_key`` over the
        believed-live set, decided on exact ``uint64`` keys — the domain
        a serve snapshot names owners in); columns pad with ``-1`` when
        fewer than ``k`` believed-live peers exist. Vectorized and
        reference paths produce identical matrices.
        """
        exact_keys = from_units(keys)
        b_keys, b_ids = self._believed_ring(view)
        if b_ids.size == 0:
            raise ConfigError("no believed-live peers to place replicas on")
        k_eff = min(self.k, int(b_ids.size))
        targets = np.full((exact_keys.size, self.k), -1, dtype=np.int64)
        if self.vectorized:
            idx = np.searchsorted(b_keys, exact_keys, side="left")
            rows = (idx[:, None] + np.arange(k_eff)[None, :]) % b_ids.size
            targets[:, :k_eff] = b_ids[rows]
        else:
            ring_keys = [int(k) for k in b_keys]
            ids = [int(i) for i in b_ids]
            for row, key in enumerate(exact_keys):
                start = bisect.bisect_left(ring_keys, int(key))
                for col in range(k_eff):
                    targets[row, col] = ids[(start + col) % len(ids)]
        return targets

    def truth_live_mask(self, node_ids: np.ndarray) -> np.ndarray:
        """Element-wise "is this holder truth-alive" over an id array
        (``-1`` slots and compacted ids are dead). Vectorized as an
        ``id -> slot -> alive`` gather; the reference twin asks the ring
        one id at a time — identical masks."""
        if self.vectorized:
            state = self.ring.state
            slots = state.slots_of(node_ids)
            return (slots >= 0) & state.alive[slots]
        mask = np.zeros(node_ids.shape, dtype=bool)
        flat = node_ids.reshape(-1)
        out = mask.reshape(-1)
        for i, node_id in enumerate(flat):
            node_id = int(node_id)
            if node_id >= 0 and node_id in self.ring and self.ring.is_alive(node_id):
                out[i] = True
        return mask

    def seed_items(self, keys: Sequence[float] | np.ndarray, view: "MembershipView") -> int:
        """Bulk-publish items at ``keys``; returns how many were placed.

        Keys are deduplicated and the catalog kept key-sorted (exact-key
        lookups are a ``searchsorted``). Each item lands on its first
        ``k`` believed-live successors; copies only materialize on
        truth-live targets (a believed-live-but-dead target yields a
        phantom, exactly like the re-replication pass). Records an
        epoch-0 :class:`ReplicationEpochStats` and bumps
        ``data_version``.

        Raises:
            KeyspaceError: A key is not a finite float in ``[0, 1)``
                (checked before anything is placed).
        """
        keys = np.unique(np.asarray(keys, dtype=float))
        from_units(keys)  # the check: every served key has an exact ring key
        if self.item_keys.size:
            keys = keys[~np.isin(keys, self.item_keys)]
        ids = np.arange(self._next_item_id, self._next_item_id + keys.size, dtype=np.int64)
        self._next_item_id += int(keys.size)
        targets = self.successor_targets(keys, view)
        alive = self.truth_live_mask(targets)
        holders = np.where(alive, targets, -1)
        if self.item_keys.size:
            merged = np.concatenate([self.item_keys, keys])
            order = np.argsort(merged, kind="stable")
            self.item_keys = merged[order]
            self.item_ids = np.concatenate([self.item_ids, ids])[order]
            self.holders = np.concatenate([self.holders, holders], axis=0)[order]
        else:
            self.item_keys = keys
            self.item_ids = ids
            self.holders = holders
        self.data_version += 1
        phantom = int(((targets >= 0) & ~alive).sum())
        self._record(epoch=0, items_lost=0, placed=int(alive.sum()), phantom=phantom)
        return int(keys.size)

    # ------------------------------------------------------------------
    # the re-replication pass
    # ------------------------------------------------------------------

    def rereplicate(self, view: "MembershipView", epoch: int) -> ReplicationEpochStats:
        """One repair-epoch pass: drop the dead, restore ``k`` copies.

        For every item: if **no** current holder is truth-alive the item
        is unrecoverable — removed from the catalog and counted lost.
        Survivors move to the first ``k`` believed-live successors of
        their key (the successor-list handoff); a copy lands only where
        the target is truth-alive, so believed-live-but-dead targets
        leave phantom gaps until a later pass (after eviction) fills
        them. Consumes no randomness, never touches the ring — running
        the pass cannot perturb the churn engine's RNG streams or
        topology. Bumps ``data_version``.
        """
        if self.item_keys.size == 0:
            stats = self._record(epoch=int(epoch), items_lost=0, placed=0, phantom=0)
            self.data_version += 1
            return stats
        has_source = self.truth_live_mask(self.holders).any(axis=1)
        lost = int((~has_source).sum())
        if lost:
            self.item_keys = self.item_keys[has_source]
            self.item_ids = self.item_ids[has_source]
            self.holders = self.holders[has_source]
            self.items_lost_total += lost
        if self.item_keys.size:
            targets = self.successor_targets(self.item_keys, view)
            alive = self.truth_live_mask(targets)
            self.holders = np.where(alive, targets, -1)
            placed = int(alive.sum())
            phantom = int(((targets >= 0) & ~alive).sum())
        else:
            placed = phantom = 0
        self.data_version += 1
        return self._record(epoch=int(epoch), items_lost=lost, placed=placed, phantom=phantom)

    # ------------------------------------------------------------------
    # lookup + observability
    # ------------------------------------------------------------------

    def lookup_rows(self, keys: np.ndarray) -> np.ndarray:
        """Catalog row of each exact key (``-1`` when absent/lost)."""
        keys = np.asarray(keys, dtype=float)
        if self.item_keys.size == 0:
            return np.full(keys.shape, -1, dtype=np.int64)
        idx = np.minimum(search_sorted(self.item_keys, keys), self.item_keys.size - 1)
        return np.where(self.item_keys[idx] == keys, idx, -1)

    def range_rows(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Catalog slice ``(first, count)`` of each closed clockwise
        range ``[lo, hi]`` — the keys :func:`~repro.ring.identifiers
        .in_closed_cw_range` admits (:meth:`slice_rows` names the rows).
        ``lo > hi`` wraps through 1.0; ``lo == hi`` is the point range."""
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        first = np.searchsorted(self.item_keys, lo, side="left")
        count = np.searchsorted(self.item_keys, hi, side="right") - first
        return first, count + (lo > hi) * self.item_count

    def slice_rows(self, first: int, count: int) -> np.ndarray:
        """Catalog rows of one :meth:`range_rows` slice, clockwise from
        the range start (a wrapped range runs off the end of the
        catalog and on from row 0)."""
        return (int(first) + np.arange(int(count))) % max(self.item_count, 1)

    def live_replica_counts(self) -> np.ndarray:
        """Truth-live copies per item, aligned with ``item_keys``."""
        if self.item_keys.size == 0:
            return np.empty(0, dtype=np.int64)
        return self.truth_live_mask(self.holders).sum(axis=1).astype(np.int64)

    def replica_histogram(self) -> tuple[int, ...]:
        """``histogram[r]`` = items with ``r`` truth-live copies now."""
        counts = self.live_replica_counts()
        return tuple(int(c) for c in np.bincount(counts, minlength=self.k + 1))

    def under_replicated(self) -> int:
        """Items currently holding fewer than ``k`` truth-live copies."""
        if self.item_keys.size == 0:
            return 0
        return int((self.live_replica_counts() < self.k).sum())

    def _record(self, epoch: int, items_lost: int, placed: int, phantom: int) -> ReplicationEpochStats:
        histogram = self.replica_histogram()
        stats = ReplicationEpochStats(
            epoch=epoch,
            items=self.item_count,
            items_lost=items_lost,
            placed=placed,
            phantom_replicas=phantom,
            under_k=int(sum(histogram[: self.k])),
            histogram=histogram,
        )
        self.history.append(stats)
        return stats
