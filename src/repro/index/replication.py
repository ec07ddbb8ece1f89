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

Storage is struct-of-arrays — item keys (sorted, and hashed for exact
lookups), ids and a ``(n_items, k)`` holder matrix — so seeding,
membership checks and the re-replication pass are single numpy passes
even at millions of items. A reference twin in ``tests/twins/``
overrides the three kernels (:meth:`ReplicatedStore.successor_targets`,
:meth:`~ReplicatedStore.truth_live_mask`,
:meth:`~ReplicatedStore.lookup_rows`) with pure-Python loops and must
stay **bit-identical** (holders, loss counts, histograms); the
differential suite asserts it.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..core.soa import HASH_EMPTY, hash_find, hash_place, hash_slots, key_bits
from ..errors import ConfigError
from ..ring.keyspace import from_units

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..membership import MembershipView
    from ..ring import Ring

__all__ = ["ReplicatedStore"]


class ReplicatedStore:
    """A k-replicated item catalog over one ring.

    Args:
        ring: The overlay's :class:`~repro.ring.ring.Ring` (ground truth
            for whether a transfer target can actually receive a copy).
        k: Replication factor — owner plus ``k - 1`` further clockwise
            believed-live successors.

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

    Every seeding (epoch 0) and re-replication pass writes one ``store``
    row into the ring's registry (``ring.state.obs``; its columns:
    ``docs/observability.md``).
    """

    def __init__(self, ring: "Ring", k: int = 3) -> None:
        if k < 1:
            raise ConfigError(f"replication factor k must be >= 1, got {k}")
        self.ring = ring
        self.k = int(k)
        self.item_keys = np.empty(0, dtype=float)
        self.item_ids = np.empty(0, dtype=np.int64)
        self.holders = np.empty((0, self.k), dtype=np.int64)
        self.data_version = 0
        self._next_item_id = 0
        self._index_catalog()

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------

    @property
    def item_count(self) -> int:
        """Items currently surviving in the catalog."""
        return int(self.item_keys.size)

    # Views over the ``store`` rows for ``bench/harness.py``; they go once
    # the bench reads ``table``.

    @property
    def history(self) -> list[SimpleNamespace]:
        """The ``store`` rows so far, one record each."""
        return self.ring.state.obs.rows("store")

    @property
    def items_lost_total(self) -> int:
        """Cumulative unrecoverable losses."""
        return self.ring.state.obs.total("store", "items_lost")

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
        fewer than ``k`` believed-live peers exist.
        """
        exact_keys = from_units(keys)
        b_keys, b_ids = self._believed_ring(view)
        if b_ids.size == 0:
            raise ConfigError("no believed-live peers to place replicas on")
        k_eff = min(self.k, int(b_ids.size))
        targets = np.full((exact_keys.size, self.k), -1, dtype=np.int64)
        idx = np.searchsorted(b_keys, exact_keys, side="left")
        rows = (idx[:, None] + np.arange(k_eff)[None, :]) % b_ids.size
        targets[:, :k_eff] = b_ids[rows]
        return targets

    def truth_live_mask(self, node_ids: np.ndarray) -> np.ndarray:
        """Element-wise "is this holder truth-alive" over an id array
        (``-1`` slots and compacted ids are dead): an
        ``id -> slot -> alive`` gather."""
        state = self.ring.state
        slots = state.slots_of(node_ids)
        return (slots >= 0) & state.alive[slots]

    def seed_items(self, keys: Sequence[float] | np.ndarray, view: "MembershipView") -> int:
        """Bulk-publish items at ``keys``; returns how many were placed.

        Keys are deduplicated, the catalog kept key-sorted (a range is a
        slice) and hashed (an exact-key lookup is a gather). Each item
        lands on its first ``k`` believed-live successors; copies only
        materialize on truth-live targets (a believed-live-but-dead
        target yields a phantom, exactly like the re-replication pass).
        Records an epoch-0 ``store`` row and bumps ``data_version``.

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
        self._index_catalog()
        self.data_version += 1
        self._record_pass(0, 0, targets, alive)
        return int(keys.size)

    # ------------------------------------------------------------------
    # the re-replication pass
    # ------------------------------------------------------------------

    def rereplicate(self, view: "MembershipView", epoch: int) -> SimpleNamespace:
        """One repair-epoch pass: drop the dead, restore ``k`` copies.

        For every item: if **no** current holder is truth-alive the item
        is unrecoverable — removed from the catalog and counted lost.
        Survivors move to the first ``k`` believed-live successors of
        their key (the successor-list handoff); a copy lands only where
        the target is truth-alive, so believed-live-but-dead targets
        leave phantom gaps until a later pass (after eviction) fills
        them. Consumes no randomness, never touches the ring — running
        the pass cannot perturb the churn engine's RNG streams or
        topology. Bumps ``data_version``; returns the pass's ``store`` row.
        """
        has_source = self.truth_live_mask(self.holders).any(axis=1)
        lost = int((~has_source).sum())
        if lost:
            self.item_keys = self.item_keys[has_source]
            self.item_ids = self.item_ids[has_source]
            self.holders = self.holders[has_source]
            self._index_catalog()
        empty = self.item_keys.size == 0
        targets = self.holders if empty else self.successor_targets(self.item_keys, view)
        alive = self.truth_live_mask(targets)
        self.holders = np.where(alive, targets, -1)
        self.data_version += 1
        return self._record_pass(int(epoch), lost, targets, alive)

    # ------------------------------------------------------------------
    # lookup + observability
    # ------------------------------------------------------------------

    def _index_catalog(self) -> None:
        """Hash every catalog key's bits to its row: the open-addressing
        index :meth:`lookup_rows` reads (``-1`` in a slot without a key)."""
        self._index_bits = np.full(hash_slots(self.item_count), HASH_EMPTY)
        slot, __ = hash_place(self._index_bits, key_bits(self.item_keys))
        self._index_rows = np.full(self._index_bits.size, -1, dtype=np.int32)
        self._index_rows[slot] = np.arange(self.item_count)

    def lookup_rows(self, keys: np.ndarray) -> np.ndarray:
        """Catalog row of each exact key (``-1`` when absent or lost): a
        hashed gather of the key's bits, ``-0.0`` read as ``0.0``."""
        keys = np.asarray(keys, dtype=float)
        slot, __ = hash_find(self._index_bits, key_bits(keys.reshape(-1)))
        return self._index_rows[slot].reshape(keys.shape)

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
        return int((self.live_replica_counts() < self.k).sum())

    def _record_pass(
        self, epoch: int, lost: int, targets: np.ndarray, alive: np.ndarray
    ) -> SimpleNamespace:
        """Write the ``store`` row of a pass that sent copies to
        ``targets`` and landed those ``alive`` marks; the catalog is
        counted after the pass."""
        counts = self.live_replica_counts()
        return self.ring.state.obs.record(
            "store",
            epoch,
            items=self.item_count,
            items_lost=lost,
            placed=int(alive.sum()),
            phantom_replicas=int(((targets >= 0) & ~alive).sum()),
            under_k=int((counts < self.k).sum()),
            histogram=tuple(int(c) for c in np.bincount(counts, minlength=self.k + 1)),
        )
