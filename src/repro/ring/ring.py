"""The ring substrate: a sorted circle of peers with liveness tracking.

The :class:`Ring` is the ground-truth membership structure shared by the
Oscar overlay, the Mercury baseline, the samplers and the experiment
harness. It stores, for every peer that ever joined, a unique position on
the unit circle and an alive/dead flag; it answers successor/predecessor
and clockwise-rank queries in ``O(log N)`` using cached sorted arrays.

Design notes
------------

* **One peer per key cell.** A join into a ``2**-64`` key cell a peer
  (live or dead) already holds — at an equal float, or a distinct one
  closer than ``2**-64``, only ever below ``2**-11`` — is rejected with
  :class:`~repro.errors.DuplicateNodeError`; callers draw a fresh
  position. So the sorted ``uint64`` keys strictly increase, every
  lookup searches them, and a float argument is converted once, by
  :func:`~repro.ring.keyspace.from_unit`.
* **Crashes mark, never remove.** Failure injection flips the alive flag;
  dead peers stay in the structure so that long-range links pointing at
  them can be discovered as dangling by the fault-aware router, exactly
  like a timed-out probe in a deployed system.
* **Struct-of-arrays state.** Per-peer facts (position, exact ``uint64``
  key, liveness) live in a shared :class:`~repro.core.soa.SubstrateState`
  — flat arrays indexed by slot — and the ring keeps only the clockwise
  order of slots and their sorted keys. Overlays pass their state in so
  their builders and ring queries read the same cells; a stand-alone
  ``Ring()`` owns a private state. Position/id/key arrays (all peers,
  and live-only) are gathered from the state, cached and invalidated on
  mutation, so the hot lookups used by sampling, link acquisition and
  the batch engine are vectorized.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from ..errors import DuplicateNodeError, EmptyPopulationError, RingInvariantError, UnknownNodeError
from ..types import NodeId
from . import keyspace

if TYPE_CHECKING:
    from ..core.soa import SubstrateState

__all__ = ["Ring"]


class Ring:
    """A circle of peers ordered by their key-space position."""

    def __init__(self, state: "SubstrateState | None" = None) -> None:
        if state is None:
            from ..core.soa import SubstrateState

            state = SubstrateState()
        self.state = state
        self._sorted_slots = np.empty(0, dtype=np.int64)
        self._sorted_keys = np.empty(0, dtype=np.uint64)
        # Cached (positions, ids, keys, slots) tuples; see _arrays().
        self._cache_all: tuple[np.ndarray, ...] | None = None
        self._cache_live: tuple[np.ndarray, ...] | None = None
        self._version = 0

    @property
    def version(self) -> int:
        """Monotonic membership counter, bumped by every insert / crash /
        revival. Derived structures (e.g. the batch engine's successor
        cache) compare versions instead of subscribing to callbacks."""
        return self._version

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    def insert(self, node_id: NodeId, position: float) -> None:
        """Add a live peer at ``position``.

        Raises :class:`DuplicateNodeError` if the id is already present or
        the position's ``2**-64`` key cell is taken (one peer per cell
        keeps the clockwise key order total).
        """
        key = np.uint64(keyspace.from_unit(position, "position"))
        if self.state.slot_of(node_id) >= 0:
            raise DuplicateNodeError(f"node {node_id} already joined")
        idx = int(np.searchsorted(self._sorted_keys, key))
        if idx < self._sorted_keys.size and self._sorted_keys[idx] == key:
            raise self._taken(position, idx)
        slot = self.state.alloc_one(int(node_id), float(position), int(key))
        self._sorted_slots = np.insert(self._sorted_slots, idx, slot)
        self._sorted_keys = np.insert(self._sorted_keys, idx, key)
        self._version += 1
        self._invalidate()

    def insert_many(
        self,
        items: "Iterable[tuple[NodeId, float]] | np.ndarray",
        positions: "np.ndarray | None" = None,
    ) -> None:
        """Bulk-add live peers in one sorted merge.

        ``items`` is an iterable of ``(node id, position)`` pairs or,
        with ``positions`` given, the id array aligned with it (the bulk
        builders hand over the two columns they already hold).

        Equivalent to calling :meth:`insert` per pair (same uniqueness
        rules, same keys — the vectorized ``from_units`` adapter is
        bit-equal to the scalar one) but ``O((N + K) log (N + K))``
        instead of the ``O(N)``-per-insert splicing, which is what
        makes million-peer bulk construction feasible. Validation runs
        on the arrays and before any mutation: a bad position raises
        :class:`~repro.ring.keyspace.KeyspaceError`, a duplicate id or a
        key cell taken twice in the batch or already held
        :class:`DuplicateNodeError` — naming the first offender in key
        order — and the ring is left untouched.
        """
        if positions is None:
            pairs = list(items)
            new_ids = np.array([int(node_id) for node_id, __ in pairs], dtype=np.int64)
            new_pos = np.array([pos for __, pos in pairs], dtype=float)
        else:
            new_ids = np.asarray(items, dtype=np.int64)
            new_pos = np.asarray(positions, dtype=float)
            if new_ids.shape != new_pos.shape or new_ids.ndim != 1:
                raise ValueError("bulk insert needs one position per node id")
        if not new_ids.size:
            return
        bad = ~(np.isfinite(new_pos) & (new_pos >= 0.0) & (new_pos < 1.0))
        if bad.any():
            keyspace.from_unit(float(new_pos[int(bad.argmax())]), "position")  # raises, naming it
        if np.unique(new_ids).size != new_ids.size:
            raise DuplicateNodeError("bulk insert contains a repeated node id")
        joined = self.state.slots_of(new_ids) >= 0
        if joined.any():
            raise DuplicateNodeError(f"node {int(new_ids[int(joined.argmax())])} already joined")
        new_keys = keyspace.from_units(new_pos)  # bit-equal to scalar from_unit
        held = self._sorted_keys.size
        merged = np.concatenate([self._sorted_keys, new_keys])
        merge_order = np.argsort(merged, kind="stable")  # a held key sorts before a new twin
        merged = merged[merge_order]
        clash = np.flatnonzero(merged[1:] - merged[:-1] == 0)  # a zero gap: one cell twice
        if clash.size:
            first, second = merge_order[clash[0]], merge_order[clash[0] + 1]
            if first >= held:
                raise DuplicateNodeError("bulk insert contains a repeated position (key cell)")
            raise self._taken(float(new_pos[second - held]), int(first))
        slots = self.state.alloc_many(new_ids, new_pos, new_keys)
        self._sorted_keys = merged
        self._sorted_slots = np.concatenate([self._sorted_slots, slots])[merge_order]
        self._version += int(new_ids.size)
        self._invalidate()

    def remove_many(self, node_ids: "Iterable[NodeId]") -> None:
        """Bulk-remove peers (live or dead) from the structure entirely.

        The teardown mirror of :meth:`insert_many`: one mask pass over
        the sorted order plus a free-list return of the slots, which is
        what keeps long steady-state churn runs memory-bounded — crashed
        peers are *marked* dead (so dangling links stay discoverable)
        and only compacted away here once periodic repair has rewired
        around them. Removed positions (and slots) become free again;
        slots are recycled smallest-first so fixed-seed runs have a
        deterministic physical layout.

        Validation runs on the id array and before any mutation: a
        repeated or unknown id raises :class:`DuplicateNodeError` /
        :class:`UnknownNodeError` (the first unknown one) and leaves the
        ring untouched. Removing nothing is a no-op (no version bump).
        """
        if not isinstance(node_ids, np.ndarray):
            node_ids = list(node_ids)
        ids = np.asarray(node_ids, dtype=np.int64)
        if not ids.size:
            return
        if np.unique(ids).size != ids.size:
            raise DuplicateNodeError("bulk remove contains a repeated node id")
        drop_slots = self.state.slots_of(ids)
        unknown = drop_slots < 0
        if unknown.any():
            raise UnknownNodeError(int(ids[int(unknown.argmax())]))
        flags = np.zeros(self.state.capacity, dtype=bool)
        flags[drop_slots] = True
        keep = ~flags[self._sorted_slots]
        self._sorted_slots = self._sorted_slots[keep]
        self._sorted_keys = self._sorted_keys[keep]
        self.state.free_many(drop_slots)
        self._version += int(ids.size)
        self._invalidate()

    def mark_dead(self, node_id: NodeId) -> None:
        """Crash a peer. Idempotent."""
        slot = self._require_known(node_id)
        if self.state.alive[slot]:
            self.state.alive[slot] = False
            self._version += 1
            self._cache_live = None

    def mark_dead_slots(self, slots: np.ndarray) -> None:
        """Crash the peers in ``slots`` (known slots; repeats and dead
        ones are idempotent) in one masked write; the version moves by
        the number killed, as that many :meth:`mark_dead` calls move it."""
        alive = self.state.alive
        killed = np.unique(slots[alive[slots]])
        if killed.size:
            alive[killed] = False
            self._version += int(killed.size)
            self._cache_live = None

    def mark_alive(self, node_id: NodeId) -> None:
        """Revive a crashed peer (used by churn processes). Idempotent."""
        slot = self._require_known(node_id)
        if not self.state.alive[slot]:
            self.state.alive[slot] = True
            self._version += 1
            self._cache_live = None

    def is_alive(self, node_id: NodeId) -> bool:
        """Whether the peer is currently live."""
        slot = self._require_known(node_id)
        return bool(self.state.alive[slot])

    def __contains__(self, node_id: object) -> bool:
        return self.state.slot_of(node_id) >= 0

    def __len__(self) -> int:
        """Total number of peers ever joined (live + dead)."""
        return int(self._sorted_slots.size)

    @property
    def live_count(self) -> int:
        """Number of currently live peers."""
        __, ids, __k = self._arrays(live_only=True)
        return int(ids.size)

    def position(self, node_id: NodeId) -> float:
        """The unit-circle position of a peer (live or dead)."""
        slot = self._require_known(node_id)
        return float(self.state.pos[slot])

    def key_of(self, node_id: NodeId) -> int:
        """The exact fixed-point key of a peer (live or dead) — the
        ``uint64`` twin of :meth:`position`, converted once at insert."""
        slot = self._require_known(node_id)
        return int(self.state.key[slot])

    def node_ids(self, live_only: bool = False) -> list[NodeId]:
        """All node ids in clockwise (position) order."""
        __, ids, __k = self._arrays(live_only)
        return [int(i) for i in ids]

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self.node_ids())

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def successor_of_key(self, key: float, live_only: bool = True) -> NodeId:
        """The peer responsible for ``key`` (Chord's ``successor(key)``):
        the peer holding ``key``'s ``2**-64`` key cell, else the first
        one clockwise after it."""
        target = np.uint64(keyspace.from_unit(key))
        __, ids, keys = self._arrays(live_only)
        if ids.size == 0:
            raise EmptyPopulationError("ring has no " + ("live " if live_only else "") + "peers")
        return int(ids[int(np.searchsorted(keys, target)) % ids.size])

    def successor(self, node_id: NodeId, live_only: bool = True) -> NodeId:
        """The next peer clockwise after ``node_id`` (never itself, unless
        it is the only peer in scope)."""
        return self._neighbor(node_id, step=+1, live_only=live_only)

    def predecessor(self, node_id: NodeId, live_only: bool = True) -> NodeId:
        """The previous peer counter-clockwise before ``node_id``."""
        return self._neighbor(node_id, step=-1, live_only=live_only)

    def _neighbor(self, node_id: NodeId, step: int, live_only: bool) -> NodeId:
        __, ids, keys = self._arrays(live_only)
        idx, present = self._index(node_id, keys)
        if ids.size == 0:
            raise EmptyPopulationError("ring has no live peers")
        if not present:  # dead and excluded from the live view: step from its would-be slot
            return int(ids[(idx if step > 0 else idx - 1) % ids.size])
        return int(ids[(idx + step) % ids.size])

    # ------------------------------------------------------------------
    # clockwise ranks
    # ------------------------------------------------------------------

    def position_at_cw_rank(self, origin: float, rank: int, live_only: bool = True) -> float:
        """Position of the peer at clockwise rank ``rank`` from ``origin``.

        Rank 1 is the first peer strictly after ``origin``; rank ``n``
        wraps all the way around. Used by the oracle partitioner to read
        exact median borders in ``O(log N)``.
        """
        origin_key = np.uint64(keyspace.from_unit(origin, "origin"))
        positions, __, keys = self._arrays(live_only)
        n = positions.size
        if n == 0:
            raise EmptyPopulationError("ring has no live peers")
        if not 1 <= rank <= n:
            raise ValueError(f"rank must be in [1, {n}], got {rank}")
        base = int(np.searchsorted(keys, origin_key, side="right"))
        return float(positions[(base + rank - 1) % n])

    def cw_rank_of(self, origin: float, node_id: NodeId, live_only: bool = True) -> int:
        """Clockwise rank of ``node_id`` as seen from ``origin`` (>= 1)."""
        origin_key = np.uint64(keyspace.from_unit(origin, "origin"))
        __, ids, keys = self._arrays(live_only)
        if ids.size == 0:
            raise EmptyPopulationError("ring has no live peers")
        idx, present = self._index(node_id, keys)
        if not present:
            raise UnknownNodeError(node_id)
        base = int(np.searchsorted(keys, origin_key, side="right"))
        return (idx - base) % ids.size + 1

    def positions_array(self, live_only: bool = False) -> np.ndarray:
        """Sorted copy of all peer positions (read-only view semantics:
        callers must not mutate)."""
        positions, __, __k = self._arrays(live_only)
        return positions

    def ids_array(self, live_only: bool = False) -> np.ndarray:
        """Node ids sorted by position, aligned with :meth:`positions_array`."""
        __, ids, __k = self._arrays(live_only)
        return ids

    def keys_array(self, live_only: bool = False) -> np.ndarray:
        """Exact ``uint64`` keys aligned with :meth:`positions_array`
        (strictly increasing: one peer per key cell)."""
        __, __i, keys = self._arrays(live_only)
        return keys

    def slots_array(self, live_only: bool = False) -> np.ndarray:
        """Physical slots (rows into the substrate state's arrays) in
        clockwise order, aligned with :meth:`positions_array`. This is
        the bridge the array kernels use to read per-peer columns."""
        cache = self._tuples(live_only)
        return cache[3]

    # ------------------------------------------------------------------
    # structural verification
    # ------------------------------------------------------------------

    def verify(self) -> None:
        """Check the ring/state structural invariants, raising
        :class:`~repro.errors.RingInvariantError` on the first violation:

        * the sorted keys strictly increase, mirror the state's key
          cells exactly, and each is the key of its peer's position;
        * every ordered slot is allocated (``node_id >= 0``) and the
          id -> slot map is its exact inverse;
        * the cached live view agrees with the liveness bitmap;
        * free slots are genuinely cleared (``node_id == -1``).
        """
        state = self.state
        slots = self._sorted_slots
        if slots.size != len(set(int(s) for s in slots)):
            raise RingInvariantError("clockwise order repeats a slot")
        keys = self._sorted_keys
        if not np.array_equal(keys, state.key[slots]):
            raise RingInvariantError("sorted keys diverged from state keys")
        if not bool((keys[1:] > keys[:-1]).all()):
            raise RingInvariantError("clockwise order is not strictly increasing")
        if not np.array_equal(keys, keyspace.from_units(state.pos[slots])):
            raise RingInvariantError("a peer's key is not the key of its position")
        ids = state.node_id[slots]
        if bool((ids < 0).any()):
            raise RingInvariantError("clockwise order references a freed slot")
        back = state.slots_of(ids)
        if not np.array_equal(back, slots):
            raise RingInvariantError("id -> slot map is not the inverse of the order")
        live_ids = self.ids_array(live_only=True)
        bitmap_ids = np.sort(ids[state.alive[slots]])
        if not np.array_equal(np.sort(live_ids), bitmap_ids):
            raise RingInvariantError("live cache disagrees with the liveness bitmap")
        for free_slot in state._free:
            if state.node_id[free_slot] != -1:
                raise RingInvariantError(f"free slot {free_slot} still holds a peer")

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _require_known(self, node_id: NodeId) -> int:
        slot = self.state.slot_of(node_id)
        if slot < 0:
            raise UnknownNodeError(node_id)
        return slot

    def _index(self, node_id: NodeId, keys: np.ndarray) -> tuple[int, bool]:
        """Where ``node_id``'s key sorts among the sorted ``keys``, and
        whether it is there (a dead peer is not in the live keys)."""
        key = self.state.key[self._require_known(node_id)]
        idx = int(np.searchsorted(keys, key))
        return idx, idx < keys.size and keys[idx] == key

    def _taken(self, position: float, idx: int) -> DuplicateNodeError:
        """The refusal of ``position``, whose key cell the peer at sorted
        index ``idx`` holds."""
        occupant = int(self.state.node_id[self._sorted_slots[idx]])
        return DuplicateNodeError(
            f"position {position!r} already occupied by node {occupant} (its 2**-64 key cell)"
        )

    def _invalidate(self) -> None:
        self._cache_all = None
        self._cache_live = None

    def _tuples(self, live_only: bool) -> tuple[np.ndarray, ...]:
        state = self.state
        if live_only:
            if self._cache_live is None:
                mask = state.alive[self._sorted_slots]
                slots = self._sorted_slots[mask]
                self._cache_live = (
                    state.pos[slots],
                    state.node_id[slots],
                    self._sorted_keys[mask],
                    slots,
                )
            return self._cache_live
        if self._cache_all is None:
            slots = self._sorted_slots
            self._cache_all = (
                state.pos[slots],
                state.node_id[slots],
                self._sorted_keys.copy(),
                slots.copy(),
            )
        return self._cache_all

    def _arrays(self, live_only: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        positions, ids, keys, __ = self._tuples(live_only)
        return positions, ids, keys
