"""Struct-of-arrays substrate state shared by the ring and the overlays.

This module is the data layout underneath the whole system: one
:class:`SubstrateState` holds, in flat numpy arrays indexed by *slot*,
everything the ring and the three substrates (Oscar, Mercury, Chord)
know about a peer — its id, unit-circle position, exact ``uint64`` key,
liveness flag, maintained ring successor / predecessor pointers, in/out
capacities and degrees, its padded long-link table, its partition-table
view of the key space (or Mercury's histogram of it), its cumulative
sampling spend, the failure-detector schedule that watches it and what
the membership view believes about it. There is no per-peer object:
``Ring`` and the overlays read and write these columns by slot
(``state.in_deg[state.slot_of(node_id)]`` is a peer's in-degree), and
the batch engines read whole columns without crossing the Python
object boundary per peer.

Design notes
------------

* **Slots, not ids.** A peer's *slot* is its physical row in the
  arrays. Ids are logical and dense-ish (assigned by the overlays);
  ``_slot_of`` maps id -> slot in O(1). Slots of removed peers are
  recycled through a free list.
* **The free list is sorted.** ``free_many`` returns slots to the pool
  and ``alloc_many`` always hands out the *smallest* free slots first,
  then fresh slots off the high-water mark. This makes slot layout a
  pure function of the operation history — fixed-seed runs produce the
  same physical layout regardless of dict iteration order or the
  platform's hash seed, which is what lets resume-from-fixture tests
  compare raw arrays.
* **One declaration per column.** A column's dtype, cleared value and
  shape are stated once, as an annotated class attribute of
  :class:`SubstrateState`; allocation, growth and freeing walk the
  collected table, so a freed slot is cleared in every column and the
  next peer to get it inherits nothing.
* **Growth by a quarter.** Rows and matrix widths grow to at least a
  quarter more than they hold when they must grow: appends stay
  amortised O(1), and a 100k-peer overlay under churn holds about 25k
  idle slots instead of 100k.
* **Bounded temporaries.** A kernel that passes over every row works
  in blocks of :data:`ROW_BLOCK` rows (:func:`row_blocks`) and writes
  each block straight into its result, so no ``(rows, width)``
  temporary the size of the overlay sits beside the result.
* **Padded tables.** The long-link table is an ``int32`` matrix with
  ``-1`` padding; row ``s`` holds ``out_count[s]`` targets in columns
  ``0..out_count[s])`` and ``-1`` everywhere after (the *padding
  invariant* — vectorized kernels rely on it to read live links with a
  single mask). The medians table is its float twin for partition
  borders, gated by ``n_medians`` (``-1`` means "no table yet"), and
  ``median_ids`` names, per border, the peer it was picked on.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Iterable

import numpy as np

from ..obs import Registry

__all__ = [
    "ROW_BLOCK",
    "SubstrateState",
    "Column",
    "row_blocks",
    "row_table",
    "rows_of",
]

#: Rows per block of every whole-overlay kernel (captures, estimation
#: draws, arc packing, link passes): a block's temporaries are a few
#: hundred KiB to a MiB, whatever the overlay's size.
ROW_BLOCK = 8192


def row_blocks(rows: int) -> list[slice]:
    """``[0, rows)`` cut into consecutive slices of :data:`ROW_BLOCK`
    rows (the last one shorter)."""
    return [slice(lo, min(lo + ROW_BLOCK, rows)) for lo in range(0, rows, ROW_BLOCK)]


def row_table(ids: np.ndarray, size: int | None = None) -> np.ndarray:
    """``node id -> row`` inverse of ``ids`` (``-1`` for every other id).

    ``size`` defaults to ``max(ids) + 2``; pass it when the table must
    also cover ids that are not rows (a believed-live subset of a ring).
    """
    if size is None:
        size = int(ids.max()) + 2 if ids.size else 1
    table = np.full(size, -1, dtype=np.int64)
    table[ids] = np.arange(ids.size, dtype=np.int64)
    return table


def rows_of(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Bounds-checked ``table[ids]``: ids outside ``[0, table.size)``
    map to ``-1`` instead of wrapping around or raising. The one
    ``id -> row`` / ``id -> slot`` translation every array kernel uses
    (any shape of ``ids``)."""
    if table.size == 0:
        return np.full(ids.shape, -1, dtype=np.int64)
    inside = (ids >= 0) & (ids < table.size)
    return np.where(inside, table[np.clip(ids, 0, table.size - 1)], -1)


# Open addressing over float keys: a key is its IEEE bits, homed by a
# multiplicative hash and probed linearly (wrapping) in a power-of-two
# slot column. The result cache and the store's catalog index share it.

#: Multiplicative (Fibonacci) hash: ``2**64`` over the golden ratio, odd.
HASH_MULTIPLIER = np.uint64(0x9E37_79B9_7F4A_7C15)
#: Bits of a slot that held no key since the table was built or cleared: a
#: chain ends here. No key in ``[0, 1)`` has these bits, nor ``HASH_DELETED``.
HASH_EMPTY = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
#: Bits of a slot whose key was removed (a tombstone): a chain runs on
#: past it, a placement may claim it.
HASH_DELETED = np.uint64(0xFFFF_FFFF_FFFF_FFFE)


def key_bits(keys: np.ndarray) -> np.ndarray:
    """Injective ``uint64`` image of float keys: the IEEE bit pattern
    (``+ 0.0`` folds ``-0.0`` onto ``0.0``, the only two equal floats
    with different bits). Distinct floats stay distinct even inside one
    ``2**-64`` keyspace cell."""
    return (np.asarray(keys, dtype=np.float64) + 0.0).view(np.uint64)


def hash_slots(keys: int) -> int:
    """Slots of a table built for ``keys`` keys: a power of two, at
    least 64 and four per key."""
    return max(64, 1 << (4 * keys - 1).bit_length())


def hash_home(bits: np.ndarray, slots: int) -> np.ndarray:
    """Home slot of every key in a table of ``slots`` slots: the top
    ``log2(slots)`` bits of ``bits * HASH_MULTIPLIER``."""
    shift = np.uint64(65 - slots.bit_length())
    return ((bits * HASH_MULTIPLIER) >> shift).astype(np.intp)


def hash_find(table: np.ndarray, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walk every key's chain through the slot bits ``table``: ``(slot,
    found)``, the slot holding the key, else the empty slot that ends
    its chain. A deleted slot does not end a chain."""
    mask = table.size - 1
    slot = hash_home(bits, table.size)
    held = table[slot]
    found = held == bits
    again = np.flatnonzero(~found)
    again = again[held[again] != HASH_EMPTY]
    while again.size:
        step = (slot[again] + 1) & mask
        slot[again] = step
        held = table[step]
        hit = held == bits[again]
        found[again[hit]] = True
        again = again[~hit & (held != HASH_EMPTY)]
    return slot, found


def hash_place(table: np.ndarray, bits: np.ndarray) -> tuple[np.ndarray, int]:
    """Write distinct keys absent from ``table`` each into the first
    free (empty or deleted) slot of its chain: ``(slot per key, deleted
    slots taken)``. A round writes every pending key into its slot if
    free and reads the slot back: one key wins each slot, the rest step
    on."""
    mask = table.size - 1
    slot, todo, reused = hash_home(bits, table.size), np.arange(bits.size), 0
    while todo.size:
        at, want = slot[todo], bits[todo]
        held = table[at]
        table[at] = np.where(held >= HASH_DELETED, want, held)
        won = table[at] == want
        reused += int(np.count_nonzero(held[won] == HASH_DELETED))
        todo = todo[~won]
        slot[todo] = (slot[todo] + 1) & mask
    return slot, reused


_MIN_CAPACITY = 8


def _grown(have: int, needed: int) -> int:
    """The size a table of ``have`` rows or columns grows to when it
    must hold ``needed``: a quarter more, at least."""
    return max(needed, have + have // 4, _MIN_CAPACITY)


@dataclass(frozen=True)
class Column:
    """One declared per-peer column of :class:`SubstrateState`.

    Attributes:
        dtype: Element type of the array.
        fill: The *cleared value* — what every cell of a never-used or
            freed slot holds.
        matrix: ``True`` for a padded table (one row per slot, width
            grown on demand by :meth:`SubstrateState.ensure_width`),
            ``False`` for a vector (one cell per slot).
    """

    dtype: Any
    fill: Any
    matrix: bool = False

    def full(self, rows: int, width: int = 0) -> np.ndarray:
        """A cleared array of ``rows`` slots (``width`` columns wide)."""
        return np.full((rows, width) if self.matrix else rows, self.fill, dtype=self.dtype)


def column(dtype: Any, fill: Any, matrix: bool = False) -> Any:
    """Declare a column. Typed ``Any`` (the ``dataclasses.field``
    pattern) so ``succ: np.ndarray = column(np.int64, -1)`` annotates
    the array every instance holds under that name."""
    return Column(dtype, fill, matrix)


class SubstrateState:
    """Flat per-peer arrays indexed by slot, with free-list recycling.

    Each column is declared exactly once, below: its dtype, its cleared
    value and whether it is a padded matrix. :attr:`COLUMNS` collects
    the declarations, and construction, row growth, width growth and
    :meth:`free_many` walk that table — a recycled slot is clean in
    *every* column by construction, whoever added the column. On an
    instance each name is a plain array attribute.
    """

    #: ``name -> Column`` of every declaration below, in this order.
    COLUMNS: ClassVar[dict[str, Column]]

    #: Peer id; ``-1`` = free slot.
    node_id: np.ndarray = column(np.int64, -1)
    #: Unit-circle position and its exact ``uint64`` key.
    pos: np.ndarray = column(np.float64, 0.0)
    key: np.ndarray = column(np.uint64, 0)
    #: Ground-truth liveness; a crashed peer keeps its slot.
    alive: np.ndarray = column(bool, False)
    #: Maintained ring pointers as node *ids* (ids are never reused, so
    #: a recycled slot cannot alias); ``-1`` = no pointer.
    succ: np.ndarray = column(np.int64, -1)
    pred: np.ndarray = column(np.int64, -1)
    #: Degree caps (0 when cap-less) and long links pointing at the peer.
    cap_in: np.ndarray = column(np.int32, 0)
    cap_out: np.ndarray = column(np.int32, 0)
    in_deg: np.ndarray = column(np.int32, 0)
    #: Long-link target ids, ``-1`` padding past ``out_count`` columns.
    out_count: np.ndarray = column(np.int32, 0)
    out_links: np.ndarray = column(np.int32, -1, matrix=True)
    #: Cumulative sampling spend.
    samples_spent: np.ndarray = column(np.int64, 0)
    #: Partition table: its span, its border count (``-1`` = no table
    #: yet) and the borders.
    part_origin: np.ndarray = column(np.float64, 0.0)
    part_far_end: np.ndarray = column(np.float64, 0.0)
    n_medians: np.ndarray = column(np.int32, -1)
    medians: np.ndarray = column(np.float64, 0.0, matrix=True)
    #: Per border, the id of the peer whose position it equals when it
    #: was picked (``-1``: an ulp-off border, or past ``n_medians``).
    median_ids: np.ndarray = column(np.int32, -1, matrix=True)
    #: Mercury's density histogram as its cumulative vector; ``nan``
    #: past its end, an all-``nan`` row = no histogram.
    hist_cdf: np.ndarray = column(np.float64, np.nan, matrix=True)
    #: The failure-detector schedule of the peer *as a probe target*,
    #: one column per monitor rank: consecutive failures, whether last
    #: round's probe went unanswered, and the monitor id at that rank.
    probe_fails: np.ndarray = column(np.int64, 0, matrix=True)
    probe_pending: np.ndarray = column(bool, False, matrix=True)
    probe_monitor: np.ndarray = column(np.int64, -1, matrix=True)
    #: Probe-derived belief: evicted by the membership view, and the
    #: epoch the environment recorded the death (``-1`` = none).
    believed_dead: np.ndarray = column(bool, False)
    died_at: np.ndarray = column(np.int32, -1)

    def __init__(self, capacity: int = 0) -> None:
        capacity = max(int(capacity), 0)
        for name, col in self.COLUMNS.items():
            setattr(self, name, col.full(capacity))
        #: What the layers over this state count (:mod:`repro.obs`).
        self.obs = Registry()
        self._slot_of = np.full(capacity, -1, dtype=np.int64)
        self._free: list[int] = []
        self._top = 0

    # ------------------------------------------------------------------
    # capacity management
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Number of physical slots currently allocated."""
        return int(self.node_id.size)

    @property
    def n_slots(self) -> int:
        """Number of slots in use (allocated and not freed)."""
        return self._top - len(self._free)

    @property
    def link_width(self) -> int:
        return int(self.out_links.shape[1])

    def _grow_rows(self, needed: int) -> None:
        old = self.capacity
        if needed <= old:
            return
        new = _grown(old, needed)
        for name, col in self.COLUMNS.items():
            table = getattr(self, name)
            grown = col.full(new, *table.shape[1:])
            grown[:old] = table
            setattr(self, name, grown)

    def ensure_width(self, name: str, width: int) -> None:
        """Grow the padded matrix column ``name`` to at least ``width``
        columns (new cells hold the column's cleared value)."""
        table = getattr(self, name)
        have = table.shape[1]
        if width > have:
            grown = self.COLUMNS[name].full(self.capacity, max(width, have + have // 4))
            grown[:, :have] = table
            setattr(self, name, grown)

    def _ensure_ids(self, max_id: int) -> None:
        if max_id >= self._slot_of.size:
            new = _grown(self._slot_of.size, max_id + 1)
            grown = np.full(new, -1, dtype=np.int64)
            grown[: self._slot_of.size] = self._slot_of
            self._slot_of = grown

    # ------------------------------------------------------------------
    # id -> slot lookup
    # ------------------------------------------------------------------

    def slot_of(self, node_id: object) -> int:
        """Slot of ``node_id``, or ``-1`` when unknown (never raises)."""
        try:
            i = operator.index(node_id)  # type: ignore[arg-type]
        except TypeError:
            return -1
        if i < 0 or i >= self._slot_of.size:
            return -1
        return int(self._slot_of[i])

    def slots_of(self, node_ids: np.ndarray) -> np.ndarray:
        """Vectorized id -> slot lookup; unknown ids map to ``-1``."""
        return rows_of(self._slot_of, np.asarray(node_ids, dtype=np.int64))

    # ------------------------------------------------------------------
    # slot allocation / recycling
    # ------------------------------------------------------------------

    def alloc_many(
        self, node_ids: np.ndarray, positions: np.ndarray, keys: np.ndarray
    ) -> np.ndarray:
        """Allocate one slot per peer and write id/position/key/alive.

        Recycled slots are handed out smallest-first (the free list is
        kept sorted), then fresh slots continue from the high-water
        mark, so physical layout is deterministic for a fixed operation
        history. Every other column holds its cleared value (no ring
        pointers, capacities 0, degree 0, no links, no partition table,
        no detector schedule, believed live).
        """
        ids = np.asarray(node_ids, dtype=np.int64)
        k = int(ids.size)
        if k == 0:
            return np.empty(0, dtype=np.int64)
        reuse = min(k, len(self._free))
        slots = np.empty(k, dtype=np.int64)
        if reuse:
            slots[:reuse] = self._free[:reuse]
            del self._free[:reuse]
        fresh = k - reuse
        if fresh:
            self._grow_rows(self._top + fresh)
            slots[reuse:] = np.arange(self._top, self._top + fresh, dtype=np.int64)
            self._top += fresh
        self.node_id[slots] = ids
        self.pos[slots] = np.asarray(positions, dtype=np.float64)
        self.key[slots] = np.asarray(keys, dtype=np.uint64)
        self.alive[slots] = True
        self._ensure_ids(int(ids.max()))
        self._slot_of[ids] = slots
        return slots

    def alloc_one(self, node_id: int, position: float, key: int) -> int:
        return int(
            self.alloc_many(
                np.array([node_id], dtype=np.int64),
                np.array([position], dtype=np.float64),
                np.array([key], dtype=np.uint64),
            )[0]
        )

    def free_many(self, slots: np.ndarray) -> None:
        """Return slots to the pool, every column back at its cleared
        value.

        The free list is re-sorted so subsequent allocations pop the
        smallest slot first (deterministic recycling).
        """
        arr = np.asarray(slots, dtype=np.int64)
        if arr.size == 0:
            return
        ids = self.node_id[arr]
        self._slot_of[ids[ids >= 0]] = -1
        for name, col in self.COLUMNS.items():
            getattr(self, name)[arr] = col.fill
        self._free.extend(arr.tolist())
        self._free.sort()

    # ------------------------------------------------------------------
    # link rows
    # ------------------------------------------------------------------

    def link_rows(self, slots: np.ndarray, row_of: np.ndarray) -> np.ndarray:
        """The link table of ``slots`` translated through an ``id -> row``
        table: entry ``(i, j)`` (``int32``) is the row of peer
        ``slots[i]``'s ``j``-th link target, ``-1`` where the target has
        no row or the column is padding."""
        return self.link_blocks(slots, row_of)(slice(None))

    def link_blocks(
        self, slots: np.ndarray, row_of: np.ndarray, missing: int = -1
    ) -> Callable[[Any], np.ndarray]:
        """:meth:`link_rows` one block at a time: a function of a slice
        (or an index array) of ``slots`` returning those rows, with the
        translation table built once; ``missing`` stands for a target
        without a row and for padding.

        One gather per block, no mask: read as ``uint32``, the padding
        ``-1`` and every id past the table are out of range, and
        ``take`` clips them all onto one ``missing`` appended to the
        table."""
        table = np.append(np.where(row_of < 0, missing, row_of), missing).astype(np.int32)

        def rows(block: Any) -> np.ndarray:
            links = self.out_links.take(slots[block], axis=0)
            return table.take(links.view(np.uint32), mode="clip")

        return rows

    def clear_links(self, slots: np.ndarray) -> None:
        """Wipe the outgoing-link rows of ``slots`` back to padding."""
        arr = np.asarray(slots, dtype=np.int64)
        if arr.size == 0:
            return
        if self.link_width:
            self.out_links[arr] = -1
        self.out_count[arr] = 0

    def set_links(self, slot: int, targets: Iterable[int]) -> None:
        """Replace the link row of one slot with ``targets`` (in order)."""
        ids = [int(t) for t in targets]
        if self.link_width:
            self.out_links[slot] = -1
        if ids:
            self.ensure_width("out_links", len(ids))
            self.out_links[slot, : len(ids)] = ids
        self.out_count[slot] = len(ids)


SubstrateState.COLUMNS = {
    name: spec for name, spec in vars(SubstrateState).items() if isinstance(spec, Column)
}
