"""Cached data-plane serving: believed-membership routing + result LRU.

A batch is served in three array steps — **probe** the result cache,
**route and verify** the misses, **insert** their results — with no
per-request Python anywhere on the ``vectorized=True`` path.

:class:`~repro.engine.batch.BatchQueryEngine` measures what the *paper*
cares about — hop costs of greedy routing over ground-truth topology.
A deployed data plane cares about something harsher: every ``get`` must
resolve to a replica holder **as the membership view believes the world
to be**, at millions of requests against a ring that churns underneath.
:class:`ServeEngine` is that path:

* a **per-version serve snapshot** (:class:`ServeSnapshot`) — the
  believed-live peers as flat arrays (exact ``uint64`` keys, a
  successor column, the believed-row links as row offsets), and routing
  is the shared greedy-walk kernel (:mod:`repro.engine.walk` — the same
  function the batch engine runs over ground truth) handed the
  believed-live table. Because no row is a believed-dead peer, a walk
  cannot fail on a missing successor pointer the way a ground-truth
  batch walk does mid-churn — and it never *routes via* a peer the
  view has evicted;
* **answers per catalog item, once per version**: who owns a key, the
  walk's bound for it and whether it is delivered depend only on the
  key and the serve version, so the capture computes them for every
  catalog item as three columns (one search of the sorted catalog keys
  over the ring keys, one holders check). A routed request whose key
  is a catalog item reads its row through the one catalog search the
  batch does; a key outside the catalog is located (one search) and
  verified on its own, a masked branch of the same batch;
* an **LRU result cache** (:class:`ResultCache`) — an open-addressing
  hash table of slot-aligned columns (an injective ``uint64`` image of
  the request key, stamp, owner, packed verdict) with **one** scalar
  version: a hit is one hashed gather, a miss one slot write, eviction
  one ``argpartition`` of the stamps, and a version change drops the
  whole table — membership change, link change, or replica movement
  each bump the version, so a cache can return stale bytes for at most
  zero versions, never "the old owner";
* **stale-serve accounting**: a believed owner that is truth-dead (the
  detection-lag window) fails the request and increments
  ``stale_serves`` — the serving-side twin of the replication layer's
  phantom replicas;
* **failure isolation**: a miss whose source is unknown or believed
  dead, or whose walk fails (budget, missing successor, stuck), fails
  alone — an :class:`Outcome` code in the result's ``outcome`` column —
  instead of raising for the batch;
* **ranges** (:meth:`ServeEngine.serve_range`): the same walk to the
  owner of ``lo``, then two slices — of the believed ring and of the
  store's sorted key column. No second loop, no cache.

The serve **version** is the triple ``(topology_version,
data_version, evictions)``: substrate links/membership, replica
placement, and probe-view belief each invalidate independently.

``vectorized=False`` swaps every kernel (owner lookup, greedy walk,
holder check) for a pure-Python twin that must produce **bit-identical**
:class:`ServeBatchResult` arrays — the differential the test suite
pins, cache-enabled vs cache-disabled and vectorized vs reference. The
twin ignores the per-item columns: it bisects every owner and verifies
every request, so the differential pins the columns too. The one result
cache serves both modes.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core.soa import row_table, rows_of
from ..errors import ConfigError
from ..ring import keyspace
from .walk import WalkCode, WalkTable, greedy_walk, greedy_walk_reference, walk_bounds

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.substrate import Substrate
    from ..index.replication import ReplicatedStore
    from ..membership import MembershipView

__all__ = [
    "Outcome",
    "ResultCache",
    "ServeBatchResult",
    "ServeEngine",
    "ServeRangeResult",
    "ServeSnapshot",
]


#: Bits of the packed delivery-verdict column (``flags``).
FLAG_FOUND = np.uint8(1)
FLAG_SUCCESS = np.uint8(2)
FLAG_STALE = np.uint8(4)


def pack_flags(found: np.ndarray, success: np.ndarray, stale: np.ndarray) -> np.ndarray:
    """The three boolean delivery-verdict masks as one ``uint8`` column."""
    return found * FLAG_FOUND | success * FLAG_SUCCESS | stale * FLAG_STALE


#: Bits of 1.0. Every float in ``[0, 1)`` has a bit pattern below it, so
#: no request key can equal either slot sentinel above it.
_ONE_BITS = np.uint64(0x3FF0_0000_0000_0000)
#: ``bits`` of a slot that held no key since the last clear or rehash:
#: a probe chain ends here.
_EMPTY = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
#: ``bits`` of a slot whose key was evicted (a tombstone): a probe chain
#: runs on past it, an insert may claim it.
_DELETED = np.uint64(0xFFFF_FFFF_FFFF_FFFE)
#: ``stamp`` of a slot without an entry: never among the smallest.
_NO_STAMP = np.iinfo(np.int64).max
#: Multiplicative (Fibonacci) hash: ``2**64`` over the golden ratio, odd.
#: A key's home slot is the top ``log2(slots)`` bits of
#: ``bits * HASH_MULTIPLIER``.
HASH_MULTIPLIER = np.uint64(0x9E37_79B9_7F4A_7C15)
#: Slots of a fresh table; rehashes grow it as entries arrive.
_MIN_SLOTS = 64
#: What a slot without an entry holds in ``bits`` / ``stamp`` / ``owner``
#: / ``flags`` (an evicted slot holds ``_DELETED`` in place of ``_EMPTY``).
_FILL = (_EMPTY, _NO_STAMP, -1, 0)


def _key_bits(keys: np.ndarray) -> np.ndarray:
    """Injective ``uint64`` image of float request keys: the IEEE bit
    pattern (``+ 0.0`` folds ``-0.0`` onto ``0.0``, the only two equal
    floats with different bits). Distinct floats stay distinct even
    inside one ``2**-64`` keyspace cell, which ``keyspace.from_units``
    merges below ``2**-11``.

    Raises:
        KeyspaceError: A key's bits are not below those of 1.0 — NaN,
            ``±inf``, a negative key or one ``>= 1.0``. One ``max`` over
            the bits decides, before the caller changes anything.
    """
    bits = (np.asarray(keys, dtype=np.float64) + 0.0).view(np.uint64)
    if bits.size and bits.max() >= _ONE_BITS:
        raise keyspace.KeyspaceError("cache keys must be finite floats in [0, 1)")
    return bits


def _empty_slots(size: int) -> tuple[np.ndarray, ...]:
    dtypes = (np.uint64, np.int64, np.int64, np.uint8)
    return tuple(np.full(size, fill, dtype=dtype) for fill, dtype in zip(_FILL, dtypes))


class ResultCache:
    """LRU result cache held as an open-addressing hash table.

    Four slot-aligned columns of a power-of-two table; a key lives in
    its home slot (a multiplicative hash of its bits) or, on collision,
    in the first free slot after it (linear probing, wrapping):

    ========  ======  =================================================
    column    dtype   meaning
    ========  ======  =================================================
    bits      uint64  IEEE bit pattern of the float request key, or a
                      sentinel: empty (``2**64 - 1``) or deleted
                      (``2**64 - 2``) — no key in ``[0, 1)`` has either
    stamp     int64   use-counter value when last hit or inserted
                      (``int64`` max in a slot without an entry)
    owner     int64   believed owner node id (``-1`` without an entry)
    flags     uint8   ``FLAG_FOUND | FLAG_SUCCESS | FLAG_STALE``
                      (``0`` without an entry)
    ========  ======  =================================================

    A whole batch is probed with one hash, one gather and one compare;
    only keys whose chains collide take further vectorized rounds. An
    insert overwrites known keys in place and writes each new key into
    a free slot (write, read back, the losers step on), so it costs
    O(misses), not O(table), unless it evicts. An evicted slot becomes
    a tombstone; the table rehashes when live plus deleted slots pass
    half of it.

    The table carries **one** version: the first :meth:`probe` or
    :meth:`insert` at a different version drops every entry (counted in
    ``invalidations``), so a read can only return a result computed at
    the caller's current version (the CACHE001 contract — see
    ``docs/serving.md``). Versions are expected to be monotone: one that
    returns to an earlier value finds an empty cache.

    Recency is the ``stamp`` column — every probed or inserted request
    takes the next counter value, in request order — and an insert that
    overflows ``capacity`` drops the entries with the smallest stamps
    (counted in ``evictions``). After each batch the table therefore
    holds the ``capacity`` most recently used distinct keys, which is
    what a sequential ``get … get, put … put`` LRU holds.

    Every key must be a finite float in ``[0, 1)`` (``-0.0`` is
    ``0.0``): :meth:`probe`, :meth:`insert`, :meth:`get` and :meth:`put`
    raise :class:`~repro.ring.keyspace.KeyspaceError` otherwise, before
    any counter or slot changes.

    Args:
        capacity: Maximum retained entries; least-recently-used entries
            are evicted beyond it (0 disables caching entirely).
    """

    def __init__(self, capacity: int = 1 << 20) -> None:
        if capacity < 0:
            raise ConfigError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self._version: object = None
        self._clock = 0
        self._live = 0
        self._deleted = 0
        self._slots = _empty_slots(_MIN_SLOTS)

    def __len__(self) -> int:
        return self._live

    def _enter(self, version: object) -> None:
        """Make ``version`` the table's version, dropping every entry
        computed at another one."""
        if version != self._version:
            self.clear()
            self._version = version

    def _home(self, bits: np.ndarray) -> np.ndarray:
        """Home slot of every key: the top ``log2(slots)`` bits of
        ``bits * HASH_MULTIPLIER``."""
        shift = np.uint64(65 - self._slots[0].size.bit_length())
        return ((bits * HASH_MULTIPLIER) >> shift).astype(np.intp)

    def _find(self, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Walk every key's chain: ``(slot, found)``, the slot holding
        the key, else the empty slot that ends its chain. A deleted
        slot does not end a chain."""
        table_bits = self._slots[0]
        mask = table_bits.size - 1
        slot = self._home(bits)
        held = table_bits[slot]
        found = held == bits
        again = np.flatnonzero(~found)
        again = again[held[again] != _EMPTY]
        while again.size:
            step = (slot[again] + 1) & mask
            slot[again] = step
            held = table_bits[step]
            hit = held == bits[again]
            found[again[hit]] = True
            again = again[~hit & (held != _EMPTY)]
        return slot, found

    def _place(self, bits: np.ndarray, *values: np.ndarray) -> None:
        """Write distinct keys absent from the table, with their
        ``stamp`` / ``owner`` / ``flags`` values, each into the first
        free (empty or deleted) slot of its chain. A round writes every
        pending key into its slot if free and reads the slot back: one
        key wins each slot, the rest step on."""
        table_bits = self._slots[0]
        mask = table_bits.size - 1
        at, todo = self._home(bits), np.arange(bits.size)
        while todo.size:
            want = bits[todo]
            held = table_bits[at]
            table_bits[at] = np.where(held >= _DELETED, want, held)
            won = table_bits[at] == want
            claimed, rows = at[won], todo[won]
            self._deleted -= int(np.count_nonzero(held[won] == _DELETED))
            for column, value in zip(self._slots[1:], values):
                column[claimed] = value[rows]
            lost = ~won
            todo, at = todo[lost], (at[lost] + 1) & mask

    def _reserve(self, incoming: int) -> None:
        """Rehash before ``incoming`` new keys would take live plus
        deleted slots past half the table: the live entries move to a
        table of at least four slots per entry, tombstones dropped."""
        size = self._slots[0].size
        if 2 * (self._live + self._deleted + incoming) <= size:
            return
        size = _MIN_SLOTS
        while size < 4 * (self._live + incoming):
            size *= 2
        old = self._slots
        keep = old[0] < _DELETED
        self._slots = _empty_slots(size)
        self._deleted = 0
        self._place(old[0][keep], *(column[keep] for column in old[1:]))

    def probe(
        self, keys: np.ndarray, version: object
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Look a batch of request keys up at ``version``.

        Returns ``(hit, owners, flags)`` aligned with ``keys``; a miss
        reads ``owner = -1``, ``flags = 0`` (the values of the empty
        slot that ends its chain). Every key counts in ``hits`` or
        ``misses``, and every hit refreshes its entry's stamp in request
        order (the last occurrence of a repeated key wins).

        Raises:
            KeyspaceError: A key is not a finite float in ``[0, 1)``.
        """
        bits = _key_bits(keys)
        self._enter(version)
        n = int(bits.size)
        if not self._live:
            self.misses += n
            return (
                np.zeros(n, dtype=bool),
                np.full(n, -1, dtype=np.int64),
                np.zeros(n, dtype=np.uint8),
            )
        slot, hit = self._find(bits)
        __, table_stamp, table_owner, table_flags = self._slots
        at = np.flatnonzero(hit)
        np.maximum.at(table_stamp, slot[at], self._clock + at)
        self._clock += n
        self.hits += int(at.size)
        self.misses += n - int(at.size)
        return hit, table_owner[slot], table_flags[slot]

    def insert(
        self, keys: np.ndarray, version: object, owners: np.ndarray, flags: np.ndarray
    ) -> None:
        """Insert/overwrite the results of a batch of request keys at
        ``version`` (the last occurrence of a repeated key wins), then
        evict least-recently-used entries down to ``capacity``.

        Raises:
            KeyspaceError: A key is not a finite float in ``[0, 1)``.
        """
        bits = _key_bits(keys)
        n = int(bits.size)
        if self.capacity == 0 or n == 0:
            return
        self._enter(version)
        order = np.argsort(bits)  # unstable: a key's requests in any order ...
        bits = bits[order]
        first = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
        last = np.maximum.reduceat(order, first)  # ... its last one is the largest index
        bits = bits[first]
        added = (self._clock + last, owners[last], flags[last])
        self._clock += n
        slot, known = self._find(bits)
        new = ~known
        fresh = int(np.count_nonzero(new))
        if fresh < bits.size:  # overwrite in place
            for column, values in zip(self._slots[1:], added):
                column[slot[known]] = values[known]
        if fresh:
            self._reserve(fresh)
            self._place(bits[new], *(values[new] for values in added))
            self._live += fresh
        excess = self._live - self.capacity
        if excess > 0:
            gone = np.argpartition(self._slots[1], excess - 1)[:excess]
            for column, fill in zip(self._slots, (_DELETED, *_FILL[1:])):
                column[gone] = fill
            self._live -= excess
            self._deleted += excess
            self.evictions += excess

    def get(self, key: float, version: object) -> tuple[int, bool, bool, bool] | None:
        """Scalar :meth:`probe`: the ``(owner, found, success, stale)``
        cached for ``key`` at exactly ``version``, else ``None``."""
        hit, owners, flags = self.probe(np.asarray([key], dtype=float), version)
        if not hit[0]:
            return None
        return (
            int(owners[0]),
            bool(flags[0] & FLAG_FOUND),
            bool(flags[0] & FLAG_SUCCESS),
            bool(flags[0] & FLAG_STALE),
        )

    def put(self, key: float, version: object, payload: tuple[int, bool, bool, bool]) -> None:
        """Scalar :meth:`insert` of one ``(owner, found, success,
        stale)`` result."""
        owner, found, success, stale = payload
        self.insert(
            np.asarray([key], dtype=float),
            version,
            np.asarray([owner], dtype=np.int64),
            pack_flags(np.asarray([found]), np.asarray([success]), np.asarray([stale])),
        )

    def clear(self) -> None:
        """Drop every entry (bulk invalidation). The table keeps its
        slots; they are refilled with the empty sentinels."""
        self.invalidations += self._live
        if self._live or self._deleted:
            for column, fill in zip(self._slots, _FILL):
                column.fill(fill)
        self._live = self._deleted = 0

    @property
    def hit_rate(self) -> float:
        """Lifetime ``hits / (hits + misses)`` (0.0 before any read)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(frozen=True)
class ServeSnapshot:
    """Array view of the *believed-live* overlay at one serve version.

    The successor/owner cache of the serving path: exact keys and
    the rank-space link table are precomputed once per version, so
    per-request work is pure array gathering. Rows index believed-live
    peers in clockwise (position) order, so the believed ring successor
    of row ``i`` is ``(i + 1) % m``. Links to believed-dead peers are
    dropped at capture — the walk cannot route via them — and the long
    links are the only forwarding candidates (the ground-truth snapshot
    also offers the ring predecessor; see ``docs/architecture.md``).

    Every answer about a catalog item depends only on its key and the
    version, so capture answers them all, as three columns aligned with
    the store's catalog rows. Each carries one spare last row, which a
    catalog row of ``-1`` (a key outside the catalog) reads, so a gather
    needs no mask; :meth:`ServeEngine.serve_batch` overwrites those rows.

    Attributes:
        version: The serve version triple this snapshot was built at.
        ids: Believed-live node ids, position order.
        keys: Their exact ``uint64`` ring keys (sorted).
        row_of: ``node id -> believed row`` translation (-1 unknown or
            believed-dead).
        table: The :class:`~repro.engine.walk.WalkTable` the kernel
            walks: believed ring successor ``(i + 1) % m`` per row
            (never -1), and each row's believed-row links as ascending
            row offsets (dropped links are padding).
        item_owner: Believed owner row per catalog item (``int32``).
        item_bound: Walk bound per catalog item (``int32``,
            :func:`~repro.engine.walk.walk_bounds`): its owner row when
            a row is keyed exactly at it, else the last row keyed below.
        item_flags: Packed delivery verdict per catalog item
            (``FLAG_FOUND | FLAG_SUCCESS | FLAG_STALE``): found, and
            stale when the owner is truth-dead — truth liveness is fixed
            within a version, since a crash or revive bumps the ring
            version — else delivered when the owner holds a replica.
    """

    version: object
    ids: np.ndarray
    keys: np.ndarray
    row_of: np.ndarray
    table: WalkTable
    item_owner: np.ndarray
    item_bound: np.ndarray
    item_flags: np.ndarray

    @classmethod
    def capture(
        cls,
        substrate: "Substrate",
        view: "MembershipView",
        version: object,
        store: "ReplicatedStore",
    ) -> "ServeSnapshot":
        """Materialize the believed-live topology of ``substrate`` as
        seen through ``view``, and the answer for every item of
        ``store``'s catalog, stamped with ``version``."""
        state, slots = substrate.state, view.live_slots()
        if slots.size == 0:
            raise ConfigError("serve snapshot needs at least one believed-live peer")
        ids, keys = state.node_id[slots], state.key[slots]
        m = int(ids.size)
        # Sized over every ring id, so a believed-dead peer reads -1.
        row_of = row_table(ids, int(substrate.ring.ids_array(live_only=False).max()) + 2)
        table = WalkTable.build(
            keys, (np.arange(m, dtype=np.int64) + 1) % m, state.link_blocks(slots, row_of)
        )
        targets = keyspace.from_units(store.item_keys)
        # The catalog is sorted, so its keys are searched in order as they stand.
        first = np.searchsorted(keys, targets)
        owners, bounds = (first % m).astype(np.int32), walk_bounds(keys, targets, first)
        owner_ids = ids[owners]
        stale = ~store.truth_live_mask(owner_ids)
        holds = np.zeros(owners.size, dtype=bool)
        for holder in store.holders.T:
            holds |= holder == owner_ids
        flags = pack_flags(np.ones(owners.size, dtype=bool), ~stale & holds, stale)
        return cls(
            version=version,
            ids=ids,
            keys=keys,
            row_of=row_of,
            table=table,
            item_owner=np.append(owners, np.int32(0)),
            item_bound=np.append(bounds, np.int32(-1)),
            item_flags=np.append(flags, np.uint8(0)),
        )

    @property
    def size(self) -> int:
        """Number of believed-live peers in the snapshot."""
        return int(self.ids.size)

    def owner_rows(self, targets: np.ndarray) -> np.ndarray:
        """Believed owner (first believed-live clockwise successor) row
        per exact ``uint64`` target key — the vectorized
        ``successor_of_key`` over belief, decided in the key domain the
        walk delivers in."""
        return keyspace.search_sorted(self.keys, np.asarray(targets, dtype=np.uint64)) % self.size

    def locate(self, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(owner row, walk bound)`` per exact ``uint64`` target key:
        :meth:`owner_rows` and :meth:`WalkTable.bounds
        <repro.engine.walk.WalkTable.bounds>` from one search."""
        first = keyspace.search_sorted(self.keys, targets)
        return (first % self.size).astype(np.int32), walk_bounds(self.keys, targets, first)


def _bisect_owner_rows(snap: ServeSnapshot, targets: np.ndarray) -> np.ndarray:
    """:meth:`ServeSnapshot.owner_rows`, one ``bisect`` per target (the
    reference twin's owner lookup)."""
    ring_keys = [int(k) for k in snap.keys]
    return np.asarray(
        [bisect.bisect_left(ring_keys, int(t)) % snap.size for t in targets], dtype=np.int64
    )


class Outcome(enum.IntEnum):
    """Codes of :attr:`ServeBatchResult.outcome`: how far a request got.

    Every code but ``SERVED`` is a miss that failed alone — no owner,
    not cached — while the rest of its batch was served. The three walk
    failures are the kernel's :class:`~repro.engine.walk.WalkCode`
    values, so the walk's code column is recorded as it comes.
    """

    SERVED = WalkCode.OK
    """Resolved from the cache or routed to the believed owner; whether
    it was *delivered* is the ``success`` column."""
    BUDGET = WalkCode.BUDGET
    """The believed walk was still short of the owner after the routing
    budget; ``hops`` is the budget."""
    NO_SUCCESSOR = WalkCode.NO_SUCCESSOR
    """The believed walk reached a row without a successor pointer."""
    STUCK = WalkCode.STUCK
    """The believed walk reached a row it could not move from."""
    BAD_SOURCE = 4
    """A miss whose source is unknown or believed dead: not routed."""


@dataclass(frozen=True)
class ServeBatchResult:
    """Per-request outcome arrays of one serve batch.

    Attributes:
        target_keys: Requested keys.
        owners: Believed owner node id per request (always a
            believed-live peer — never a peer the view has evicted;
            ``-1`` on a row whose ``outcome`` is not ``SERVED``).
        outcome: :class:`Outcome` code per request (``uint8``).
        hit: Served from the result cache (hops charged 0).
        found: The key matched a surviving catalog item.
        success: Delivered — found, owner truth-live, and the owner
            actually holds a replica.
        stale: Believed owner was truth-dead (detection-lag window);
            the request failed even though routing "worked".
        hops: Believed-walk forward hops charged (0 on cache hits;
            the hops taken before it stopped on a failed walk).
    """

    target_keys: np.ndarray
    owners: np.ndarray
    outcome: np.ndarray
    hit: np.ndarray
    found: np.ndarray
    success: np.ndarray
    stale: np.ndarray
    hops: np.ndarray

    def as_dict(self) -> dict[str, object]:
        """Aggregate JSON-ready summary (benchmarks, golden fixtures)."""
        n = int(self.target_keys.size)
        routed = int((~self.hit).sum())
        return {
            "requests": n,
            "cache_hits": int(self.hit.sum()),
            "found": int(self.found.sum()),
            "successes": int(self.success.sum()),
            "stale_serves": int(self.stale.sum()),
            "total_hops": int(self.hops.sum()),
            "mean_hops_uncached": (int(self.hops.sum()) / routed) if routed else 0.0,
        }


@dataclass(frozen=True)
class ServeRangeResult:
    """Per-range outcome arrays of one :meth:`ServeEngine.serve_range`
    batch. A range whose ``outcome`` is not ``SERVED`` has no owner, no
    sweep, no items.

    Attributes:
        lo: Range starts (inclusive).
        hi: Range ends (inclusive); ``lo > hi`` wraps through 1.0.
        outcome: :class:`Outcome` code of the entry walk (``uint8``).
        hops: Entry-walk hops to the believed owner of ``lo``.
        owners: That owner's node id — the first swept peer.
        sweep_hops: Believed ring-successor hops from it to the owner
            of ``hi``; the swept owners are ``sweep_hops + 1`` peers.
        item_first: First catalog row of the range.
        item_count: Items in the range
            (``store.slice_rows(item_first[i], item_count[i])``).
        stale_owners: Swept owners that are truth-dead.
    """

    lo: np.ndarray
    hi: np.ndarray
    outcome: np.ndarray
    hops: np.ndarray
    owners: np.ndarray
    sweep_hops: np.ndarray
    item_first: np.ndarray
    item_count: np.ndarray
    stale_owners: np.ndarray


class ServeEngine:
    """The data-plane request path: cached, believed-membership serving.

    :meth:`serve_batch` resolves each request key to its believed
    owner, routes to it over believed-live peers only (the shared
    :func:`~repro.engine.walk.greedy_walk` kernel on a
    :class:`ServeSnapshot`), and verifies delivery against the
    replicated store — with an LRU result cache in front, invalidated
    by serve-version change.

    Args:
        substrate: Any overlay satisfying the
            :class:`~repro.core.substrate.Substrate` protocol.
        store: The :class:`~repro.index.replication.ReplicatedStore`
            holding the items being served (must wrap
            ``substrate.ring``).
        membership: The :class:`~repro.membership.views.MembershipView`
            requests believe (must wrap ``substrate.ring``).
        cache_size: Result-cache capacity (0 disables result caching;
            the serve snapshot is always cached per version).
        vectorized: ``True`` runs the numpy kernels; ``False`` the
            bit-identical pure-Python reference twin.

    Attributes:
        routing: Router cost model (the substrate's own ``routing``
            config): the per-request hop budget.
        result_cache: The :class:`ResultCache` (hit/miss/eviction
            counters).
        stale_serves: Requests that failed because the believed owner
            was truth-dead, lifetime.
    """

    def __init__(
        self,
        substrate: "Substrate",
        store: "ReplicatedStore",
        membership: "MembershipView",
        cache_size: int = 1 << 20,
        vectorized: bool = True,
    ) -> None:
        if store.ring is not substrate.ring:
            raise ConfigError("replicated store wraps a different ring than the substrate")
        if membership.ring is not substrate.ring:
            raise ConfigError("membership view wraps a different ring than the substrate")
        self.substrate = substrate
        self.routing = substrate.routing
        self.store = store
        self.membership = membership
        self.vectorized = bool(vectorized)
        self.result_cache = ResultCache(cache_size)
        self.stale_serves = 0
        self._serve_cache: ServeSnapshot | None = None

    # ------------------------------------------------------------------
    # versioning + snapshot cache
    # ------------------------------------------------------------------

    @property
    def serve_version(self) -> tuple:
        """The serving invalidation triple: substrate
        ``topology_version`` (links/membership), store ``data_version``
        (replica placement) and the view's eviction count (belief).
        Any component changing makes every cached result unservable."""
        return (
            self.substrate.topology_version,
            self.store.data_version,
            self.membership.evictions,
        )

    def serve_snapshot(self) -> ServeSnapshot:
        """The believed-live topology at the *current* serve version,
        rebuilt only when the version moved (the per-version
        successor/owner cache)."""
        version = self.serve_version
        if self._serve_cache is None or self._serve_cache.version != version:
            self._serve_cache = None  # the stale arrays go before their replacements come
            self._serve_cache = ServeSnapshot.capture(
                self.substrate, self.membership, version, self.store
            )
        return self._serve_cache

    def invalidate(self) -> None:
        """Drop the serve snapshot and every cached result
        unconditionally (next batch rebuilds)."""
        self._serve_cache = None
        self.result_cache.clear()  # repro: allow[CACHE001] bulk invalidation, not a serve read

    # ------------------------------------------------------------------
    # the serve path
    # ------------------------------------------------------------------

    def serve_batch(self, sources: np.ndarray, target_keys: np.ndarray) -> ServeBatchResult:
        """Serve one ``get`` batch; returns per-request outcome arrays.

        One cache probe for the whole batch, then the misses resolve
        their believed owner, route to it over believed-live peers and
        are verified — a catalog key by reading its item's row of the
        snapshot's per-item columns, any other key on its own — and
        their results enter the cache stamped with the current serve
        version. A request succeeds iff its key names
        a surviving item whose believed owner is truth-alive and truly
        holds a replica; a truth-dead believed owner is a **stale
        serve**: counted, failed, never silently redirected — the
        detection-lag data risk made visible.

        A cache hit charges zero hops and never consults its source.
        Repeats of a key inside one batch all miss together (the probe
        precedes every insert). A miss whose source is unknown or
        believed dead fails alone (``Outcome.BAD_SOURCE``: no owner, no
        hops, not cached), and so does one whose walk fails
        (``BUDGET`` / ``NO_SUCCESSOR`` / ``STUCK``: no owner, the hops
        it took, not cached); the rest of the batch is served.

        Raises:
            ValueError: ``sources`` and ``target_keys`` are misaligned
                (checked first).
            KeyspaceError: A key is not a finite float in ``[0, 1)``
                (``-0.0`` is ``0.0``) — raised before any counter, cache
                row or snapshot changes.
        """
        sources = np.asarray(sources, dtype=np.int64)
        target_keys = np.asarray(target_keys, dtype=float)
        if sources.shape != target_keys.shape:
            raise ValueError("sources and target_keys must be aligned 1-d arrays")
        # The batch's one exact key domain, converted before anything is
        # counted, cached or captured: a key outside [0, 1) raises here.
        targets = keyspace.from_units(target_keys)
        version = self.serve_version
        snap = self.serve_snapshot()
        n = int(sources.size)

        hit, owners, flags = self.result_cache.probe(target_keys, version)
        outcome = np.full(n, Outcome.SERVED, dtype=np.uint8)
        hops = np.zeros(n, dtype=np.int64)
        miss = np.flatnonzero(~hit)
        source_rows = rows_of(snap.row_of, sources[miss])
        bad = source_rows < 0
        if bad.any():
            outcome[miss[bad]] = Outcome.BAD_SOURCE
            miss, source_rows = miss[~bad], source_rows[~bad]
        if miss.size:
            m_targets = targets[miss]
            owner_rows, bounds, m_flags = self._resolve(snap, target_keys[miss], m_targets)
            if self.vectorized:
                hops[miss], code, __ = greedy_walk(
                    snap.table, source_rows, owner_rows, bounds, self.routing.budget
                )
            else:
                hops[miss], code, __ = greedy_walk_reference(
                    snap.table, source_rows, owner_rows, m_targets, self.routing.budget
                )
            if code.any():
                outcome[miss] = code
                walked = code == WalkCode.OK
                miss, owner_rows, m_flags = miss[walked], owner_rows[walked], m_flags[walked]
            m_owners = snap.ids[owner_rows]
            owners[miss] = m_owners
            flags[miss] = m_flags
            self.result_cache.insert(target_keys[miss], version, m_owners, m_flags)
        stale = (flags & FLAG_STALE) != 0
        self.stale_serves += int(stale.sum())
        return ServeBatchResult(
            target_keys=target_keys,
            owners=owners,
            outcome=outcome,
            hit=hit,
            found=(flags & FLAG_FOUND) != 0,
            success=(flags & FLAG_SUCCESS) != 0,
            stale=stale,
            hops=hops,
        )

    def serve_range(
        self, sources: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> ServeRangeResult:
        """Answer one batch of closed clockwise ranges ``[lo, hi]``.

        A range is the point path's walk plus two slices: the walk goes
        to the believed owner of ``lo``; the owners of the range are
        the believed-ring rows from there to the owner of ``hi``; its
        items are :meth:`ReplicatedStore.range_rows
        <repro.index.replication.ReplicatedStore.range_rows>`. Both ends
        falling to one owner is either a range inside its arc (no
        sweep) or, when its key lies in clockwise ``[lo, hi)``, the
        range that leaves it, crosses every other peer and re-enters
        its arc from behind — all ``m`` owners, ``m - 1`` hops. Two ends
        in one ``2**-64`` key cell with ``hi < lo`` are that full circle
        too (the items are sliced on the floats, and a cell cannot
        straddle 1.0), not the point range. Source and walk failures
        are coded as on the point path; nothing is cached.
        ``vectorized=False`` finds the same answers by stepping
        believed successors one at a time.

        Raises:
            ValueError: ``sources``, ``lo`` and ``hi`` are misaligned.
            KeyspaceError: An end is not a finite float in ``[0, 1)``
                (raised before the snapshot is captured).
        """
        sources = np.asarray(sources, dtype=np.int64)
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        if not sources.shape == lo.shape == hi.shape:
            raise ValueError("sources, lo and hi must be aligned 1-d arrays")
        lo_keys, hi_keys = keyspace.from_units(lo), keyspace.from_units(hi)
        snap = self.serve_snapshot()
        n, m = int(sources.size), snap.size
        outcome = np.full(n, Outcome.BAD_SOURCE, dtype=np.uint8)
        hops = np.zeros(n, dtype=np.int64)
        source_rows = rows_of(snap.row_of, sources)
        known = np.flatnonzero(source_rows >= 0)
        if self.vectorized:
            row_lo, lo_bounds = snap.locate(lo_keys)
            hops[known], outcome[known], __ = greedy_walk(
                snap.table,
                source_rows[known],
                row_lo[known],
                lo_bounds[known],
                self.routing.budget,
            )
        else:
            row_lo = _bisect_owner_rows(snap, lo_keys)
            hops[known], outcome[known], __ = greedy_walk_reference(
                snap.table, source_rows[known], row_lo[known], lo_keys[known], self.routing.budget
            )
        served = outcome == Outcome.SERVED
        dead = ~self.store.truth_live_mask(snap.ids)
        width = hi_keys - lo_keys  # wrapping uint64: 0 is the point range ...
        full = (width == 0) & (hi < lo)  # ... or a wrap inside one key cell
        if self.vectorized:
            sweep = (snap.owner_rows(hi_keys) - row_lo) % m
            sweep[(sweep == 0) & ((snap.keys[row_lo] - lo_keys < width) | full)] = m - 1
            dead_before = np.concatenate([[0], np.cumsum(dead)])
            end = row_lo + sweep + 1  # one past the last swept row, up to m past row 0
            stale = (
                dead_before[np.minimum(end, m)]
                - dead_before[row_lo]
                + dead_before[np.maximum(end - m, 0)]
            )
        else:
            sweep, stale = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
            for i in np.flatnonzero(served):
                row = first = int(row_lo[i])
                stale[i] = dead[row]
                # Step while the owner stood on ends inside [lo, hi), and
                # never back onto the first one.
                reach = keyspace.KEY_MASK + 1 if full[i] else int(width[i])
                while (int(snap.keys[row]) - int(lo_keys[i])) & keyspace.KEY_MASK < reach:
                    row = (row + 1) % m
                    if row == first:
                        break
                    sweep[i] += 1
                    stale[i] += dead[row]
        item_first, item_count = self.store.range_rows(lo, hi)
        return ServeRangeResult(
            lo=lo,
            hi=hi,
            outcome=outcome,
            hops=hops,
            owners=np.where(served, snap.ids[row_lo], -1),
            sweep_hops=sweep * served,
            item_first=item_first,
            item_count=item_count * served,
            stale_owners=stale * served,
        )

    # ------------------------------------------------------------------
    # owner, bound and delivery verdict (vectorized + reference twins)
    # ------------------------------------------------------------------

    def _resolve(
        self, snap: ServeSnapshot, keys: np.ndarray, targets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
        """``(owner row, walk bound, packed verdict)`` per routed request.

        A catalog key reads its item's row of the snapshot's columns
        through the one catalog search; a key outside the catalog is
        located and verified on its own. The reference twin bisects
        every owner, verifies every request and leaves the bound to its
        walk (``None``).
        """
        if not self.vectorized:
            owner_rows = _bisect_owner_rows(snap, targets)
            return owner_rows, None, pack_flags(*self._verify(keys, snap.ids[owner_rows]))
        rows = self.store.lookup_rows(keys)
        owner_rows, bounds = snap.item_owner[rows], snap.item_bound[rows]
        flags = snap.item_flags[rows]
        other = np.flatnonzero(rows < 0)
        if other.size:  # not found, so not delivered; stale if the owner is truth-dead
            owner_rows[other], bounds[other] = snap.locate(targets[other])
            flags[other] = FLAG_STALE * ~self.store.truth_live_mask(snap.ids[owner_rows[other]])
        return owner_rows, bounds, flags

    def _verify(
        self, target_keys: np.ndarray, owner_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Delivery verdict per request, one request at a time (the
        reference twin's; the vectorized path reads a catalog item's
        from the snapshot): ``(found, success, stale)``.

        ``found`` — the key names a surviving catalog item; ``stale`` —
        the believed owner is truth-dead; ``success`` — found, owner
        truth-alive, and the owner is among the item's replica holders.
        """
        store = self.store
        rows = store.lookup_rows(target_keys)
        found = rows >= 0
        owner_live = store.truth_live_mask(owner_ids)
        holds = np.zeros(found.shape, dtype=bool)
        for i in range(int(rows.size)):
            if rows[i] < 0:
                continue
            holder_row = store.holders[int(rows[i])]
            holds[i] = any(int(h) == int(owner_ids[i]) for h in holder_row)
        return found, found & owner_live & holds, ~owner_live
