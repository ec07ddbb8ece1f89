"""Cached data-plane serving: believed-membership routing + result LRU.

:class:`~repro.engine.batch.BatchQueryEngine` measures what the *paper*
cares about — hop costs of greedy routing over ground-truth topology.
A deployed data plane cares about something harsher: every ``get`` must
resolve to a replica holder **as the membership view believes the world
to be**, at millions of requests against a ring that churns underneath.
:class:`ServeEngine` is that path:

* a **per-version serve snapshot** (:class:`ServeSnapshot`) — the
  believed-live peers as flat arrays (positions, exact ``uint64`` keys,
  a successor column, a believed-row link matrix), so owner lookup is
  one ``searchsorted`` and routing is the shared greedy-walk kernel
  (:mod:`repro.engine.walk` — the same function the batch engine runs
  over ground truth) handed believed-live arrays. Because no row is a
  believed-dead peer, the walk cannot abort on missing successor
  pointers the way the ground-truth batch walk does mid-churn — and it
  never *routes via* a peer the view has evicted;
* an **LRU result cache** (:class:`ResultCache`) keyed on the target
  key, every entry stamped with the serve version it was computed at
  and served **only** while that version is current — membership
  change, link change, or replica movement each bump the version, so a
  cache can return stale bytes for at most zero versions, never "the
  old owner";
* **stale-serve accounting**: a believed owner that is truth-dead (the
  detection-lag window) fails the request and increments
  ``stale_serves`` — the serving-side twin of the replication layer's
  phantom replicas.

The serve **version** is the triple ``(topology_version,
data_version, evictions)``: substrate links/membership, replica
placement, and probe-view belief each invalidate independently.

``vectorized=False`` swaps every kernel (owner lookup, greedy walk,
holder check) for a pure-Python twin that must produce **bit-identical**
:class:`ServeBatchResult` arrays — the differential the test suite
pins, cache-enabled vs cache-disabled and vectorized vs reference.
"""

from __future__ import annotations

import bisect
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core.soa import row_table, rows_of
from ..errors import ConfigError, RoutingError
from ..ring import keyspace
from .walk import greedy_walk, greedy_walk_reference

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.substrate import Substrate
    from ..index.replication import ReplicatedStore
    from ..membership import MembershipView

__all__ = ["ResultCache", "ServeBatchResult", "ServeEngine", "ServeSnapshot"]


class ResultCache:
    """LRU result cache with version-stamped entries.

    Every entry records the serve version it was computed at; a read
    only returns the entry while the caller's current version equals the
    stored one (the CACHE001 contract — see ``docs/serving.md``), so a
    topology/membership/replica change can never resurface a stale
    owner. Stale entries are dropped lazily on the read that finds them.

    Args:
        capacity: Maximum retained entries; least-recently-used entries
            are evicted beyond it (0 disables caching entirely).
    """

    def __init__(self, capacity: int = 1 << 20) -> None:
        if capacity < 0:
            raise ConfigError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self._entries: OrderedDict[float, tuple[object, tuple]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: float, version: object) -> tuple | None:
        """The payload cached for ``key`` at exactly ``version``, else
        ``None`` (counted as a miss; version-mismatched entries are
        invalidated on the spot)."""
        entry = self._entries.get(key)
        if entry is not None:
            stored_version, payload = entry
            if stored_version == version:
                self._entries.move_to_end(key)
                self.hits += 1
                return payload
            del self._entries[key]
            self.invalidations += 1
        self.misses += 1
        return None

    def put(self, key: float, version: object, payload: tuple) -> None:
        """Insert/overwrite the entry for ``key`` stamped ``version``."""
        if self.capacity == 0:
            return
        self._entries[key] = (version, payload)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (bulk invalidation)."""
        self.invalidations += len(self._entries)
        self._entries.clear()

    @property
    def hit_rate(self) -> float:
        """Lifetime ``hits / (hits + misses)`` (0.0 before any read)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(frozen=True)
class ServeSnapshot:
    """Array view of the *believed-live* overlay at one serve version.

    The successor/owner cache of the serving path: positions, exact
    keys and the neighbor matrix are precomputed once per version, so
    per-request work is pure array gathering. Rows index believed-live
    peers in clockwise (position) order, so the believed ring successor
    of row ``i`` is ``(i + 1) % m``. Links to believed-dead peers are
    dropped at capture — the walk cannot route via them — and the long
    links are the only forwarding candidates (the ground-truth snapshot
    also offers the ring predecessor; see ``docs/architecture.md``).

    Attributes:
        version: The serve version triple this snapshot was built at.
        ids: Believed-live node ids, position order.
        pos: Their unit-circle positions (sorted).
        keys: Exact ``uint64`` twins of ``pos``.
        row_of: ``node id -> believed row`` translation (-1 unknown or
            believed-dead).
        succ_row: Believed ring successor row per row (never -1).
        nbr_rows: Padded believed-row link matrix (-1 padding and
            dropped links), link-table order.
    """

    version: object
    ids: np.ndarray
    pos: np.ndarray
    keys: np.ndarray
    row_of: np.ndarray
    succ_row: np.ndarray
    nbr_rows: np.ndarray

    @classmethod
    def capture(
        cls, substrate: "Substrate", view: "MembershipView", version: object
    ) -> "ServeSnapshot":
        """Materialize the believed-live topology of ``substrate`` as
        seen through ``view``, stamped with ``version``."""
        ring = substrate.ring
        ids = all_ids = ring.ids_array(live_only=False)
        pos = ring.positions_array(live_only=False)
        keys = ring.keys_array(live_only=False)
        slots = ring.slots_array(live_only=False)
        believed = view.live_ids()
        if believed.size == 0:
            raise ConfigError("serve snapshot needs at least one believed-live peer")
        if believed.size != all_ids.size:
            mask = np.isin(all_ids, believed, assume_unique=True)
            ids, pos, keys, slots = ids[mask], pos[mask], keys[mask], slots[mask]
        m = int(ids.size)
        row_of = row_table(ids, int(all_ids.max()) + 2)
        return cls(
            version=version,
            ids=ids,
            pos=pos,
            keys=keys,
            row_of=row_of,
            succ_row=(np.arange(m, dtype=np.int64) + 1) % m,
            nbr_rows=substrate.state.link_rows(slots, row_of),
        )

    @property
    def size(self) -> int:
        """Number of believed-live peers in the snapshot."""
        return int(self.ids.size)

    def owner_rows(self, target_keys: np.ndarray) -> np.ndarray:
        """Believed owner (first believed-live clockwise successor) row
        per key — the vectorized ``successor_of_key`` over belief."""
        idx = np.searchsorted(self.pos, np.asarray(target_keys, dtype=float), side="left")
        return idx % self.size


@dataclass(frozen=True)
class ServeBatchResult:
    """Per-request outcome arrays of one serve batch.

    Attributes:
        target_keys: Requested keys.
        owners: Believed owner node id per request (always a
            believed-live peer — never a peer the view has evicted).
        hit: Served from the result cache (hops charged 0).
        found: The key matched a surviving catalog item.
        success: Delivered — found, owner truth-live, and the owner
            actually holds a replica.
        stale: Believed owner was truth-dead (detection-lag window);
            the request failed even though routing "worked".
        hops: Believed-walk forward hops charged (0 on cache hits).
    """

    target_keys: np.ndarray
    owners: np.ndarray
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
            self._serve_cache = ServeSnapshot.capture(
                self.substrate, self.membership, version
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

        Each request resolves its believed owner, routes to it over
        believed-live peers (cache hits skip routing and charge zero
        hops) and succeeds iff the key names a surviving item whose
        believed owner is truth-alive and truly holds a replica. A
        truth-dead believed owner is a **stale serve**: counted, failed,
        never silently redirected — the detection-lag data risk made
        visible. Results enter the LRU cache stamped with the current
        serve version.

        Raises:
            RoutingError: A source is outside the believed-live set, or
                a believed walk exceeded the routing budget.
        """
        sources = np.asarray(sources, dtype=np.int64)
        target_keys = np.asarray(target_keys, dtype=float)
        if sources.shape != target_keys.shape:
            raise ValueError("sources and target_keys must be aligned 1-d arrays")
        version = self.serve_version
        snap = self.serve_snapshot()
        n = int(sources.size)

        owners = np.empty(n, dtype=np.int64)
        hit = np.zeros(n, dtype=bool)
        found = np.zeros(n, dtype=bool)
        success = np.zeros(n, dtype=bool)
        stale = np.zeros(n, dtype=bool)
        hops = np.zeros(n, dtype=np.int64)

        miss_idx: list[int] = []
        for i in range(n):
            payload = self.result_cache.get(float(target_keys[i]), version)
            if payload is not None:
                owners[i], found[i], success[i], stale[i] = payload
                hit[i] = True
            else:
                miss_idx.append(i)
        if miss_idx:
            miss = np.asarray(miss_idx, dtype=np.int64)
            m_keys = target_keys[miss]
            m_sources = sources[miss]
            source_rows = rows_of(snap.row_of, m_sources)
            if np.any(source_rows < 0):
                bad = int(m_sources[source_rows < 0][0])
                raise RoutingError(f"serve source {bad} is not believed live")
            if self.vectorized:
                owner_rows = snap.owner_rows(m_keys)
            else:
                positions = [float(p) for p in snap.pos]
                owner_rows = np.asarray(
                    [bisect.bisect_left(positions, float(k)) % snap.size for k in m_keys],
                    dtype=np.int64,
                )
            m_owners = snap.ids[owner_rows]
            walk = greedy_walk if self.vectorized else greedy_walk_reference
            m_hops = walk(
                snap.keys,
                snap.succ_row,
                snap.nbr_rows,
                snap.ids,
                source_rows,
                owner_rows,
                keyspace.from_units(m_keys),
                self.routing.budget,
            )
            m_found, m_success, m_stale = self._verify(m_keys, m_owners)
            owners[miss] = m_owners
            found[miss] = m_found
            success[miss] = m_success
            stale[miss] = m_stale
            hops[miss] = m_hops
            for j, i in enumerate(miss_idx):
                self.result_cache.put(
                    float(target_keys[i]),
                    version,
                    (int(m_owners[j]), bool(m_found[j]), bool(m_success[j]), bool(m_stale[j])),
                )
        self.stale_serves += int(stale.sum())
        return ServeBatchResult(
            target_keys=target_keys,
            owners=owners,
            hit=hit,
            found=found,
            success=success,
            stale=stale,
            hops=hops,
        )

    # ------------------------------------------------------------------
    # delivery verification (vectorized + reference twins)
    # ------------------------------------------------------------------

    def _verify(
        self, target_keys: np.ndarray, owner_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Delivery verdict per request: ``(found, success, stale)``.

        ``found`` — the key names a surviving catalog item; ``stale`` —
        the believed owner is truth-dead; ``success`` — found, owner
        truth-alive, and the owner is among the item's replica holders.
        """
        store = self.store
        rows = store.lookup_rows(target_keys)
        found = rows >= 0
        owner_live = store.truth_live_mask(owner_ids)
        stale = ~owner_live
        if self.vectorized:
            safe = np.where(found, rows, 0)
            holds = (store.holders[safe] == owner_ids[:, None]).any(axis=1) & found
        else:
            holds = np.zeros(found.shape, dtype=bool)
            for i in range(int(rows.size)):
                if rows[i] < 0:
                    continue
                holder_row = store.holders[int(rows[i])]
                holds[i] = any(int(h) == int(owner_ids[i]) for h in holder_row)
        return found, found & owner_live & holds, stale
