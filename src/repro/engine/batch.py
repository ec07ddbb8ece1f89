"""Batched query evaluation over numpy arrays — the measurement hot path.

Every figure of the paper boils down to "route N random queries, average
the cost". This module evaluates a whole query batch in lock-step:
target-key sampling, responsible-peer resolution, per-hop next-hop
selection and hop/success tallies are all vectorized, with a cached
topology snapshot (successor pointers + a rank-space candidate table)
that is rebuilt only when the substrate's ``topology_version`` changes —
i.e. on join/leave/churn/rewire.

The walk itself is the shared kernel :func:`repro.engine.walk.greedy_walk`
(the serving path runs the same function over believed-live arrays);
this module owns the *ground-truth* array view it runs on. It is the
simulator's one fault-free routing rule: :meth:`Substrate.route
<repro.core.substrate.Substrate.route>` is :meth:`BatchQueryEngine.route`
on the same snapshot, and ``vectorized=False`` measures through the
kernel's twin, :func:`~repro.engine.walk.greedy_walk_reference`. The
tests hold both to the live runtime's per-hop
:class:`~repro.protocol.routing.GreedyRouter`; the golden fixture pins
them across refactors.

Typical use::

    from repro import OscarConfig, OscarOverlay
    from repro.degree import ConstantDegrees
    from repro.engine import BatchQueryEngine
    from repro.rng import split
    from repro.workloads import GnutellaLikeDistribution

    overlay = OscarOverlay(OscarConfig(), seed=42)
    overlay.grow(1000, GnutellaLikeDistribution(), ConstantDegrees(8))
    overlay.rewire()

    engine = BatchQueryEngine(overlay)
    stats = engine.measure(split(42, "demo"), n_queries=5000)
    print(stats.mean_cost, stats.success_rate)   # e.g. 4.87 1.0

Under churn (``faulty=True``) the probing/backtracking router is
inherently sequential (its depth-first search carries per-query mutable
state), so :meth:`BatchQueryEngine.measure` falls back to the scalar
fault-aware router for those batches while keeping the one engine API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..config import RoutingConfig
from ..core.soa import row_table, rows_of
from ..errors import RoutingError, UnknownNodeError
from ..ring import keyspace
from ..routing import RouteResult, RouteStats, summarize_routes
from ..routing.result import _percentile  # shared so folds stay bit-identical
from ..types import Key, NodeId
from ..workloads import QueryWorkload
from .walk import WalkCode, WalkTable, greedy_walk, greedy_walk_reference

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports routing)
    from ..core.substrate import Substrate

__all__ = ["BatchQueryEngine", "BatchRouteResult", "TopologySnapshot"]


@dataclass(frozen=True)
class TopologySnapshot:
    """Array view of one substrate topology at a fixed version.

    Node identity is translated once into dense row indices over *all*
    peers ever joined (live and dead — the fault-free walk follows
    links without liveness checks), so the
    per-hop inner loop is pure array gathering.

    Attributes:
        version: The substrate's ``topology_version`` this snapshot was
            built at; the engine compares it to decide staleness.
        all_ids: Node id per row, every peer, in ring (key) order; the
            rows' exact ``uint64`` keys are ``table.keys``.
        live_keys: ``uint64`` keys of live peers only (sorted) — the
            responsible-peer (``successor_of_key``) lookup table.
        live_rows: Row index (into ``all_ids``) of each live peer,
            aligned with ``live_keys``.
        row_of: ``node id -> row`` translation array (-1 for unknown).
        table: The :class:`~repro.engine.walk.WalkTable` the kernel
            walks. Its ``succ_row`` is the state's ``succ`` column as
            rows (-1 when the peer has no pointer, e.g. it is dead and
            was repaired away); the candidates of row ``i`` are the rows
            of peer ``all_ids[i]``'s ``neighbors_of`` list — successor,
            predecessor, every link slot (absent pointers and
            hard-removed targets are padding) — as row offsets, those
            that cannot beat the successor dropped.
    """

    version: object
    all_ids: np.ndarray
    live_keys: np.ndarray
    live_rows: np.ndarray
    row_of: np.ndarray
    table: WalkTable

    @classmethod
    def capture(cls, substrate: "Substrate") -> "TopologySnapshot":
        """Materialize the current topology of ``substrate`` as arrays."""
        ring = substrate.ring
        all_ids = ring.ids_array(live_only=False)
        row_of = row_table(all_ids)

        # The scalar ``neighbors_of`` candidates — successor, predecessor
        # and every link slot — for dead peers too (greedy routing
        # follows links without liveness checks). The successor is the
        # table's own first column, so it is not offered again.
        slots = ring.slots_array(live_only=False)
        succ_row = rows_of(row_of, substrate.state.succ[slots])
        pred_row = rows_of(row_of, substrate.state.pred[slots]).astype(np.int32)
        links = substrate.state.link_blocks(slots, row_of)

        def candidates(block: slice) -> np.ndarray:
            """The predecessor and link rows of a row block."""
            return np.concatenate([pred_row[block, None], links(block)], axis=1)

        return cls(
            version=substrate.topology_version,
            all_ids=all_ids,
            live_keys=ring.keys_array(live_only=True),
            live_rows=row_of[ring.ids_array(live_only=True)],
            row_of=row_of,
            table=WalkTable.build(ring.keys_array(live_only=False), succ_row, candidates),
        )

    def responsible_rows(self, targets: np.ndarray) -> np.ndarray:
        """Row of the live peer responsible for each exact ``uint64``
        target key (vectorized ``ring.successor_of_key``: first live peer
        at-or-after the key, wrapping) — decided in the key domain the
        walk delivers in."""
        if self.live_keys.size == 0:
            raise RoutingError("topology snapshot has no live peers")
        idx = keyspace.search_sorted(self.live_keys, targets)
        return self.live_rows[idx % self.live_rows.size]


@dataclass(frozen=True)
class BatchRouteResult:
    """Per-query outcome arrays of one fault-free batch.

    Attributes:
        sources: Originating node ids.
        target_keys: Looked-up keys.
        responsible: Ground-truth responsible node id per query.
        hops: Forward hops per query (the fault-free search cost; for a
            failed walk, the hops taken before it stopped).
        code: The kernel's :class:`~repro.engine.walk.WalkCode` per
            query — ``OK``, or the condition that makes
            :meth:`BatchQueryEngine.route` raise (``BUDGET``,
            ``NO_SUCCESSOR``, ``STUCK``). A failed query stops alone; the rest of the
            batch is routed as if it were not there.
    """

    sources: np.ndarray
    target_keys: np.ndarray
    responsible: np.ndarray
    hops: np.ndarray
    code: np.ndarray

    @property
    def success(self) -> np.ndarray:
        """Delivery flag per query (``code == WalkCode.OK``)."""
        return self.code == WalkCode.OK

    def stats(self) -> RouteStats:
        """Fold into :class:`~repro.routing.RouteStats`, bit-identical to
        :func:`~repro.routing.summarize_routes` over the same queries
        routed one at a time by :meth:`BatchQueryEngine.route` (a batch
        it routes without raising)."""
        n = int(self.hops.size)
        if n == 0:
            return RouteStats(0, 0, 0.0, 0.0, 0.0, 0, 0.0)
        costs = np.sort(self.hops)
        mean = int(costs.sum()) / n  # exact int sum -> correctly rounded float
        return RouteStats(
            n_routes=n,
            n_success=int(self.success.sum()),
            mean_cost=mean,
            mean_hops=mean,
            mean_wasted=0.0,
            max_cost=int(costs[-1]),
            p95_cost=_percentile(costs.tolist(), 0.95),
        )


class BatchQueryEngine:
    """Array-oriented route evaluation for any :class:`Substrate`.

    One engine instance wraps one substrate and owns a lazily built
    :class:`TopologySnapshot`. The snapshot doubles as a successor-lookup
    cache: responsible-peer resolution, ring-successor pointers and
    neighbor sets are all precomputed arrays, revalidated against the
    substrate's ``topology_version`` before every batch and rebuilt when
    membership or links changed.

    Args:
        substrate: Any :class:`~repro.core.substrate.Substrate`.
        routing: Router cost model; defaults to the substrate's own
            ``routing`` config (read at every walk), so engine-measured
            budgets match :meth:`Substrate.route
            <repro.core.substrate.Substrate.route>`.
        vectorized: ``True`` measures fault-free batches through
            :func:`~repro.engine.walk.greedy_walk`; ``False`` through
            its twin :func:`~repro.engine.walk.greedy_walk_reference` on
            the same snapshot (same RNG draws, same statistics).
    """

    def __init__(
        self,
        substrate: "Substrate",
        routing: RoutingConfig | None = None,
        vectorized: bool = True,
    ) -> None:
        self.substrate = substrate
        self._routing = routing
        self.vectorized = bool(vectorized)
        self._route_cache: TopologySnapshot | None = None

    @property
    def routing(self) -> RoutingConfig:
        """The cost model walks are budgeted by."""
        return self._routing or self.substrate.routing

    # ------------------------------------------------------------------
    # snapshot cache
    # ------------------------------------------------------------------

    @property
    def cached_snapshot(self) -> TopologySnapshot | None:
        """The currently held snapshot (``None`` before first use) —
        exposed for cache-behaviour tests."""
        return self._route_cache  # repro: allow[CACHE001] exposure-only read for cache tests

    def invalidate(self) -> None:
        """Drop the cached snapshot unconditionally (next batch rebuilds)."""
        self._route_cache = None

    def snapshot(self) -> TopologySnapshot:
        """Return a snapshot of the substrate's *current* topology,
        reusing the cache when ``topology_version`` is unchanged."""
        version = self.substrate.topology_version
        if self._route_cache is None or self._route_cache.version != version:
            self._route_cache = None  # the stale arrays go before their replacements come
            self._route_cache = TopologySnapshot.capture(self.substrate)
        return self._route_cache

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def route_batch(self, sources: np.ndarray, target_keys: np.ndarray) -> BatchRouteResult:
        """Route every ``(source, key)`` pair through the fault-free
        greedy walk — :func:`~repro.engine.walk.greedy_walk` over the
        current :class:`TopologySnapshot`, all queries advancing one hop
        per iteration. A query that exceeds the message budget, reaches
        a peer with no ring successor pointer or finds no progressing
        neighbor — the conditions :meth:`route` raises for — is a row
        code in the result, not an exception.

        Raises:
            RoutingError: A source is unknown to the topology (checked
                before anything is routed).
        """
        return self._walk(sources, target_keys, reference=False)

    def _walk(
        self, sources: np.ndarray, target_keys: np.ndarray, reference: bool
    ) -> BatchRouteResult:
        """:meth:`route_batch` on the kernel, or on its twin."""
        snap = self.snapshot()
        sources = np.asarray(sources, dtype=np.int64)
        target_keys = np.asarray(target_keys, dtype=float)
        if sources.shape != target_keys.shape:
            raise ValueError("sources and target_keys must be aligned 1-d arrays")

        # The batch's one exact key domain: owner lookup and walk both
        # decide on these, so they cannot disagree inside a 2**-64 cell.
        targets = keyspace.from_units(target_keys)
        responsible = snap.responsible_rows(targets)
        source_rows = rows_of(snap.row_of, sources)
        if np.any(source_rows < 0):
            raise RoutingError("batch contains sources unknown to the topology")
        if reference:
            walk, asked = greedy_walk_reference, targets
        else:
            walk, asked = greedy_walk, snap.table.bounds(targets)
        hops, code, __ = walk(snap.table, source_rows, responsible, asked, self.routing.budget)
        return BatchRouteResult(
            sources=sources,
            target_keys=target_keys,
            responsible=snap.all_ids[responsible],
            hops=hops,
            code=code,
        )

    def route(self, source: NodeId, target_key: Key, record_path: bool = False) -> RouteResult:
        """Route one query through :func:`~repro.engine.walk.greedy_walk`
        — the fault-free path of :meth:`Substrate.route
        <repro.core.substrate.Substrate.route>`, hop for hop
        :meth:`route_batch`'s row. ``record_path`` steps the kernel one
        hop per call and keeps every peer it stands on.

        Raises:
            KeyspaceError: ``target_key`` is not a key in ``[0, 1)``.
            UnknownNodeError: ``source`` is unknown to the topology.
            RoutingError: The walk stopped short of the owner (its
                ``WalkCode``) — a broken topology, not bad luck.
        """
        snap = self.snapshot()
        target = keyspace.from_units([target_key])
        owner = snap.responsible_rows(target)
        row = rows_of(snap.row_of, np.asarray([source], dtype=np.int64))
        if row[0] < 0:
            raise UnknownNodeError(source)
        bound = snap.table.bounds(target)
        budget = self.routing.budget
        step = 1 if record_path else budget
        hops, path = 0, [source]
        while True:
            taken, code, row = greedy_walk(snap.table, row, owner, bound, step)
            hops += int(taken[0])
            if record_path and taken[0]:
                path.append(int(snap.all_ids[row[0]]))
            if code[0] != WalkCode.BUDGET or hops >= budget:
                break
        at = int(snap.all_ids[row[0]])
        if code[0] != WalkCode.OK:
            message = _WALK_ERRORS[WalkCode(code[0])]
            raise RoutingError(message.format(source=source, key=target_key, at=at, budget=budget))
        return RouteResult(
            source=source,
            target_key=target_key,
            responsible=int(snap.all_ids[owner[0]]),
            delivered_to=at,
            success=True,
            hops=hops,
            path=tuple(path) if record_path else (),
        )

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------

    def measure(
        self,
        rng: np.random.Generator,
        n_queries: int | None = None,
        workload: QueryWorkload | None = None,
        faulty: bool = False,
    ) -> RouteStats:
        """The paper's "N random queries" measurement, batched.

        Args:
            rng: Query randomness (labelled stream per measurement).
            n_queries: Number of queries; defaults to the live
                population size (the paper's N).
            workload: Target selection policy (default: uniform over
                live peers).
            faulty: Route through the probing/backtracking router —
                required whenever the overlay holds crashed peers. This
                path is sequential (per-query DFS state) and bypasses
                the snapshot cache.

        Returns:
            Aggregate :class:`~repro.routing.RouteStats`, identical to
            folding per-query ``route()`` results for the same RNG
            state.

        RNG-stream contract: exactly one workload draw against ``rng``
        per call (sources + targets through
        :meth:`QueryWorkload.generate_arrays
        <repro.workloads.queries.QueryWorkload.generate_arrays>`),
        whether the batch is then routed on the kernel or its twin — the
        same ``(ring, rng state, count)`` always yields the same
        queries and the same statistics on either path.
        """
        count = self.substrate.ring.live_count if n_queries is None else n_queries
        wl = workload if workload is not None else QueryWorkload()
        sources, targets = wl.generate_arrays(self.substrate.ring, rng, count)
        if faulty:
            return summarize_routes(
                self.substrate.route(int(source), float(target), faulty=True)
                for source, target in zip(sources, targets)
            )
        if self.vectorized:
            return self.route_batch(sources, targets).stats()
        return self._walk(sources, targets, reference=True).stats()


#: :meth:`BatchQueryEngine.route`'s message per failed walk.
_WALK_ERRORS = {
    WalkCode.BUDGET: "fault-free route from {source} to key {key!r} exceeded budget {budget}",
    WalkCode.NO_SUCCESSOR: "node {at} has no ring successor pointer",
    WalkCode.STUCK: "node {at} has no progressing neighbor toward {key!r}",
}
