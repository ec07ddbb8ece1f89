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
on the same snapshot. A test-side subclass (``tests/twins/``) walks its
batches through the kernel's twin,
:func:`~repro.engine.walk.greedy_walk_reference`; the tests hold both to
the live runtime's per-hop
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

While the ring holds a dead peer (crashed, or departed and not yet
compacted) the ring itself chooses the probing/backtracking router. It is
inherently sequential (its depth-first search carries per-query mutable
state), so :meth:`BatchQueryEngine.measure` folds the scalar fault-aware
router over those batches while keeping the one engine API.
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
from .walk import NO_ROW, WalkCode, WalkTable, greedy_walk

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
            walks, :meth:`~repro.engine.walk.WalkTable.deferred`: a row
            is built the first time a walk is about to stand on it, from
            the state as it stands — so the snapshot is read only at its
            ``version``.
            Its ``succ_row`` is the state's ``succ`` column as rows (-1
            when the peer has no pointer, e.g. it is dead and was
            repaired away); the candidates of row ``i`` are the rows of
            peer ``all_ids[i]``'s ``neighbors_of`` list — successor,
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
        """Materialize the current topology of ``substrate`` as arrays:
        the per-peer columns now, the walk table's rows on first visit."""
        ring, state = substrate.ring, substrate.state
        all_ids = ring.ids_array(live_only=False)
        row_of = row_table(all_ids)

        # The scalar ``neighbors_of`` candidates — successor, predecessor
        # and every link slot — for dead peers too (greedy routing
        # follows links without liveness checks). The successor is the
        # table's own first column, so it is not offered again.
        slots = ring.slots_array(live_only=False)
        succ_row = rows_of(row_of, state.succ[slots])
        pred_row = rows_of(row_of, state.pred[slots])
        pred_row = np.where(pred_row >= 0, pred_row, NO_ROW).astype(np.int32)
        links = state.link_blocks(slots, row_of, NO_ROW)

        def candidates(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """The predecessor and link rows of ``rows``, apart."""
            return pred_row[rows], links(rows)

        keys = ring.keys_array(live_only=False)
        return cls(
            version=substrate.topology_version,
            all_ids=all_ids,
            live_keys=ring.keys_array(live_only=True),
            live_rows=row_of[ring.ids_array(live_only=True)],
            row_of=row_of,
            table=WalkTable.deferred(keys, succ_row, candidates, 1 + state.link_width),
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
    """

    def __init__(self, substrate: "Substrate", routing: RoutingConfig | None = None) -> None:
        self.substrate = substrate
        self._routing = routing
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
        hops, code = self._walk(snap.table, source_rows, responsible, targets)
        return BatchRouteResult(
            sources=sources,
            target_keys=target_keys,
            responsible=snap.all_ids[responsible],
            hops=hops,
            code=code,
        )

    def _walk(
        self, table: WalkTable, source_rows: np.ndarray, owners: np.ndarray, targets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(hops, code)`` of :func:`~repro.engine.walk.greedy_walk` from
        ``source_rows`` to the rows ``owners`` of the exact ``targets``."""
        hops, code, __ = greedy_walk(
            table, source_rows, owners, table.bounds(targets), self.routing.budget
        )
        return hops, code

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
    ) -> RouteStats:
        """The paper's "N random queries" measurement, batched.

        Args:
            rng: Query randomness (labelled stream per measurement).
            n_queries: Number of queries; defaults to the live
                population size (the paper's N).
            workload: Target selection policy (default: uniform over
                live peers).

        Returns:
            Aggregate :class:`~repro.routing.RouteStats`, identical to
            folding per-query :meth:`Substrate.route
            <repro.core.substrate.Substrate.route>` results for the same
            RNG state. While the ring holds a dead peer that fold is the
            measurement: the probing/backtracking router is sequential
            (per-query DFS state) and bypasses the snapshot cache.

        RNG-stream contract: exactly one workload draw against ``rng``
        per call (sources + targets through
        :meth:`QueryWorkload.generate_arrays
        <repro.workloads.queries.QueryWorkload.generate_arrays>`),
        whichever router then takes the batch — the same ``(ring, rng
        state, count)`` always yields the same queries.
        """
        count = self.substrate.ring.live_count if n_queries is None else n_queries
        wl = workload if workload is not None else QueryWorkload()
        sources, targets = wl.generate_arrays(self.substrate.ring, rng, count)
        if self.substrate.ring.has_dead:
            return summarize_routes(
                self.substrate.route(int(source), float(target))
                for source, target in zip(sources, targets)
            )
        return self.route_batch(sources, targets).stats()


#: :meth:`BatchQueryEngine.route`'s message per failed walk.
_WALK_ERRORS = {
    WalkCode.BUDGET: "fault-free route from {source} to key {key!r} exceeded budget {budget}",
    WalkCode.NO_SUCCESSOR: "node {at} has no ring successor pointer",
    WalkCode.STUCK: "node {at} has no progressing neighbor toward {key!r}",
}
