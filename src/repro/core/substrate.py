"""The one overlay facade: a concrete base class plus three link policies.

The paper's evaluation compares Oscar against Chord- and Mercury-style
substrates under identical workloads. That comparison only stays honest
if all three systems expose *one* surface that the measurement layer
drives blindly — otherwise every experiment grows its own per-overlay
loop and the workloads silently diverge.

:class:`Substrate` is that surface, written once: the struct-of-arrays
:class:`~repro.core.soa.SubstrateState`, the ring over it, the ring
pointers, id allocation, departures, ring repair, the topology version,
neighbor access, routing (one query on the walk kernel every batch
engine runs — :mod:`repro.engine.walk` — or, while the ring holds a
dead peer, on :func:`~repro.routing.route_faulty`) and the degree / cap
columns.
:class:`~repro.core.overlay.OscarOverlay`,
:class:`~repro.mercury.overlay.MercuryOverlay` and
:class:`~repro.chord.overlay.ChordOverlay` subclass it and supply only
their *link policy* — how a joining peer picks long links (``join``),
how a maintenance round rebuilds them (``rewire``) — and every engine
accepts any of them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, ClassVar, Sequence

import numpy as np

from ..config import RoutingConfig
from ..degree import DegreeDistribution, assign_caps
from ..errors import DuplicateNodeError, EmptyPopulationError, UnknownNodeError
from ..ring import Ring, RingPointers, attach_node, repair_all
from ..rng import split
from ..routing import RouteResult, route_faulty
from ..types import Key, NodeId
from ..workloads import KeyDistribution
from .soa import SubstrateState

if TYPE_CHECKING:  # pragma: no cover - the engines import this module
    from ..engine.batch import BatchQueryEngine

__all__ = ["Substrate"]


class Substrate:
    """A routable overlay under simulation — the shared facade.

    ``state`` is the storage ``ring`` orders (``ring.state``); a peer's
    long links — sampled links or Chord fingers alike — are its row of
    ``state.out_links``, which the array engines read directly. ``join``
    signatures legitimately differ (capacity caps vs a hashed
    application key); ``grow`` is the uniform bulk entry point.

    Args:
        seed: Root seed of every labelled RNG stream, so two overlays
            with equal arguments are identical.
        routing: Router cost model (budgets, probe/backtrack charges).
    """

    #: Prefix of this substrate's RNG stream labels (``"mercury-"`` …).
    _stream: ClassVar[str] = ""

    def __init__(self, seed: int = 42, routing: RoutingConfig | None = None) -> None:
        self.routing = routing or RoutingConfig()
        self.seed = seed
        self.state = SubstrateState()
        self.ring = Ring(self.state)
        self.pointers = RingPointers(self.state)
        self._next_id = 0
        self._links_epoch = 0
        self._queries: BatchQueryEngine | None = None  # what ``route`` resolves on
        self._join_rng = split(seed, f"{self._stream}join")
        self._rewire_rng = split(seed, f"{self._stream}rewire")

    # -- membership ----------------------------------------------------

    def join(self, *args: Any, **kwargs: Any) -> NodeId:
        """Add one peer — link policy; per-substrate signature."""
        raise NotImplementedError

    def _splice(self, position: Key, rho_max_in: int = 0, rho_max_out: int = 0) -> NodeId:
        """Allocate the next id and splice a peer into ring and pointers;
        a position in a taken ``2**-64`` key cell raises
        :class:`DuplicateNodeError` *before* the id is spent — callers
        redraw their key."""
        node_id = self._next_id
        self.ring.insert(node_id, position)
        self._next_id += 1
        slot = self.state.slot_of(node_id)
        self.state.cap_in[slot] = int(rho_max_in)
        self.state.cap_out[slot] = int(rho_max_out)
        attach_node(self.ring, self.pointers, node_id)
        return node_id

    def grow(
        self,
        target_size: int,
        keys: KeyDistribution,
        degrees: DegreeDistribution,
    ) -> None:
        """Grow the network to ``target_size`` live peers by joins.

        Keys come from ``keys`` (collisions redrawn), caps from
        ``degrees``. Growth is incremental — existing links stay as they
        are until :meth:`rewire` is called, mirroring the paper's
        bootstrap-then-periodically-rewire procedure.
        """
        missing = target_size - self.ring.live_count
        if missing <= 0:
            return
        caps_in, caps_out = assign_caps(degrees, self._join_rng, missing)
        joined = 0
        while joined < missing:
            key = float(keys.sample(self._join_rng, 1)[0])
            try:
                self.join(key, int(caps_in[joined]), int(caps_out[joined]))
            except DuplicateNodeError:
                continue
            joined += 1

    def grow_batch(
        self,
        target_size: int,
        keys: KeyDistribution,
        degrees: Any = None,
        vectorized: bool = True,
    ) -> object:
        """Grow to ``target_size`` live peers in one bulk construction step.

        Scalar fallback: a substrate without a vectorized builder runs
        :meth:`grow` draw-for-draw (as :meth:`rewire_batch` runs
        :meth:`rewire`); ``vectorized`` — and ``degrees`` on cap-less
        Chord — is accepted for surface uniformity and ignored. Right for
        both baselines: Chord's fingers are protocol-dictated
        ``O(log N)`` lookups with nothing to batch, and vectorizing
        Mercury, whose construction cost the paper argues against, would
        change what the comparison measures. Oscar overrides both with
        :class:`~repro.engine.construct.BatchConstructionEngine`.
        """
        del vectorized
        self.grow(target_size, keys, degrees)
        return None

    def leave(self, node_id: NodeId, repair: bool = True) -> None:
        """Remove a live peer from the population (graceful departure).

        The peer is marked dead in the ring — its long links stay as
        dangling references, exactly like a crash — and, when ``repair``
        is true (the default, matching the paper's self-stabilization
        assumption), ring pointers are immediately re-stabilized around
        the gap. Pass ``repair=False`` to model an abrupt crash whose
        repair is deferred to churn machinery. Refuses what
        :meth:`leave_batch` refuses.
        """
        self.leave_batch([node_id], repair=repair)

    def leave_batch(self, node_ids: Sequence[NodeId], repair: bool = True) -> int:
        """Remove many peers from the live population in one bulk step.

        The departure mirror of :meth:`grow_batch`: all peers are marked
        dead first and the ring is re-stabilized *once* at the end
        (``repair=True``) by the bulk
        :func:`~repro.ring.maintenance.repair_all` rebuild — the pointers
        of per-peer :meth:`leave` calls from one repair pass instead of
        K. Long links keep pointing at the dead peers, which costs the
        fault-aware router a probe, as after a crash wave. Repeated and
        already-dead ids are idempotent. Returns the number of pointer
        entries the repair fixed (0 with ``repair=False``).

        All-or-nothing: an unknown id raises :class:`UnknownNodeError`,
        a wave that would leave no live peer :class:`EmptyPopulationError`
        — both before anyone is marked dead.
        """
        slots = self.ring.known_slots(node_ids)
        departing = np.unique(slots[self.state.alive[slots]]).size
        if departing and departing >= self.ring.live_count:
            raise EmptyPopulationError("departures would leave no live peer")
        self.ring.mark_dead_slots(slots)
        if not repair:
            return 0
        self._links_epoch += 1
        return repair_all(self.ring, self.pointers)

    def retire(self, node_ids: Sequence[NodeId]) -> None:
        """Compact peers out of the overlay for good (one bulk
        :meth:`Ring.remove_many <repro.ring.ring.Ring.remove_many>`);
        everything the substrate keeps per peer goes with them."""
        self.ring.remove_many(node_ids)

    # -- maintenance ---------------------------------------------------

    def rewire(self, rng: np.random.Generator | None = None) -> object:
        """One global long-link (or finger) rebuild round — link policy."""
        raise NotImplementedError

    def rewire_batch(
        self, rng: np.random.Generator | None = None, vectorized: bool = True
    ) -> object:
        """One global rebuild round through the batched construction
        path; without a vectorized builder this is :meth:`rewire`
        unchanged (see :meth:`grow_batch`)."""
        del vectorized
        return self.rewire(rng)

    def refill_batch(
        self, rng: np.random.Generator | None = None, vectorized: bool = True
    ) -> object:
        """Periodic repair that refills only what churn broke. Without
        per-peer tables to refill against (Chord's fingers, Mercury's
        histograms) it is :meth:`rewire_batch` unchanged."""
        return self.rewire_batch(rng, vectorized=vectorized)

    def repair_ring(self) -> int:
        """Re-stabilize ring pointers after churn with the bulk
        :func:`~repro.ring.maintenance.repair_all`; returns pointers fixed."""
        self._links_epoch += 1
        return repair_all(self.ring, self.pointers)

    @property
    def topology_version(self) -> tuple[int, int]:
        """``(ring membership version, link epoch)``: changes whenever
        membership or link structure does, so derived caches (the batch
        engine's topology snapshot) validate themselves by comparison
        instead of subscribing to mutation callbacks."""
        return (self.ring.version, self._links_epoch)

    # -- topology access (NeighborProvider) + routing ------------------

    def neighbors_of(self, node_id: NodeId) -> Sequence[NodeId]:
        """Outgoing neighbors: ring successor + predecessor + long links
        (or fingers), including links currently pointing at dead peers —
        discovering that costs the router a probe, as in a deployment."""
        slot = self.state.slot_of(node_id)
        if slot < 0:
            raise UnknownNodeError(node_id)
        out: list[NodeId] = []
        succ, pred = int(self.state.succ[slot]), int(self.state.pred[slot])
        if succ >= 0 and succ != node_id:
            out.append(succ)
        if pred >= 0 and pred != node_id and pred != succ:
            out.append(pred)
        out.extend(self.state.out_links[slot, : self.state.out_count[slot]].tolist())
        return out

    def random_live_node(self, rng: np.random.Generator | None = None) -> NodeId:
        """A uniformly random live peer (convenience for examples)."""
        ids = self.ring.ids_array(live_only=True)
        if ids.size == 0:
            raise EmptyPopulationError("overlay has no live peers")
        generator = rng if rng is not None else self._join_rng
        return int(ids[int(generator.integers(0, ids.size))])

    def route(self, source: NodeId, target_key: Key, record_path: bool = False) -> RouteResult:
        """Route one lookup; the ring's dead peers choose the router. While
        a slot is dead (:attr:`Ring.has_dead <repro.ring.ring.Ring.has_dead>`)
        it is the probing/backtracking :func:`~repro.routing.route_faulty`;
        on an all-live ring it is :meth:`BatchQueryEngine.route
        <repro.engine.batch.BatchQueryEngine.route>` on an engine this
        substrate keeps (the truth snapshot is captured once per
        :attr:`topology_version`)."""
        if self.ring.has_dead:
            return route_faulty(
                self.ring, self.pointers, self, source, target_key, self.routing, record_path
            )
        if self._queries is None:
            from ..engine.batch import BatchQueryEngine  # the engines import this module

            self._queries = BatchQueryEngine(self)
        return self._queries.route(source, target_key, record_path)

    # -- statistics ----------------------------------------------------

    def live_node_ids(self) -> list[NodeId]:
        """Live peer ids in ring order."""
        return self.ring.node_ids(live_only=True)

    def _live_column(self, column: np.ndarray) -> np.ndarray:
        return column[self.ring.slots_array(live_only=True)].astype(np.int64)

    def in_degree_array(self) -> np.ndarray:
        """Long-link in-degrees of live peers (ring order)."""
        return self._live_column(self.state.in_deg)

    def in_cap_array(self) -> np.ndarray:
        """``rho_max_in`` of live peers (ring order; zeros if cap-less)."""
        return self._live_column(self.state.cap_in)

    def out_degree_array(self) -> np.ndarray:
        """Long-link (or finger) out-degrees of live peers (ring order)."""
        return self._live_column(self.state.out_count)

    def out_cap_array(self) -> np.ndarray:
        """``rho_max_out`` of live peers (ring order; zeros if cap-less)."""
        return self._live_column(self.state.cap_out)

    @property
    def size(self) -> int:
        """Number of currently live peers."""
        return self.ring.live_count

    def __len__(self) -> int:
        """Alias of :attr:`size` (live peer count)."""
        return self.ring.live_count

    def __repr__(self) -> str:
        return f"{type(self).__name__}(live={self.ring.live_count}, total={len(self.ring)})"
