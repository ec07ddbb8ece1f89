"""The unified overlay surface every substrate implements.

The paper's evaluation compares Oscar against Chord- and Mercury-style
substrates under identical workloads. On the code side that comparison
only stays honest if all three systems expose *one* surface that the
measurement layer drives blindly — otherwise every experiment grows its
own per-overlay loop and the workloads silently diverge.

:class:`Substrate` is that surface: membership (``join`` / ``leave`` /
``grow``), maintenance (``rewire`` / ``repair_ring``), topology access
(``neighbors_of``), routing (``route``) and sizing (``size`` /
``__len__``). :class:`~repro.core.overlay.OscarOverlay`,
:class:`~repro.chord.overlay.ChordOverlay` and
:class:`~repro.mercury.overlay.MercuryOverlay` all satisfy it, and the
batched query engine (:mod:`repro.engine.batch`) accepts any
implementation.

``join`` signatures legitimately differ (Oscar and Mercury joins carry
capacity caps; a Chord join hashes an application key), so the protocol
pins only its return type; ``grow`` is the uniform bulk entry point —
every substrate accepts ``(target_size, keys, degrees)`` and ignores
what its protocol does not use.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from ..config import RoutingConfig
from ..ring import Ring, RingPointers
from ..routing import RouteResult
from ..types import Key, NodeId
from .soa import SubstrateState

__all__ = ["Substrate"]


@runtime_checkable
class Substrate(Protocol):
    """A routable overlay under simulation — the shared facade contract.

    Implementations additionally expose a ``topology_version`` property:
    a monotonic counter that changes whenever membership *or* link
    structure changes, so derived caches (the batch engine's topology
    snapshot) can validate themselves cheaply instead of subscribing to
    mutation callbacks.

    ``state`` is the struct-of-arrays storage ``ring`` orders (the same
    object as ``ring.state``); the array engines read positions, keys
    and link tables from it directly.
    """

    ring: Ring
    pointers: RingPointers
    state: SubstrateState
    routing: RoutingConfig

    # -- membership ----------------------------------------------------

    def join(self, *args: object, **kwargs: object) -> NodeId:
        """Add one peer; per-substrate signature (caps vs hashed key)."""
        ...

    def leave(self, node_id: NodeId, repair: bool = True) -> None:
        """Remove a peer from the live population (graceful departure)."""
        ...

    def leave_batch(self, node_ids: Sequence[NodeId], repair: bool = True) -> int:
        """Remove many peers from the live population in one bulk step.

        The departure mirror of :meth:`grow_batch`: all peers are marked
        dead first and the ring is re-stabilized *once* at the end
        (``repair=True``, the paper's self-stabilization assumption)
        instead of once per departure. Long links keep pointing at the
        dead peers — discovering that costs the fault-aware router a
        probe, exactly as after a crash wave. Oscar repairs through the
        bulk :func:`~repro.ring.maintenance.repair_all` rebuild;
        Chord and Mercury fall back to scalar departures with one final
        repair — identical resulting state either way. Returns the
        number of pointer entries the repair fixed (0 with
        ``repair=False``).
        """
        ...

    def grow(
        self,
        target_size: int,
        keys: object,
        degrees: object,
        paired_caps: bool = True,
    ) -> None:
        """Grow to ``target_size`` live peers by sampled joins."""
        ...

    def grow_batch(
        self,
        target_size: int,
        keys: object,
        degrees: object,
        paired_caps: bool = True,
        vectorized: bool = True,
    ) -> object:
        """Grow to ``target_size`` live peers in one bulk construction
        step — vectorized where the substrate supports it (Oscar's
        :class:`~repro.engine.construct.BatchConstructionEngine`);
        substrates whose construction is already cheap (Chord's
        deterministic fingers, Mercury's histogram wiring) fall back to
        scalar :meth:`grow`. Statistically equivalent to ``grow`` but
        not draw-for-draw aligned with it. ``vectorized=False`` selects
        the bit-identical pure-Python reference path where one exists
        (Oscar); scalar-fallback substrates accept and ignore it."""
        ...

    # -- maintenance ---------------------------------------------------

    def rewire(self, rng: np.random.Generator | None = None) -> object:
        """One global long-link (or finger) rebuild round."""
        ...

    def rewire_batch(
        self,
        rng: np.random.Generator | None = None,
        vectorized: bool = True,
    ) -> object:
        """One global rebuild round through the batched construction
        path, with scalar :meth:`rewire` as the fallback semantics for
        substrates without a vectorized builder. ``vectorized=False``
        selects the bit-identical pure-Python reference path where one
        exists (Oscar); scalar-fallback substrates accept and ignore
        it."""
        ...

    def repair_ring(self) -> int:
        """Re-stabilize ring pointers after churn; returns pointers fixed."""
        ...

    # -- topology + routing --------------------------------------------

    def neighbors_of(self, node_id: NodeId) -> Sequence[NodeId]:
        """Outgoing neighbor ids (ring pointers + long links / fingers)."""
        ...

    def random_live_node(self, rng: np.random.Generator | None = None) -> NodeId:
        """A uniformly random live peer."""
        ...

    def route(
        self,
        source: NodeId,
        target_key: Key,
        faulty: bool = False,
        record_path: bool = False,
    ) -> RouteResult:
        """Route a single lookup (the scalar reference path)."""
        ...

    # -- sizing --------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of currently live peers."""
        ...

    def __len__(self) -> int:
        """Alias of :attr:`size` (live peer count)."""
        ...
