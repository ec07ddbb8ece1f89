"""The Oscar overlay facade — the library's primary public object.

:class:`OscarOverlay` is the shared
:class:`~repro.core.substrate.Substrate` facade (membership ring,
maintained ring pointers, per-peer state, routing — the
:class:`~repro.routing.NeighborProvider` both routers work against) plus
Oscar's link policy: partition estimation and capacity-respecting link
acquisition and rewiring, scalar and batched.

Typical use::

    from repro import OscarOverlay, OscarConfig
    from repro.workloads import GnutellaLikeDistribution
    from repro.degree import ConstantDegrees

    overlay = OscarOverlay(OscarConfig(), seed=42)
    keys = GnutellaLikeDistribution()
    caps = ConstantDegrees(27)
    overlay.grow(1000, keys, caps)
    result = overlay.route(source=overlay.random_live_node(), target_key=0.25)
    print(result.hops, result.success)
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..config import OscarConfig, RoutingConfig
from ..degree import DegreeDistribution
from ..types import Key, NodeId
from ..workloads import KeyDistribution
from .construction import LinkAcquisitionStats, acquire_links, rewire_all
from .estimators import estimate_partitions
from .node import OscarNode
from .soa import NodeTable
from .substrate import Substrate

__all__ = ["OscarOverlay"]


class OscarOverlay(Substrate):
    """A full Oscar network under simulation.

    Args:
        config: Construction parameters (partitions, sampling, caps
            behaviour, power-of-two).
        seed, routing: As for :class:`~repro.core.substrate.Substrate`.
    """

    def __init__(
        self,
        config: OscarConfig | None = None,
        seed: int = 42,
        routing: RoutingConfig | None = None,
    ) -> None:
        super().__init__(seed, routing)
        self.config = config or OscarConfig()
        self.nodes = NodeTable(self.state, OscarNode._view)

    def join(self, position: Key, rho_max_in: int, rho_max_out: int) -> NodeId:
        """Add a peer at ``position`` with the given capacity caps.

        The new peer is spliced into the ring, estimates its partitions
        against the current population and immediately acquires long
        links (bounded by the caps of already-present peers). Raises
        :class:`DuplicateNodeError` on position collision — callers
        redraw their key.
        """
        node_id = self._splice(position, rho_max_in, rho_max_out)
        if self.ring.live_count > 1:
            node = self.nodes[node_id]
            node.partitions = estimate_partitions(
                self.ring, node_id, self.config, self._join_rng, neighbor_fn=self.neighbors_of
            )
            acquire_links(self.ring, self.nodes, node, self.config, self._join_rng)
        return node_id

    def grow_batch(
        self,
        target_size: int,
        keys: KeyDistribution,
        degrees: DegreeDistribution,
        vectorized: bool = True,
    ) -> LinkAcquisitionStats:
        """Grow to ``target_size`` live peers in one vectorized bulk step.

        The batched counterpart of :meth:`grow`: newcomers are spliced
        into the ring with one sorted merge, then estimate partitions
        and acquire links as a single lock-step cohort through
        :class:`~repro.engine.construct.BatchConstructionEngine`.
        Existing peers keep their links (the same incremental contract
        as ``grow``); the two paths are statistically equivalent but not
        draw-for-draw aligned, so they build different (equally valid)
        overlays from the same seed. ``vectorized=False`` runs the
        engine's pure-Python sequential reference on the identical RNG
        stream — bit-identical output, used by equivalence tests and
        the churn engine's reference path. Returns the cohort's
        :class:`~repro.core.construction.LinkAcquisitionStats`.
        """
        from ..engine.construct import BatchConstructionEngine  # lazy: import cycle

        return BatchConstructionEngine(self, vectorized=vectorized).grow(target_size, keys, degrees)

    # Rebound in this class body, not re-implemented: the committed
    # benchmark's tracer wraps ``OscarOverlay.__dict__["leave_batch"]``
    # (bench/harness.py::TRACED), so the name must live here too.
    leave_batch = Substrate.leave_batch

    def rewire(self, rng: np.random.Generator | None = None) -> LinkAcquisitionStats:
        """One global rewiring round (see
        :func:`repro.core.construction.rewire_all`)."""
        self._links_epoch += 1
        return rewire_all(self, rng if rng is not None else self._rewire_rng)

    def rewire_batch(
        self, rng: np.random.Generator | None = None, vectorized: bool = True
    ) -> LinkAcquisitionStats:
        """One global rewiring round, vectorized.

        Same epoch semantics as :meth:`rewire` (teardown, re-estimation
        against the current population, re-acquisition under a random
        peer priority) executed by the
        :class:`~repro.engine.construct.BatchConstructionEngine` in
        lock-step numpy rounds — ≥5× faster at 10k peers. Batched and
        scalar rewiring consume the RNG differently, so the resulting
        overlays differ per-link while obeying the identical invariants.
        ``vectorized=False`` runs the engine's sequential reference on
        the same stream instead — bit-identical to the vectorized round.
        """
        from ..engine.construct import BatchConstructionEngine  # lazy: import cycle

        self._links_epoch += 1
        return BatchConstructionEngine(self, vectorized=vectorized).rewire(
            rng if rng is not None else self._rewire_rng
        )

    def live_nodes(self) -> Iterable[OscarNode]:
        """Live peers' states, in ring order."""
        for node_id in self.ring.node_ids(live_only=True):
            yield self.nodes[node_id]
