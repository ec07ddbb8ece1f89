"""The Mercury baseline overlay facade.

Public surface is the shared :class:`~repro.core.substrate.Substrate`
(the join/grow/rewire/route/stat methods of
:class:`~repro.core.overlay.OscarOverlay`), so the experiment harness
treats the two systems interchangeably. Only the *link selection
machinery* differs — see :mod:`repro.mercury.construction`.
"""

from __future__ import annotations

import numpy as np

from ..config import MercuryConfig, RoutingConfig
from ..core.substrate import Substrate
from ..types import Key, NodeId
from .construction import _store_histogram, acquire_links, build_histogram, rewire_all

__all__ = ["MercuryOverlay"]


class MercuryOverlay(Substrate):
    """A Mercury network under simulation (the paper's baseline)."""

    _stream = "mercury-"

    def __init__(
        self,
        config: MercuryConfig | None = None,
        seed: int = 42,
        routing: RoutingConfig | None = None,
    ) -> None:
        super().__init__(seed, routing)
        self.config = config or MercuryConfig()

    def join(self, position: Key, rho_max_in: int, rho_max_out: int) -> NodeId:
        """Add a peer: splice into the ring, sample a histogram, link up."""
        node_id = self._splice(position, rho_max_in, rho_max_out)
        if self.ring.live_count > 1:
            slot = self.state.slot_of(node_id)
            histogram = build_histogram(self.ring, self.config, self._join_rng)
            _store_histogram(self.state, slot, histogram)
            self.state.samples_spent[slot] += self.config.sample_size
            acquire_links(self.ring, slot, self.config, self._join_rng)
        return node_id

    def rewire(self, rng: np.random.Generator | None = None) -> int:
        """One global rewiring round; returns links placed."""
        self._links_epoch += 1
        return rewire_all(self, rng if rng is not None else self._rewire_rng)
