"""The Chord-style hash-DHT overlay and its scatter range query.

Peers join at ``hash(application key)`` — uniform positions whatever
the application skew — and maintain deterministic power-of-two finger
tables (the successor of ``position + 2^-i`` for each scale ``i``).
Point lookups ride the same greedy router as Oscar and cost ``O(log N)``.

What this control system *cannot* do is enumerate an application range:
hashing scatters adjacent keys across the whole circle, so a range
query degenerates into one point lookup per item
(:func:`scatter_range`) — and is only possible at all when the querier
already knows which keys exist. Both costs are measured by the EXT-R
experiment.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from ..config import RoutingConfig
from ..core.soa import row_table
from ..core.substrate import Substrate
from ..errors import DuplicateNodeError
from ..ring import in_closed_cw_range, normalize
from ..routing import RouteResult
from ..types import Key, NodeId
from ..workloads import KeyDistribution
from .hashing import hash_key

__all__ = ["ChordOverlay", "scatter_range"]


class ChordOverlay(Substrate):
    """A hash-based DHT under simulation (the data-oriented control).

    Shares the :class:`~repro.core.substrate.Substrate` facade with Oscar
    and Mercury, so the experiment harness and the measurement layer
    treat it interchangeably. Its link policy differs from Oscar's:

    * peer positions are ``hash_key(application key)`` — uniform by
      construction, order destroyed;
    * long links are deterministic finger tables, not sampled
      small-world links, so there are no capacity caps to respect
      (every peer maintains exactly ``ceil(log2 N)`` fingers);
    * :meth:`rewire` rebuilds fingers against the current population.
    """

    _stream = "chord-"

    def __init__(self, seed: int = 42, routing: RoutingConfig | None = None) -> None:
        super().__init__(seed, routing)
        self.application_key: dict[NodeId, Key] = {}

    def join(self, application_key: Key) -> NodeId:
        """Add a peer identified by an application key; its circle
        position is the key's hash. Raises :class:`DuplicateNodeError` on
        (astronomically unlikely) hash collision — callers redraw."""
        node_id = self._splice(hash_key(application_key))
        self.application_key[node_id] = application_key
        if self.ring.live_count > 1:
            self._rebuild_fingers(node_id)
        return node_id

    def grow(
        self,
        target_size: int,
        keys: KeyDistribution,
        degrees: object = None,
    ) -> None:
        """Grow to ``target_size`` live peers (same contract as Oscar's
        ``grow``; the degree distribution is accepted and ignored — no
        caps are drawn, finger counts are dictated by the protocol,
        which is precisely the heterogeneity-blindness the paper
        criticizes)."""
        del degrees
        missing = target_size - self.ring.live_count
        while missing > 0:
            key = float(keys.sample(self._join_rng, 1)[0])
            try:
                self.join(key)
            except DuplicateNodeError:
                continue
            missing -= 1

    def retire(self, node_ids: Sequence[NodeId]) -> None:
        """Compact peers out for good; their application keys go too."""
        super().retire(node_ids)
        for node_id in node_ids:
            self.application_key.pop(node_id, None)

    def _rebuild_fingers(self, node_id: NodeId) -> int:
        """Write ``node_id``'s finger table into its link row; returns
        the finger count."""
        position = self.ring.position(node_id)
        n = self.ring.live_count
        out: list[NodeId] = []
        for scale in range(1, max(1, math.ceil(math.log2(max(2, n)))) + 1):
            target = normalize(position + 2.0**-scale)
            finger = self.ring.successor_of_key(target, live_only=True)
            if finger != node_id and finger not in out:
                out.append(finger)
        self.state.set_links(self.state.slot_of(node_id), out)
        return len(out)

    def rewire(self, rng: np.random.Generator | None = None) -> int:
        """Rebuild every live peer's finger table; returns links placed."""
        del rng  # deterministic; signature kept facade-compatible
        self._links_epoch += 1
        return sum(self._rebuild_fingers(node_id) for node_id in self.ring.node_ids(live_only=True))

    def lookup(self, source: NodeId, application_key: Key) -> RouteResult:
        """Route a lookup for an *application key* (hashes first;
        :meth:`route` takes a pre-hashed circle position)."""
        return self.route(source, hash_key(application_key))

    def in_degree_array(self) -> np.ndarray:
        """Incoming finger counts per live peer (circle order) — counted
        on demand, fingers keep no ``in_deg`` column."""
        ids = self.ring.ids_array(live_only=True)
        rows = self.state.link_rows(self.ring.slots_array(live_only=True), row_table(ids))
        return np.bincount(rows[rows >= 0], minlength=ids.size)


def scatter_range(
    overlay: ChordOverlay,
    source: NodeId,
    item_keys: Iterable[Key],
    lo: Key,
    hi: Key,
) -> tuple[int, int]:
    """Resolve a range query the only way a hash DHT can: per-key lookups.

    ``item_keys`` is the full list of application keys known to the
    querier — granting the DHT a free, perfectly accurate external
    index of which keys exist (deployed systems need exactly such a
    side index, or flooding). Every key in the wrapped range
    ``[lo, hi]`` is looked up individually.

    Returns ``(matching_items, total_messages)``.
    """
    # The closed-[lo, hi] predicate ReplicatedStore.range_rows slices by,
    # so the two agree about a key exactly at `lo` of a wrapped range.
    matches = [k for k in item_keys if in_closed_cw_range(k, lo, hi)]
    messages = 0
    for key in matches:
        result = overlay.lookup(source, key)
        messages += result.cost
    return len(matches), messages
