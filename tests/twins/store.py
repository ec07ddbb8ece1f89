"""The replicated store's twin: its three kernels as pure-Python loops.

:class:`ReferenceStore` is a :class:`~repro.index.replication
.ReplicatedStore` whose placement, liveness and lookup kernels ask one
item or one id at a time; seeding, the re-replication pass and every
count stay the product's. Holders, loss counts and histograms must be
bit-identical to the product's.
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigError
from repro.index import ReplicatedStore
from repro.ring.keyspace import from_units, search_sorted

if TYPE_CHECKING:  # pragma: no cover - annotation-only
    from repro.membership import MembershipView

__all__ = ["ReferenceStore"]


class ReferenceStore(ReplicatedStore):
    """:class:`~repro.index.replication.ReplicatedStore` on loops."""

    def successor_targets(self, keys: np.ndarray, view: "MembershipView") -> np.ndarray:
        """A ``bisect`` per key over the believed ring, then ``k`` steps."""
        exact_keys = from_units(keys)
        b_keys, b_ids = self._believed_ring(view)
        if b_ids.size == 0:
            raise ConfigError("no believed-live peers to place replicas on")
        k_eff = min(self.k, int(b_ids.size))
        targets = np.full((exact_keys.size, self.k), -1, dtype=np.int64)
        ring_keys = [int(k) for k in b_keys]
        ids = [int(i) for i in b_ids]
        for row, key in enumerate(exact_keys):
            start = bisect.bisect_left(ring_keys, int(key))
            for col in range(k_eff):
                targets[row, col] = ids[(start + col) % len(ids)]
        return targets

    def truth_live_mask(self, node_ids: np.ndarray) -> np.ndarray:
        """The ring asked one id at a time."""
        mask = np.zeros(node_ids.shape, dtype=bool)
        out = mask.reshape(-1)
        for i, node_id in enumerate(node_ids.reshape(-1)):
            node_id = int(node_id)
            if node_id >= 0 and node_id in self.ring and self.ring.is_alive(node_id):
                out[i] = True
        return mask

    def lookup_rows(self, keys: np.ndarray) -> np.ndarray:
        """A search of the sorted catalog keys, not the hashed index."""
        keys = np.asarray(keys, dtype=float)
        if self.item_keys.size == 0:
            return np.full(keys.shape, -1, dtype=np.int64)
        idx = np.minimum(search_sorted(self.item_keys, keys), self.item_keys.size - 1)
        return np.where(self.item_keys[idx] == keys, idx, -1)
