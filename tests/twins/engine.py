"""The query and churn engines' twins: their kernels as pure-Python loops.

* :class:`ReferenceQueryEngine` — a :class:`~repro.engine.batch
  .BatchQueryEngine` whose batches walk through
  :func:`~repro.engine.walk.greedy_walk_reference` on the same snapshot
  (same draws, same statistics);
* :class:`ReferenceChurnEngine` — a :class:`~repro.engine.churn
  .SteadyStateChurnEngine` whose expiry gather, bulk kill, stale-link
  count, probe engine and construction calls are the sequential
  references; the reprieve, the session bookkeeping and the compaction
  stay the product's. Its ``churn`` rows and final overlay must be
  bit-identical to the product's.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.engine import BatchQueryEngine, SteadyStateChurnEngine
from repro.engine.walk import WalkTable, greedy_walk_reference
from repro.ring import repair as repair_pointers

__all__ = ["ReferenceChurnEngine", "ReferenceQueryEngine"]


class ReferenceQueryEngine(BatchQueryEngine):
    """:class:`~repro.engine.batch.BatchQueryEngine` on the walk's twin."""

    def _walk(
        self, table: WalkTable, source_rows: np.ndarray, owners: np.ndarray, targets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One query at a time, on the exact targets (not their bounds)."""
        hops, code, __ = greedy_walk_reference(
            table, source_rows, owners, targets, self.routing.budget
        )
        return hops, code


class ReferenceChurnEngine(SteadyStateChurnEngine):
    """:class:`~repro.engine.churn.SteadyStateChurnEngine` on loops."""

    def _expired(self, e: int) -> tuple[np.ndarray, np.ndarray]:
        """A loop over the session table, then the ring asked per id."""
        ring = self.substrate.ring
        ended = np.asarray(
            [
                int(node_id)
                for node_id, depart in zip(self._session_ids, self._departs)
                if float(depart) <= float(e)
            ],
            dtype=np.int64,
        )
        expired = np.asarray(
            [node_id for node_id in ended if node_id in ring and ring.is_alive(node_id)],
            dtype=np.int64,
        )
        return ended, expired

    def _kill(self, node_ids: np.ndarray) -> int:
        """The same bulk kill, then the scalar twin of ``repair_all``
        with the link-epoch bump ``leave_batch``'s repair makes."""
        ring = self.substrate.ring
        ring.mark_dead_slots(ring.known_slots(node_ids))
        self.substrate._links_epoch += 1
        return repair_pointers(ring, self.substrate.pointers)

    def _count_stale_links(self) -> int:
        """A set of the believed-live ids, walked link by link."""
        state = self.substrate.state
        live_set = {int(i) for i in self.membership.live_ids()}
        return sum(
            int(target) not in live_set
            for slot in self.membership.live_slots()
            for target in state.out_links[slot, : state.out_count[slot]].tolist()
        )

    def _probe_engine(self) -> BatchQueryEngine:
        """Probes measured on the walk's twin."""
        return ReferenceQueryEngine(self.substrate)

    def _construct(self, verb: Callable[..., Any], *args: Any) -> Any:
        """The construction engine's sequential reference."""
        return verb(*args, vectorized=False)
