"""Execution engines: batched operations over whole populations.

Four engines and the one routing kernel they share live here. Time is
lock-step **epochs**; there is no event scheduler:

* the greedy-walk kernel (:mod:`repro.engine.walk`) —
  ``greedy_walk`` advances a whole query batch one hop per iteration
  over a per-snapshot ``WalkTable`` (every row's successor and
  candidates as ascending ``int32`` row offsets — rank space, no key
  distances) and returns hops plus a ``WalkCode`` per query,
  ``greedy_walk_reference`` is its pure-Python twin; the two engines
  below differ only in the table they hand it;
* the batched query engine (:mod:`repro.engine.batch`) —
  :class:`BatchQueryEngine` evaluates thousands of routes per call
  against any :class:`~repro.core.substrate.Substrate` by running the
  kernel over a ground-truth :class:`TopologySnapshot`, cached and
  invalidated on membership change;
* the construction engine (:mod:`repro.engine.construct`) —
  :class:`BatchConstructionEngine`, Oscar's one builder, runs partition
  estimation and link acquisition for all peers in lock-step numpy
  rounds, with a sequential reference path pinned bit-identical by
  tests;
* the steady-state churn engine (:mod:`repro.engine.churn`) —
  :class:`SteadyStateChurnEngine` advances an overlay through lock-step
  epochs of batched arrivals, session-expiry departures, periodic
  repair and routed probes, composing the other engines into one
  continuous-turnover simulation (same bit-identical contract, against
  a test-side reference subclass);
* the serving engine (:mod:`repro.engine.serve`) —
  :class:`ServeEngine` is the data-plane request path: believed-
  membership owner resolution and the same kernel over a per-version
  believed-live :class:`ServeSnapshot`, an array-native LRU
  :class:`ResultCache` (a hash table: one probe and one insert per
  batch) dropped on
  topology/replica/belief change, and delivery verified
  against a
  :class:`~repro.index.replication.ReplicatedStore` (same
  bit-identical reference-path contract); a range is the same walk
  plus a slice of the believed ring and of the store's key column.
"""

from .batch import BatchQueryEngine, BatchRouteResult, TopologySnapshot
from .churn import SteadyStateChurnEngine
from .construct import BatchConstructionEngine, LinkAcquisitionStats, LiveView
from .serve import (
    Outcome,
    ResultCache,
    ServeBatchResult,
    ServeEngine,
    ServeRangeResult,
    ServeSnapshot,
)

__all__ = [
    "BatchConstructionEngine",
    "BatchQueryEngine",
    "BatchRouteResult",
    "LinkAcquisitionStats",
    "LiveView",
    "Outcome",
    "ResultCache",
    "ServeBatchResult",
    "ServeEngine",
    "ServeRangeResult",
    "ServeSnapshot",
    "SteadyStateChurnEngine",
    "TopologySnapshot",
]
