"""Search-cost measurement: the paper's primary performance metric.

"As the performance metric we chose the average search cost which was
induced by N random queries in the network." This module runs a query
batch against any overlay implementing the shared
:class:`~repro.core.substrate.Substrate` surface (Oscar, Chord or
Mercury) and folds it into :class:`~repro.routing.RouteStats`.

Since the batched query engine landed, the batch itself is evaluated by
:class:`~repro.engine.BatchQueryEngine` — thousands of routes per call
over numpy arrays — rather than one scalar ``route()`` at a time. The
results are bit-identical (the engine replays the greedy router's exact
rules and arithmetic); only the wall-clock changes. Callers that
measure the same overlay repeatedly (the growth harness) pass their own
engine so the topology snapshot is reused across measurement rounds.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from ..config import RoutingConfig
from ..core.substrate import Substrate
from ..engine.batch import BatchQueryEngine
from ..ring import Ring
from ..routing import RouteResult, RouteStats
from ..types import Key, NodeId
from ..workloads import QueryWorkload

__all__ = ["RoutableOverlay", "measure_search_cost"]


@runtime_checkable
class RoutableOverlay(Protocol):
    """The facade subset the measurement layer needs."""

    ring: Ring

    def route(
        self, source: NodeId, target_key: Key, faulty: bool = False, record_path: bool = False
    ) -> RouteResult: ...


def measure_search_cost(
    overlay: RoutableOverlay,
    rng: np.random.Generator,
    n_queries: int | None = None,
    workload: QueryWorkload | None = None,
    faulty: bool = False,
    engine: BatchQueryEngine | None = None,
) -> RouteStats:
    """Average search cost of random queries against ``overlay``.

    Args:
        overlay: Any substrate exposing ``ring`` and ``route``.
        rng: Query randomness (labelled stream per measurement round).
        n_queries: Number of queries; defaults to the live population
            size — exactly the paper's "N random queries".
        workload: Target selection policy (default: uniform over peers).
        faulty: Use the probing/backtracking router (required whenever
            the overlay contains crashed peers).
        engine: A pre-built :class:`~repro.engine.BatchQueryEngine` to
            reuse (keeps its topology snapshot warm across rounds); one
            is constructed on the fly when omitted. Must wrap the same
            ``overlay`` being measured.
    """
    if engine is None and isinstance(overlay, Substrate):
        engine = BatchQueryEngine(overlay)
    elif engine is None:
        # A bare ``ring`` + ``route`` overlay is measured one query at a
        # time; that path never reads the router cost model.
        engine = BatchQueryEngine(
            overlay,  # type: ignore[arg-type]
            RoutingConfig(),
            vectorized=False,
        )
    elif engine.substrate is not overlay:
        raise ValueError("engine wraps a different overlay than the one being measured")
    return engine.measure(rng, n_queries=n_queries, workload=workload, faulty=faulty)
