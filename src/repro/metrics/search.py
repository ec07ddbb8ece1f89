"""Search-cost measurement: the paper's primary performance metric.

"As the performance metric we chose the average search cost which was
induced by N random queries in the network." This module runs a query
batch against any overlay implementing the shared
:class:`~repro.core.substrate.Substrate` surface (Oscar, Chord or
Mercury) and folds it into :class:`~repro.routing.RouteStats`.

The batch is evaluated by :class:`~repro.engine.BatchQueryEngine` over
the substrate's topology snapshot. Callers that measure the same
overlay repeatedly (the growth harness) pass their own engine so the
snapshot is reused across measurement rounds.
"""

from __future__ import annotations

import numpy as np

from ..core.substrate import Substrate
from ..engine.batch import BatchQueryEngine
from ..routing import RouteStats
from ..workloads import QueryWorkload

__all__ = ["measure_search_cost"]


def measure_search_cost(
    overlay: Substrate,
    rng: np.random.Generator,
    n_queries: int | None = None,
    workload: QueryWorkload | None = None,
    faulty: bool = False,
    engine: BatchQueryEngine | None = None,
) -> RouteStats:
    """Average search cost of random queries against ``overlay``.

    Args:
        overlay: Any :class:`~repro.core.substrate.Substrate`.
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
    if engine is None:
        engine = BatchQueryEngine(overlay)
    elif engine.substrate is not overlay:
        raise ValueError("engine wraps a different overlay than the one being measured")
    return engine.measure(rng, n_queries=n_queries, workload=workload, faulty=faulty)
