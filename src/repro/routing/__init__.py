"""Routing outcomes, the fault-aware router and range queries.

The fault-free greedy rule is the walk kernel (:mod:`repro.engine.walk`)
behind every batch engine; around it:

* :func:`route_faulty` — dead-link probing + backtracking (paper §3,
  churn experiments). The ring's dead peers choose between the two:
  ``Substrate.route`` is ``route_faulty`` while a slot is dead, the
  kernel on an all-live ring;
* :func:`route_range` — a range query: the entry lookup, then a sweep
  of ring successors;
* :class:`RouteResult` / :func:`summarize_routes` — per-query and
  aggregate cost accounting (the paper's "average search cost").
"""

from .faulty import NeighborProvider, route_faulty
from .range_query import RangeQueryResult, route_range
from .result import RouteResult, RouteStats, summarize_routes

__all__ = [
    "NeighborProvider",
    "RangeQueryResult",
    "RouteResult",
    "RouteStats",
    "route_faulty",
    "route_range",
    "summarize_routes",
]
