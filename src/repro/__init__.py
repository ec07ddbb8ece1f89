"""Reproduction of "Oscar: A Data-Oriented Overlay For Heterogeneous
Environments" (Girdzijauskas, Datta, Aberer — ICDE 2007).

A pure-Python simulation library implementing the Oscar small-world
overlay, its substrates (ring, routing, sampling, workloads, degree
models, churn) and the Mercury baseline, plus an
experiment harness that regenerates every figure of the paper.

Quickstart::

    from repro import OscarConfig, OscarOverlay
    from repro.degree import ConstantDegrees
    from repro.workloads import GnutellaLikeDistribution

    overlay = OscarOverlay(OscarConfig(), seed=42)
    overlay.grow(500, GnutellaLikeDistribution(), ConstantDegrees(27))
    overlay.rewire()
    print(overlay.route(overlay.random_live_node(), target_key=0.25))
"""

from ._version import __version__
from .chord import ChordOverlay
from .config import MercuryConfig, OscarConfig, RoutingConfig, SamplingMode
from .core import OscarOverlay, PartitionTable, Substrate
from .engine import BatchQueryEngine
from .errors import ReproError
from .mercury import MercuryOverlay
from .ring import Ring
from .routing import RangeQueryResult, RouteResult, RouteStats, route_range, summarize_routes

__all__ = [
    "BatchQueryEngine",
    "ChordOverlay",
    "MercuryConfig",
    "MercuryOverlay",
    "OscarConfig",
    "OscarOverlay",
    "PartitionTable",
    "RangeQueryResult",
    "ReproError",
    "Ring",
    "RouteResult",
    "RouteStats",
    "RoutingConfig",
    "SamplingMode",
    "Substrate",
    "route_range",
    "summarize_routes",
    "__version__",
]
