"""Message-level network simulation: real routes replayed in time.

The topology experiments count messages; this package measures *time*.
Queries replay the overlay's real routes: every hop queues at the
target peer (a FIFO single server whose service rate is the peer's
bandwidth) and then pays a propagation delay. That makes peer
**bandwidth heterogeneity** — the paper's motivating constraint for
letting peers choose their own degree caps — observable as query
latency:

* :class:`BandwidthModel` — per-peer service rates (uniform or matched
  to the peer's declared degree cap);
* :class:`LatencyModel` — seeded per-hop propagation delays;
* :class:`QuerySimulation` — Poisson query arrivals over an overlay,
  returning per-query latency samples;
* :func:`replay_routes` — the event loop under it, a pure function of
  explicit paths, arrival times, service times and delays.

The EXT-L experiment uses this to show *why* caps should track
bandwidth: a network that assigns every peer equal link load while
bandwidths vary queues up at its slow peers.
"""

from .model import BandwidthModel, LatencyModel
from .simulation import QueryLatencyStats, QuerySimulation, replay_routes

__all__ = [
    "BandwidthModel",
    "LatencyModel",
    "QueryLatencyStats",
    "QuerySimulation",
    "replay_routes",
]
