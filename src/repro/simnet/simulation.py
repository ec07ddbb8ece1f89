"""Query-latency simulation: Poisson arrivals over real overlay routes.

Each query replays a route recorded from the overlay's own router. At
every intermediate hop the message must be *forwarded*: it queues for
the hop peer's single server, occupies it for the peer's service time,
then pays the link's propagation delay. Queueing is where heterogeneity
bites — a popular slow peer backs up.

Simulated time exists only inside :func:`replay_routes`: one event heap
and one ``free_at`` clock per peer (a FIFO single server is
``start = max(arrival, free_at)``), a pure function of its arguments.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..core.substrate import Substrate
from ..errors import ConfigError, EmptyPopulationError
from ..rng import split
from ..types import NodeId
from ..workloads import QueryWorkload
from .model import BandwidthModel, LatencyModel

__all__ = ["QueryLatencyStats", "QuerySimulation", "replay_routes"]

_ARRIVE, _DONE = 0, 1


def replay_routes(
    paths: Sequence[Sequence[NodeId]],
    arrival_times: Sequence[float],
    service_time: Callable[[NodeId], float],
    delay: Callable[[NodeId, NodeId], float],
) -> tuple[list[float], list[float]]:
    """Replay non-empty node paths through per-peer FIFO single servers.

    Query ``q`` leaves ``paths[q][0]`` at ``arrival_times[q]`` (the
    source emits for free). Every later node on its path must receive,
    service and forward it: the message waits until the node's server
    is free, holds it for ``service_time(node)``, then travels
    ``delay(prev, node)`` to stand at the node. Events at equal times
    run in the order they were scheduled, so equal arrivals are served
    in submission order; ``delay`` is called once per hop, in
    service-completion order.

    Returns ``(latencies, queue_waits)``, one entry per query in
    **completion order**: end-to-end time, and the part of it spent
    waiting for busy servers.
    """
    latencies: list[float] = []
    queue_waits: list[float] = []
    waited = [0.0] * len(paths)
    free_at: dict[NodeId, float] = {}
    # (time, seq, kind, query, hop): seq makes same-time order FIFO.
    events = [(float(t), q, _ARRIVE, q, 1) for q, t in enumerate(arrival_times)]
    heapq.heapify(events)
    seq = len(events)
    while events:
        now, _, kind, q, hop = heapq.heappop(events)
        path = paths[q]
        if hop == len(path):
            latencies.append(now - arrival_times[q])
            queue_waits.append(waited[q])
            continue
        node = path[hop]
        if kind == _ARRIVE:
            start = max(now, free_at.get(node, now))
            waited[q] += start - now
            free_at[node] = start + service_time(node)
            heapq.heappush(events, (free_at[node], seq, _DONE, q, hop))
        else:
            arrive = now + delay(path[hop - 1], node)
            heapq.heappush(events, (arrive, seq, _ARRIVE, q, hop + 1))
        seq += 1
    return latencies, queue_waits


@dataclass(frozen=True)
class QueryLatencyStats:
    """Latency summary over one simulation run.

    Attributes:
        n_queries: Completed queries.
        mean: Mean end-to-end latency (simulated seconds).
        p50: Median latency.
        p95: 95th-percentile latency (tail — what users feel).
        max: Worst query.
        mean_queue_wait: Mean time spent waiting in peer queues, the
            heterogeneity-mismatch signal.
    """

    n_queries: int
    mean: float
    p50: float
    p95: float
    max: float
    mean_queue_wait: float

    @classmethod
    def from_samples(
        cls, latencies: Sequence[float], queue_waits: Sequence[float]
    ) -> "QueryLatencyStats":
        if not latencies:
            raise EmptyPopulationError("no queries completed")
        arr = np.asarray(latencies, dtype=float)
        return cls(
            n_queries=arr.size,
            mean=float(arr.mean()),
            p50=float(np.percentile(arr, 50)),
            p95=float(np.percentile(arr, 95)),
            max=float(arr.max()),
            mean_queue_wait=float(np.mean(queue_waits)),
        )


class QuerySimulation:
    """Run a Poisson query workload over an overlay, in simulated time.

    Args:
        overlay: Any :class:`~repro.core.substrate.Substrate` (Oscar /
            Mercury / Chord).
        bandwidth: Per-peer service rates.
        latency: Per-link propagation model.
        arrival_rate: Mean query arrivals per simulated second (the
            offered load; keep below the bottleneck service capacity or
            queues grow without bound — that, too, is measurable).
        seed: Stream label for arrivals and workload draws.
    """

    def __init__(
        self,
        overlay: Substrate,
        bandwidth: BandwidthModel,
        latency: LatencyModel,
        arrival_rate: float = 50.0,
        seed: int = 42,
    ) -> None:
        if not arrival_rate > 0:
            raise ConfigError(f"arrival_rate must be > 0, got {arrival_rate}")
        self.overlay = overlay
        self.bandwidth = bandwidth
        self.latency = latency
        self.arrival_rate = arrival_rate
        self.seed = seed
        self.latencies: list[float] = []
        self.queue_waits: list[float] = []

    def run(self, n_queries: int, workload: QueryWorkload | None = None) -> QueryLatencyStats:
        """Simulate ``n_queries`` arrivals; returns the latency summary.

        Routes are resolved through the overlay's real router (with
        paths recorded), then replayed in simulated time with one
        exponential inter-arrival gap per routed query. The run ends
        when every query has completed.
        """
        if n_queries < 1:
            raise ConfigError(f"n_queries must be >= 1, got {n_queries}")
        rng = split(self.seed, "simnet-run")
        wl = workload if workload is not None else QueryWorkload()
        paths: list[tuple[NodeId, ...]] = []
        for query in wl.generate(self.overlay.ring, rng, n_queries):
            result = self.overlay.route(query.source, query.target_key, record_path=True)
            if result.success and len(result.path) >= 1:
                paths.append(result.path)

        gaps = rng.exponential(1.0 / self.arrival_rate, size=len(paths))
        self.latencies, self.queue_waits = replay_routes(
            paths,
            np.cumsum(gaps).tolist(),
            self.bandwidth.service_time,
            self.latency.delay,
        )
        return QueryLatencyStats.from_samples(self.latencies, self.queue_waits)
