"""EXT-L: why degree caps should track bandwidth (§1 motivation).

"Peers are free to choose the maximum amount of outgoing and incoming
links locally, depending on their bandwidth budget to maintain the
links as well as cater to the query traffic." This experiment makes the
*cater to the query traffic* half measurable in simulated time.

Both systems face the same peer population, whose forwarding
bandwidths follow the spiky Figure 1(a) distribution. They differ only
in whether the overlay's *load placement* respects those bandwidths:

* **matched** — Oscar built with caps equal to each peer's bandwidth
  (the paper's story: caps are derived from bandwidth). In-degree, and
  therefore transit traffic, lands proportionally to service rate, so
  every peer runs at a similar utilization.
* **oblivious** — Oscar built with uniform caps (mean-preserving), as a
  heterogeneity-blind overlay would: slow peers attract as many links —
  and as much transit traffic — as fast ones, pay long service times
  per message, and queue up.

Queries arrive as a Poisson process at an offered load safely inside
the *matched* system's capacity; the claim to reproduce is that the
oblivious assignment inflates mean latency, the p95 tail and queueing
delay at identical topology family, load and total bandwidth.
"""

from __future__ import annotations

from ..config import OscarConfig
from ..core import OscarOverlay
from ..degree import ConstantDegrees, SpikyDegreeDistribution
from ..engine import BatchQueryEngine
from ..rng import split
from ..simnet import BandwidthModel, LatencyModel, QuerySimulation
from ..workloads import GnutellaLikeDistribution
from .base import ExperimentResult, scaled_sizes
from .spec import experiment

__all__ = ["run"]

PAPER_SIZE = 10_000
MEAN_BANDWIDTH = 27.0


@experiment(
    "ext-latency",
    title="Query latency: bandwidth-matched vs bandwidth-oblivious caps",
    tags=("extension",),
    help={
        "n_queries": "simulated queries (0 = one per live peer)",
        "load_factor": "Poisson arrival rate relative to the stability bound",
        "rate_per_link": "service rate contributed by one link of bandwidth",
    },
)
def run(
    scale: float = 1.0,
    seed: int = 42,
    oscar_config: OscarConfig | None = None,
    n_queries: int = 0,
    load_factor: float = 0.6,
    rate_per_link: float = 1.0,
) -> ExperimentResult:
    """Run the latency comparison.

    ``n_queries = 0`` means one query per live peer. ``load_factor``
    positions the Poisson arrival rate relative to the slowest peer's
    stability bound in the *oblivious* system (0.6 = clearly loaded but
    stable for the matched system).
    """
    size = scaled_sizes((PAPER_SIZE,), scale)[0]
    keys = GnutellaLikeDistribution()
    spiky = SpikyDegreeDistribution(mean_degree=MEAN_BANDWIDTH)
    config = oscar_config or OscarConfig()

    # matched: caps == bandwidth (one draw serves both roles).
    matched_overlay = OscarOverlay(config, seed=seed)
    matched_overlay.grow(size, keys, spiky)
    matched_overlay.rewire()
    matched_caps = dict(
        zip(matched_overlay.live_node_ids(), matched_overlay.in_cap_array().tolist())
    )
    matched_bw = BandwidthModel.proportional_to_caps(matched_caps, rate_per_link)

    # oblivious: uniform caps over the *same* bandwidth population.
    oblivious_overlay = OscarOverlay(config, seed=seed)
    oblivious_overlay.grow(size, keys, ConstantDegrees(int(MEAN_BANDWIDTH)))
    oblivious_overlay.rewire()
    bandwidth_draw = spiky.sample(split(seed, "ext-latency-bandwidths"), size)
    oblivious_bw = BandwidthModel(
        {
            node_id: float(bw) * rate_per_link
            for node_id, bw in zip(oblivious_overlay.live_node_ids(), bandwidth_draw)
        }
    )

    # Offered load: keep the slowest peer of the oblivious system at
    # ~load_factor utilization. Its transit share is ~(mean hops / N) of
    # the arrival rate; its rate is d_min links worth of bandwidth.
    probe = BatchQueryEngine(oblivious_overlay).measure(
        split(seed, "ext-latency-probe"), n_queries=100
    )
    mean_hops = max(probe.mean_hops, 1.0)
    d_min = float(min(spiky.support()))
    arrival_rate = load_factor * d_min * rate_per_link * size / mean_hops

    queries = size if n_queries == 0 else n_queries
    series: dict[str, list[tuple[float, float]]] = {}
    scalars: dict[str, float] = {}
    for label, overlay, bandwidth in (
        ("matched", matched_overlay, matched_bw),
        ("oblivious", oblivious_overlay, oblivious_bw),
    ):
        simulation = QuerySimulation(
            overlay,
            bandwidth,
            LatencyModel(mean_delay=0.02, seed=seed),
            arrival_rate=arrival_rate,
            seed=seed,
        )
        stats = simulation.run(queries)
        series[label] = [
            (50.0, stats.p50),
            (95.0, stats.p95),
            (100.0, stats.max),
        ]
        scalars[f"mean_latency_{label}"] = stats.mean
        scalars[f"p95_latency_{label}"] = stats.p95
        scalars[f"queue_wait_{label}"] = stats.mean_queue_wait

    scalars["mean_penalty"] = (
        scalars["mean_latency_oblivious"] / scalars["mean_latency_matched"]
    )
    scalars["p95_penalty"] = (
        scalars["p95_latency_oblivious"] / scalars["p95_latency_matched"]
    )
    scalars["queue_penalty"] = scalars["queue_wait_oblivious"] / max(
        scalars["queue_wait_matched"], 1e-9
    )

    return ExperimentResult(
        series=series,
        scalars=scalars,
        metadata={"size": size, "queries": queries, "arrival_rate": round(arrival_rate, 3)},
    )
