"""Construction-throughput extension: how fast can the overlay be built?

The paper's core claim is *cheap construction and maintenance* of a
small-world overlay under heterogeneity — yet none of its figures
measure the build phase itself. This spec records that trajectory: for a
sweep of network sizes up to 100k peers it times a cold bulk build
(``grow_batch`` from an empty ring), a full maintenance round
(``rewire_batch``), derives the end-to-end construction throughput in
peers/second, and sanity-routes a query batch so a fast-but-broken build
cannot masquerade as a win. At the smallest size it also times the
rewire against the engine's pure-Python twin (``vectorized=False``) for
``rewire_speedup``, and the walk kernel against its twin (one query per
peer on the one snapshot) for ``walk_speedup``.

The emitted series are what ``scripts/bench_ci.py`` snapshots into
``BENCH_build.json`` on every CI run — the durable benchmark trajectory
ISSUE 4 introduces.
"""

from __future__ import annotations

import numpy as np

from ..degree import ConstantDegrees
from ..engine import BatchQueryEngine
from ..engine.walk import greedy_walk, greedy_walk_reference
from ..ring import keyspace
from ..rng import split
from ..workloads import GnutellaLikeDistribution, QueryWorkload
from .base import ExperimentResult, scaled_sizes
from .growth import make_overlay
from .runner import Stopwatch
from .spec import experiment


@experiment(
    "scale-build",
    title="Batched construction wall time vs network size",
    tags=("extension",),
    help={
        "sizes": "paper-scale network sizes to build (each scaled by --scale)",
        "substrate": "overlay kind: oscar (vectorized) / chord / mercury (scalar fallback)",
        "cap": "per-peer degree cap (in and out)",
        "n_queries": "post-build sanity queries per size (0 = one per peer)",
        "compare_scalar": "also time the rewire and walk twins at the smallest size",
    },
)
def run(
    scale: float = 1.0,
    seed: int = 42,
    sizes: tuple[int, ...] = (10_000, 31_600, 100_000),
    substrate: str = "oscar",
    cap: int = 12,
    n_queries: int = 500,
    compare_scalar: bool = True,
) -> ExperimentResult:
    """Build/rewire wall-time trajectory of the batched construction engine."""
    measured = scaled_sizes(sizes, scale)
    build_series: list[tuple[float, float]] = []
    rewire_series: list[tuple[float, float]] = []
    rate_series: list[tuple[float, float]] = []
    cost_series: list[tuple[float, float]] = []
    rewire_speedup = walk_speedup = float("nan")

    for index, size in enumerate(measured):
        overlay = make_overlay(substrate, seed=seed)
        keys = GnutellaLikeDistribution()
        degrees = ConstantDegrees(cap)

        watch = Stopwatch()
        overlay.grow_batch(size, keys, degrees)
        build_seconds = watch.lap()

        if compare_scalar and index == 0:
            # The twin's rewire first (it is replaced by the vectorized
            # round below, so the measured overlay is the kernels' build).
            watch = Stopwatch()
            overlay.rewire_batch(split(seed, "scale-build-scalar", size), vectorized=False)
            twin_seconds = watch.lap()
        else:
            twin_seconds = None

        watch = Stopwatch()
        overlay.rewire_batch(split(seed, "scale-build-rewire", size))
        rewire_seconds = watch.lap()
        if twin_seconds is not None:
            rewire_speedup = twin_seconds / max(rewire_seconds, 1e-9)

        engine = BatchQueryEngine(overlay)
        queries = size if n_queries == 0 else n_queries
        stats = engine.measure(
            split(seed, "scale-build-queries", size), n_queries=queries
        )
        if twin_seconds is not None:
            walk_speedup = _walk_speedup(engine, split(seed, "scale-build-walk", size))

        build_series.append((float(size), build_seconds))
        rewire_series.append((float(size), rewire_seconds))
        rate_series.append(
            (float(size), size / max(build_seconds + rewire_seconds, 1e-9))
        )
        cost_series.append((float(size), stats.mean_cost))

    return ExperimentResult(
        series={
            "build seconds": build_series,
            "rewire seconds": rewire_series,
            "peers per second": rate_series,
            "mean search cost": cost_series,
        },
        scalars={
            "rewire_speedup": rewire_speedup,
            "walk_speedup": walk_speedup,
            "final_peers_per_second": rate_series[-1][1],
            "final_mean_cost": cost_series[-1][1],
            "final_build_seconds": build_series[-1][1],
            "final_rewire_seconds": rewire_series[-1][1],
        },
        metadata={"sizes": measured},
    )


def _walk_speedup(engine: BatchQueryEngine, rng: np.random.Generator) -> float:
    """Reference-twin seconds over kernel seconds for one query per live
    peer on the engine's snapshot — a ratio of two timings on one host.
    The kernel side is the best of three: it is milliseconds long."""
    snap = engine.snapshot()
    table = snap.table.whole()  # both sides walk every row built
    ring = engine.substrate.ring
    sources, target_keys = QueryWorkload().generate_arrays(ring, rng, ring.live_count)
    targets = keyspace.from_units(target_keys)
    rows = (table, snap.row_of[sources], snap.responsible_rows(targets))
    kernel_seconds = []
    for __ in range(3):
        watch = Stopwatch()  # the kernel side pays for its bound search, as the twin does
        greedy_walk(*rows, table.bounds(targets), engine.routing.budget)
        kernel_seconds.append(watch.lap())
    watch = Stopwatch()
    greedy_walk_reference(*rows, targets, engine.routing.budget)
    return watch.lap() / max(min(kernel_seconds), 1e-9)
