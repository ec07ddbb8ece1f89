"""Steady-state churn: one epoch loop, three registered presets.

The paper's Figure 2 measures one-shot crash waves; its heterogeneity
argument is about *long-running* operation under continuous turnover.
:func:`churn_loop` bulk-grows and rewires an overlay, runs the
:class:`~repro.engine.churn.SteadyStateChurnEngine` (lock-step epochs
of Poisson arrivals at Little's-law rate ``N / mean session``,
session-expiry departures, periodic repair, routed probes) and fills
one per-epoch table of named numpy columns (TabulaROSA's "system state
is a table"). ``repair="full"`` is the paper's rewire of every peer;
``"refill"`` replaces only what churn broke. Two optional parts ride
the same path, each an object or ``None``: a ``DetectorConfig`` swaps
the omniscient ``OracleView`` for a ``ProbeView`` (the engine still
kills through ground truth, but reads what detectors and gossip have
learned), and a ``ServingWorkload`` turns on the data plane — a
``ReplicatedStore`` re-replicated on repair epochs and a
``ServeEngine`` serving each epoch's Zipf batch *cold* (right after
churn moved the serve version) and again *warm* (cached).

The three specs are presets reading series and scalars off the table:
``steady-churn`` (routing: success, cost, stale links),
``detector-churn`` (detection lag, false evictions, and lag-window
routing: success while believed-live > truth-live) and ``serve-churn``
(cold vs warm queries/sec, hit rate, items lost, items below ``k``
live replicas, phantom replicas, stale serves — the last three zero
under the oracle). ``scripts/bench_ci.py`` snapshots them into
``BENCH_churn.json``, ``BENCH_detector.json`` and ``BENCH_serve.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .. import degree, workloads
from ..churn import make_sessions
from ..churn.sessions import SESSION_DISTRIBUTIONS
from ..engine import ServeEngine, SteadyStateChurnEngine
from ..engine.churn import REPAIR_POLICIES
from ..errors import ConfigError
from ..index import ReplicatedStore
from ..membership import DetectorConfig, MembershipView, OracleView, ProbeView
from ..rng import split
from ..workloads import FlashCrowdSchedule, ServingWorkload
from .base import ExperimentResult, scaled_sizes
from .growth import make_overlay
from .runner import Stopwatch
from .spec import SweepSpec, experiment, register_sweep

__all__ = ["ChurnRun", "churn_loop"]


@dataclass(frozen=True)
class ChurnRun:
    """:func:`churn_loop`'s per-epoch ``table``, the detector's eviction
    ``lags`` (epochs; empty without one), the build and loop wall times
    and the scaled population target ``size``."""

    table: dict[str, np.ndarray]
    lags: np.ndarray
    build_seconds: float
    churn_seconds: float
    size: int


def churn_loop(
    *,
    scale: float,
    seed: int,
    substrate: str,
    size: int,
    epochs: int,
    half_life: float,
    sessions: str,
    keys: str,
    degrees: str,
    repair_every: int,
    repair: str,
    n_queries: int,
    detector: DetectorConfig | None = None,
    serving: ServingWorkload | None = None,
    replicas: int = 3,
    items: int = 0,
    cache_size: int = 1 << 20,
) -> ChurnRun:
    """Grow an overlay to ``size x scale`` peers, churn it, tabulate it.

    Every parameter is checked before anything is built (a bad one
    raises :class:`~repro.errors.ConfigError`). Each row holds the
    engine's epoch counters, the probe batch's ``success`` and ``cost``,
    whether the epoch ``repaired`` and the wall ``seconds`` of
    ``run_epoch``; a ``detector`` adds the view's believed-live count and
    evictions, ``serving`` the columns of :func:`_serve_epoch`. With
    ``serving``, ``n_queries`` sizes the serve batch instead of the
    probe batch (the engine then probes one route per live peer).
    """
    for name, value, floor in (
        ("epochs", epochs, 1),
        ("repair_every", repair_every, 1),
        ("n_queries", n_queries, 0),
        ("items", items, 0),
    ):
        if value < floor:
            raise ConfigError(f"{name} must be >= {floor}, got {value}")
    if repair not in REPAIR_POLICIES:
        raise ConfigError(f"unknown repair {repair!r}; known: {list(REPAIR_POLICIES)}")
    key_distribution = workloads.by_name(keys)
    degree_distribution = degree.by_name(degrees)
    session_times = make_sessions(sessions, half_life)
    (target,) = scaled_sizes((size,), scale)
    overlay = make_overlay(substrate, seed=seed)

    watch = Stopwatch()
    overlay.grow_batch(target, key_distribution, degree_distribution)
    overlay.rewire_batch()
    build_seconds = watch.lap()

    ring = overlay.ring
    probe = None if detector is None else ProbeView(ring, detector, seed=seed)
    view: MembershipView = OracleView(ring) if probe is None else probe
    store = None if serving is None else ReplicatedStore(ring, k=replicas)
    if store is not None:
        store.seed_items(split(seed, "serve-items").random(items or target), view)
    engine = SteadyStateChurnEngine(
        overlay,
        key_distribution,
        degree_distribution,
        session_times,
        arrival_rate=target / session_times.mean,
        repair_every=repair_every,
        n_probes=n_queries if store is None else 0,
        seed=seed,
        membership=view,
        replication=store,
        repair=repair,
    )
    serve = None if store is None else ServeEngine(overlay, store, view, cache_size=cache_size)

    rows: list[dict[str, float]] = []
    churn_watch = Stopwatch()
    for __ in range(epochs):
        epoch_watch = Stopwatch()
        stats = engine.run_epoch()
        row = {
            "seconds": epoch_watch.lap(),
            "epoch": float(stats.epoch),
            "arrivals": float(stats.arrivals),
            "departures": float(stats.departures),
            "live": float(stats.live),
            "stale_links": float(stats.stale_links),
            "success": stats.probes.success_rate,
            "cost": stats.probes.mean_cost,
            "repaired": stats.repair is not None,
            "given_up": float(stats.repair.slots_given_up if stats.repair is not None else 0),
            "samples": float(stats.repair_samples),
        }
        if probe is not None:
            row["believed"] = float(probe.live_count)
            row["undetected"] = float(probe.live_count - ring.live_count)
            row["evictions"] = float(probe.evictions)
            row["false_evictions"] = float(probe.false_evictions)
        if serve is not None and serving is not None:
            row.update(_serve_epoch(serve, serving, seed, stats.epoch, n_queries))
        rows.append(row)
    churn_seconds = churn_watch.lap()

    return ChurnRun(
        table={name: np.asarray([row[name] for row in rows]) for name in rows[0]},
        lags=np.asarray(probe.detection_lags if probe is not None else [], dtype=float),
        build_seconds=build_seconds,
        churn_seconds=churn_seconds,
        size=target,
    )


def _serve_epoch(
    serve: ServeEngine, workload: ServingWorkload, seed: int, e: int, n_queries: int
) -> dict[str, float]:
    """Serve epoch ``e``'s request batch cold, then warm: the epoch's
    serve and replication columns, and the store's and cache's totals."""
    ring, store = serve.substrate.ring, serve.store
    # Requests originate from peers that truly exist *and* are believed
    # alive (a believed-dead source cannot inject traffic; a truth-dead
    # one does not exist to ask).
    believed = serve.membership.live_ids()
    pool = believed[np.isin(believed, ring.ids_array(live_only=True), assume_unique=True)]
    count = ring.live_count if n_queries == 0 else n_queries
    rng = split(seed, "serve-queries", e)
    sources, target_keys = workload.generate_arrays(pool, store.item_keys, rng, count, epoch=e)
    batch_watch = Stopwatch()
    cold = serve.serve_batch(sources, target_keys)
    cold_seconds = batch_watch.lap()
    warm = serve.serve_batch(sources, target_keys)
    warm_seconds = batch_watch.lap()
    requests = max(1, int(cold.target_keys.size))
    replication = [r for r in store.history if r.epoch == e]
    return {
        "hit_rate": int(warm.hit.sum()) / requests,
        "qps_cold": requests / max(cold_seconds, 1e-9),
        "qps_warm": requests / max(warm_seconds, 1e-9),
        "lost": float(sum(r.items_lost for r in replication)),
        "under_k": float(store.under_replicated()),
        "phantom": float(sum(r.phantom_replicas for r in replication)),
        "stale": int(cold.stale.sum()) / requests,
        "served": int(cold.success.sum()) / requests,
        "items": float(store.item_count),
        "stale_serves": float(serve.stale_serves),
        "cache_hit_rate": serve.result_cache.hit_rate,
    }


def _series(
    run: ChurnRun, columns: dict[str, str], rows: np.ndarray | None = None
) -> dict[str, list[tuple[float, float]]]:
    """``{series name: [(epoch, value), ...]}`` read off the named
    columns, over every row or the ``rows`` mask."""
    pick = slice(None) if rows is None else rows
    epochs = run.table["epoch"][pick].tolist()
    return {
        name: list(zip(epochs, run.table[column][pick].tolist()))
        for name, column in columns.items()
    }


def _mean(column: np.ndarray) -> float:
    """Mean by Python's left-to-right ``sum``, as the pinned scalars
    were first recorded (numpy's pairwise sum rounds differently)."""
    return sum(column.tolist()) / column.size


#: Help text of the loop parameters every preset declares.
LOOP_HELP = {
    "substrate": "overlay kind: oscar | chord | mercury",
    "size": "steady-state population target (scaled by --scale)",
    "epochs": "lock-step churn epochs to simulate",
    "half_life": "median session length in epochs",
    "sessions": "session-time shape: exponential | pareto | trace",
    "keys": "key distribution: uniform | clustered | zipf | gnutella",
    "degrees": "cap distribution: constant | realistic | stepped",
    "repair": "link repair policy: full (the paper's rewire) | refill",
    "repair_every": "epochs between link repairs (1 = every epoch)",
    "n_queries": "routed probes per epoch (0 = one per live peer)",
}


def _loop_args(preset_locals: dict[str, Any]) -> dict[str, Any]:
    """:func:`churn_loop`'s own arguments, picked out of a preset's
    ``locals()`` (every preset declares them under the loop's names)."""
    return {name: preset_locals[name] for name in ("scale", "seed", *LOOP_HELP)}


@experiment(
    "steady-churn",
    title="Steady-state churn: routing under continuous turnover",
    tags=("extension",),
    help=LOOP_HELP,
)
def steady_churn(
    scale: float = 1.0,
    seed: int = 42,
    substrate: str = "oscar",
    size: int = 10_000,
    epochs: int = 20,
    half_life: float = 8.0,
    sessions: str = "exponential",
    keys: str = "gnutella",
    degrees: str = "constant",
    repair_every: int = 4,
    repair: str = "full",
    n_queries: int = 256,
) -> ExperimentResult:
    """Epoch time series of an overlay under steady-state churn."""
    run = churn_loop(**_loop_args(locals()))
    t = run.table
    return ExperimentResult(
        series={
            **_series(
                run,
                {
                    "success rate": "success",
                    "mean search cost": "cost",
                    "stale links": "stale_links",
                    "live peers": "live",
                    "epoch seconds": "seconds",
                },
            ),
            **_series(
                run,
                {"slots given up per repair": "given_up", "samples spent per repair": "samples"},
                rows=t["repaired"],
            ),
        },
        scalars={
            "mean_success_rate": _mean(t["success"]),
            "final_success_rate": float(t["success"][-1]),
            "mean_cost": _mean(t["cost"]),
            "max_stale_links": float(t["stale_links"].max()),
            "final_live": float(t["live"][-1]),
            "total_arrivals": float(t["arrivals"].sum()),
            "total_departures": float(t["departures"].sum()),
            "build_seconds": run.build_seconds,
            "churn_seconds": run.churn_seconds,
            "epochs_per_second": epochs / max(run.churn_seconds, 1e-9),
        },
        metadata={"size": run.size, "session_distributions": sorted(SESSION_DISTRIBUTIONS)},
    )


@experiment(
    "detector-churn",
    title="Failure detection under churn: lag, false evictions, routing",
    tags=("extension",),
    help={
        **LOOP_HELP,
        "rounds": "probe rounds per epoch (detector aggressiveness)",
        "threshold": "consecutive probe failures before suspicion (K)",
        "quorum": "distinct suspecting monitors per eviction",
        "monitors": "clockwise successors probing each peer",
        "loss": "per-probe loss probability in [0, 1)",
        "fanout": "gossip push fanout per round",
    },
)
def detector_churn(
    scale: float = 1.0,
    seed: int = 42,
    substrate: str = "oscar",
    size: int = 10_000,
    epochs: int = 20,
    half_life: float = 8.0,
    sessions: str = "exponential",
    keys: str = "gnutella",
    degrees: str = "constant",
    repair_every: int = 4,
    repair: str = "full",
    n_queries: int = 256,
    rounds: int = 2,
    threshold: int = 3,
    quorum: int = 2,
    monitors: int = 3,
    loss: float = 0.0,
    fanout: int = 2,
) -> ExperimentResult:
    """Epoch time series of churn routed over probe-derived knowledge."""
    detector = DetectorConfig(
        failure_threshold=threshold,
        quorum=quorum,
        n_monitors=monitors,
        loss=loss,
        rounds_per_epoch=rounds,
        gossip_fanout=fanout,
    )
    run = churn_loop(**_loop_args(locals()), detector=detector)
    t, lags = run.table, run.lags
    # The lag window: epochs whose probe batch ran while >= 1 death was
    # still undetected — the regime the oracle never enters. An empty
    # window (e.g. zero churn) reports 1.0: "no lagged probes failed" is
    # vacuously true.
    lagged = t["undetected"] > 0
    evictions, false_evictions = float(t["evictions"][-1]), float(t["false_evictions"][-1])
    return ExperimentResult(
        series=_series(
            run,
            {
                "success rate": "success",
                "mean search cost": "cost",
                "believed live": "believed",
                "truth live": "live",
                "undetected dead": "undetected",
                "evictions (cumulative)": "evictions",
                "epoch seconds": "seconds",
            },
        ),
        scalars={
            "mean_success_rate": _mean(t["success"]),
            "final_success_rate": float(t["success"][-1]),
            "mean_cost": _mean(t["cost"]),
            "lag_window_epochs": float(lagged.sum()),
            "lag_window_success": _mean(t["success"][lagged]) if lagged.any() else 1.0,
            "clean_window_success": _mean(t["success"][~lagged]) if not lagged.all() else 1.0,
            "detection_lag_mean": float(lags.mean()) if lags.size else 0.0,
            "detection_lag_p50": float(np.percentile(lags, 50)) if lags.size else 0.0,
            "detection_lag_p99": float(np.percentile(lags, 99)) if lags.size else 0.0,
            "evictions": evictions,
            "false_evictions": false_evictions,
            "false_eviction_rate": false_evictions / evictions if evictions else 0.0,
            "max_undetected_dead": float(t["undetected"].max()),
            "final_live": float(t["live"][-1]),
            "total_departures": float(t["departures"].sum()),
            "build_seconds": run.build_seconds,
            "churn_seconds": run.churn_seconds,
            "epochs_per_second": epochs / max(run.churn_seconds, 1e-9),
        },
        metadata={"size": run.size},
    )


@experiment(
    "serve-churn",
    title="Data plane under churn: replication, caching, hot keys",
    tags=("extension",),
    help={
        **LOOP_HELP,
        "repair_every": "epochs between repairs + re-replication passes",
        "n_queries": "serve requests per epoch (0 = one per live peer)",
        "replicas": "replication factor k (owner + k-1 successors)",
        "items": "catalog size (0 = one item per initial peer)",
        "exponent": "Zipf popularity skew over the catalog",
        "flash_fraction": "request fraction redirected during the flash crowd",
        "membership": "liveness source: oracle | probe",
        "loss": "per-probe loss probability (probe membership only)",
        "cache_size": "LRU result-cache capacity (0 disables caching)",
    },
)
def serve_churn(
    scale: float = 1.0,
    seed: int = 42,
    substrate: str = "oscar",
    size: int = 10_000,
    epochs: int = 20,
    half_life: float = 8.0,
    sessions: str = "exponential",
    keys: str = "gnutella",
    degrees: str = "constant",
    repair_every: int = 4,
    repair: str = "full",
    n_queries: int = 4096,
    replicas: int = 3,
    items: int = 0,
    exponent: float = 0.9,
    flash_fraction: float = 0.8,
    membership: str = "oracle",
    loss: float = 0.05,
    cache_size: int = 1 << 20,
) -> ExperimentResult:
    """Epoch time series of cached serving over a churning, replicated
    catalog (the flash crowd occupies the middle third of the run)."""
    if membership not in ("oracle", "probe"):
        raise ConfigError(f"unknown membership {membership!r}; known: ['oracle', 'probe']")
    # Built before the loop grows anything, so a bad value costs no build.
    detector = DetectorConfig(loss=loss)
    flash = FlashCrowdSchedule(
        start=max(1, epochs // 3), stop=max(2, 2 * epochs // 3), fraction=flash_fraction
    )
    workload = ServingWorkload(exponent=exponent, flash=flash)
    run = churn_loop(
        **_loop_args(locals()),
        detector=detector if membership == "probe" else None,
        serving=workload,
        replicas=replicas,
        items=items,
        cache_size=cache_size,
    )
    t = run.table
    qps_cached, qps_uncached = float(np.median(t["qps_warm"])), float(np.median(t["qps_cold"]))
    return ExperimentResult(
        series=_series(
            run,
            {
                "cache hit rate (warm)": "hit_rate",
                "queries/sec cold": "qps_cold",
                "queries/sec warm": "qps_warm",
                "items lost": "lost",
                "items below k live replicas": "under_k",
                "phantom replicas": "phantom",
                "stale serve rate": "stale",
                "serve success rate (cold)": "served",
            },
        ),
        scalars={
            # The seeding pass loses nothing and, on the freshly built
            # overlay, places no phantom: the per-epoch sums are totals.
            "items_lost_total": float(t["lost"].sum()),
            "items_final": float(t["items"][-1]),
            "under_k_final": float(t["under_k"][-1]),
            "phantom_total": float(t["phantom"].sum()),
            "stale_serves": float(t["stale_serves"][-1]),
            "hit_rate": float(t["cache_hit_rate"][-1]),
            "mean_success_rate": _mean(t["served"]),
            "qps_cached": qps_cached,
            "qps_uncached": qps_uncached,
            "cache_speedup": qps_cached / qps_uncached,
            "final_live": float(t["live"][-1]),
            "build_seconds": run.build_seconds,
            "serve_seconds": run.churn_seconds,
        },
        metadata={"size": run.size, "items": items or run.size},
    )


# The steady-churn scenario family: churn speed x substrate x cap
# distribution x repair policy, each point one full epoch time series.
# `repro sweep churn-grid --scale 0.02 --jobs 4`.
register_sweep(
    SweepSpec(
        id="churn-grid",
        spec_id="steady-churn",
        title="Churn half-life x substrate x cap distribution x repair policy",
        axes=(
            ("half_life", (2.0, 8.0, 32.0)),
            ("substrate", ("oscar", "chord", "mercury")),
            ("degrees", ("constant", "realistic")),
            ("repair", ("full", "refill")),
        ),
    )
)

# The detector scenario family: aggressiveness x probe loss x churn
# speed, each point one full epoch time series.
# `repro sweep detector-grid --scale 0.02 --jobs 4`.
register_sweep(
    SweepSpec(
        id="detector-grid",
        spec_id="detector-churn",
        title="Detector aggressiveness x probe loss x churn half-life",
        axes=(
            ("rounds", (1, 2, 4)),
            ("loss", (0.0, 0.05, 0.15)),
            ("half_life", (2.0, 8.0, 32.0)),
        ),
    )
)

# The serving scenario family: replication factor x probe loss x
# popularity skew. `repro sweep serve-grid --scale 0.02 --jobs 4`.
register_sweep(
    SweepSpec(
        id="serve-grid",
        spec_id="serve-churn",
        title="Replication factor x probe loss x popularity skew",
        axes=(
            ("replicas", (1, 3, 5)),
            ("membership", ("oracle", "probe")),
            ("exponent", (0.0, 0.9)),
        ),
    )
)
