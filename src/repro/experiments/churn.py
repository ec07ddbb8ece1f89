"""Steady-state churn: one epoch loop, three registered presets.

The paper's Figure 2 measures one-shot crash waves; its heterogeneity
argument is about *long-running* operation under continuous turnover.
:func:`churn_loop` bulk-grows and rewires an overlay, runs the
:class:`~repro.engine.churn.SteadyStateChurnEngine` (lock-step epochs
of Poisson arrivals at Little's-law rate ``N / mean session``,
session-expiry departures, periodic repair, routed probes) and reads
the overlay's registry (:mod:`repro.obs`) back as one per-epoch table
of named numpy columns (TabulaROSA's "system state is a table").
``repair="full"`` is the paper's rewire of every peer; ``"refill"``
replaces only what churn broke. Two optional parts ride
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
from ..membership import DetectorConfig, OracleView, ProbeView
from ..obs import Registry
from ..rng import split
from ..workloads import FlashCrowdSchedule, ServingWorkload
from .base import ExperimentResult, scaled_sizes
from .growth import make_overlay
from .runner import Stopwatch
from .spec import SweepSpec, experiment, register_sweep

__all__ = ["ChurnRun", "churn_loop"]


@dataclass(frozen=True)
class ChurnRun:
    """:func:`churn_loop`'s per-epoch ``table``, the overlay's registry
    ``obs`` (every layer, the per-pass ``store`` and per-eviction
    ``detection`` rows too), the build and loop wall times and the scaled
    population target ``size``."""

    table: dict[str, np.ndarray]
    obs: Registry
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
    raises :class:`~repro.errors.ConfigError`). The table is the
    registry's ``churn`` layer, joined by a ``detector``'s
    ``membership`` rows and ``serving``'s ``serve`` rows (each one per
    epoch), plus the wall ``seconds`` of each ``run_epoch`` and, with
    ``serving``, the wall ``qps_cold`` / ``qps_warm`` of
    :func:`_serve_epoch` — wall time never enters the registry. With
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
    view = OracleView(ring) if detector is None else ProbeView(ring, detector, seed=seed)
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

    seconds, qps = [], []
    churn_watch = Stopwatch()
    for e in range(1, epochs + 1):
        epoch_watch = Stopwatch()
        engine.run_epoch()
        seconds.append(epoch_watch.lap())
        if serve is not None and serving is not None:
            qps.append(_serve_epoch(serve, serving, seed, e, n_queries))
    churn_seconds = churn_watch.lap()

    obs = overlay.state.obs
    table = obs.table("churn")
    for layer in ("membership", "serve"):  # one row per epoch, when the loop has the layer
        table.update(obs.table(layer))
    table["seconds"] = np.asarray(seconds)
    if qps:
        table["qps_cold"], table["qps_warm"] = np.asarray(qps).T
    return ChurnRun(
        table=table,
        obs=obs,
        build_seconds=build_seconds,
        churn_seconds=churn_seconds,
        size=target,
    )


def _serve_epoch(
    serve: ServeEngine, workload: ServingWorkload, seed: int, e: int, n_queries: int
) -> tuple[float, float]:
    """Serve epoch ``e``'s request batch cold, then warm; records the
    epoch's ``serve`` row and returns the wall ``(qps_cold, qps_warm)``."""
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
    ring.state.obs.record(
        "serve",
        e,
        hit_rate=int(warm.hit.sum()) / requests,
        stale=int(cold.stale.sum()) / requests,
        served=int(cold.success.sum()) / requests,
        under_k=store.under_replicated(),
        items=store.item_count,
        stale_serves=serve.stale_serves,
        cache_hit_rate=serve.result_cache.hit_rate,
    )
    return requests / max(cold_seconds, 1e-9), requests / max(warm_seconds, 1e-9)


def _per_epoch(run: ChurnRun, layer: str, name: str) -> np.ndarray:
    """``layer``'s ``name`` column summed per epoch of the run (0 on an
    epoch without a row)."""
    rows = run.obs.table(layer)
    epochs = run.table["epoch"].size
    return np.bincount(rows["epoch"], weights=rows[name], minlength=epochs + 1)[1 : epochs + 1]


def _series(
    table: dict[str, np.ndarray], columns: dict[str, str], rows: np.ndarray | None = None
) -> dict[str, list[tuple[float, float]]]:
    """``{series name: [(epoch, value), ...]}`` read off the named
    columns of a run's table, over every row or the ``rows`` mask."""
    pick = slice(None) if rows is None else rows
    epochs = table["epoch"][pick].tolist()
    return {
        name: list(zip(epochs, table[column][pick].tolist())) for name, column in columns.items()
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
                t,
                {
                    "success rate": "success_rate",
                    "mean search cost": "mean_cost",
                    "stale links": "stale_links",
                    "live peers": "live",
                    "epoch seconds": "seconds",
                },
            ),
            **_series(
                t,
                {
                    "slots given up per repair": "repair_slots_given_up",
                    "samples spent per repair": "repair_samples_spent",
                },
                rows=t["link_repair"],
            ),
        },
        scalars={
            "mean_success_rate": _mean(t["success_rate"]),
            "final_success_rate": float(t["success_rate"][-1]),
            "mean_cost": _mean(t["mean_cost"]),
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
    t = {
        **run.table,
        "undetected": run.table["believed"] - run.table["live"],
        "evicted": np.cumsum(run.table["evictions"]),
    }
    lags = run.obs.table("detection").get("lag", np.zeros(0))
    # The lag window: epochs whose probe batch ran while >= 1 death was
    # still undetected — the regime the oracle never enters. An empty
    # window (e.g. zero churn) reports 1.0: "no lagged probes failed" is
    # vacuously true.
    lagged = t["undetected"] > 0
    evictions, false_evictions = float(t["evictions"].sum()), float(t["false_evictions"].sum())
    return ExperimentResult(
        series=_series(
            t,
            {
                "success rate": "success_rate",
                "mean search cost": "mean_cost",
                "believed live": "believed",
                "truth live": "live",
                "undetected dead": "undetected",
                "evictions (cumulative)": "evicted",
                "epoch seconds": "seconds",
            },
        ),
        scalars={
            "mean_success_rate": _mean(t["success_rate"]),
            "final_success_rate": float(t["success_rate"][-1]),
            "mean_cost": _mean(t["mean_cost"]),
            "lag_window_epochs": float(lagged.sum()),
            "lag_window_success": _mean(t["success_rate"][lagged]) if lagged.any() else 1.0,
            "clean_window_success": (
                _mean(t["success_rate"][~lagged]) if not lagged.all() else 1.0
            ),
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
    t = {
        **run.table,
        "lost": _per_epoch(run, "store", "items_lost"),
        "phantom": _per_epoch(run, "store", "phantom_replicas"),
    }
    qps_cached, qps_uncached = float(np.median(t["qps_warm"])), float(np.median(t["qps_cold"]))
    return ExperimentResult(
        series=_series(
            t,
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
