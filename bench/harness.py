"""Run one workload in this process and write its result document.

``run.py`` starts this file once per (workload, traced?) pair, with the
numpy thread pools pinned to 1 in the environment, and watches the
process's memory from outside. Everything here drives the overlay
through its public engine APIs only:

1. **set-up** — build the overlay (``grow_batch`` + ``rewire_batch``),
   seed the catalog, construct the engines; timed as ``setup_s``;
2. **measure** — closed loop: generate one round of requests from the
   seed, issue it batch by batch through ``serve_batch`` (on churn
   workloads after one ``run_epoch`` each), timing only those top-level
   calls (:class:`Stopwatch`), with reference-kernel runs between them
   (``hostref.py``);
3. **check** — re-serve a sample through the pure-Python reference
   engine, reconcile counters, verify the ring.

With ``--trace 1`` the public functions listed in :func:`install` are
wrapped by a :class:`spans.Tracer` first, and two extra probes run (a
direct ``route_batch`` probe and a standalone ``ResultCache`` replay).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import OscarConfig, OscarOverlay  # noqa: E402
from repro.churn import make_sessions  # noqa: E402
from repro.degree import ConstantDegrees  # noqa: E402
from repro.engine import (  # noqa: E402
    BatchQueryEngine,
    ResultCache,
    ServeEngine,
    ServeSnapshot,
    SteadyStateChurnEngine,
    TopologySnapshot,
)
from repro.index import ReplicatedStore  # noqa: E402
from repro.membership import (  # noqa: E402
    DetectorConfig,
    GossipMembership,
    OracleView,
    ProbeView,
    VectorizedDetectorBank,
)
from repro.ring import Ring  # noqa: E402
from repro.rng import split  # noqa: E402
from repro.workloads import (  # noqa: E402
    FlashCrowdSchedule,
    GnutellaLikeDistribution,
    ServingWorkload,
)

import spec  # noqa: E402
from hostref import HostRef  # noqa: E402
from spans import Tracer  # noqa: E402

clock = time.perf_counter


class Stopwatch:
    """Times one call twice: ``wall`` seconds, and ``work`` seconds —
    wall minus the time the kernel worked for this process meanwhile.

    The program does no I/O, so its kernel time is memory management:
    page faults on arrays it allocates. The sizing box hands freed guest
    pages back to its host after two idle seconds (free page reporting),
    and touching such a page again costs up to 80x a warm one — the same
    ``ServeSnapshot.capture`` read 52 ms and 2021 ms, 10 and 1882 ms of
    them in the kernel. ``work`` leaves that out; every end-to-end host-time
    metric is built on it, every per-layer time and the ``run.*_wall``
    twins on ``wall`` (README.md, "Host noise").
    """

    def __init__(self) -> None:
        self.kernel = -resource.getrusage(resource.RUSAGE_SELF).ru_stime
        self.wall = -clock()

    def stop(self) -> "Stopwatch":
        self.wall += clock()
        self.kernel += resource.getrusage(resource.RUSAGE_SELF).ru_stime
        self.work = self.wall - self.kernel
        return self


LINK_CAP = 27
REPLICAS = 3
CHECK_SAMPLE = 512
ROUTE_PROBE_BATCHES = 8
ROUND_HOST_EVERY_S = 0.15  # one reference-kernel run per this much batch time in a round ...
ROUND_HOST_RUNS = 2  # ... next to this many before it and after it
LONG_OP_HOST_RUNS = 5  # reference-kernel runs on each side of an epoch or a set-up stage

TRACED = (
    (OscarOverlay, "grow_batch", "construct.grow_batch"),
    (OscarOverlay, "rewire_batch", "construct.rewire_batch"),
    (OscarOverlay, "leave_batch", "construct.leave_batch"),
    (Ring, "remove_many", "ring.remove_many"),
    (ReplicatedStore, "seed_items", "store.seed_items"),
    (ReplicatedStore, "lookup_rows", "store.lookup_rows"),
    (ReplicatedStore, "truth_live_mask", "store.truth_live_mask"),
    (ReplicatedStore, "rereplicate", "store.rereplicate"),
    (ServeEngine, "serve_batch", "serve.batch"),
    (ServeSnapshot, "capture", "serve.snapshot_capture"),
    (ServeSnapshot, "owner_rows", "serve.owner_rows"),
    (TopologySnapshot, "capture", "route.snapshot_capture"),
    (BatchQueryEngine, "route_batch", "route.route_batch"),
    (SteadyStateChurnEngine, "run_epoch", "churn.run_epoch"),
    (ProbeView, "advance", "membership.advance"),
    (VectorizedDetectorBank, "round", "membership.detector_round"),
    (GossipMembership, "spread", "membership.gossip_spread"),
    (ProbeView, "live_ids", "membership.live_ids"),
    (OracleView, "live_ids", "membership.live_ids"),
    (ServingWorkload, "generate_arrays", "workload.generate"),
)


def install(tracer: Tracer) -> None:
    """Wrap every public layer boundary the per-layer metrics name."""
    for owner, attr, name in TRACED:
        tracer.wrap(owner, attr, name)


def sub_seed(seed: int, label: str) -> int:
    """An integer seed for a component that takes one, derived from the
    run seed through ``repro.rng.split``."""
    return int(split(seed, "bench", label).integers(1 << 62))


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------


@dataclass
class World:
    """The system under test plus the top-level set-up timings."""

    overlay: OscarOverlay
    view: Any
    store: ReplicatedStore
    serve: ServeEngine
    churn: SteadyStateChurnEngine | None
    stream: ServingWorkload
    grow_batch_s: float
    rewire_batch_s: float
    setup_s: float  # wall
    setup_host_s: float  # work seconds, host-normalised

    def source_pool(self) -> tuple[np.ndarray, int]:
        """Believed-live ∩ truth-live peers (where requests may start)
        and how many believed-live peers are in truth dead."""
        believed = self.view.live_ids()
        truth = self.overlay.ring.ids_array(live_only=True)
        pool = believed[np.isin(believed, truth, assume_unique=True)]
        return pool, int(believed.size - pool.size)


def build_world(w: spec.Workload, seed: int, host: HostRef) -> World:
    """Overlay build + catalog seeding + engine construction, timed in
    three stages (grow, rewire, the rest) with reference-kernel runs
    between them, so each stage is host-normalised by its own
    neighbourhood; the kernel runs are not part of the set-up time."""
    keys = GnutellaLikeDistribution()
    degrees = ConstantDegrees(LINK_CAP)
    host.sample(LONG_OP_HOST_RUNS)
    grow = Stopwatch()
    overlay = OscarOverlay(OscarConfig(), seed=sub_seed(seed, "overlay"))
    overlay.grow_batch(w.peers, keys, degrees)
    setup_host_s = grow.stop().work * host.scale_around(LONG_OP_HOST_RUNS)
    rewire = Stopwatch()
    overlay.rewire_batch()
    setup_host_s += rewire.stop().work * host.scale_around(LONG_OP_HOST_RUNS)
    rest = Stopwatch()
    if w.view == "probe":
        view: Any = ProbeView(
            overlay.ring, DetectorConfig(loss=0.01), seed=sub_seed(seed, "detector")
        )
    else:
        view = OracleView(overlay.ring)
    store = ReplicatedStore(overlay.ring, k=REPLICAS)
    store.seed_items(split(seed, "bench", "items").random(w.peers), view)
    churn = None
    if w.churn:
        sessions = make_sessions("exponential", w.half_life)
        churn = SteadyStateChurnEngine(
            overlay,
            keys,
            degrees,
            sessions,
            arrival_rate=w.peers / sessions.mean,
            repair_every=w.repair_every,
            n_probes=1,  # routed probes are measured by the direct route probe
            seed=sub_seed(seed, "churn"),
            membership=view,
            replication=store,
        )
    serve = ServeEngine(overlay, store, view, cache_size=w.cache_size)
    flash = FlashCrowdSchedule(*w.flash) if w.flash else None
    stream = ServingWorkload(exponent=w.exponent, flash=flash)
    setup_host_s += rest.stop().work * host.scale_around(LONG_OP_HOST_RUNS)
    return World(
        overlay=overlay,
        view=view,
        store=store,
        serve=serve,
        churn=churn,
        stream=stream,
        grow_batch_s=grow.wall,
        rewire_batch_s=rewire.wall,
        setup_s=grow.wall + rewire.wall + rest.wall,
        setup_host_s=setup_host_s,
    )


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------


@dataclass
class Tally:
    """Simulated outcomes over the counted requests (seed-exact)."""

    attempted: int = 0
    hits: int = 0
    unsuccessful: int = 0
    stale: int = 0
    errored: int = 0
    hops_hist: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=np.int64))

    def add(self, result: Any) -> None:
        self.attempted += int(result.hit.size)
        self.hits += int(result.hit.sum())
        self.unsuccessful += int((~result.success).sum())
        self.stale += int(result.stale.sum())
        hist = np.bincount(result.hops[~result.hit])
        if hist.size > self.hops_hist.size:
            hist, self.hops_hist = self.hops_hist, hist.astype(np.int64)
        self.hops_hist[: hist.size] += hist

    def add_error(self, requests: int) -> None:
        self.attempted += requests
        self.errored += requests

    @property
    def routed(self) -> int:
        return int(self.hops_hist.sum())

    def hops_percentile(self, q: float) -> float:
        """Percentile of the hop counts of routed requests, interpolated
        inside the integer bin (hop count ``h`` covers ``h ± 0.5``): a
        shifting tail moves it continuously, where the plain integer
        percentile flips between neighbours from seed to seed."""
        if self.routed == 0:
            return 0.0
        cumulative = np.cumsum(self.hops_hist)
        target = q * self.routed
        h = int(np.searchsorted(cumulative, target, side="left"))
        below = int(cumulative[h - 1]) if h else 0
        return h - 0.5 + (target - below) / int(self.hops_hist[h])


def by_repair() -> dict[bool, list[float]]:
    """Per-epoch samples keyed by ``stats.link_repair``."""
    return {False: [], True: []}


@dataclass
class Record:
    """Host-time samples and whole-run counts of one workload run."""

    host: HostRef = field(default_factory=HostRef)
    round_s: list[float] = field(default_factory=list)  # measured rounds, wall
    round_host_s: list[float] = field(default_factory=list)  # work seconds, host-normalised
    batch_s: list[float] = field(default_factory=list)  # measured batches, wall
    first_batch_s: list[float] = field(default_factory=list)  # after a version bump, wall
    epoch_s: dict[bool, list[float]] = field(default_factory=by_repair)  # wall
    epoch_host_s: dict[bool, list[float]] = field(default_factory=by_repair)
    kernel_s: float = 0.0  # kernel time inside measured batches and epochs
    generate_s: float = 0.0  # measured rounds only
    issued: int = 0  # requests handed to serve_batch, warm-up included
    hits: int = 0
    hops: int = 0
    errors: list[str] = field(default_factory=list)
    errored: int = 0
    undetected_dead_max: int = 0
    last_version: object = None
    prev_keys: np.ndarray | None = None
    last_keys: np.ndarray | None = None
    last_batch: tuple[np.ndarray, np.ndarray, Any] | None = None


def serve_round(
    world: World,
    w: spec.Workload,
    seed: int,
    round_no: int,
    epoch: int,
    pool: np.ndarray,
    rec: Record,
    measured: bool,
    tally: Tally | None,
) -> None:
    """Generate one round from the seed and serve it batch by batch,
    with a reference-kernel run after every ``ROUND_HOST_EVERY_S`` of
    batch time (outside the timed calls) to host-normalise the round."""
    t0 = clock()
    sources, keys = world.stream.generate_arrays(
        pool,
        world.store.item_keys,
        split(seed, "bench", "requests", round_no),
        w.requests_per_round,
        epoch=epoch,
    )
    if measured:
        rec.generate_s += clock() - t0
    rec.prev_keys, rec.last_keys = rec.last_keys, keys
    round_s = round_work_s = 0.0
    host_from, host_due_s = len(rec.host.samples) - ROUND_HOST_RUNS, ROUND_HOST_EVERY_S
    for lo in range(0, w.requests_per_round, w.batch):
        b_sources, b_keys = sources[lo : lo + w.batch], keys[lo : lo + w.batch]
        version = world.serve.serve_version
        result = None
        watch = Stopwatch()
        try:
            result = world.serve.serve_batch(b_sources, b_keys)
        except Exception:  # noqa: BLE001 - one bad batch must not end the run
            rec.errors.append(traceback.format_exc())
        watch.stop()
        round_s += watch.wall
        round_work_s += watch.work
        rec.issued += w.batch
        if version != rec.last_version:
            rec.last_version = version
            rec.first_batch_s.append(watch.wall)
        if round_s >= host_due_s:
            rec.host.sample(1)
            host_due_s = round_s + ROUND_HOST_EVERY_S
        if measured:
            rec.batch_s.append(watch.wall)
            rec.kernel_s += watch.kernel
        if result is None:
            rec.errored += w.batch
            if tally is not None:
                tally.add_error(w.batch)
            continue
        rec.hits += int(result.hit.sum())
        rec.hops += int(result.hops.sum())
        rec.last_batch = (b_sources, b_keys, result)
        if tally is not None:
            tally.add(result)
    rec.host.sample(ROUND_HOST_RUNS)
    if measured:
        rec.round_s.append(round_s)
        rec.round_host_s.append(round_work_s * rec.host.scale(rec.host.samples[host_from:]))


def churn_step(
    world: World,
    w: spec.Workload,
    seed: int,
    rec: Record,
    measured: bool,
    tally: Tally | None,
) -> np.ndarray:
    """One ``run_epoch`` and the round served after it; returns the
    source pool as it stands afterwards."""
    watch = Stopwatch()
    stats = world.churn.run_epoch()
    watch.stop()
    scale = rec.host.scale_around(LONG_OP_HOST_RUNS)
    if measured:
        rec.epoch_s[stats.link_repair].append(watch.wall)
        rec.epoch_host_s[stats.link_repair].append(watch.work * scale)
        rec.kernel_s += watch.kernel
    pool, undetected = world.source_pool()
    rec.undetected_dead_max = max(rec.undetected_dead_max, undetected)
    serve_round(world, w, seed, stats.epoch, stats.epoch, pool, rec, measured, tally)
    return pool


def run_unit(
    world: World,
    w: spec.Workload,
    seed: int,
    unit: int,
    pool: np.ndarray,
    rec: Record,
    measured: bool,
    tally: Tally | None,
) -> np.ndarray:
    """One round (static) or one repair cycle of epoch + round pairs
    (churn); returns the source pool as it stands afterwards."""
    if world.churn is None:
        serve_round(world, w, seed, unit, 0, pool, rec, measured, tally)
        return pool
    for _ in range(w.repair_every):
        pool = churn_step(world, w, seed, rec, measured, tally)
    return pool


def route_probe(world: World, w: spec.Workload, seed: int, pool: np.ndarray) -> float:
    """Seconds per request of the ground-truth walk: a few batches
    straight through ``BatchQueryEngine.route_batch`` on the freshly
    built overlay (the twin of the serve walk)."""
    engine = BatchQueryEngine(world.overlay)
    sources, keys = world.stream.generate_arrays(
        pool,
        world.store.item_keys,
        split(seed, "bench", "route-probe"),
        ROUTE_PROBE_BATCHES * w.batch,
    )
    engine.route_batch(sources[: w.batch], keys[: w.batch])  # snapshot capture
    t0 = clock()
    for lo in range(0, sources.size, w.batch):
        engine.route_batch(sources[lo : lo + w.batch], keys[lo : lo + w.batch])
    return (clock() - t0) / sources.size


def replay_cache(
    capacity: int, warm_keys: np.ndarray, timed_keys: np.ndarray, batch: int
) -> tuple[float, float]:
    """Seconds per ``get`` and per ``put`` of a standalone
    :class:`ResultCache` fed the workload's key stream the way
    ``serve_batch`` feeds it: probe a whole batch, then insert its
    misses. ``warm_keys`` fill the cache untimed first."""
    cache = ResultCache(capacity)
    version = ("replay",)
    payload = (0, True, True, False)
    get_s = put_s = 0.0
    gets = puts = 0
    for keys, timed in ((warm_keys, False), (timed_keys, True)):
        for lo in range(0, keys.size, batch):
            chunk = keys[lo : lo + batch].tolist()
            t0 = clock()
            misses = [key for key in chunk if cache.get(key, version) is None]
            t1 = clock()
            for key in misses:
                cache.put(key, version, payload)
            t2 = clock()
            if timed:
                get_s += t1 - t0
                put_s += t2 - t1
                gets += len(chunk)
                puts += len(misses)
    return get_s / max(1, gets), put_s / max(1, puts)


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------


def check_reference(world: World, rec: Record) -> str | None:
    """Re-serve a sample of the last measured batch through the uncached
    pure-Python reference engine; ``None`` when every column agrees."""
    if rec.last_batch is None:
        return "no batch completed"
    sources, keys, result = rec.last_batch
    half = CHECK_SAMPLE // 2
    routed = np.flatnonzero(~result.hit)[:half]
    sample = np.concatenate([routed, np.flatnonzero(result.hit)[: CHECK_SAMPLE - routed.size]])
    reference = ServeEngine(
        world.overlay, world.store, world.view, cache_size=0, vectorized=False
    ).serve_batch(sources[sample], keys[sample])
    for column in ("owners", "found", "success", "stale"):
        if not np.array_equal(getattr(reference, column), getattr(result, column)[sample]):
            return f"{column} differ from the reference engine"
    n_routed = int(routed.size)
    if not np.array_equal(reference.hops[:n_routed], result.hops[routed]):
        return "hops differ from the reference engine"
    return None


def run_checks(world: World, w: spec.Workload, rec: Record, tally: Tally) -> dict[str, str]:
    """Every output check; maps check name to ``"ok"`` or the reason."""
    checks: dict[str, str] = {}
    checks["reference_sample"] = check_reference(world, rec) or "ok"
    cache = world.serve.result_cache
    served = rec.issued - rec.errored
    if cache.hits + cache.misses != served or cache.hits != rec.hits:
        checks["counters"] = (
            f"cache hits {cache.hits} + misses {cache.misses} vs served {served}, "
            f"hit column sum {rec.hits}"
        )
    elif tally.hits + tally.routed + tally.errored != tally.attempted:
        checks["counters"] = "hit + routed != attempted"
    else:
        checks["counters"] = "ok"
    try:
        world.overlay.ring.verify()
        checks["ring_verify"] = "ok"
    except Exception as exc:  # noqa: BLE001 - reported as a failed check
        checks["ring_verify"] = f"{type(exc).__name__}: {exc}"
    checks["no_errors"] = "ok" if not rec.errors else rec.errors[0].strip().splitlines()[-1]
    if not w.churn:
        failed = tally.unsuccessful + tally.errored
        checks["static_all_served"] = "ok" if failed == 0 else f"{failed} requests failed"
    return checks


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def rates(
    w: spec.Workload, round_s: list[float], epoch_s: dict[bool, list[float]]
) -> dict[str, float]:
    """The throughput figures from per-round and per-epoch seconds.

    Rounds of a static workload are alike, so the median stands for
    them; rounds of a churn workload differ by design (flash-crowd
    epochs, cache state after each version bump), so every run averages
    over the same fixed set. Epochs are taken by kind, median each.
    """
    per_round = statistics.fmean(round_s) if w.churn else median(round_s)
    out = {"serve_rps": w.requests_per_round / per_round}
    out["sustained_rps"] = out["serve_rps"]
    if w.churn:
        cycle_s = median(epoch_s[True]) + (w.repair_every - 1) * median(epoch_s[False])
        out["churn_epochs_per_s"] = w.repair_every / cycle_s
        out["sustained_rps"] = (
            w.repair_every * w.requests_per_round / (cycle_s + w.repair_every * per_round)
        )
    return out


def end_to_end(
    w: spec.Workload,
    world: World,
    rec: Record,
    tally: Tally,
    setup_wall_s: float,
    setup_s: float,
    window_host_s: list[float],
    peak_rss_mb: float,
) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, samples). Host-time figures are built on
    work seconds (:class:`Stopwatch`), each set-up, round and epoch
    host-normalised by the reference-kernel runs right around it
    (``hostref.py``). The wall-clock twins and the median reference
    over the measured window are the ``run.*`` entries."""
    rounds = len(rec.round_s)
    epochs = len(rec.epoch_s[True]) + len(rec.epoch_s[False])
    wall = rates(w, rec.round_s, rec.epoch_s)
    host = rates(w, rec.round_host_s, rec.epoch_host_s)
    failed = (tally.unsuccessful + tally.errored) / tally.attempted
    hit_rate = tally.hits / tally.attempted
    out: dict[str, tuple[float, str, int]] = {
        "setup_s": (setup_s, "s", w.setup_repeats),
        "serve_rps": (host["serve_rps"], "req/s", rounds),
        "sustained_rps": (host["sustained_rps"], "req/s", epochs or rounds),
        "hops_p50": (tally.hops_percentile(0.50), "hops", tally.routed),
        "hops_p99": (tally.hops_percentile(0.99), "hops", tally.routed),
        "hit_rate": (hit_rate, "ratio", tally.attempted),
        "miss_rate": (1.0 - hit_rate, "ratio", tally.attempted),
        "failed_share": (failed, "ratio", tally.attempted),
        "success_share": (1.0 - failed, "ratio", tally.attempted),
        "peak_rss_mb": (peak_rss_mb, "MiB", 1),
        "run.setup_wall_s": (setup_wall_s, "s", w.setup_repeats),
        "run.serve_rps_wall": (wall["serve_rps"], "req/s", rounds),
        "run.sustained_rps_wall": (wall["sustained_rps"], "req/s", epochs or rounds),
        "run.host_ref_ms": (1e3 * median(window_host_s), "ms", len(window_host_s)),
        "run.kernel_s": (rec.kernel_s, "s", len(rec.batch_s) + epochs),
    }
    if w.churn:
        out["churn_epochs_per_s"] = (host["churn_epochs_per_s"], "epochs/s", epochs)
        out["churn.epochs_per_s"] = (wall["churn_epochs_per_s"], "epochs/s", epochs)
        out["items_lost"] = (world.store.items_lost_total, "items", 1)
    if w.view == "probe":
        lags = world.view.detection_lags
        out["stale_serve_share"] = (tally.stale / tally.attempted, "ratio", tally.attempted)
        for q in (50, 99):
            value = float(np.percentile(lags, q, method="inverted_cdf")) if lags else 0.0
            out[f"detect_lag_p{q}"] = (value, "epochs", len(lags))
    return out


def per_layer(
    world: World,
    w: spec.Workload,
    rec: Record,
    tracer: Tracer,
    wall_s: float,
    route_s_per_request: float,
    span_cost_s: float,
    traced_s: float,
    e2e: dict[str, tuple[float, str, int]],
) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, samples), from spans, harness timings and
    the objects' public counters over the whole traced run (set-up and
    warm-up included; ``traced_s`` is how long the wrappers were in
    place)."""
    summary = tracer.summary()
    out: dict[str, tuple[float, str, int]] = {}

    def span(name: str) -> dict[str, Any]:
        return summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})

    def seconds(metric: str, name: str, key: str = "total_s") -> None:
        out[metric] = (span(name)[key], "s", span(name)["calls"])

    for name in (
        "construct.grow_batch",
        "construct.rewire_batch",
        "construct.leave_batch",
        "ring.remove_many",
        "store.lookup_rows",
        "store.truth_live_mask",
        "store.rereplicate",
        "serve.batch",
        "serve.snapshot_capture",
        "serve.owner_rows",
        "churn.run_epoch",
        "membership.advance",
        "membership.live_ids",
    ):
        seconds(f"{name}_s", name)
        out[f"{name}_calls"] = (span(name)["calls"], "count", span(name)["calls"])
    out["construct.build_peers_per_s"] = (
        w.peers / (world.grow_batch_s + world.rewire_batch_s),
        "peers/s",
        1,
    )
    seconds("store.seed_items_s", "store.seed_items")
    history = world.store.history
    out["store.replicas_placed"] = (sum(r.placed for r in history), "count", len(history))
    out["store.phantom_replicas"] = (
        sum(r.phantom_replicas for r in history),
        "count",
        len(history),
    )
    out["store.under_replicated_final"] = (world.store.under_replicated(), "items", 1)
    out["store.items_lost"] = (world.store.items_lost_total, "items", 1)

    batch_ms = [1e3 * s for s in rec.batch_s]
    served = rec.issued - rec.errored
    seconds("serve.batch_self_s", "serve.batch", "self_s")
    batch_self_s = out["serve.batch_self_s"][0]
    out["serve.round_s_p50"] = (median(rec.round_s), "s", len(rec.round_s))
    out["serve.batch_ms_p50"] = (median(batch_ms), "ms", len(batch_ms))
    out["serve.batch_ms_p95"] = (float(np.percentile(batch_ms, 95)), "ms", len(batch_ms))
    out["serve.first_batch_ms_p50"] = (
        1e3 * median(rec.first_batch_s),
        "ms",
        len(rec.first_batch_s),
    )
    out["serve.self_ns_per_request"] = (1e9 * batch_self_s / max(1, served), "ns", served)
    out["serve.self_ns_per_hop"] = (1e9 * batch_self_s / max(1, rec.hops), "ns", rec.hops)
    out["serve.routed_share"] = ((served - rec.hits) / max(1, served), "ratio", served)
    out["serve.hops_total"] = (rec.hops, "hops", served - rec.hits)
    out["serve.stale_serves"] = (world.serve.stale_serves, "count", served)
    out["serve.failed_share"] = e2e["failed_share"]

    cache = world.serve.result_cache
    for name in ("hits", "misses", "evictions", "invalidations"):
        out[f"cache.{name}"] = (getattr(cache, name), "count", served)
    out["cache.entries_final"] = (len(cache), "count", 1)
    timed_keys = rec.last_keys if rec.last_keys is not None else np.empty(0)
    warm_keys = rec.prev_keys if rec.prev_keys is not None else timed_keys[:0]
    get_s, put_s = replay_cache(w.cache_size, warm_keys, timed_keys, w.batch)
    out["cache.replay_ns_per_get"] = (1e9 * get_s, "ns", int(timed_keys.size))
    out["cache.replay_ns_per_put"] = (1e9 * put_s, "ns", int(timed_keys.size))

    seconds("route.snapshot_capture_s", "route.snapshot_capture")
    out["route.route_batch_calls"] = (
        span("route.route_batch")["calls"],
        "count",
        span("route.route_batch")["calls"],
    )
    out["route.route_batch_ns_per_request"] = (
        1e9 * route_s_per_request,
        "ns",
        ROUTE_PROBE_BATCHES * w.batch,
    )

    epochs = world.churn.history if world.churn is not None else []
    out["churn.plain_epoch_ms_p50"] = (
        1e3 * median(rec.epoch_s[False]),
        "ms",
        len(rec.epoch_s[False]),
    )
    out["churn.repair_epoch_s_p50"] = (median(rec.epoch_s[True]), "s", len(rec.epoch_s[True]))
    out["churn.epochs_per_s"] = e2e.get("churn.epochs_per_s", (0.0, "epochs/s", 0))
    seconds("churn.epoch_self_s", "churn.run_epoch", "self_s")
    out["churn.arrivals"] = (sum(e.arrivals for e in epochs), "count", len(epochs))
    out["churn.departures"] = (sum(e.departures for e in epochs), "count", len(epochs))
    out["churn.compacted"] = (sum(e.compacted for e in epochs), "count", len(epochs))
    out["churn.stale_links_max"] = (
        max((e.stale_links for e in epochs), default=0),
        "count",
        len(epochs),
    )

    advance = span("membership.advance")
    out["membership.advance_ms_p50"] = (
        1e3 * median(advance["durations"]),
        "ms",
        advance["calls"],
    )
    seconds("membership.detector_round_s", "membership.detector_round")
    seconds("membership.gossip_spread_s", "membership.gossip_spread")
    out["membership.evictions"] = (getattr(world.view, "evictions", 0), "count", len(epochs))
    out["membership.false_evictions"] = (
        getattr(world.view, "false_evictions", 0),
        "count",
        len(epochs),
    )
    out["membership.undetected_dead_max"] = (rec.undetected_dead_max, "count", len(epochs))
    for q in (50, 99):
        out[f"membership.detect_lag_p{q}"] = e2e.get(f"detect_lag_p{q}", (0.0, "epochs", 0))

    out["workload.generate_s"] = (rec.generate_s, "s", len(rec.round_s))
    out["workload.generator_share"] = (rec.generate_s / wall_s, "ratio", len(rec.round_s))
    measured_requests = len(rec.batch_s) * w.batch
    out["run.wall_s"] = (wall_s, "s", 1)
    out["run.wall_rps"] = (measured_requests / wall_s, "req/s", measured_requests)
    out["run.requests"] = (measured_requests, "count", 1)
    out["run.batches"] = (len(rec.batch_s), "count", 1)
    out["trace.spans"] = (len(tracer.spans), "count", 1)
    out["trace.overhead_share"] = (
        len(tracer.spans) * span_cost_s / traced_s,
        "ratio",
        len(tracer.spans),
    )
    return out


# ----------------------------------------------------------------------
# one workload, start to finish
# ----------------------------------------------------------------------


def run_workload(
    w: spec.Workload, seed: int, seconds: float, tracer: Tracer | None
) -> dict[str, Any]:
    """Set up, measure, check; returns the result document."""
    span_cost_s = tracer.span_cost_s() if tracer is not None else 0.0
    traced_from = clock()
    rec = Record()
    setups_wall_s, setups_s = [], []
    for _ in range(w.setup_repeats):
        world = build_world(w, seed, rec.host)
        setups_wall_s.append(world.setup_s)
        setups_s.append(world.setup_host_s)
    pool, _ = world.source_pool()
    route_s_per_request = route_probe(world, w, seed, pool) if tracer is not None else 0.0

    tally = Tally()
    for unit in range(w.warmup_units):
        if w.churn:
            pool = churn_step(world, w, seed, rec, measured=False, tally=None)
        else:
            pool = run_unit(world, w, seed, unit, pool, rec, measured=False, tally=None)

    # Static workloads keep issuing rounds until the window closes; their
    # simulated metrics count the first ``min_units`` rounds only, so
    # they depend on the seed alone. Churn workloads run exactly
    # ``min_units`` cycles: their rounds differ by design (flash-crowd
    # epochs), so every run must average over the same ones.
    started = clock()
    window_from = len(rec.host.samples)
    units = 0
    while units < w.min_units or (not w.churn and clock() - started < seconds):
        counted = units < w.min_units
        pool = run_unit(
            world,
            w,
            seed,
            w.warmup_units + units,
            pool,
            rec,
            measured=True,
            tally=tally if counted else None,
        )
        units += 1
    wall_s = clock() - started
    traced_s = clock() - traced_from
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    checks = run_checks(world, w, rec, tally)
    metrics = end_to_end(
        w,
        world,
        rec,
        tally,
        median(setups_wall_s),
        median(setups_s),
        rec.host.samples[window_from:],
        peak_rss_mb,
    )
    flags = []
    if rec.generate_s / wall_s >= 0.10:
        flags.append(f"generator_share {rec.generate_s / wall_s:.3f} >= 0.10 of measured wall")
    if tracer is not None:
        metrics.update(
            per_layer(
                world,
                w,
                rec,
                tracer,
                wall_s,
                route_s_per_request,
                span_cost_s,
                traced_s,
                metrics,
            )
        )
    return {
        "workload": w.name,
        "trace": int(tracer is not None),
        "seed": seed,
        "peers": w.peers,
        "units": units,
        "correct": all(verdict == "ok" for verdict in checks.values()),
        "attempted": len(rec.batch_s) * w.batch,
        "failed": rec.errored,
        "checks": checks,
        "flags": flags,
        "metrics": {
            name: {"value": value, "unit": unit, "samples": samples}
            for name, (value, unit, samples) in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args(argv)

    w = spec.BY_NAME[args.workload]
    if args.smoke:
        w = w.smoke()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        install(tracer)
    try:
        document = run_workload(w, args.seed, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        tracer.write(args.spans)
        document["spans_file"] = str(args.spans)
    args.result.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return 0 if document["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
