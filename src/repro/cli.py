"""Command-line entry point: run experiments, sweeps, reports, benchmarks.

Subcommands::

    run     one or more experiments by spec id (``--param k=v`` overrides)
    all     every figure / ablation / extension spec
    sweep   a registered sweep, or an ad-hoc ``--axis k=v1,v2`` grid
    list    the spec registry — the single source of truth
    report  regenerate EXPERIMENTS.md from stored artifacts
    bench   throughput of one substrate: --phase route (batched query
            engine), --phase build (batched construction), --phase churn
            (steady-state churn epochs), --phase detector (churn on
            probe-derived liveness), --phase net (asyncio runtime), or
            --phase serve (cached data plane over a replicated catalog)
    lint    static analysis of the determinism / SoA contracts
            (rule codes, suppressions and baseline: docs/determinism.md)

Examples::

    # one figure at 10% scale (the bare form still works: `repro fig1c`)
    python -m repro run fig1c --scale 0.1

    # everything, four worker processes, cached under artifacts/
    python -m repro all --scale 0.05 --jobs 4 --out artifacts/

    # substrate x churn x keys grid, then the markdown report
    python -m repro sweep substrate-churn --scale 0.02 --jobs 4 --out artifacts/
    python -m repro report --out artifacts/ --file EXPERIMENTS.md

``--out`` enables the content-addressed artifact store: a repeated
invocation at the same scale/seed is served from cache without
re-simulating (``--force`` re-runs anyway).

The ``oscar-repro`` console script installs the same interface.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Sequence

from .errors import ConfigError
from .experiments import (
    ArtifactStore,
    RunRecord,
    Runner,
    SweepSpec,
    all_specs,
    all_sweeps,
    get_spec,
    get_sweep,
)

__all__ = ["main", "build_parser", "build_bench_parser"]

SUBSTRATES = ("oscar", "chord", "mercury")
COMMANDS = ("run", "all", "sweep", "list", "report", "bench", "lint")


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    """The execution flags shared by ``run``, ``all`` and ``sweep``."""
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload scale factor; 1.0 = paper scale (10,000 peers)",
    )
    parser.add_argument("--seed", type=int, default=42, help="root random seed")
    parser.add_argument(
        "--queries",
        type=int,
        default=None,
        help="queries per measurement (default: one per live peer, the "
        "paper's N; ignored by experiments without a query phase)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes; results are identical to --jobs 1",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="artifact store directory; repeated runs become cache hits",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="re-simulate even when a cached artifact exists",
    )
    parser.add_argument(
        "--csv-dir",
        type=Path,
        default=None,
        help="also write each experiment's series as CSV into this directory",
    )
    parser.add_argument(
        "--log-x", action="store_true", help="render charts with a log x axis"
    )
    parser.add_argument(
        "--log-y", action="store_true", help="render charts with a log y axis"
    )


def build_parser() -> argparse.ArgumentParser:
    """The subcommand CLI schema (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="oscar-repro",
        description="Reproduce and extend 'Oscar: A Data-Oriented Overlay "
        "For Heterogeneous Environments' (ICDE 2007). "
        "Experiment ids accepted bare: 'oscar-repro fig1c' == 'oscar-repro run fig1c'.",
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")

    spec_ids = [spec.id for spec in all_specs()]
    run_parser = commands.add_parser(
        "run", help="run one or more experiments by spec id"
    )
    run_parser.add_argument(
        "experiments",
        nargs="+",
        choices=spec_ids,
        metavar="experiment",
        help=f"spec id(s): {', '.join(spec_ids)}",
    )
    run_parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override one spec parameter (repeatable; single experiment only)",
    )
    _add_run_options(run_parser)

    all_parser = commands.add_parser(
        "all", help="run every figure, ablation and extension spec"
    )
    _add_run_options(all_parser)

    sweep_parser = commands.add_parser(
        "sweep", help="run a registered sweep or an ad-hoc --axis grid"
    )
    sweep_parser.add_argument(
        "target",
        help="a registered sweep id (see 'list'), or a spec id with --axis",
    )
    sweep_parser.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="NAME=V1,V2,...",
        help="ad-hoc sweep axis over a spec parameter (repeatable)",
    )
    _add_run_options(sweep_parser)

    list_parser = commands.add_parser(
        "list", help="show the experiment registry (the source of truth)"
    )
    list_parser.add_argument("--tag", default=None, help="only specs carrying this tag")
    list_parser.add_argument(
        "--params", action="store_true", help="include each spec's parameter schema"
    )

    report_parser = commands.add_parser(
        "report", help="regenerate EXPERIMENTS.md from stored artifacts"
    )
    report_parser.add_argument(
        "--out",
        type=Path,
        default=Path("artifacts"),
        help="artifact store directory to read (default: artifacts/)",
    )
    report_parser.add_argument(
        "--file",
        type=Path,
        default=Path("EXPERIMENTS.md"),
        help="markdown file to write (default: EXPERIMENTS.md)",
    )

    # Documented here, dispatched before parsing (see main); these stubs
    # only make `--help` list them next to the other subcommands.
    commands.add_parser(
        "bench",
        help="batched-routing throughput of one substrate (bench --help)",
        add_help=False,
    )
    commands.add_parser(
        "lint",
        help="check the determinism / SoA source contracts (lint --help)",
        add_help=False,
    )

    return parser


def build_bench_parser() -> argparse.ArgumentParser:
    """The ``bench`` subcommand schema: batched routing/build throughput."""
    parser = argparse.ArgumentParser(
        prog="oscar-repro bench",
        description="Benchmark one substrate. --phase route grows an overlay "
        "and times BatchQueryEngine batches against the scalar route() loop; "
        "--phase build times bulk construction (grow_batch) and batched vs "
        "scalar rewiring rounds; --phase churn sustains steady-state churn "
        "epochs (arrivals, departures, repair, probes) and times each; "
        "--phase detector runs the same churn on probe-derived liveness "
        "(failure detectors + gossip) and reports detection lag; "
        "--phase serve load-tests the cached data plane (k-replicated "
        "catalog, believed-membership routing, LRU result cache) under "
        "steady churn and reports queries/sec, hit rate and items lost.",
    )
    parser.add_argument(
        "--substrate",
        choices=SUBSTRATES,
        default="oscar",
        help="which overlay to drive through the batch engine",
    )
    parser.add_argument(
        "--phase",
        choices=("route", "build", "churn", "detector", "net", "serve"),
        default="route",
        help="what to measure: query routing (default), construction, "
        "steady-state churn throughput, churn on probe-derived liveness "
        "(detector), the asyncio message-passing runtime (net), or the "
        "cached data plane over a replicated catalog (serve)",
    )
    parser.add_argument(
        "--batch",
        type=int,
        default=1000,
        help="queries per measured batch (0 = one query per live peer, the "
        "paper's N)",
    )
    parser.add_argument(
        "--nodes", type=int, default=1000, help="live peers to grow before measuring"
    )
    parser.add_argument(
        "--rounds", type=int, default=3, help="measured batches (first is cold-cache)"
    )
    parser.add_argument("--cap", type=int, default=12, help="per-peer degree cap")
    parser.add_argument("--seed", type=int, default=42, help="root random seed")
    parser.add_argument(
        "--skip-scalar",
        action="store_true",
        help="skip the scalar comparison loop (it dominates runtime at scale)",
    )
    churn = parser.add_argument_group("churn phase")
    churn.add_argument(
        "--epochs", type=int, default=10, help="steady-state churn epochs to sustain"
    )
    churn.add_argument(
        "--half-life",
        type=float,
        default=8.0,
        dest="half_life",
        help="median session length in epochs",
    )
    churn.add_argument(
        "--sessions",
        choices=("exponential", "pareto", "trace"),
        default="exponential",
        help="session-time distribution shape",
    )
    churn.add_argument(
        "--repair-every",
        type=int,
        default=4,
        dest="repair_every",
        help="epochs between full link repairs (1 = every epoch)",
    )
    detector = parser.add_argument_group("detector phase")
    detector.add_argument(
        "--loss",
        type=float,
        default=0.0,
        help="per-probe loss probability in [0, 1)",
    )
    detector.add_argument(
        "--detector-rounds",
        type=int,
        default=2,
        dest="detector_rounds",
        help="probe rounds per churn epoch (detector aggressiveness)",
    )
    serve = parser.add_argument_group("serve phase")
    serve.add_argument(
        "--replicas",
        type=int,
        default=3,
        help="replication factor k (owner + k-1 clockwise successors)",
    )
    serve.add_argument(
        "--items",
        type=int,
        default=0,
        help="catalog size (0 = one item per initial peer)",
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=1 << 20,
        dest="cache_size",
        help="LRU result-cache capacity (0 disables result caching)",
    )
    serve.add_argument(
        "--view",
        choices=("oracle", "probe"),
        default="oracle",
        help="membership the data plane believes: ground truth (oracle) "
        "or failure detectors with --loss (probe)",
    )
    serve.add_argument(
        "--exponent",
        type=float,
        default=0.9,
        help="Zipf popularity skew of the serving workload",
    )
    return parser


def _validate_bench(args: argparse.Namespace) -> None:
    """Validate bench flags at the CLI boundary.

    Raises :class:`~repro.errors.ConfigError` (caught by
    :func:`run_bench` into an exit-2 message) instead of letting a bad
    value surface as an arithmetic error deep inside the engine.
    ``--batch 0`` is *valid* and means "one query per live peer" — the
    same "0 = default budget" convention PR 2 pinned for ``n_queries``.
    """
    if args.batch < 0:
        raise ConfigError(
            f"--batch must be >= 0 (0 = one query per live peer), got {args.batch}"
        )
    if args.nodes < 2:
        raise ConfigError(f"--nodes must be >= 2, got {args.nodes}")
    if args.rounds < 1:
        raise ConfigError(f"--rounds must be >= 1, got {args.rounds}")
    if args.cap < 1:
        raise ConfigError(f"--cap must be >= 1, got {args.cap}")
    if args.epochs < 1:
        raise ConfigError(f"--epochs must be >= 1, got {args.epochs}")
    if not args.half_life > 0:
        raise ConfigError(f"--half-life must be > 0, got {args.half_life}")
    if args.repair_every < 1:
        raise ConfigError(f"--repair-every must be >= 1, got {args.repair_every}")
    if args.phase == "net" and args.substrate != "oscar":
        raise ConfigError(
            f"--phase net drives the Oscar message-passing runtime only, "
            f"got --substrate {args.substrate}"
        )
    if not 0.0 <= args.loss < 1.0:
        raise ConfigError(f"--loss must be in [0, 1), got {args.loss}")
    if args.detector_rounds < 1:
        raise ConfigError(f"--detector-rounds must be >= 1, got {args.detector_rounds}")
    if args.replicas < 1:
        raise ConfigError(f"--replicas must be >= 1, got {args.replicas}")
    if args.items < 0:
        raise ConfigError(f"--items must be >= 0 (0 = one per peer), got {args.items}")
    if args.cache_size < 0:
        raise ConfigError(f"--cache-size must be >= 0 (0 disables), got {args.cache_size}")
    if not (args.exponent >= 0.0):
        raise ConfigError(f"--exponent must be >= 0, got {args.exponent}")


def run_bench(args: argparse.Namespace) -> int:
    """Execute the ``bench`` subcommand; returns a process exit code."""
    try:
        _validate_bench(args)
    except ConfigError as error:
        print(f"bench: {error.args[0]}", file=sys.stderr)
        return 2
    if args.phase == "build":
        return _run_bench_build(args)
    if args.phase == "churn":
        return _run_bench_churn(args)
    if args.phase == "detector":
        return _run_bench_detector(args)
    if args.phase == "net":
        return _run_bench_net(args)
    if args.phase == "serve":
        return _run_bench_serve(args)
    return _run_bench_route(args)


def _run_bench_route(args: argparse.Namespace) -> int:
    """The routing-throughput phase (the original ``bench`` behaviour)."""
    # Imported here so `--help` stays instant.
    from .degree import ConstantDegrees
    from .engine import BatchQueryEngine
    from .experiments import make_overlay
    from .rng import split
    from .workloads import GnutellaLikeDistribution

    batch = args.batch if args.batch > 0 else args.nodes
    print(
        f"[bench] phase=route substrate={args.substrate} nodes={args.nodes} "
        f"batch={batch} rounds={args.rounds} seed={args.seed}"
    )
    overlay = make_overlay(args.substrate, seed=args.seed)
    started = time.perf_counter()
    overlay.grow(args.nodes, GnutellaLikeDistribution(), ConstantDegrees(args.cap))
    overlay.rewire(split(args.seed, "bench-rewire"))
    print(f"[bench] grow+rewire: {time.perf_counter() - started:.2f}s")

    engine = BatchQueryEngine(overlay)
    stats = None
    batched_best = float("inf")
    for round_no in range(args.rounds):
        rng = split(args.seed, "bench-queries", round_no)
        t0 = time.perf_counter()
        round_stats = engine.measure(rng, n_queries=batch)
        elapsed = time.perf_counter() - t0
        batched_best = min(batched_best, elapsed)
        if round_no == 0:
            stats = round_stats  # round 0 is replayed by the scalar check
        label = "cold" if round_no == 0 else "warm"
        print(
            f"[bench] batch round {round_no} ({label}): {elapsed * 1e3:.1f} ms "
            f"({batch / max(elapsed, 1e-9):,.0f} routes/s)"
        )
    assert stats is not None
    print(
        f"[bench] mean_cost={stats.mean_cost:.3f} p95_cost={stats.p95_cost:.1f} "
        f"success_rate={stats.success_rate:.3f}"
    )

    if not args.skip_scalar:
        from .metrics import measure_search_cost

        rng = split(args.seed, "bench-queries", 0)
        t0 = time.perf_counter()
        reference = measure_search_cost(
            overlay, rng, n_queries=batch, engine=BatchQueryEngine(overlay, vectorized=False)
        )
        elapsed = time.perf_counter() - t0
        agree = reference == stats
        print(
            f"[bench] scalar loop:        {elapsed * 1e3:.1f} ms "
            f"({batch / max(elapsed, 1e-9):,.0f} routes/s) "
            f"speedup x{elapsed / max(batched_best, 1e-9):.1f} "
            f"stats_match={agree}"
        )
        if not agree:
            print("[bench] ERROR: batched statistics diverge from scalar routing", file=sys.stderr)
            return 1
    return 0


def _run_bench_build(args: argparse.Namespace) -> int:
    """The construction phase: bulk build + batched vs scalar rewiring."""
    from .degree import ConstantDegrees
    from .engine import BatchQueryEngine
    from .experiments import make_overlay
    from .rng import split
    from .workloads import GnutellaLikeDistribution

    print(
        f"[bench] phase=build substrate={args.substrate} nodes={args.nodes} "
        f"rounds={args.rounds} cap={args.cap} seed={args.seed}"
    )
    overlay = make_overlay(args.substrate, seed=args.seed)
    started = time.perf_counter()
    overlay.grow_batch(args.nodes, GnutellaLikeDistribution(), ConstantDegrees(args.cap))
    build_elapsed = time.perf_counter() - started
    print(
        f"[bench] grow_batch: {build_elapsed:.2f}s "
        f"({args.nodes / max(build_elapsed, 1e-9):,.0f} peers/s)"
    )

    batched_best = float("inf")
    for round_no in range(args.rounds):
        t0 = time.perf_counter()
        overlay.rewire_batch(split(args.seed, "bench-build-batched", round_no))
        elapsed = time.perf_counter() - t0
        batched_best = min(batched_best, elapsed)
        print(
            f"[bench] rewire_batch round {round_no}: {elapsed * 1e3:.1f} ms "
            f"({args.nodes / max(elapsed, 1e-9):,.0f} peers/s)"
        )

    if not args.skip_scalar:
        scalar_best = float("inf")
        for round_no in range(args.rounds):
            t0 = time.perf_counter()
            overlay.rewire(split(args.seed, "bench-build-scalar", round_no))
            elapsed = time.perf_counter() - t0
            scalar_best = min(scalar_best, elapsed)
        print(
            f"[bench] scalar rewire best: {scalar_best * 1e3:.1f} ms "
            f"speedup x{scalar_best / max(batched_best, 1e-9):.1f}"
        )

    batch = args.batch if args.batch > 0 else args.nodes
    stats = BatchQueryEngine(overlay).measure(
        split(args.seed, "bench-build-queries"), n_queries=batch
    )
    print(
        f"[bench] sanity routing: mean_cost={stats.mean_cost:.3f} "
        f"success_rate={stats.success_rate:.3f}"
    )
    return 0


def _run_bench_net(args: argparse.Namespace) -> int:
    """The asyncio-runtime phase: live peers over the memory transport.

    Builds the overlay twice — free mode (concurrent joins, the
    throughput number) and lockstep oracle mode (coordinator-dealt RNG
    tickets, the correctness number: its topology must match
    ``BatchConstructionEngine.grow`` exactly) — then routes a probe
    batch over real messages.
    """
    from .config import OscarConfig
    from .degree import ConstantDegrees
    from .net import NetHarness
    from .workloads import GnutellaLikeDistribution

    print(
        f"[bench] phase=net substrate={args.substrate} nodes={args.nodes} "
        f"cap={args.cap} seed={args.seed}"
    )
    with NetHarness(OscarConfig(), seed=args.seed) as free:
        started = time.perf_counter()
        stats = free.build(args.nodes, GnutellaLikeDistribution(), ConstantDegrees(args.cap))
        elapsed = time.perf_counter() - started
        summary = free.summary()
        print(
            f"[bench] free build: {elapsed:.2f}s "
            f"({args.nodes / max(elapsed, 1e-9):,.0f} peers/s, "
            f"{summary.messages:,} messages, {stats.links_placed:,} links)"
        )
        batch = args.batch if args.batch > 0 else args.nodes
        started = time.perf_counter()
        success, hops = free.route_check(batch)
        elapsed = time.perf_counter() - started
        print(
            f"[bench] probes: {batch} in {elapsed:.2f}s "
            f"success_rate={success:.3f} mean_hops={hops:.2f}"
        )
        if success < 1.0:
            print("[bench] ERROR: routing success below 1.0 on a stable net", file=sys.stderr)
            return 1

    if args.skip_scalar:
        return 0
    lock_nodes = min(args.nodes, 500)
    from .core.overlay import OscarOverlay
    from .engine.construct import BatchConstructionEngine, LiveView

    overlay = OscarOverlay(OscarConfig(), seed=args.seed)
    BatchConstructionEngine(overlay).grow(
        lock_nodes, GnutellaLikeDistribution(), ConstantDegrees(args.cap)
    )
    view = LiveView.capture(overlay)
    state = view.state
    oracle = {
        int(view.ids[r]): [
            int(x)
            for x in state.out_links[int(view.slots[r])][
                : int(state.out_count[int(view.slots[r])])
            ]
        ]
        for r in range(view.m)
    }
    with NetHarness(OscarConfig(), seed=args.seed, lockstep=True) as locked:
        started = time.perf_counter()
        locked.build(lock_nodes, GnutellaLikeDistribution(), ConstantDegrees(args.cap))
        elapsed = time.perf_counter() - started
        equal = locked.out_links() == oracle
        print(
            f"[bench] lockstep oracle ({lock_nodes} peers): {elapsed:.2f}s "
            f"topology_equal={equal}"
        )
        if not equal:
            print(
                "[bench] ERROR: lockstep topology diverges from BatchConstructionEngine",
                file=sys.stderr,
            )
            return 1
    return 0


def _run_bench_churn(args: argparse.Namespace) -> int:
    """The steady-state churn phase: sustained epochs on a live overlay."""
    from .churn import make_sessions
    from .degree import ConstantDegrees
    from .engine import SteadyStateChurnEngine
    from .experiments import make_overlay
    from .workloads import GnutellaLikeDistribution

    probes = args.batch
    print(
        f"[bench] phase=churn substrate={args.substrate} nodes={args.nodes} "
        f"epochs={args.epochs} half_life={args.half_life} sessions={args.sessions} "
        f"repair_every={args.repair_every} probes={probes or 'N'} seed={args.seed}"
    )
    keys = GnutellaLikeDistribution()
    degrees = ConstantDegrees(args.cap)
    overlay = make_overlay(args.substrate, seed=args.seed)
    started = time.perf_counter()
    overlay.grow_batch(args.nodes, keys, degrees)
    overlay.rewire_batch()
    print(f"[bench] build (grow_batch + rewire_batch): {time.perf_counter() - started:.2f}s")

    sessions = make_sessions(args.sessions, args.half_life)
    engine = SteadyStateChurnEngine(
        overlay,
        keys,
        degrees,
        sessions,
        arrival_rate=args.nodes / sessions.mean,
        repair_every=args.repair_every,
        n_probes=probes,
        seed=args.seed,
    )
    churn_started = time.perf_counter()
    for __ in range(args.epochs):
        t0 = time.perf_counter()
        stats = engine.run_epoch()
        elapsed = time.perf_counter() - t0
        print(
            f"[bench] epoch {stats.epoch:>3}: {elapsed * 1e3:7.1f} ms  "
            f"live={stats.live} +{stats.arrivals}/-{stats.departures} "
            f"stale={stats.stale_links}"
            + (f" repair(compacted={stats.compacted})" if stats.link_repair else "")
            + f" success={stats.probes.success_rate:.3f} cost={stats.probes.mean_cost:.2f}"
        )
    churn_elapsed = time.perf_counter() - churn_started
    history = engine.history
    mean_success = sum(s.probes.success_rate for s in history) / len(history)
    print(
        f"[bench] {args.epochs} epochs in {churn_elapsed:.2f}s "
        f"({args.epochs / max(churn_elapsed, 1e-9):.2f} epochs/s) "
        f"mean_success={mean_success:.3f} "
        f"max_stale={max(s.stale_links for s in history)} "
        f"final_live={history[-1].live}"
    )
    return 0


def _run_bench_detector(args: argparse.Namespace) -> int:
    """The detector phase: steady-state churn on probe-derived liveness.

    Identical shape to ``--phase churn`` except the engine reads
    membership through a :class:`~repro.membership.probe.ProbeView`
    instead of the omniscient oracle — the per-epoch lines additionally
    show how far belief trails truth, and the tail line reports the
    detection-lag distribution and the false-eviction count.
    """
    from .churn import make_sessions
    from .degree import ConstantDegrees
    from .engine import SteadyStateChurnEngine
    from .experiments import make_overlay
    from .membership import DetectorConfig, ProbeView
    from .workloads import GnutellaLikeDistribution

    probes = args.batch
    print(
        f"[bench] phase=detector substrate={args.substrate} nodes={args.nodes} "
        f"epochs={args.epochs} half_life={args.half_life} loss={args.loss} "
        f"rounds={args.detector_rounds} probes={probes or 'N'} seed={args.seed}"
    )
    keys = GnutellaLikeDistribution()
    degrees = ConstantDegrees(args.cap)
    overlay = make_overlay(args.substrate, seed=args.seed)
    started = time.perf_counter()
    overlay.grow_batch(args.nodes, keys, degrees)
    overlay.rewire_batch()
    print(f"[bench] build (grow_batch + rewire_batch): {time.perf_counter() - started:.2f}s")

    sessions = make_sessions(args.sessions, args.half_life)
    membership = ProbeView(
        overlay.ring,
        DetectorConfig(loss=args.loss, rounds_per_epoch=args.detector_rounds),
        seed=args.seed,
    )
    engine = SteadyStateChurnEngine(
        overlay,
        keys,
        degrees,
        sessions,
        arrival_rate=args.nodes / sessions.mean,
        repair_every=args.repair_every,
        n_probes=probes,
        seed=args.seed,
        membership=membership,
    )
    churn_started = time.perf_counter()
    for __ in range(args.epochs):
        t0 = time.perf_counter()
        stats = engine.run_epoch()
        elapsed = time.perf_counter() - t0
        undetected = membership.live_count - overlay.ring.live_count
        print(
            f"[bench] epoch {stats.epoch:>3}: {elapsed * 1e3:7.1f} ms  "
            f"live={stats.live} believed={membership.live_count} "
            f"(+{undetected} undetected) +{stats.arrivals}/-{stats.departures} "
            f"evicted={membership.evictions} "
            f"success={stats.probes.success_rate:.3f}"
        )
    churn_elapsed = time.perf_counter() - churn_started
    history = engine.history
    mean_success = sum(s.probes.success_rate for s in history) / len(history)
    lags = sorted(membership.detection_lags)
    lag_p50 = lags[len(lags) // 2] if lags else 0
    print(
        f"[bench] {args.epochs} epochs in {churn_elapsed:.2f}s "
        f"({args.epochs / max(churn_elapsed, 1e-9):.2f} epochs/s) "
        f"mean_success={mean_success:.3f} evictions={membership.evictions} "
        f"false_evictions={membership.false_evictions} "
        f"lag_p50={lag_p50} lag_max={lags[-1] if lags else 0}"
    )
    return 0


def _run_bench_serve(args: argparse.Namespace) -> int:
    """The serve phase: cached data-plane throughput under churn.

    Builds the overlay, publishes a k-replicated catalog, then per
    epoch: one churn step (re-replication riding its repair epochs),
    one *cold* serve pass (version just moved — uncached throughput)
    and one *warm* repeat of the same batch (cached throughput). The
    tail line is machine-parseable — CI gates on ``items_lost`` and the
    throughput floors.
    """
    import numpy as np

    from .churn import make_sessions
    from .degree import ConstantDegrees
    from .engine import ServeEngine, SteadyStateChurnEngine
    from .experiments import make_overlay
    from .index import ReplicatedStore
    from .membership import DetectorConfig, OracleView, ProbeView
    from .rng import split
    from .workloads import FlashCrowdSchedule, GnutellaLikeDistribution, ServingWorkload

    requests = args.batch
    print(
        f"[bench] phase=serve substrate={args.substrate} nodes={args.nodes} "
        f"epochs={args.epochs} half_life={args.half_life} repair_every={args.repair_every} "
        f"k={args.replicas} view={args.view} loss={args.loss} "
        f"requests={requests or 'N'} seed={args.seed}"
    )
    keys = GnutellaLikeDistribution()
    degrees = ConstantDegrees(args.cap)
    overlay = make_overlay(args.substrate, seed=args.seed)
    started = time.perf_counter()
    overlay.grow_batch(args.nodes, keys, degrees)
    overlay.rewire_batch()
    print(f"[bench] build (grow_batch + rewire_batch): {time.perf_counter() - started:.2f}s")

    if args.view == "probe":
        view = ProbeView(overlay.ring, DetectorConfig(loss=args.loss), seed=args.seed)
    else:
        view = OracleView(overlay.ring)
    store = ReplicatedStore(overlay.ring, k=args.replicas)
    n_items = args.items if args.items else args.nodes
    store.seed_items(split(args.seed, "serve-items").random(n_items), view)
    sessions = make_sessions(args.sessions, args.half_life)
    engine = SteadyStateChurnEngine(
        overlay,
        keys,
        degrees,
        sessions,
        arrival_rate=args.nodes / sessions.mean,
        repair_every=args.repair_every,
        n_probes=1,  # routed probes are not what this phase measures
        seed=args.seed,
        membership=view,
        replication=store,
    )
    serve = ServeEngine(overlay, store, view, cache_size=args.cache_size)
    workload = ServingWorkload(
        exponent=args.exponent,
        flash=FlashCrowdSchedule(
            start=max(1, args.epochs // 3), stop=max(2, 2 * args.epochs // 3)
        ),
    )

    cold_qps: list[float] = []
    warm_qps: list[float] = []
    serve_started = time.perf_counter()
    for __ in range(args.epochs):
        stats = engine.run_epoch()
        e = stats.epoch
        believed = view.live_ids()
        truth = overlay.ring.ids_array(live_only=True)
        pool = believed[np.isin(believed, truth, assume_unique=True)]
        count = overlay.ring.live_count if requests == 0 else requests
        sources, target_keys = workload.generate_arrays(
            pool, store.item_keys, split(args.seed, "serve-queries", e), count, epoch=e
        )
        t0 = time.perf_counter()
        cold = serve.serve_batch(sources, target_keys)
        t1 = time.perf_counter()
        warm = serve.serve_batch(sources, target_keys)
        t2 = time.perf_counter()
        cold_qps.append(count / max(t1 - t0, 1e-9))
        warm_qps.append(count / max(t2 - t1, 1e-9))
        cold_d = cold.as_dict()
        lost_e = sum(r.items_lost for r in store.history if r.epoch == e)
        print(
            f"[bench] epoch {e:>3}: cold {cold_qps[-1]:>12,.0f} q/s "
            f"warm {warm_qps[-1]:>12,.0f} q/s "
            f"success={cold_d['successes'] / max(1, count):.3f} "
            f"stale={cold_d['stale_serves']} lost={lost_e} "
            f"under_k={store.under_replicated()} "
            f"warm_hits={warm.as_dict()['cache_hits']}"
        )
    serve_elapsed = time.perf_counter() - serve_started
    qps_uncached = sorted(cold_qps)[len(cold_qps) // 2]
    qps_cached = sorted(warm_qps)[len(warm_qps) // 2]
    print(
        f"[bench] {args.epochs} epochs in {serve_elapsed:.2f}s "
        f"qps_cached={qps_cached:,.0f} qps_uncached={qps_uncached:,.0f} "
        f"hit_rate={serve.result_cache.hit_rate:.3f} "
        f"items_lost={store.items_lost_total} under_k={store.under_replicated()} "
        f"phantom={sum(r.phantom_replicas for r in store.history)} "
        f"stale_serves={serve.stale_serves} final_live={engine.history[-1].live}"
    )
    return 0


def _shared_defaults(args: argparse.Namespace) -> dict[str, object]:
    """CLI-wide parameter defaults, filtered per spec by the Runner."""
    defaults: dict[str, object] = {"scale": args.scale, "seed": args.seed}
    if args.queries is not None:
        defaults["n_queries"] = args.queries
    return defaults


def _make_runner(args: argparse.Namespace) -> Runner:
    store = ArtifactStore(args.out) if args.out is not None else None
    return Runner(
        store=store,
        jobs=args.jobs,
        force=args.force,
        defaults=_shared_defaults(args),
    )


#: Flags of this CLI that take no value (everything else consumes the
#: next token), used by the back-compat argv scan in main().
_BOOLEAN_FLAGS = {"-h", "--help", "--force", "--log-x", "--log-y", "--params"}


def _first_positional(argv: Sequence[str]) -> str | None:
    """The first token that is neither an option nor an option's value."""
    index = 0
    while index < len(argv):
        token = argv[index]
        if token.startswith("-"):
            index += 1 if (token in _BOOLEAN_FLAGS or "=" in token) else 2
            continue
        return token
    return None


def _slug(label: str) -> str:
    """A filesystem-safe stem from a sweep point label (``k=v,k=v``)."""
    return "".join(c if c.isalnum() or c in "._-" else "_" for c in label)


def _parse_assignments(pairs: Sequence[str], flag: str) -> list[tuple[str, str]]:
    parsed = []
    for pair in pairs:
        name, separator, value = pair.partition("=")
        if not separator or not name:
            raise ConfigError(f"{flag} expects NAME=VALUE, got {pair!r}")
        parsed.append((name, value))
    return parsed


def _emit_record(record: RunRecord, args: argparse.Namespace) -> None:
    """Render one result + its provenance line, honoring the CSV flag."""
    log_x = args.log_x or record.spec_id == "fig1a"
    log_y = args.log_y or record.spec_id == "fig1a"
    print(record.result.render(log_x=log_x, log_y=log_y))
    name = record.spec_id if not record.label else f"{record.spec_id}[{record.label}]"
    if record.cached:
        print(f"[{name} served from cache ({record.wall_time:.1f}s simulated originally)]")
    else:
        print(f"[{name} finished in {record.wall_time:.1f}s]")
    if args.csv_dir is not None:
        path = record.result.write_csv(args.csv_dir)
        print(f"[series written to {path}]")
    print()


def _emit_summary(label: str, records: Sequence[RunRecord], elapsed: float) -> None:
    fresh = sum(1 for record in records if not record.cached)
    cached = len(records) - fresh
    simulated = sum(record.wall_time for record in records if not record.cached)
    saved = sum(record.wall_time for record in records if record.cached)
    line = (
        f"[{label}] ran {fresh}, cached {cached} "
        f"(simulated {simulated:.1f}s, saved {saved:.1f}s, elapsed {elapsed:.1f}s)"
    )
    print(line)


def _cmd_run(args: argparse.Namespace, names: Sequence[str]) -> int:
    overrides: dict[str, object] = {}
    if getattr(args, "param", None):
        if len(names) != 1:
            print("run: --param requires exactly one experiment", file=sys.stderr)
            return 2
        try:
            spec = get_spec(names[0])
            for name, text in _parse_assignments(args.param, "--param"):
                overrides[name] = spec.param(name).coerce(text)
        except (ConfigError, KeyError) as error:
            print(f"run: {error.args[0] if error.args else error}", file=sys.stderr)
            return 2

    runner = _make_runner(args)
    started = time.perf_counter()
    if args.jobs > 1:
        records = runner.run_many([(name, overrides) for name in names])
        for record in records:
            _emit_record(record, args)
    else:
        # Sequential runs stream: each figure renders as soon as it
        # finishes rather than after the whole batch.
        records = []
        for name in names:
            record = runner.run(name, overrides)
            _emit_record(record, args)
            records.append(record)
    _emit_summary(args.command, records, time.perf_counter() - started)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        if args.axis:
            spec = get_spec(args.target)
            axes = []
            for name, text in _parse_assignments(args.axis, "--axis"):
                param = spec.param(name)
                axes.append((name, tuple(param.coerce(part) for part in text.split(","))))
            sweep = SweepSpec(
                id=f"adhoc-{args.target}", spec_id=args.target, axes=tuple(axes)
            )
        else:
            sweep = get_sweep(args.target)
    except (ConfigError, KeyError) as error:
        print(f"sweep: {error.args[0] if error.args else error}", file=sys.stderr)
        return 2

    runner = _make_runner(args)
    started = time.perf_counter()
    records = runner.run_sweep(sweep)
    elapsed = time.perf_counter() - started

    print(f"sweep {sweep.id} over {sweep.spec_id}: {len(records)} points")
    for record in records:
        status = "cache" if record.cached else f"{record.wall_time:.1f}s"
        scalars = ", ".join(
            f"{name}={value:.3f}" for name, value in sorted(record.result.scalars.items())
        )
        print(f"  {record.label:<55} [{status:>6}]  {scalars}")
        if args.csv_dir is not None:
            stem = f"{record.spec_id}-{_slug(record.label)}"
            record.result.write_csv(args.csv_dir, stem=stem)
    _emit_summary(f"sweep {sweep.id}", records, elapsed)
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    specs = all_specs(tag=args.tag)
    if not specs:
        print(f"no specs tagged {args.tag!r}", file=sys.stderr)
        return 1
    width = max(len(spec.id) for spec in specs)
    for spec in specs:
        tags = ",".join(sorted(spec.tags)) or "-"
        print(f"{spec.id:<{width}}  {tags:<10}  {spec.title}")
        if args.params:
            for param in spec.params:
                suffix = f"  — {param.help}" if param.help else ""
                print(f"{'':<{width}}    --param {param.name}={param.default!r} ({param.kind}){suffix}")
    if args.tag is None and all_sweeps():
        print()
        for sweep in all_sweeps():
            grid = " x ".join(f"{name}[{len(values)}]" for name, values in sweep.axes)
            print(f"{sweep.id:<{width}}  sweep       {sweep.title or sweep.spec_id} ({grid} over {sweep.spec_id})")
    return 0


def _is_reportable(spec_id: str) -> bool:
    """Scenario grid points are sweep data, not canonical records —
    keep them out of EXPERIMENTS.md (mirrors `all`'s exclusion). Specs
    unknown to this build (artifacts from an older registry) stay in."""
    try:
        return get_spec(spec_id).standalone
    except KeyError:
        return True


def _cmd_report(args: argparse.Namespace) -> int:
    from .reporting import experiments_document

    store = ArtifactStore(args.out)
    latest = {
        spec_id: run
        for spec_id, run in store.latest_by_spec().items()
        if _is_reportable(spec_id)
    }
    if not latest:
        print(f"report: no artifacts under {args.out}", file=sys.stderr)
        return 1
    stored = [latest[spec_id] for spec_id in sorted(latest)]
    document = experiments_document(
        [(run.result, run.params, run.wall_time) for run in stored]
    )
    args.file.write_text(document, encoding="utf-8")
    print(f"[report] {len(stored)} experiments -> {args.file}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Run the CLI; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "bench":
        return run_bench(build_bench_parser().parse_args(argv[1:]))
    if argv and argv[0] == "lint":
        # Deferred import: the analysis framework is not needed for the
        # experiment paths, and `--help` stays instant.
        from .analysis.run import main as lint_main

        return lint_main(argv[1:], prog="oscar-repro lint")
    # Back-compat with the old single-parser CLI, where options could
    # precede the positional: find the first true positional (skipping
    # option values). A spec id there means `run <id> ...`; a subcommand
    # there (e.g. `--scale 0.1 all`) is rotated to the front.
    first = _first_positional(argv)
    spec_ids = {spec.id for spec in all_specs()}
    if first is not None and first in spec_ids and first not in COMMANDS:
        argv = ["run", *argv]
    elif first is not None and first in COMMANDS and argv[0] != first:
        rest = list(argv)
        rest.remove(first)
        argv = [first, *rest]
    args = build_parser().parse_args(argv)

    # User-input errors (unknown spec/sweep/param, bad value spellings)
    # are caught at the lookup/parse sites inside each _cmd_* and exit 2;
    # failures during simulation itself propagate with a full traceback.
    if args.command == "run":
        return _cmd_run(args, args.experiments)
    if args.command == "all":
        return _cmd_run(args, [spec.id for spec in all_specs() if spec.standalone])
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "report":
        return _cmd_report(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
