"""Command-line entry point: run experiments, sweeps and reports.

Subcommands::

    run     one or more experiments by spec id (``--param k=v`` overrides)
    all     every figure / ablation / extension spec
    sweep   a registered sweep, or an ad-hoc ``--axis k=v1,v2`` grid
    list    the spec registry — the single source of truth
    report  regenerate EXPERIMENTS.md from stored artifacts
    lint    static analysis of the determinism / SoA contracts
            (rule codes and suppressions: docs/determinism.md)

Examples::

    # one figure at 10% scale (the bare form still works: `repro fig1c`)
    python -m repro run fig1c --scale 0.1

    # everything, four worker processes, cached under artifacts/
    python -m repro all --scale 0.05 --jobs 4 --out artifacts/

    # a throughput measurement is a spec run with parameters
    python -m repro run steady-churn --param size=50000 --param epochs=20

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

from .errors import ConfigError, DistributionError
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

__all__ = ["main", "build_parser"]

COMMANDS = ("run", "all", "sweep", "list", "report", "lint")


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

    # Documented here, dispatched before parsing (see main); this stub
    # only makes `--help` list it next to the other subcommands.
    commands.add_parser(
        "lint",
        help="check the determinism / SoA source contracts (lint --help)",
        add_help=False,
    )

    return parser


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
    if argv and argv[0] == "lint":
        # Deferred import: the analysis framework is not needed for the
        # experiment paths, and `--help` stays instant.
        from .analysis.run import main as lint_main

        return lint_main(argv[1:], prog="oscar-repro lint")
    args = build_parser().parse_args(argv)

    # User-input errors exit 2 with a one-line message: unknown
    # spec/sweep/param names and bad value spellings are caught at the
    # lookup/parse sites inside each _cmd_*, out-of-range values where the
    # engines reject them mid-run (here). Anything else is a bug and
    # propagates with a full traceback.
    try:
        if args.command == "run":
            return _cmd_run(args, args.experiments)
        if args.command == "all":
            return _cmd_run(args, [spec.id for spec in all_specs() if spec.standalone])
        if args.command == "sweep":
            return _cmd_sweep(args)
    except (ConfigError, DistributionError) as error:
        print(f"{args.command}: {error}", file=sys.stderr)
        return 2
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "report":
        return _cmd_report(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
