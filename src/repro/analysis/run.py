"""Lint-run orchestration and the ``repro lint`` argument surface.

:func:`run_lint` is the library entry (used by the tier-1 gate test);
:func:`main` is the argv-level entry shared by ``repro lint`` and
``scripts/repro_lint.py``. Boundary errors (unknown rule code, bad
path, broken baseline file) raise :class:`~repro.errors.ConfigError`,
which :func:`main` turns into a ``lint: <message>`` line on stderr and
exit status 2 — the same convention as ``repro run``/``repro sweep``.

Exit statuses: 0 clean, 1 findings, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from ..errors import ConfigError
from .baseline import Baseline
from .core import Analyzer, iter_python_files, resolve_codes
from .reporters import RunResult, render

__all__ = ["run_lint", "build_parser", "main"]


def run_lint(
    paths: Sequence[str | Path],
    *,
    select: Sequence[str] | None = None,
    baseline: Baseline | None = None,
    root: Path | None = None,
) -> RunResult:
    """Analyze ``paths`` and fold in suppressions and the baseline.

    Args:
        paths: Files and/or directories to lint.
        select: Rule codes to run (``None`` = all registered rules).
        baseline: Loaded baseline; matched findings are dropped (and
            counted), stale entries come back as ``BASE001`` findings.
        root: Paths in findings are reported relative to this directory
            when possible (keeps committed baseline fingerprint paths
            stable regardless of where the linter is invoked from).

    Raises:
        ConfigError: Unknown rule code or nonexistent input path.
    """
    analyzer = Analyzer(resolve_codes(list(select) if select is not None else None))
    result = RunResult()
    kept = []
    for path in iter_python_files(paths):
        report_as = path.as_posix()
        if root is not None:
            try:
                report_as = path.resolve().relative_to(root.resolve()).as_posix()
            except ValueError:
                pass
        findings = analyzer.analyze_file(path, report_as=report_as)
        result.files_checked += 1
        result.suppressed += analyzer.last_suppressed
        for finding in findings:
            if baseline is not None and baseline.match(finding):
                result.baselined += 1
            else:
                kept.append(finding)
    if baseline is not None:
        kept.extend(baseline.stale())
    kept.sort()
    result.findings = kept
    return result


def build_parser(prog: str = "repro lint") -> argparse.ArgumentParser:
    """The ``repro lint`` argument parser (shared with the CI script)."""
    parser = argparse.ArgumentParser(
        prog=prog,
        description=(
            "Static analysis for the repo's determinism and SoA contracts. "
            "Exit 0 when clean, 1 on findings, 2 on usage errors."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json follows the repro-lint/1 schema)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="committed baseline of grandfathered findings to honor",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline (report grandfathered findings too)",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        help=(
            "write a baseline covering the current findings to FILE and exit; "
            "new entries carry a 'TODO: justify' placeholder that must be "
            "edited before the file will load"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rule codes and exit",
    )
    return parser


def _default_baseline(paths: Sequence[str]) -> Path | None:
    """``lint-baseline.json`` next to the repo root, when present.

    The heuristic: walk up from the first input path looking for the
    file. Keeps ``repro lint src/`` from the repo root and
    ``scripts/repro_lint.py`` in CI agreeing on the same baseline
    without either passing ``--baseline`` explicitly.
    """
    start = Path(paths[0]).resolve() if paths else Path.cwd()
    for candidate_dir in [start, *start.parents]:
        candidate = candidate_dir / "lint-baseline.json"
        if candidate.is_file():
            return candidate
    return None


def main(argv: Sequence[str] | None = None, prog: str = "repro lint") -> int:
    """Argv-level entry point. Returns the process exit status."""
    parser = build_parser(prog=prog)
    args = parser.parse_args(list(argv) if argv is not None else None)

    try:
        if args.list_rules:
            from .core import all_rules

            for rule_cls in all_rules():
                print(f"{rule_cls.code}  {rule_cls.name}: {rule_cls.description}")
            return 0

        select = None
        if args.select is not None:
            select = [c.strip() for c in args.select.split(",") if c.strip()]
            if not select:
                raise ConfigError("--select given but no rule codes parsed from it")

        baseline = None
        baseline_path: Path | None = None
        if not args.no_baseline and args.write_baseline is None:
            if args.baseline is not None:
                baseline_path = Path(args.baseline)
            else:
                baseline_path = _default_baseline(args.paths)
            if baseline_path is not None:
                baseline = Baseline.load(baseline_path)
        elif args.baseline is not None and args.no_baseline:
            raise ConfigError("--baseline and --no-baseline are mutually exclusive")

        root = _repo_root_for(args.paths)
        result = run_lint(args.paths, select=select, baseline=baseline, root=root)

        if args.write_baseline is not None:
            previous = None
            prev_path = Path(args.write_baseline)
            if prev_path.is_file():
                previous = Baseline.load(prev_path)
            Baseline.from_findings(result.findings, previous).write(prev_path)
            print(
                f"wrote {len(result.findings)} entr"
                f"{'y' if len(result.findings) == 1 else 'ies'} to {prev_path}"
            )
            return 0
    except ConfigError as error:
        print(f"lint: {error.args[0]}", file=sys.stderr)
        return 2

    print(render(result, args.format), end="" if args.format == "json" else "\n")
    return 0 if result.clean else 1


def _repo_root_for(paths: Sequence[str]) -> Path | None:
    """The directory findings/baseline paths are made relative to.

    Anchored to the directory containing ``lint-baseline.json`` or the
    git root when either is findable; otherwise the cwd.
    """
    start = Path(paths[0]).resolve() if paths else Path.cwd().resolve()
    for candidate in [start, *start.parents]:
        if (candidate / "lint-baseline.json").is_file() or (candidate / ".git").exists():
            return candidate
    return Path.cwd()
