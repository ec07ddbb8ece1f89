"""Lint-run orchestration and the ``repro lint`` argument surface.

:func:`run_lint` is the library entry (used by the tier-1 gate test);
:func:`main` is the argv-level entry shared by ``repro lint`` and
``scripts/repro_lint.py``. Boundary errors (unknown rule code, bad
path) raise :class:`~repro.errors.ConfigError`, which :func:`main`
turns into a ``lint: <message>`` line on stderr and exit status 2 — the
same convention as ``repro run``/``repro sweep``.

Exit statuses: 0 clean, 1 findings, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from ..errors import ConfigError
from .core import Analyzer, all_rules, iter_python_files, resolve_codes
from .reporters import RunResult, render

__all__ = ["run_lint", "build_parser", "main"]


def run_lint(
    paths: Sequence[str | Path],
    *,
    select: Sequence[str] | None = None,
    root: Path | None = None,
) -> RunResult:
    """Analyze ``paths`` and fold in the per-line suppressions.

    Args:
        paths: Files and/or directories to lint.
        select: Rule codes to run (``None`` = all registered rules).
        root: Paths in findings are reported relative to this directory
            when possible (keeps reports identical regardless of where
            the linter is invoked from).

    Raises:
        ConfigError: Unknown rule code or nonexistent input path.
    """
    analyzer = Analyzer(resolve_codes(list(select) if select is not None else None))
    result = RunResult()
    for path in iter_python_files(paths):
        report_as = path.as_posix()
        if root is not None:
            try:
                report_as = path.resolve().relative_to(root.resolve()).as_posix()
            except ValueError:
                pass
        result.findings.extend(analyzer.analyze_file(path, report_as=report_as))
        result.files_checked += 1
        result.suppressed += analyzer.last_suppressed
    result.findings.sort()
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
        help="report format (json follows the repro-lint/2 schema)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rule codes and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None, prog: str = "repro lint") -> int:
    """Argv-level entry point. Returns the process exit status."""
    parser = build_parser(prog=prog)
    args = parser.parse_args(list(argv) if argv is not None else None)

    if args.list_rules:
        for rule_cls in all_rules():
            print(f"{rule_cls.code}  {rule_cls.name}: {rule_cls.description}")
        return 0

    try:
        select = None
        if args.select is not None:
            select = [c.strip() for c in args.select.split(",") if c.strip()]
            if not select:
                raise ConfigError("--select given but no rule codes parsed from it")
        result = run_lint(args.paths, select=select, root=_repo_root_for(args.paths))
    except ConfigError as error:
        print(f"lint: {error.args[0]}", file=sys.stderr)
        return 2

    print(render(result, args.format), end="" if args.format == "json" else "\n")
    return 0 if result.clean else 1


def _repo_root_for(paths: Sequence[str]) -> Path:
    """The directory finding paths are made relative to.

    The git root above the first input path when findable; otherwise
    the cwd.
    """
    start = Path(paths[0]).resolve() if paths else Path.cwd().resolve()
    for candidate in [start, *start.parents]:
        if (candidate / ".git").exists():
            return candidate
    return Path.cwd()
