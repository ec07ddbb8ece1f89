#!/usr/bin/env python
"""Fail if README.md or docs/*.md name files that do not exist.

Checks every markdown inline link ``[text](target)`` whose target is a
relative path (external URLs and pure in-page anchors are skipped);
targets may carry an anchor suffix (``docs/a.md#section``), which is
stripped before the existence check. Also checks every backticked repo
path — ``src/…``, ``tests/…``, ``scripts/…``, ``examples/…``,
``docs/…``, ``benchmarks/…``, with or without a ``::name`` suffix,
relative to the repo root, globs allowed — so a deleted or renamed
module cannot stay cited. Exit status 1 lists every broken link and
path — this is the CI ``docs`` job.

Usage::

    python scripts/check_doc_links.py [repo_root]
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")
REPO_PATH = re.compile(
    r"`((?:src|tests|scripts|examples|docs|benchmarks)/[^`\s:]*)(?:::[^`\s]*)?`"
)


def broken_links(markdown: Path, root: Path) -> list[str]:
    """Relative link targets in ``markdown`` that do not exist on disk."""
    missing = []
    for target in LINK.findall(markdown.read_text(encoding="utf-8")):
        if target.startswith(SKIP_PREFIXES):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        resolved = (markdown.parent / path).resolve()
        if not resolved.exists():
            missing.append(f"{markdown.relative_to(root)}: broken link -> {target}")
    return missing


def missing_paths(markdown: Path, root: Path) -> list[str]:
    """Backticked repo paths in ``markdown`` that match no file."""
    missing = []
    for path in REPO_PATH.findall(markdown.read_text(encoding="utf-8")):
        if not (any(root.glob(path)) if set(path) & set("*?[") else (root / path).exists()):
            missing.append(f"{markdown.relative_to(root)}: no such path -> {path}")
    return missing


def main(argv: list[str]) -> int:
    root = Path(argv[1]).resolve() if len(argv) > 1 else Path.cwd()
    documents = [root / "README.md", *sorted((root / "docs").glob("*.md"))]
    problems: list[str] = []
    checked = 0
    for document in documents:
        if not document.exists():
            problems.append(f"missing document: {document.relative_to(root)}")
            continue
        checked += 1
        problems.extend(broken_links(document, root))
        problems.extend(missing_paths(document, root))
    for problem in problems:
        print(problem, file=sys.stderr)
    verdict = "FAIL" if problems else "all links and paths resolve"
    print(f"checked {checked} documents: {verdict}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
