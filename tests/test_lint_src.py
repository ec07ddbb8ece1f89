"""The tier-1 gate: ``repro lint src/`` must run clean on this repo.

This is the analyzer eating its own dogfood — the committed tree must
carry zero findings (an unused suppression is itself one, ``SUP001``),
exactly what the CI ``static-analysis`` job enforces. Inline
``# repro: allow[CODE]`` is the only waiver mechanism; a failure here
means a change broke one of the source contracts documented in
docs/determinism.md (or fixed a waived violation without deleting its
``allow`` — also progress, also a required edit).
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import run_lint

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_src_tree_is_clean():
    assert not (REPO_ROOT / "lint-baseline.json").exists()
    result = run_lint([REPO_ROOT / "src"], root=REPO_ROOT)
    report = "\n".join(
        f"{f.location()} {f.code} {f.message}" for f in result.findings
    )
    assert result.clean, f"repro lint src/ found contract violations:\n{report}"
    assert result.files_checked > 50
    # Waivers are debt, not a dumping ground: adding one needs the
    # justification on its line. Raise this count consciously.
    assert result.suppressed == 3
