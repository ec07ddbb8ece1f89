"""The tier-1 gate: ``repro lint src/`` must run clean on this repo.

This is the analyzer eating its own dogfood — the committed tree must
carry zero findings beyond the committed baseline, zero unused
suppressions, and zero stale baseline entries, exactly what the CI
``static-analysis`` job enforces. A failure here means a change broke
one of the source contracts documented in docs/determinism.md (or fixed
a grandfathered violation without deleting its baseline entry — also
progress, also a required edit).
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import Baseline, run_lint

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_src_tree_is_clean_against_committed_baseline():
    baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
    result = run_lint([REPO_ROOT / "src"], baseline=baseline, root=REPO_ROOT)
    report = "\n".join(
        f"{f.location()} {f.code} {f.message}" for f in result.findings
    )
    assert result.clean, f"repro lint src/ found contract violations:\n{report}"
    assert result.files_checked > 50


def test_committed_baseline_stays_small():
    # The baseline is grandfathered debt, not a dumping ground: adding
    # an entry needs the same scrutiny as an inline allow. Raise this
    # bound consciously, with the justification in the entry itself.
    baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
    assert len(baseline.entries) <= 1
