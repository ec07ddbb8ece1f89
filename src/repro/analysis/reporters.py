"""Reporters: how a lint run is rendered for humans and for CI.

Two formats, both deterministic for identical inputs:

* **text** — one ``path:line:col CODE message`` line per finding (the
  grep/editor-jump format), followed by a one-line summary including
  how many findings were silenced by suppressions, so a "clean" run
  still shows how much waived debt it is standing on.
* **json** — the ``repro-lint/2`` schema consumed by the CI
  ``static-analysis`` job (uploaded as an artifact). Stable keys,
  sorted findings, counts per rule code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .core import Finding

__all__ = ["RunResult", "render_text", "render_json", "JSON_SCHEMA"]

#: Schema tag stamped into every JSON report.
JSON_SCHEMA = "repro-lint/2"


@dataclass
class RunResult:
    """The outcome of one lint run, pre-rendering.

    Attributes:
        findings: Surviving findings (post-suppression), sorted.
        files_checked: How many modules were analyzed.
        suppressed: Findings silenced by ``# repro: allow[...]``.
    """

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def counts(self) -> dict[str, int]:
        """Finding count per rule code, sorted by code."""
        tally: dict[str, int] = {}
        for finding in self.findings:
            tally[finding.code] = tally.get(finding.code, 0) + 1
        return dict(sorted(tally.items()))


def render_text(result: RunResult) -> str:
    """The human format: one line per finding plus a summary line."""
    lines = [
        f"{finding.location()} {finding.code} {finding.message}"
        for finding in result.findings
    ]
    noun = "file" if result.files_checked == 1 else "files"
    if result.clean:
        summary = (
            f"ok: {result.files_checked} {noun} checked, 0 findings "
            f"({result.suppressed} suppressed)"
        )
    else:
        per_code = ", ".join(f"{code}×{n}" for code, n in result.counts().items())
        summary = (
            f"FAIL: {len(result.findings)} finding(s) [{per_code}] in "
            f"{result.files_checked} {noun} ({result.suppressed} suppressed)"
        )
    lines.append(summary)
    return "\n".join(lines)


def render_json(result: RunResult) -> str:
    """The machine format (``repro-lint/2``), for the CI artifact."""
    payload = {
        "schema": JSON_SCHEMA,
        "clean": result.clean,
        "files_checked": result.files_checked,
        "counts": result.counts(),
        "suppressed": result.suppressed,
        "findings": [finding.as_dict() for finding in result.findings],
    }
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def render(result: RunResult, fmt: str) -> str:
    """Dispatch on ``fmt`` (validated at the CLI boundary)."""
    if fmt == "json":
        return render_json(result)
    return render_text(result)
