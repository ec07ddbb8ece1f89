"""Static analysis for the repo's determinism and SoA contracts.

``repro.analysis`` is the enforcement layer for the source-level
disciplines the differential test suites can only *sample*: labelled
RNG streams (:mod:`repro.rng`), exact uint64 keyspace geometry
(:mod:`repro.ring.keyspace`), and the struct-of-arrays boundary of the
engine kernels (:mod:`repro.core.soa`). See ``docs/determinism.md`` for
the contracts and rule codes, ``repro lint --help`` for the CLI.

Layout:

* :mod:`~repro.analysis.core` — Finding/Rule/Analyzer engine + registry
* :mod:`~repro.analysis.rules` — the six project rules (RNG001 ... DOC001)
* :mod:`~repro.analysis.suppressions` — ``# repro: allow[CODE]`` sheets
* :mod:`~repro.analysis.reporters` — text / ``repro-lint/2`` JSON output
* :mod:`~repro.analysis.run` — orchestration + the ``repro lint`` argv entry
"""

from .core import (
    Analyzer,
    Finding,
    ModuleContext,
    Rule,
    all_rules,
    get_rule,
    iter_python_files,
    register_rule,
    resolve_codes,
)
from .reporters import JSON_SCHEMA, RunResult, render_json, render_text
from .run import build_parser, main, run_lint
from .suppressions import SUPPRESSION_CODE, SuppressionSheet

__all__ = [
    "Analyzer",
    "Finding",
    "JSON_SCHEMA",
    "ModuleContext",
    "Rule",
    "RunResult",
    "SUPPRESSION_CODE",
    "SuppressionSheet",
    "all_rules",
    "build_parser",
    "get_rule",
    "iter_python_files",
    "main",
    "register_rule",
    "render_json",
    "render_text",
    "resolve_codes",
    "run_lint",
]
