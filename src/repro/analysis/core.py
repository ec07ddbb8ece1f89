"""The analyzer engine: one AST walk per module, rules as visitors.

The framework is deliberately small. A :class:`Rule` declares a stable
``code`` (``RNG001``-style — reporters and suppressions key on it) and
implements ``visit_<NodeType>`` hooks; the
:class:`Analyzer` parses each module once, walks its AST once, and
dispatches every node to every applicable rule, tracking the enclosing
class/function scope so rules can whitelist known-scalar reference
paths without re-walking anything.

The rule registry is module-global and populated by
:mod:`repro.analysis.rules` at import time; :func:`all_rules` /
:func:`get_rule` are the lookup surface the CLI validates user-supplied
codes against (unknown codes are a :class:`~repro.errors.ConfigError`
at the CLI boundary, exit 2 — the PR 4/5 convention).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from ..errors import ConfigError
from .suppressions import SUPPRESSION_CODE, SuppressionSheet

__all__ = [
    "Finding",
    "ModuleContext",
    "Rule",
    "Analyzer",
    "register_rule",
    "all_rules",
    "get_rule",
    "resolve_codes",
    "iter_python_files",
]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        path: Posix-style path of the module, as given to the analyzer
            (repo-relative when linting from the repo root).
        line: 1-based line of the offending node.
        col: 0-based column of the offending node.
        code: The stable rule code (``RNG001`` ...).
        message: Human-readable description of the violation.
    """

    path: str
    line: int
    col: int
    code: str
    message: str

    def location(self) -> str:
        """``path:line:col`` — the reporter prefix."""
        return f"{self.path}:{self.line}:{self.col}"

    def as_dict(self) -> dict[str, object]:
        """JSON-ready view (the ``repro-lint/2`` finding schema)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }


class ModuleContext:
    """Everything a rule may read about the module under analysis.

    Attributes:
        path: The module's path exactly as reported in findings.
        posix: ``path`` with forward slashes — what rules match their
            scope patterns against (e.g. ``"repro/engine/churn.py" in
            ctx.posix``).
        tree: The parsed ``ast.Module``.
    """

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.posix = path.replace("\\", "/")
        self.tree = tree

    def finding(self, code: str, node: ast.AST | int, message: str) -> Finding:
        """Build a :class:`Finding` anchored at ``node`` (or a line no)."""
        if isinstance(node, int):
            line, col = node, 0
        else:
            line = int(getattr(node, "lineno", 1))
            col = int(getattr(node, "col_offset", 0))
        return Finding(path=self.path, line=line, col=col, code=code, message=message)


class Rule:
    """Base class for one analysis rule.

    Subclasses set the class attributes and implement any number of
    ``visit_<NodeType>(ctx, node, analyzer)`` hooks; each returns an
    iterable of :class:`Finding` (or ``None``). ``begin_module`` /
    ``finish_module`` bracket the walk for rules that accumulate state
    (taint sets, seen-docstring bookkeeping). Rules are instantiated
    fresh per analyzed module, so instance state never leaks between
    files.

    Attributes:
        code: Stable identifier — never renumber; retired codes stay
            reserved (suppressions reference them).
        name: Short kebab-case slug used by reporters.
        description: One-line summary shown by ``repro lint --list-rules``.
    """

    code: str = ""
    name: str = ""
    description: str = ""

    def applies(self, ctx: ModuleContext) -> bool:
        """Whether this rule runs on ``ctx`` at all (path scoping)."""
        return True

    def begin_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        """Hook before the walk (module-level checks)."""
        return ()

    def finish_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        """Hook after the walk (checks needing whole-module state)."""
        return ()


_REGISTRY: dict[str, type[Rule]] = {}


def register_rule(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding ``rule_cls`` to the global registry.

    Codes are unique forever: re-registering an existing code raises
    (a second rule silently shadowing RNG001 would corrupt every
    suppression referencing it).
    """
    code = rule_cls.code
    if not code or not code[0].isalpha():
        raise ConfigError(f"rule {rule_cls.__name__} has no valid code")
    if code in _REGISTRY and _REGISTRY[code] is not rule_cls:
        raise ConfigError(f"duplicate rule code {code!r}")
    _REGISTRY[code] = rule_cls
    return rule_cls


def all_rules() -> list[type[Rule]]:
    """Every registered rule class, sorted by code."""
    from . import rules as _rules  # noqa: F401  (registration side effect)

    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def get_rule(code: str) -> type[Rule]:
    """Look up one rule class by its stable code.

    Raises:
        ConfigError: The code is not registered (the CLI surfaces this
            as a usage error, exit 2).
    """
    all_rules()  # ensure registration ran
    try:
        return _REGISTRY[code]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigError(f"unknown rule code {code!r} (known: {known})") from None


def resolve_codes(codes: Sequence[str] | None) -> list[type[Rule]]:
    """Rule classes for a ``--select`` list (``None`` = every rule)."""
    if codes is None:
        return all_rules()
    return [get_rule(code) for code in codes]


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories into a deterministic ``*.py`` sequence.

    Directories recurse (sorted), explicit files pass through; a path
    that exists but is neither is a :class:`~repro.errors.ConfigError`,
    as is a path that does not exist — bad input fails at the boundary,
    not as an empty (vacuously clean) run.
    """
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(p for p in path.rglob("*.py") if p.is_file())
        elif path.is_file():
            if path.suffix != ".py":
                raise ConfigError(f"not a Python file: {path}")
            yield path
        else:
            raise ConfigError(f"no such file or directory: {path}")


class Analyzer:
    """Runs a set of rules over modules, one shared AST walk per module.

    Args:
        rule_classes: The rules to run (default: the full registry).

    The analyzer owns the scope stack: :attr:`scope` holds the names of
    the enclosing ``ClassDef``/``FunctionDef`` nodes (outermost first)
    while their bodies are visited, so rules can ask "am I inside a
    ``*_reference`` twin?" without tracking parents themselves.
    """

    def __init__(self, rule_classes: Sequence[type[Rule]] | None = None) -> None:
        self.rule_classes = list(rule_classes) if rule_classes is not None else all_rules()
        self.scope: list[str] = []
        #: How many findings the last ``analyze_source`` call silenced
        #: via per-line suppressions (reporters count silenced debt).
        self.last_suppressed: int = 0

    def in_reference_scope(self) -> bool:
        """Whether any enclosing function is a ``*reference*`` twin —
        the sequential executable-specification paths the SoA-boundary
        rule exempts by convention."""
        return any("reference" in name for name in self.scope)

    # ------------------------------------------------------------------
    # per-module walk
    # ------------------------------------------------------------------

    def analyze_source(self, path: str, source: str) -> list[Finding]:
        """Analyze one module given its source text.

        Returns every raw finding, suppressed ones already removed and
        unused-suppression findings (:data:`SUPPRESSION_CODE`) appended.
        Suppression consumption is per ``(line, code)``: an ``allow``
        naming a rule that never fired on its line is itself an error —
        stale suppressions rot into false confidence otherwise.
        """
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            ctx = ModuleContext(path, source, ast.Module(body=[], type_ignores=[]))
            return [
                ctx.finding(
                    "PARSE", int(error.lineno or 1), f"syntax error: {error.msg}"
                )
            ]
        ctx = ModuleContext(path, source, tree)
        sheet = SuppressionSheet.parse(source)
        rules = [cls() for cls in self.rule_classes if cls().applies(ctx)]
        findings: list[Finding] = []
        for rule in rules:
            findings.extend(rule.begin_module(ctx) or ())
        self.scope = []
        self._walk(ctx, tree, rules, findings)
        for rule in rules:
            findings.extend(rule.finish_module(ctx) or ())

        kept = [f for f in findings if not sheet.consume(f.line, f.code)]
        self.last_suppressed = len(findings) - len(kept)
        for line, message in sheet.problems():
            kept.append(ctx.finding(SUPPRESSION_CODE, line, message))
        kept.sort()
        return kept

    def analyze_file(self, path: Path, report_as: str | None = None) -> list[Finding]:
        """Analyze one file on disk (``report_as`` overrides the path
        string findings carry — repo-relative in ``repro lint`` reports)."""
        source = path.read_text(encoding="utf-8")
        return self.analyze_source(report_as or path.as_posix(), source)

    def _walk(
        self,
        ctx: ModuleContext,
        node: ast.AST,
        rules: Sequence[Rule],
        findings: list[Finding],
    ) -> None:
        scoped = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        if scoped:
            self.scope.append(node.name)  # type: ignore[attr-defined]
        handler_name = f"visit_{type(node).__name__}"
        for rule in rules:
            handler: Callable | None = getattr(rule, handler_name, None)
            if handler is not None:
                findings.extend(handler(ctx, node, self) or ())
        for child in ast.iter_child_nodes(node):
            self._walk(ctx, child, rules, findings)
        if scoped:
            self.scope.pop()
