"""The project-specific rules: the contracts the test suite can only sample.

Every rule here encodes a discipline the differential/golden suites
*depend on* but cannot themselves enforce exhaustively — a property
test samples seeds; these rules pin the source-level invariant for
every line, every PR:

========  ==========================  =============================================
Code      Name                        Contract
========  ==========================  =============================================
RNG001    rng-discipline              all randomness flows through labelled
                                      ``repro.rng`` streams
KEY001    keyspace-exactness          keys stay exact uint64; no float arithmetic
                                      or raw ``<``/``==`` ordering on them
SOA001    soa-boundary                engine kernels never cross the per-peer
                                      Python-object boundary
ITER001   nondeterministic-iteration  no iteration over hash-ordered sets
CLK001    wallclock-env               no wall clock / environment reads in
                                      simulation code
DOC001    docstring-contracts         public engine defs document their RNG
                                      streams (replaces the ruff D-select gate)
CACHE001  cache-version-guard         version-keyed cache state (``*_cache``)
                                      is only read under a version equality
                                      guard
========  ==========================  =============================================

Scope notes live on each rule; per-line escapes are
``# repro: allow[CODE]`` (:mod:`repro.analysis.suppressions`).
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from .core import Analyzer, Finding, ModuleContext, Rule, register_rule

__all__ = [
    "RngDisciplineRule",
    "KeyspaceExactnessRule",
    "SoaBoundaryRule",
    "NondeterministicIterationRule",
    "WallClockRule",
    "DocstringContractsRule",
    "CacheGuardRule",
]


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _in_repro(ctx: ModuleContext, *suffixes: str) -> bool:
    """Whether the module path ends with any ``repro/...`` suffix."""
    return any(ctx.posix.endswith(suffix) for suffix in suffixes)


# ----------------------------------------------------------------------
# RNG001 — rng discipline
# ----------------------------------------------------------------------


@register_rule
class RngDisciplineRule(Rule):
    """All randomness must originate from labelled ``repro.rng`` streams.

    The bit-identical differential suites (vectorized vs reference,
    parallel vs sequential runners) hold only because every generator
    descends from ``split(seed, *labels)`` / ``make_rng(seed)`` with a
    state-independent draw layout. One bare ``np.random.default_rng()``
    (OS-entropy seeded) or stdlib ``random`` call (process-salted) makes
    a run unreproducible in ways a golden fixture may not catch until
    the stream layout shifts much later.

    Fires on: ``import random`` / ``from random import ...``; any
    ``numpy.random`` attribute use except the :class:`~numpy.random.
    Generator` / ``BitGenerator`` *type* names (annotations are fine,
    factories are not); importing ``numpy.random`` or its members
    directly. Sanctioned call sites: ``repro/rng.py`` itself, which
    wraps ``default_rng``/``SeedSequence`` behind the labelled-stream
    API.
    """

    code = "RNG001"
    name = "rng-discipline"
    description = "randomness must flow through repro.rng labelled streams"

    #: numpy.random attributes that name *types* (annotation use), not
    #: entropy sources or factories.
    _TYPE_NAMES = frozenset({"Generator", "BitGenerator", "SeedSequence"})

    def applies(self, ctx: ModuleContext) -> bool:
        return not _in_repro(ctx, "repro/rng.py")

    def visit_Import(self, ctx: ModuleContext, node: ast.Import, analyzer: Analyzer):
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root == "random":
                yield ctx.finding(
                    self.code,
                    node,
                    "stdlib 'random' is process-salted and unlabelled; derive a "
                    "stream with repro.rng.split(seed, *labels) instead",
                )
            elif alias.name.startswith("numpy.random"):
                yield ctx.finding(
                    self.code,
                    node,
                    "import numpy.random bypasses the labelled-stream discipline; "
                    "use repro.rng.split/make_rng",
                )

    def visit_ImportFrom(self, ctx: ModuleContext, node: ast.ImportFrom, analyzer: Analyzer):
        if node.module is None:
            return
        if node.module == "random" or node.module.startswith("random."):
            yield ctx.finding(
                self.code,
                node,
                "stdlib 'random' is process-salted and unlabelled; derive a "
                "stream with repro.rng.split(seed, *labels) instead",
            )
        elif node.module == "numpy.random" or node.module.startswith("numpy.random."):
            bad = [a.name for a in node.names if a.name not in self._TYPE_NAMES]
            if bad:
                yield ctx.finding(
                    self.code,
                    node,
                    f"importing {', '.join(bad)} from numpy.random bypasses the "
                    "labelled-stream discipline; use repro.rng.split/make_rng",
                )

    def visit_Attribute(self, ctx: ModuleContext, node: ast.Attribute, analyzer: Analyzer):
        # np.random.X / numpy.random.X for any non-type X.
        if (
            isinstance(node.value, ast.Attribute)
            and node.value.attr == "random"
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id in ("np", "numpy")
            and node.attr not in self._TYPE_NAMES
        ):
            yield ctx.finding(
                self.code,
                node,
                f"numpy.random.{node.attr} creates/uses an unlabelled entropy "
                "source; every Generator must come from repro.rng.split/make_rng",
            )

    def visit_Call(self, ctx: ModuleContext, node: ast.Call, analyzer: Analyzer):
        if isinstance(node.func, ast.Name) and node.func.id == "default_rng":
            yield ctx.finding(
                self.code,
                node,
                "bare default_rng() is OS-entropy seeded; every Generator must "
                "come from repro.rng.split/make_rng",
            )


# ----------------------------------------------------------------------
# KEY001 — keyspace exactness
# ----------------------------------------------------------------------


@register_rule
class KeyspaceExactnessRule(Rule):
    """Values from the uint64 keyspace never meet float arithmetic.

    PR 3 moved all geometry to exact fixed-point keys precisely because
    float rounding let the metric and the comparison predicate disagree
    at arc borders (two real bugs). The discipline that keeps the class
    dead is source-level: a value obtained from ``key_of`` /
    ``keys_array`` / ``from_unit(s)`` (or a snapshot's key columns) may
    only be combined with other keys via wrapping subtraction (which
    yields a *distance* — totally ordered, safe) or passed to
    :mod:`repro.ring.keyspace` kernels. This rule performs a
    per-function taint walk:

    * **sources**: calls to ``key_of``/``keys_array``/``from_unit``/
      ``from_units``; subscripted ``.keys``/``.all_keys``/``.key``
      columns; names assigned from tainted expressions (``int()``,
      ``np.asarray`` and subscripts/``.copy()`` propagate taint —
      casting a key does not untaint it).
    * **violations**: ``float(key)``; ``key <op> <float literal>`` or
      ``/``/``*``/``**``/``%`` arithmetic on a key; ordering or
      equality comparisons (``<``, ``==``, ...) where both sides are
      keys (rank keys with ``cw_distance``/``cw_rank_key`` instead —
      raw comparisons ignore the wrap).
    * **not violations**: ``a - b`` (the wrapping distance — the result
      leaves the taint set), keys passed as call arguments (the callee
      owns its contract), membership in keyspace kernels.

    ``ring/keyspace.py`` itself is exempt: it is the one module allowed
    to know how keys are represented.
    """

    code = "KEY001"
    name = "keyspace-exactness"
    description = "no float arithmetic or raw comparisons on uint64 keys"

    _SOURCE_CALLS = frozenset({"key_of", "keys_array", "from_unit", "from_units"})
    _SOURCE_ATTRS = frozenset({"all_keys", "keys", "key"})
    _PROPAGATING_CALLS = frozenset({"int", "asarray", "array", "copy", "astype"})
    _UNSAFE_OPS = (ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow)

    def __init__(self) -> None:
        self._tainted: set[str] = set()

    def applies(self, ctx: ModuleContext) -> bool:
        return not _in_repro(ctx, "repro/ring/keyspace.py")

    # -- scope management ----------------------------------------------

    def visit_FunctionDef(self, ctx, node, analyzer):
        self._tainted = set()
        return ()

    visit_AsyncFunctionDef = visit_FunctionDef

    # -- taint ----------------------------------------------------------

    def _is_key(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self._tainted
        if isinstance(node, ast.Subscript):
            return self._is_key(node.value)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                if func.attr in self._SOURCE_CALLS:
                    return True
                # key.copy() / key.astype(...) / np.asarray(key)
                if func.attr in self._PROPAGATING_CALLS and self._is_key(func.value):
                    return True
                if (
                    func.attr in self._PROPAGATING_CALLS
                    and node.args
                    and self._is_key(node.args[0])
                ):
                    return True
            elif isinstance(func, ast.Name):
                if func.id in self._SOURCE_CALLS:
                    return True
                if func.id in self._PROPAGATING_CALLS and node.args:
                    return self._is_key(node.args[0])
            return False
        if isinstance(node, ast.Attribute):
            # Key columns are always *indexed* (``view.keys[rows]``,
            # ``state.key[slot]``) — requiring the Subscript context
            # keeps ``dict.keys()`` and unrelated ``.key`` reads out.
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            # key + distance stays a key; distance + distance is clean
            # but indistinguishable here, so stay conservative only when
            # a side is already tainted.
            return self._is_key(node.left) or self._is_key(node.right)
        if isinstance(node, ast.IfExp):
            return self._is_key(node.body) or self._is_key(node.orelse)
        return False

    def _is_key_subscript_base(self, node: ast.Subscript) -> bool:
        value = node.value
        return (
            isinstance(value, ast.Attribute) and value.attr in self._SOURCE_ATTRS
        )

    def visit_Subscript(self, ctx, node: ast.Subscript, analyzer):
        # Mark names for `x = view.keys[rows]`-style taint in visit_Assign;
        # nothing to report at the subscript itself.
        return ()

    def visit_Assign(self, ctx: ModuleContext, node: ast.Assign, analyzer: Analyzer):
        tainted = self._expression_tainted(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if tainted:
                    self._tainted.add(target.id)
                else:
                    self._tainted.discard(target.id)
        return ()

    def _expression_tainted(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Subscript) and self._is_key_subscript_base(node):
            return True
        return self._is_key(node)

    # -- violations ------------------------------------------------------

    def visit_Call(self, ctx: ModuleContext, node: ast.Call, analyzer: Analyzer):
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "float"
            and node.args
            and self._expression_tainted(node.args[0])
        ):
            yield ctx.finding(
                self.code,
                node,
                "float() on a uint64 key loses exactness; convert at the API "
                "edge with keyspace.to_unit/to_units",
            )

    def visit_BinOp(self, ctx: ModuleContext, node: ast.BinOp, analyzer: Analyzer):
        left_key = self._expression_tainted(node.left)
        right_key = self._expression_tainted(node.right)
        if not (left_key or right_key):
            return
        if isinstance(node.op, self._UNSAFE_OPS):
            yield ctx.finding(
                self.code,
                node,
                "inexact arithmetic on a uint64 key; only wrapping +/- and the "
                "repro.ring.keyspace kernels preserve exactness",
            )
            return
        other = node.right if left_key else node.left
        if isinstance(other, ast.Constant) and isinstance(other.value, float):
            yield ctx.finding(
                self.code,
                node,
                "float literal combined with a uint64 key; keys never mix with "
                "unit-circle floats outside ring/keyspace.py",
            )

    def visit_Compare(self, ctx: ModuleContext, node: ast.Compare, analyzer: Analyzer):
        operands = [node.left, *node.comparators]
        keyish = [self._expression_tainted(op) for op in operands]
        if not any(keyish):
            return
        for left, right, op in zip(operands, operands[1:], node.ops):
            l_key = self._expression_tainted(left)
            r_key = self._expression_tainted(right)
            if l_key and r_key and isinstance(
                op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)
            ):
                yield ctx.finding(
                    self.code,
                    node,
                    "raw comparison of two uint64 keys ignores the wrap; order "
                    "by cw_distance/cw_rank_key or test with in_cw_interval",
                )
            elif (l_key or r_key) and any(
                isinstance(other, ast.Constant) and isinstance(other.value, float)
                for other in (left, right)
            ):
                yield ctx.finding(
                    self.code,
                    node,
                    "comparing a uint64 key against a float literal; keys never "
                    "mix with unit-circle floats outside ring/keyspace.py",
                )


# ----------------------------------------------------------------------
# SOA001 — struct-of-arrays boundary
# ----------------------------------------------------------------------


@register_rule
class SoaBoundaryRule(Rule):
    """Engine hot paths stay on flat arrays, never per-peer objects.

    The million-peer budget (PR 6) holds because the batch kernels in
    ``engine/{construct,batch,churn,serve,walk}.py`` read and write
    :class:`~repro.core.soa.SubstrateState` columns directly; one
    innocent ``for node in view.nodes`` reintroduces a per-peer Python
    round-trip and silently re-caps practical scale at ~100k. This rule
    flags, inside those modules:

    * reads of a ``.nodes`` attribute or of a local bound to one
      (subscripting, iterating or calling through ``nodes``);
    * the attribute names a per-peer object would carry
      (``in_degree``, ``partitions``, ``reset_links``, ...) on any
      object, so no such object creeps into a kernel;
    * per-peer protocol calls (``neighbors_of``) in loop position.

    **Whitelisted:** any function whose name contains ``reference`` —
    the sequential executable-specification twins are *defined* by
    crossing the boundary (that is what the differential tests compare
    against). The remaining intentional scalar fallbacks carry
    explicit per-line allows instead, so every boundary crossing is
    visible in the diff that introduces it.
    """

    code = "SOA001"
    name = "soa-boundary"
    description = "engine kernels must not cross the per-peer object boundary"

    _KERNELS = (
        "repro/engine/construct.py",
        "repro/engine/batch.py",
        "repro/engine/churn.py",
        "repro/engine/serve.py",
        "repro/engine/walk.py",
    )
    #: Attributes a per-peer object would carry (never SubstrateState
    #: columns — ``out_links``/``samples_spent`` are deliberately absent
    #: because the state arrays share those names).
    _VIEW_ATTRS = frozenset(
        {
            "in_degree",
            "rho_max_in",
            "rho_max_out",
            "partitions",
            "spare_in_capacity",
            "can_accept",
            "wants_more_links",
            "accept_in_link",
            "drop_in_link",
            "reset_links",
            "neighbors_of",
        }
    )

    def applies(self, ctx: ModuleContext) -> bool:
        return _in_repro(ctx, *self._KERNELS)

    def visit_Attribute(self, ctx: ModuleContext, node: ast.Attribute, analyzer: Analyzer):
        if analyzer.in_reference_scope():
            return
        if node.attr == "nodes":
            yield ctx.finding(
                self.code,
                node,
                "engine kernel reads a per-peer '.nodes' table; use the "
                "SubstrateState columns (or move this into a *_reference twin)",
            )
        elif node.attr in self._VIEW_ATTRS:
            yield ctx.finding(
                self.code,
                node,
                f"per-peer view attribute '.{node.attr}' inside an engine "
                "kernel; read/write the SubstrateState column instead",
            )
        elif isinstance(node.value, ast.Name) and node.value.id in ("nodes", "node"):
            yield ctx.finding(
                self.code,
                node,
                f"'.{node.attr}' through per-peer object '{node.value.id}' "
                "inside an engine kernel; stay on the flat arrays",
            )

    def visit_Subscript(self, ctx: ModuleContext, node: ast.Subscript, analyzer: Analyzer):
        if analyzer.in_reference_scope():
            return
        if isinstance(node.value, ast.Name) and node.value.id == "nodes":
            yield ctx.finding(
                self.code,
                node,
                "indexing a per-peer 'nodes' table inside an engine kernel; "
                "translate ids to slots and use the SubstrateState columns",
            )

    def visit_For(self, ctx: ModuleContext, node: ast.For, analyzer: Analyzer):
        if analyzer.in_reference_scope():
            return
        iter_src = _dotted(node.iter) or ""
        if iter_src == "nodes" or iter_src.endswith(".nodes"):
            yield ctx.finding(
                self.code,
                node,
                "per-peer loop over a nodes table inside an engine kernel; "
                "vectorize over SubstrateState columns",
            )


# ----------------------------------------------------------------------
# ITER001 — nondeterministic iteration
# ----------------------------------------------------------------------


@register_rule
class NondeterministicIterationRule(Rule):
    """Hash-ordered iteration never feeds an ordering-sensitive sink.

    Python ``set`` iteration order depends on insertion history *and*
    (for strings) the per-process hash salt. Feeding it into
    ``Ring.insert_many``, a lexsort tiebreak, an RNG stream label, or
    any array constructor quietly makes "same seed, same network"
    false on a different machine. Dict iteration is insertion-ordered
    and therefore fine — sets are the hazard.

    Fires when an expression inferred set-typed (``set(...)`` call, set
    literal/comprehension, set-annotated name, set-operator result) is
    iterated: ``for``/comprehension iteration, ``list``/``tuple``/
    ``iter``/``enumerate``/``np.fromiter``/``np.array``/``np.asarray``
    conversion, ``str.join``, or ``*`` unpacking. Order-insensitive
    consumers (``len``, membership, ``sorted``, ``min``/``max``/
    ``sum``/``any``/``all``, set algebra) are untouched — ``sorted(s)``
    is the idiomatic fix.
    """

    code = "ITER001"
    name = "nondeterministic-iteration"
    description = "no iteration over hash-ordered sets into ordering-sensitive sinks"

    _ORDER_SENSITIVE_CONVERTERS = frozenset(
        {"list", "tuple", "iter", "enumerate", "fromiter", "array", "asarray", "concatenate"}
    )

    def __init__(self) -> None:
        self._set_names: set[str] = set()

    def visit_FunctionDef(self, ctx, node, analyzer):
        self._set_names = set()
        return ()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _is_set(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if isinstance(func, ast.Attribute) and func.attr in (
                "union",
                "intersection",
                "difference",
                "symmetric_difference",
            ):
                return self._is_set(func.value)
            return False
        if isinstance(node, ast.Name):
            return node.id in self._set_names
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set(node.left) and self._is_set(node.right)
        return False

    @staticmethod
    def _is_set_annotation(annotation: ast.AST) -> bool:
        base = annotation
        if isinstance(base, ast.Subscript):
            base = base.value
        return isinstance(base, ast.Name) and base.id in ("set", "frozenset")

    def visit_Assign(self, ctx, node: ast.Assign, analyzer):
        tainted = self._is_set(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if tainted:
                    self._set_names.add(target.id)
                else:
                    self._set_names.discard(target.id)
        return ()

    def visit_AnnAssign(self, ctx, node: ast.AnnAssign, analyzer):
        if isinstance(node.target, ast.Name) and self._is_set_annotation(node.annotation):
            self._set_names.add(node.target.id)
        return ()

    def _flag(self, ctx: ModuleContext, node: ast.AST, how: str) -> Iterator[Finding]:
        yield ctx.finding(
            self.code,
            node,
            f"{how} a hash-ordered set is nondeterministic across processes; "
            "wrap it in sorted(...) before it reaches an ordering-sensitive sink",
        )

    def visit_For(self, ctx: ModuleContext, node: ast.For, analyzer: Analyzer):
        if self._is_set(node.iter):
            yield from self._flag(ctx, node, "iterating")

    def _comp_findings(self, ctx, node, analyzer=None) -> Iterator[Finding]:
        for gen in node.generators:
            if self._is_set(gen.iter):
                yield from self._flag(ctx, node, "iterating")

    visit_ListComp = _comp_findings
    visit_GeneratorExp = _comp_findings
    visit_DictComp = _comp_findings
    visit_SetComp = _comp_findings

    def visit_Starred(self, ctx: ModuleContext, node: ast.Starred, analyzer: Analyzer):
        if self._is_set(node.value):
            yield from self._flag(ctx, node, "unpacking")

    def visit_Call(self, ctx: ModuleContext, node: ast.Call, analyzer: Analyzer):
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
            if name == "join" and node.args and self._is_set(node.args[0]):
                yield from self._flag(ctx, node, "joining")
                return
        if (
            name in self._ORDER_SENSITIVE_CONVERTERS
            and node.args
            and self._is_set(node.args[0])
        ):
            yield from self._flag(ctx, node, "materializing")


# ----------------------------------------------------------------------
# CLK001 — wall clock / environment leakage
# ----------------------------------------------------------------------


@register_rule
class WallClockRule(Rule):
    """Simulation code never reads the wall clock or the environment.

    A result that depends on ``time.time()`` or ``os.environ`` is not a
    function of ``(code, seed, params)`` — the artifact cache would
    happily serve stale results and the differential suites would chase
    phantom divergences. Timing belongs to the *measurement* layer:
    ``cli.py`` (elapsed-time summaries) and ``experiments/runner.py``
    (the Runner's wall-time capture and its ``Stopwatch``) are the two
    sanctioned scopes and are excluded wholesale, as is the whole
    ``repro.net`` transport package
    — an asyncio runtime legitimately owns timeouts, socket deadlines
    and loop clocks; its determinism is enforced *behaviorally* by the
    lockstep oracle-equivalence suite (``tests/test_net.py``), not by
    banning the clock. The sans-I/O machines the runtime drives live in
    ``repro.protocol`` and remain fully in scope. Experiment specs that
    legitimately *report* wall-time series (``scale-build``,
    ``steady-churn``, ``detector-churn``, ``serve-churn``, ``net-smoke``,
    ``net-churn``) time them through ``experiments.runner.Stopwatch`` and
    read no clock themselves.

    Fires on ``time.time/..._ns/monotonic/perf_counter/process_time``,
    ``from time import <those>``, ``datetime.now/utcnow/today``,
    ``os.environ`` and ``os.getenv`` — inside any ``repro`` module
    outside the sanctioned scopes.
    """

    code = "CLK001"
    name = "wallclock-env"
    description = "no wall-clock or environment reads in simulation code"

    _TIME_ATTRS = frozenset(
        {
            "time",
            "time_ns",
            "monotonic",
            "monotonic_ns",
            "perf_counter",
            "perf_counter_ns",
            "process_time",
            "process_time_ns",
        }
    )
    _DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})
    _ALLOWED_MODULES = ("repro/cli.py", "repro/experiments/runner.py")
    # Whole packages on the I/O side of the sans-I/O boundary: the
    # asyncio transport layer may use timeouts and loop clocks.
    _ALLOWED_PACKAGES = ("repro/net/",)

    def applies(self, ctx: ModuleContext) -> bool:
        if any(prefix in ctx.posix for prefix in self._ALLOWED_PACKAGES):
            return False
        return not _in_repro(ctx, *self._ALLOWED_MODULES)

    def visit_Attribute(self, ctx: ModuleContext, node: ast.Attribute, analyzer: Analyzer):
        dotted = _dotted(node)
        if dotted is None:
            return
        if dotted.startswith("time.") and node.attr in self._TIME_ATTRS:
            yield ctx.finding(
                self.code,
                node,
                f"{dotted} reads the wall clock inside simulation code; timing "
                "belongs to the Runner shim (experiments/runner.py) or the CLI",
            )
        elif node.attr in self._DATETIME_ATTRS and "datetime" in dotted.split("."):
            yield ctx.finding(
                self.code,
                node,
                f"{dotted} reads the wall clock; results must be a function of "
                "(code, seed, params)",
            )
        elif dotted in ("os.environ", "os.getenv"):
            yield ctx.finding(
                self.code,
                node,
                f"{dotted} makes behaviour depend on the process environment; "
                "thread configuration through explicit parameters",
            )

    def visit_ImportFrom(self, ctx: ModuleContext, node: ast.ImportFrom, analyzer: Analyzer):
        if node.module == "time":
            bad = [a.name for a in node.names if a.name in self._TIME_ATTRS]
            if bad:
                yield ctx.finding(
                    self.code,
                    node,
                    f"importing {', '.join(bad)} from time into simulation code; "
                    "timing belongs to the Runner shim or the CLI",
                )
        elif node.module == "os":
            bad = [a.name for a in node.names if a.name in ("environ", "getenv")]
            if bad:
                yield ctx.finding(
                    self.code,
                    node,
                    f"importing {', '.join(bad)} from os into simulation code; "
                    "thread configuration through explicit parameters",
                )


# ----------------------------------------------------------------------
# DOC001 — docstring contracts
# ----------------------------------------------------------------------


@register_rule
class DocstringContractsRule(Rule):
    """Public engine surface documents itself — and its RNG streams.

    Replaces the bolted-on ``ruff check --select D100-D104`` CI step
    with a contract-aware version: beyond mere docstring *presence* on
    modules, public classes and public functions in ``repro/engine``,
    any public function taking an ``rng`` or ``seed`` parameter must
    say which labelled stream(s) it consumes — its docstring (or, for
    ``__init__``, the class docstring) must mention ``RNG`` or
    ``stream``. The determinism contract is only auditable if every
    entry point states where its randomness comes from.
    """

    code = "DOC001"
    name = "docstring-contracts"
    description = "public engine defs are documented, RNG usage included"

    _RNG_WORDS = re.compile(r"rng|stream", re.IGNORECASE)

    def applies(self, ctx: ModuleContext) -> bool:
        return "repro/engine/" in ctx.posix

    def begin_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        if ast.get_docstring(ctx.tree) is None:
            yield ctx.finding(
                self.code, 1, "engine module is missing its module docstring"
            )

    def visit_ClassDef(self, ctx: ModuleContext, node: ast.ClassDef, analyzer: Analyzer):
        if node.name.startswith("_"):
            return
        if ast.get_docstring(node) is None:
            yield ctx.finding(
                self.code, node, f"public engine class {node.name!r} has no docstring"
            )

    def visit_FunctionDef(self, ctx: ModuleContext, node: ast.FunctionDef, analyzer: Analyzer):
        name = node.name
        is_dunder = name.startswith("__") and name.endswith("__")
        if name.startswith("_") and not is_dunder:
            return
        doc = ast.get_docstring(node)
        if doc is None and not is_dunder:
            yield ctx.finding(
                self.code,
                node,
                f"public engine function {name!r} has no docstring",
            )
            return
        params = {arg.arg for arg in node.args.args + node.args.kwonlyargs}
        if not params & {"rng", "seed"}:
            return
        text = doc or ""
        if name == "__init__" and not self._RNG_WORDS.search(text):
            # Constructors may document their args on the class.
            class_doc = self._enclosing_class_doc(ctx, analyzer)
            text = f"{text}\n{class_doc}"
        if not self._RNG_WORDS.search(text):
            yield ctx.finding(
                self.code,
                node,
                f"{name!r} takes {sorted(params & {'rng', 'seed'})} but its "
                "docstring never mentions the RNG stream(s) it consumes",
            )

    visit_AsyncFunctionDef = visit_FunctionDef

    def _enclosing_class_doc(self, ctx: ModuleContext, analyzer: Analyzer) -> str:
        """Docstring of the innermost enclosing class, found by name.

        The analyzer's scope stack carries names, not nodes; a single
        targeted search recovers the class node. Good enough: engine
        modules do not nest same-named classes.
        """
        class_names = set(analyzer.scope[:-1])
        if not class_names:
            return ""
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef) and node.name in class_names:
                return ast.get_docstring(node) or ""
        return ""


# ----------------------------------------------------------------------
# CACHE001 — version-guarded cache reads
# ----------------------------------------------------------------------


@register_rule
class CacheGuardRule(Rule):
    """Version-keyed cache state is only read under a version guard.

    The serving layer (PR 10) answers queries from caches —
    ``BatchQueryEngine._route_cache`` (the topology snapshot),
    ``ServeEngine._serve_cache`` (the believed-live snapshot) and the
    ``result_cache`` LRU — that are correct *only at the version they
    were built*. A read that skips the version check serves a
    pre-churn owner as if it were current: exactly the stale-routing
    bug PR 5 fixed once at a single call site. The discipline is
    structural, so it is lintable: version-keyed cache state lives in
    attributes named ``*_cache`` (the naming *is* the contract), and a
    function that reads one must carry a version-equality check.

    Fires on any ``Load`` of a ``*_cache`` attribute inside a
    ``repro/engine`` function that contains no ``==``/``!=`` comparison
    involving a ``version``-named operand. A method call on the cache
    that *passes* a ``version``-named argument (``result_cache.probe(
    keys, version)``) delegates the check to the cache and is exempt.
    Writes/rebuilds (``self._route_cache = ...``) are not reads.
    Intentional unguarded reads — test-only exposure properties, bulk
    ``clear()`` — carry per-line ``# repro: allow[CACHE001]`` escapes
    so each one is visible in the diff that introduces it.
    """

    code = "CACHE001"
    name = "cache-version-guard"
    description = "version-keyed cache reads require a version equality guard"

    def applies(self, ctx: ModuleContext) -> bool:
        return "repro/engine/" in ctx.posix

    @staticmethod
    def _own_nodes(node: ast.AST) -> Iterator[ast.AST]:
        """The function's own subtree, nested defs excluded (they get
        their own ``visit_FunctionDef`` pass)."""
        stack = list(ast.iter_child_nodes(node))
        while stack:
            child = stack.pop()
            yield child
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.extend(ast.iter_child_nodes(child))

    @staticmethod
    def _mentions_version(node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and "version" in sub.id.lower():
                return True
            if isinstance(sub, ast.Attribute) and "version" in sub.attr.lower():
                return True
        return False

    def visit_FunctionDef(self, ctx: ModuleContext, node: ast.FunctionDef, analyzer: Analyzer):
        own = list(self._own_nodes(node))
        guarded = any(
            isinstance(sub, ast.Compare)
            and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in sub.ops)
            and any(
                self._mentions_version(operand)
                for operand in (sub.left, *sub.comparators)
            )
            for sub in own
        )
        if guarded:
            return
        # Calls on the cache that hand the version to the cache itself
        # (`result_cache.probe(keys, version)`) delegate the guard.
        delegated: set[ast.AST] = set()
        for sub in own:
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and isinstance(sub.func.value, ast.Attribute)
                and sub.func.value.attr.endswith("_cache")
                and any(self._mentions_version(arg) for arg in sub.args)
            ):
                delegated.add(sub.func.value)
        for sub in own:
            if (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.ctx, ast.Load)
                and sub.attr.endswith("_cache")
                and sub not in delegated
            ):
                yield ctx.finding(
                    self.code,
                    sub,
                    f"read of version-keyed cache '.{sub.attr}' without a "
                    "version equality guard; compare against the current "
                    "version (or pass it to the cache's get/put) before "
                    "serving from cache state",
                )

    visit_AsyncFunctionDef = visit_FunctionDef
