"""Tests for the repro.analysis framework and its seven rules.

Every rule gets at least one fixture that makes it fire and one proving
a per-line ``allow`` silences it (the ISSUE acceptance criteria), plus
negative fixtures pinning the *absence* of false positives on the
idioms the codebase actually uses. Fixture sources are analyzed under
pseudo-paths like ``src/repro/engine/fake.py`` so the path-scoped
``applies()`` logic is exercised too.
"""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis import (
    Analyzer,
    JSON_SCHEMA,
    RunResult,
    SUPPRESSION_CODE,
    SuppressionSheet,
    all_rules,
    get_rule,
    render_json,
    render_text,
    run_lint,
)
from repro.errors import ConfigError

ENGINE_PATH = "src/repro/engine/fake_kernel.py"
KERNEL_PATH = "src/repro/engine/construct.py"
PLAIN_PATH = "src/repro/somewhere/module.py"


def lint(source: str, path: str = PLAIN_PATH, codes: list[str] | None = None):
    """Analyze dedented ``source`` under ``path``; return findings."""
    rules = [get_rule(c) for c in codes] if codes is not None else None
    return Analyzer(rules).analyze_source(path, textwrap.dedent(source))


def codes_of(findings) -> list[str]:
    return [f.code for f in findings]


class TestFramework:
    def test_registry_has_the_seven_rules(self):
        assert [cls.code for cls in all_rules()] == [
            "CACHE001",
            "CLK001",
            "DOC001",
            "ITER001",
            "KEY001",
            "RNG001",
            "SOA001",
        ]

    def test_unknown_code_is_config_error(self):
        with pytest.raises(ConfigError, match="unknown rule code"):
            get_rule("NOPE")

    def test_syntax_error_becomes_parse_finding(self):
        findings = lint("def broken(:\n")
        assert codes_of(findings) == ["PARSE"]

    def test_findings_sort_by_location(self):
        findings = lint(
            """
            import time

            def f():
                a = time.time()
                b = time.time()
            """
        )
        assert codes_of(findings) == ["CLK001", "CLK001"]
        assert findings[0].line < findings[1].line
        assert findings[0].location().startswith(PLAIN_PATH)


class TestSuppressions:
    def test_allow_silences_exactly_its_line_and_code(self):
        findings = lint(
            """
            import time

            def f():
                a = time.time()  # repro: allow[CLK001]
                b = time.time()
            """
        )
        assert codes_of(findings) == ["CLK001"]
        assert findings[0].line == 6  # the un-waived `b = time.time()`

    def test_unused_suppression_is_its_own_finding(self):
        findings = lint("x = 1  # repro: allow[CLK001]\n")
        assert codes_of(findings) == [SUPPRESSION_CODE]
        assert "unused suppression" in findings[0].message

    def test_multi_code_allow(self):
        findings = lint(
            """
            import time

            def f():
                return time.time()  # repro: allow[CLK001,RNG001]
            """
        )
        # CLK001 consumed; the RNG001 half never fired -> unused.
        assert codes_of(findings) == [SUPPRESSION_CODE]

    def test_malformed_directive_is_reported(self):
        findings = lint("x = 1  # repro: alow[CLK001]\n")
        assert codes_of(findings) == [SUPPRESSION_CODE]
        assert "malformed" in findings[0].message

    def test_directives_inside_strings_are_ignored(self):
        sheet = SuppressionSheet.parse(
            'DOC = "use  # repro: allow[CLK001]  on the line"\n'
        )
        assert list(sheet.problems()) == []

    def test_sup001_itself_cannot_be_suppressed(self):
        findings = lint("x = 1  # repro: allow[SUP001]\n")
        assert codes_of(findings) == [SUPPRESSION_CODE]


class TestRngDiscipline:
    def test_fires_on_stdlib_random_and_default_rng(self):
        findings = lint("import random\nrng = default_rng()\n")
        assert codes_of(findings) == ["RNG001", "RNG001"]

    def test_fires_on_np_random_attribute(self):
        findings = lint("import numpy as np\nrng = np.random.default_rng(0)\n")
        assert codes_of(findings) == ["RNG001"]

    def test_generator_type_annotation_is_fine(self):
        findings = lint(
            """
            import numpy as np
            from numpy.random import Generator

            def f(rng: np.random.Generator) -> Generator:
                return rng
            """
        )
        assert findings == []

    def test_rng_module_itself_is_exempt(self):
        source = "from numpy.random import default_rng\n"
        assert lint(source, path="src/repro/rng.py") == []
        assert codes_of(lint(source)) == ["RNG001"]

    def test_suppression_works(self):
        findings = lint("import random  # repro: allow[RNG001]\n")
        assert findings == []


class TestKeyspaceExactness:
    def test_fires_on_float_of_key(self):
        findings = lint(
            """
            def f(ring, node):
                k = key_of(node)
                return float(k)
            """
        )
        assert codes_of(findings) == ["KEY001"]

    def test_fires_on_key_float_comparison_and_division(self):
        findings = lint(
            """
            def f(view, i):
                k = view.keys[i]
                if k < 0.5:
                    return k / 2
            """
        )
        assert codes_of(findings) == ["KEY001", "KEY001"]

    def test_fires_on_raw_key_key_comparison(self):
        findings = lint(
            """
            def f(a_node, b_node):
                a = key_of(a_node)
                b = key_of(b_node)
                return a < b
            """
        )
        assert codes_of(findings) == ["KEY001"]

    def test_wrapping_distance_is_clean(self):
        # The repo's actual idiom: subtraction yields a *distance*,
        # which is totally ordered and safe to compare.
        findings = lint(
            """
            def f(view, start, target):
                keys = keys_array(view)
                progress = keys - start
                span = target - start
                return progress <= span
            """
        )
        assert findings == []

    def test_keyspace_module_is_exempt(self):
        source = "def f(node):\n    return float(key_of(node))\n"
        assert lint(source, path="src/repro/ring/keyspace.py") == []

    def test_suppression_works(self):
        findings = lint(
            """
            def f(node):
                k = key_of(node)
                return float(k)  # repro: allow[KEY001]
            """
        )
        assert findings == []


class TestSoaBoundary:
    def test_fires_on_nodes_loop_and_view_attrs_in_kernels(self):
        source = """
            def kernel(view):
                for node in view.nodes:
                    node.in_degree += 1
        """
        findings = lint(source, path=KERNEL_PATH, codes=["SOA001"])
        assert "SOA001" in codes_of(findings)
        # Outside the three kernel modules the same source is clean.
        assert lint(source) == []

    def test_reference_twins_are_whitelisted(self):
        findings = lint(
            """
            def _round_reference(view):
                for node in view.nodes:
                    node.in_degree += 1
            """,
            path=KERNEL_PATH,
            codes=["SOA001"],
        )
        assert findings == []

    def test_state_columns_are_clean(self):
        findings = lint(
            """
            def kernel(state, slots):
                return state.out_count[slots] + state.key[slots]
            """,
            path=KERNEL_PATH,
            codes=["SOA001"],
        )
        assert findings == []

    def test_suppression_works(self):
        findings = lint(
            """
            def kernel(nodes, i):
                return nodes[i]  # repro: allow[SOA001]
            """,
            path=KERNEL_PATH,
            codes=["SOA001"],
        )
        assert findings == []


class TestNondeterministicIteration:
    def test_fires_on_set_iteration_and_materialization(self):
        findings = lint(
            """
            def f(ids):
                seen = set(ids)
                for i in seen:
                    use(i)
                return list({x for x in ids})
            """
        )
        assert codes_of(findings) == ["ITER001", "ITER001"]

    def test_sorted_and_membership_are_clean(self):
        findings = lint(
            """
            def f(ids):
                seen = set(ids)
                for i in sorted(seen):
                    use(i)
                return 3 in seen, len(seen)
            """
        )
        assert findings == []

    def test_set_algebra_result_is_tracked(self):
        findings = lint(
            """
            def f(a, b):
                extra = set(a) - set(b)
                return tuple(extra)
            """
        )
        assert codes_of(findings) == ["ITER001"]

    def test_suppression_works(self):
        findings = lint(
            """
            def f(ids):
                for i in set(ids):  # repro: allow[ITER001]
                    use(i)
            """
        )
        assert findings == []


class TestWallClockEnv:
    def test_fires_on_time_and_environ(self):
        findings = lint(
            """
            import os
            import time

            def f():
                return time.perf_counter(), os.environ["HOME"]
            """
        )
        assert codes_of(findings) == ["CLK001", "CLK001"]

    def test_runner_and_cli_are_exempt(self):
        source = "import time\n\n\ndef f():\n    return time.time()\n"
        assert lint(source, path="src/repro/experiments/runner.py") == []
        assert lint(source, path="src/repro/cli.py") == []
        assert codes_of(lint(source)) == ["CLK001"]

    def test_net_transport_package_is_exempt(self):
        # The asyncio runtime owns timeouts and loop clocks; its
        # determinism is gated behaviorally (lockstep oracle tests),
        # not by banning the clock.
        source = "import time\n\n\ndef f():\n    return time.monotonic()\n"
        assert lint(source, path="src/repro/net/transport.py") == []
        assert lint(source, path="src/repro/net/harness.py") == []
        # The sans-I/O machines the runtime drives stay in scope.
        assert codes_of(lint(source, path="src/repro/protocol/join.py")) == ["CLK001"]

    def test_from_time_import_fires(self):
        findings = lint("from time import perf_counter\n")
        assert codes_of(findings) == ["CLK001"]

    def test_suppression_works(self):
        findings = lint(
            """
            import time

            def f():
                return time.time()  # repro: allow[CLK001]
            """
        )
        assert findings == []


class TestDocstringContracts:
    def test_fires_on_missing_docstrings(self):
        findings = lint(
            "def public(x):\n    return x\n",
            path=ENGINE_PATH,
        )
        # Missing module docstring + missing function docstring.
        assert codes_of(findings) == ["DOC001", "DOC001"]

    def test_fires_when_rng_param_is_undocumented(self):
        findings = lint(
            '''
            """Module."""


            def measure(rng, n):
                """Counts things."""
                return n
            ''',
            path=ENGINE_PATH,
        )
        assert codes_of(findings) == ["DOC001"]
        assert "RNG stream" in findings[0].message

    def test_documented_rng_stream_is_clean(self):
        findings = lint(
            '''
            """Module."""


            def measure(rng, n):
                """Counts things.

                RNG-stream contract: consumes one uniform draw per item.
                """
                return n
            ''',
            path=ENGINE_PATH,
        )
        assert findings == []

    def test_only_engine_modules_are_checked(self):
        assert lint("def f(rng):\n    return rng\n") == []

    def test_suppression_works(self):
        findings = lint(
            '''"""Module."""


def measure(rng):  # repro: allow[DOC001]
    """Short."""
    return rng
''',
            path=ENGINE_PATH,
        )
        assert findings == []


class TestCacheGuard:
    """CACHE001: version-keyed cache reads need a version guard."""

    def test_fires_on_unguarded_cache_read(self):
        findings = lint(
            '''
            """Module."""


            class Engine:
                """E."""

                def serve(self):
                    """Serve."""
                    return self._route_cache.owner
            ''',
            path=ENGINE_PATH,
            codes=["CACHE001"],
        )
        assert codes_of(findings) == ["CACHE001"]
        assert "_route_cache" in findings[0].message

    def test_version_equality_guard_is_clean(self):
        findings = lint(
            '''
            """Module."""


            class Engine:
                """E."""

                def snapshot(self, version):
                    """Snapshot."""
                    if self._route_cache is None or self._route_cache.version != version:
                        self._route_cache = object()
                    return self._route_cache
            ''',
            path=ENGINE_PATH,
            codes=["CACHE001"],
        )
        assert findings == []

    def test_version_passed_to_cache_get_is_clean(self):
        findings = lint(
            '''
            """Module."""


            class Engine:
                """E."""

                def serve_one(self, key, version):
                    """Serve one key."""
                    return self.result_cache.get(key, version)
            ''',
            path=ENGINE_PATH,
            codes=["CACHE001"],
        )
        assert findings == []

    def test_writes_are_not_reads(self):
        findings = lint(
            '''
            """Module."""


            class Engine:
                """E."""

                def invalidate(self):
                    """Drop."""
                    self._route_cache = None
            ''',
            path=ENGINE_PATH,
            codes=["CACHE001"],
        )
        assert findings == []

    def test_non_engine_modules_are_out_of_scope(self):
        findings = lint(
            '''
            """Module."""


            def peek(store):
                """Peek."""
                return store.result_cache.hits
            ''',
            path=PLAIN_PATH,
            codes=["CACHE001"],
        )
        assert findings == []

    def test_suppression_works(self):
        findings = lint(
            '''"""Module."""


class Engine:
    """E."""

    def peek(self):
        """Expose the cache for tests."""
        return self._route_cache  # repro: allow[CACHE001] exposure-only
''',
            path=ENGINE_PATH,
            codes=["CACHE001"],
        )
        assert findings == []


class TestReporters:
    def make_result(self):
        findings = lint("import time\n\n\ndef f():\n    return time.time()\n")
        return RunResult(findings=findings, files_checked=1, suppressed=2)

    def test_text_report(self):
        text = render_text(self.make_result())
        assert "CLK001" in text
        assert "FAIL: 1 finding(s)" in text
        assert text.endswith("(2 suppressed)")

    def test_json_schema(self):
        payload = json.loads(render_json(self.make_result()))
        assert payload["schema"] == JSON_SCHEMA
        assert payload["clean"] is False
        assert payload["files_checked"] == 1
        assert payload["counts"] == {"CLK001": 1}
        assert payload["suppressed"] == 2
        assert set(payload) == {
            "schema",
            "clean",
            "files_checked",
            "counts",
            "suppressed",
            "findings",
        }
        finding = payload["findings"][0]
        assert set(finding) == {"path", "line", "col", "code", "message"}

    def test_clean_json_report(self):
        payload = json.loads(render_json(RunResult(files_checked=4)))
        assert payload["clean"] is True
        assert payload["findings"] == []


class TestRunLint:
    def test_run_over_directory(self, tmp_path):
        src = tmp_path / "pkg"
        src.mkdir()
        (src / "a.py").write_text(
            "import time\n\n\ndef f():\n    return time.time()\n"
        )
        (src / "b.py").write_text("x = 1\n")
        result = run_lint([src])
        assert codes_of(result.findings) == ["CLK001"]
        assert result.files_checked == 2

    def test_bad_path_is_config_error(self):
        with pytest.raises(ConfigError, match="no such file"):
            run_lint(["definitely/not/here"])

    def test_select_narrows_rules(self, tmp_path):
        src = tmp_path / "a.py"
        src.write_text("import random\nimport time\nt = time.time()\n")
        result = run_lint([src], select=["RNG001"])
        assert codes_of(result.findings) == ["RNG001"]
