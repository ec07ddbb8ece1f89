"""Tests for markdown rendering (repro.reporting.markdown)."""

from __future__ import annotations

import pytest

from repro.experiments.base import ExperimentResult
from repro.reporting import (
    experiments_document,
    markdown_report,
    markdown_table,
    series_endpoints_table,
)


class TestMarkdownTable:
    def test_basic_structure(self):
        text = markdown_table(("a", "b"), [(1, 2.5), ("x", "y")])
        lines = text.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert lines[2] == "| 1 | 2.500 |"
        assert lines[3] == "| x | y |"

    def test_pipe_escaping(self):
        text = markdown_table(("k",), [("a|b",)])
        assert "a\\|b" in text

    def test_empty_header_rejected(self):
        with pytest.raises(ValueError):
            markdown_table((), [])

    def test_ragged_row_rejected(self):
        with pytest.raises(ValueError):
            markdown_table(("a", "b"), [(1,)])

    def test_no_rows_is_fine(self):
        text = markdown_table(("only", "header"), [])
        assert len(text.splitlines()) == 2


class TestSeriesEndpointsTable:
    def test_first_and_last_point_per_series(self):
        text = series_endpoints_table(
            {"constant": [(2000.0, 5.1), (10000.0, 6.6)]},
            x_label="size",
            y_label="cost",
        )
        assert "constant" in text
        assert "2000" in text and "10000" in text
        assert "5.100" in text and "6.600" in text

    def test_empty_series_skipped(self):
        text = series_endpoints_table({"empty": [], "full": [(1.0, 2.0)]})
        assert "full" in text
        assert "empty" not in text

    def test_single_point_series(self):
        text = series_endpoints_table({"dot": [(3.0, 4.0)]})
        assert text.count("3") >= 2  # first == last


class TestMarkdownReport:
    def make_result(self) -> ExperimentResult:
        return ExperimentResult(
            experiment_id="fig1c",
            title="Search cost vs size",
            series={"constant": [(2000.0, 5.0), (10000.0, 6.5)]},
            scalars={"final_cost_constant": 6.5},
            metadata={"seed": 42, "scale": 1.0},
        )

    def test_report_sections(self):
        text = markdown_report(self.make_result())
        assert text.startswith("### `fig1c` — Search cost vs size")
        assert "| constant |" in text
        assert "| final_cost_constant | 6.500 |" in text
        assert "`seed=42`" in text

    def test_report_without_series(self):
        result = ExperimentResult(experiment_id="x", title="t", scalars={"v": 1.0})
        text = markdown_report(result)
        assert "### `x`" in text
        assert "| v | 1.000 |" in text

    def test_report_ends_with_newline(self):
        assert markdown_report(self.make_result()).endswith("\n")


class TestExperimentsDocument:
    def test_index_and_sections(self):
        result = ExperimentResult(
            experiment_id="fig1c",
            title="Search cost vs size",
            series={"constant": [(2000.0, 5.0), (10000.0, 6.5)]},
            scalars={"final_cost_constant": 6.5},
            metadata={"seed": 42, "scale": 0.05, "oscar_config": None},
        )
        text = experiments_document([(result, {"scale": 0.05, "seed": 42}, 3.25)])
        assert text.startswith("# Experiment record")
        assert "do not edit by hand" in text
        assert "[`fig1c`](#fig1c)" in text  # index row links to the section
        assert "| 0.050 | 42 | 3.2s |" in text  # index row: scale, seed, wall time
        assert "### `fig1c`" in text
        # The section lists the stamped parameters once, None ones left out.
        assert text.count("`scale=0.05`") == 1
        assert "Parameters: `scale=0.05`, `seed=42`" in text
        assert "oscar_config" not in text
        assert text.endswith("\n")

    def test_multiple_runs_keep_order(self):
        results = [
            (ExperimentResult(experiment_id=i, title=i), {"scale": 1.0, "seed": 1}, 0.1)
            for i in ("a", "b")
        ]
        text = experiments_document(results)
        assert text.index("### `a`") < text.index("### `b`")
