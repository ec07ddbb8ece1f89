"""Tests for terminal/CSV reporting (repro.reporting)."""

from __future__ import annotations

import csv

import pytest

from repro.reporting import ascii_chart, format_table, write_series


class TestAsciiChart:
    SERIES = {
        "constant": [(2000.0, 5.0), (6000.0, 6.0), (10000.0, 6.5)],
        "realistic": [(2000.0, 5.2), (6000.0, 6.1), (10000.0, 6.4)],
    }

    def test_contains_title_and_legend(self):
        text = ascii_chart(self.SERIES, title="fig1c")
        assert "fig1c" in text
        assert "o=constant" in text
        assert "x=realistic" in text

    def test_axis_ranges_rendered(self):
        text = ascii_chart(self.SERIES)
        assert "2000" in text
        assert "1e+04" in text or "10000" in text

    def test_marker_cells_present(self):
        # Series far enough apart that markers cannot overdraw each other.
        series = {
            "low": [(0.0, 1.0), (10.0, 1.5)],
            "high": [(0.0, 9.0), (10.0, 9.5)],
        }
        text = ascii_chart(series, width=40, height=10)
        body = [line for line in text.splitlines() if "|" in line]
        assert sum(line.count("o") for line in body) >= 2
        assert sum(line.count("x") for line in body) >= 2

    def test_requested_dimensions(self):
        text = ascii_chart(self.SERIES, width=30, height=8)
        rows = [line for line in text.splitlines() if "|" in line]
        assert len(rows) == 8
        assert all(len(line.split("|", 1)[1]) == 30 for line in rows)

    def test_empty_series(self):
        assert "<no data>" in ascii_chart({}, title="empty")

    def test_log_axes(self):
        series = {"pdf": [(1.0, 0.1), (10.0, 0.01), (100.0, 0.001)]}
        text = ascii_chart(series, log_x=True, log_y=True)
        assert "pdf" in text

    def test_log_axis_rejects_nonpositive(self):
        series = {"bad": [(0.0, 1.0)]}
        with pytest.raises(ValueError):
            ascii_chart(series, log_x=True)
        with pytest.raises(ValueError):
            ascii_chart({"bad": [(1.0, 0.0)]}, log_y=True)

    def test_linear_y_axis_anchored_at_zero(self):
        text = ascii_chart({"s": [(0.0, 5.0), (1.0, 6.0)]})
        assert " 0 |" in text or "0 |" in text

    def test_single_point(self):
        text = ascii_chart({"dot": [(1.0, 1.0)]})
        assert "dot" in text


class TestFormatTable:
    def test_header_and_rule(self):
        text = format_table(("name", "value"), [("cost", 5.1234), ("volume", 0.85)])
        lines = text.splitlines()
        assert "name" in lines[0]
        assert set(lines[1]) <= {"-", " "}
        assert "5.123" in text
        assert "0.850" in text

    def test_column_alignment(self):
        text = format_table(("a", "b"), [("x", 1.0), ("longer", 2.0)])
        lines = text.splitlines()
        assert len({len(line) for line in lines if line}) == 1

    def test_non_float_cells(self):
        text = format_table(("k", "v"), [("n", 10), ("flag", True)])
        assert "10" in text and "True" in text


class TestCsvWriters:
    def test_write_rows_roundtrip(self, tmp_path):
        # write_series writes one row per point; reading the file back
        # gives every value as written, ints and floats alike.
        series = {"a": [(1, 2.5), (3, 0.125)], "b": [(4.0, 7)]}
        path = write_series(tmp_path / "out.csv", series)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows == [
            ["series", "x", "y"],
            ["a", "1", "2.5"],
            ["a", "3", "0.125"],
            ["b", "4.0", "7"],
        ]
        read_back: dict[str, list[tuple[float, float]]] = {}
        for name, x, y in rows[1:]:
            read_back.setdefault(name, []).append((float(x), float(y)))
        assert read_back == series

    def test_write_series_long_format(self, tmp_path):
        path = write_series(
            tmp_path / "series.csv",
            {"constant": [(1.0, 2.0)], "stepped": [(3.0, 4.0), (5.0, 6.0)]},
        )
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        # Header first, then every point in series order, point order kept.
        assert rows == [
            ["series", "x", "y"],
            ["constant", "1.0", "2.0"],
            ["stepped", "3.0", "4.0"],
            ["stepped", "5.0", "6.0"],
        ]

    def test_write_series_creates_parents(self, tmp_path):
        path = write_series(tmp_path / "deep" / "dir" / "out.csv", {"c": [(1.0, 2.0)]})
        assert path.exists()
        assert path == path.resolve()

    def test_write_series_empty(self, tmp_path):
        path = write_series(tmp_path / "empty.csv", {})
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows == [["series", "x", "y"]]

    def test_overwrite_existing(self, tmp_path):
        target = tmp_path / "out.csv"
        write_series(target, {"a": [(1.0, 1.0)]})
        write_series(target, {"b": [(2.0, 2.0)]})
        with open(target, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows == [["series", "x", "y"], ["b", "2.0", "2.0"]]
