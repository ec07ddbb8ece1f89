"""Result rendering: CSV files, terminal (ASCII) figures, markdown tables."""

from .ascii_chart import ascii_chart, format_table
from .csvout import write_series
from .markdown import (
    experiments_document,
    markdown_report,
    markdown_table,
    series_endpoints_table,
)

__all__ = [
    "ascii_chart",
    "experiments_document",
    "format_table",
    "markdown_report",
    "markdown_table",
    "series_endpoints_table",
    "write_series",
]
