"""CSV output for experiment results.

Plain ``csv`` from the standard library; every experiment writes one
tidy file per run (``series, x, y`` long format) so downstream plotting
in any tool is a one-liner.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Mapping, Sequence

__all__ = ["write_series"]


def write_series(path: str | Path, series: Mapping[str, Sequence[tuple[float, float]]]) -> Path:
    """Write named (x, y) series in long format, ``series,x,y``, creating
    parent directories; returns the resolved path for logging."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("series", "x", "y"))
        writer.writerows((name, x, y) for name, points in series.items() for x, y in points)
    return target.resolve()
