"""Process-resource gates for the benchmark CI.

:func:`max_rss_mb` reports the peak resident set of the current process
and :func:`check_rss_ceiling` turns it into a hard gate — the
million-peer smoke test uses it to pin the struct-of-arrays memory
footprint so per-peer object regressions fail loudly instead of
silently tripling RAM.
"""

from __future__ import annotations

import resource as _resource
import sys

from ..errors import SimulationError

__all__ = ["check_rss_ceiling", "max_rss_mb"]


def max_rss_mb() -> float:
    """Peak resident set size of this process, in MiB.

    ``getrusage`` reports ``ru_maxrss`` in KiB on Linux and in bytes on
    macOS; both are normalized here. The value is a high-water mark —
    it never decreases within a process lifetime.
    """
    peak = float(_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss)
    if sys.platform == "darwin":  # pragma: no cover - platform dependent
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def check_rss_ceiling(ceiling_mb: float) -> float:
    """Assert the process peak RSS is under ``ceiling_mb``; return it.

    Raises :class:`~repro.errors.SimulationError` when the high-water
    mark exceeds the ceiling — the benchmark-trajectory CI treats that
    as a failed gate, exactly like a wall-time regression.
    """
    peak = max_rss_mb()
    if peak > float(ceiling_mb):
        raise SimulationError(
            f"peak RSS {peak:.0f} MiB exceeds the {float(ceiling_mb):.0f} MiB ceiling"
        )
    return peak
