"""Mercury baseline (Bharambe et al., SIGCOMM'04) — the comparator.

Histogram-learned harmonic long links over the same ring substrate:
:class:`MercuryOverlay` mirrors the Oscar facade so experiments swap the
two freely.
"""

from .construction import build_histogram, harmonic_rank_fraction
from .overlay import MercuryOverlay

__all__ = ["MercuryOverlay", "build_histogram", "harmonic_rank_fraction"]
