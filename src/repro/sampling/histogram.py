"""Equi-width histogram density estimation (Mercury's learner).

Mercury approximates the distribution of peer positions with a fixed
number of *equal-width* buckets filled from uniformly sampled peers, then
inverts the resulting piecewise-linear CDF to translate desired rank
distances into key-space targets.

This "uniform resolution" is precisely the weakness the Oscar paper
exploits: a multiplicative-cascade key distribution concentrates almost
all peers in a few buckets, where the linear interpolation is badly
wrong, so Mercury's long links land at distorted rank distances. The
histogram is implemented faithfully (not strawmanned): it is exactly
right whenever the true density is piecewise-constant at bucket
granularity, and tests verify that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import InsufficientSamplesError, SamplingError
from ..ring.identifiers import normalize

__all__ = ["NodeDensityHistogram"]


@dataclass(frozen=True, eq=False)
class NodeDensityHistogram:
    """A normalized equi-width histogram over the key circle ``[0, 1)``.

    Attributes:
        cumulative: Array of length ``buckets + 1``;
            ``cumulative[i]`` is the estimated fraction of peers with
            position below ``i / buckets``. Monotone, ``[0] == 0``,
            ``[-1] == 1``.
    """

    cumulative: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NodeDensityHistogram):
            return NotImplemented
        return np.array_equal(self.cumulative, other.cumulative)

    __hash__ = None  # type: ignore[assignment]  # holds an array

    @property
    def buckets(self) -> int:
        """Number of equi-width buckets."""
        return self.cumulative.size - 1

    @classmethod
    def from_samples(cls, positions: np.ndarray, buckets: int) -> "NodeDensityHistogram":
        """Build the estimator from sampled peer positions.

        Empty buckets are kept empty (no smoothing): Mercury exchanges raw
        histograms. At least one sample is required.
        """
        arr = np.asarray(positions, dtype=float)
        if arr.size == 0:
            raise InsufficientSamplesError(needed=1, got=0)
        if buckets < 1:
            raise SamplingError(f"buckets must be >= 1, got {buckets}")
        if (arr < 0.0).any() or (arr >= 1.0).any():
            raise SamplingError("sample positions must lie in [0, 1)")
        counts, __ = np.histogram(arr, bins=buckets, range=(0.0, 1.0))
        cumulative = np.concatenate(([0.0], np.cumsum(counts, dtype=float)))
        cumulative /= cumulative[-1]
        return cls(cumulative=cumulative)

    def cdf(self, key: float) -> float:
        """Estimated fraction of peers with position <= ``key``.

        Piecewise linear within buckets (uniform density assumption).
        """
        if not 0.0 <= key <= 1.0:
            raise SamplingError(f"key must be in [0, 1], got {key!r}")
        scaled = key * self.buckets
        idx = min(self.buckets - 1, int(scaled))
        frac = scaled - idx
        lo = self.cumulative[idx]
        hi = self.cumulative[idx + 1]
        return float(lo + (hi - lo) * frac)

    def quantile(self, mass: float) -> float:
        """Smallest key whose :meth:`cdf` reaches ``mass`` (inverse CDF)."""
        if not 0.0 <= mass <= 1.0:
            raise SamplingError(f"mass must be in [0, 1], got {mass!r}")
        if mass <= 0.0:
            return 0.0
        if mass >= 1.0:
            # The supremum of the key circle: the largest float < 1.0
            # (``1.0 - eps`` undershot it by one ulp — a key sitting in
            # the topmost float cell was beyond the "full mass" key).
            return math.nextafter(1.0, 0.0)
        idx = int(np.searchsorted(self.cumulative, mass, side="left"))
        idx = max(1, min(self.buckets, idx))
        lo = self.cumulative[idx - 1]
        hi = self.cumulative[idx]
        if hi <= lo:  # empty bucket: snap to its left edge
            frac = 0.0
        else:
            frac = (mass - lo) / (hi - lo)
        # `idx - 1 + frac` can round up to `buckets` when `frac` is one
        # ulp below 1.0 (hypothesis-found), which would escape [0, 1);
        # clamp to the circle's supremum like the full-mass branch.
        return min(float((idx - 1 + frac) / self.buckets), math.nextafter(1.0, 0.0))

    def key_at_cw_fraction(self, origin: float, fraction: float) -> float:
        """Key reached after sweeping ``fraction`` of the peer mass
        clockwise from ``origin``.

        This is Mercury's rank-to-key translation: a node wanting a long
        link at (normalized) rank distance ``fraction`` computes the key
        it believes sits that many peers away and links to the peer
        responsible for it.
        """
        if not 0.0 < fraction <= 1.0:
            raise SamplingError(f"fraction must be in (0, 1], got {fraction!r}")
        start_mass = self.cdf(normalize(origin))
        target_mass = start_mass + fraction
        if target_mass >= 1.0:
            target_mass -= 1.0
        return normalize(self.quantile(target_mass))
