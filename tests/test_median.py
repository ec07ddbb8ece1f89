"""Tests for the clockwise sample median every partition border takes
(``repro.protocol.estimation.select_border``)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import InsufficientSamplesError
from repro.protocol import select_border
from repro.ring.keyspace import from_unit, from_units

# Positions at or above 2**-11 are lossless keys: distinct floats, distinct
# key cells, so the exact key rank is the exact clockwise float order.
cells = st.floats(min_value=2.0**-11, max_value=1.0, exclude_max=True)


def cw_median(origin: float, samples) -> float:
    """``select_border``'s border over float samples: the keys are the
    samples' key cells, the anchor the origin's (the clamp is not asked)."""
    positions = [float(p) for p in samples]
    sample_keys = [int(k) for k in from_units(positions)]
    border, __ = select_border(from_unit(origin), origin, origin, sample_keys, positions)
    return border


class TestLowerMedianIndex:
    """The border is the sample at clockwise rank ``(n - 1) // 2`` — the
    lower median, an actual peer, never a midpoint — in any draw order."""

    @pytest.mark.parametrize(
        ("n", "expected"),
        [(1, 0), (2, 0), (3, 1), (4, 1), (5, 2), (10, 4), (11, 5)],
    )
    def test_known_values(self, n, expected):
        ordered = [(i + 1) / 32 for i in range(n)]
        assert cw_median(0.0, ordered[::-1]) == ordered[expected]

    @given(st.integers(min_value=1, max_value=200))
    def test_always_a_valid_index(self, n):
        ordered = [(i + 1) / 256 for i in range(n)]
        assert cw_median(0.0, ordered[::-1]) == ordered[(n - 1) // 2]


class TestCwSampleMedian:
    def test_simple_no_wrap(self):
        samples = np.array([0.2, 0.4, 0.6])
        assert cw_median(0.0, samples) == pytest.approx(0.4)

    def test_median_is_a_sample(self):
        samples = np.array([0.15, 0.35, 0.55, 0.75, 0.95])
        result = cw_median(0.1, samples)
        assert result in samples

    def test_wraps_around_origin(self):
        # From origin 0.9, clockwise order is 0.95, 0.05, 0.15.
        samples = np.array([0.05, 0.15, 0.95])
        assert cw_median(0.9, samples) == pytest.approx(0.05)

    def test_even_count_takes_lower_middle(self):
        samples = np.array([0.1, 0.2, 0.3, 0.4])
        assert cw_median(0.0, samples) == pytest.approx(0.2)

    def test_duplicates_are_legal(self):
        samples = np.array([0.3, 0.3, 0.3, 0.7])
        assert cw_median(0.0, samples) == pytest.approx(0.3)

    def test_rejects_empty(self):
        with pytest.raises(InsufficientSamplesError):
            select_border(0, 0.0, 0.5, [], [])

    @given(origin=cells, samples=st.lists(cells, min_size=1, max_size=40))
    def test_median_halves_the_sample(self, origin, samples):
        arr = np.array(samples)
        median = cw_median(origin, arr)
        # Distances computed the float way; the returned key may differ
        # from the winning sample by one rounding ulp, so compare with a
        # small tolerance.
        d_median = float((median - origin) % 1.0)
        distances = (arr - origin) % 1.0
        at_or_before = int((distances <= d_median + 1e-9).sum())
        # The lower median must have at least half the samples at or
        # before it in clockwise order.
        assert at_or_before >= (len(samples) + 1) // 2

    # Dyadic grid keys (multiples of 1/1024) make circle arithmetic
    # exact, so equivariance holds with equality rather than tolerance.
    dyadic = st.integers(min_value=0, max_value=1023).map(lambda i: i / 1024.0)

    @given(
        origin=dyadic,
        samples=st.lists(dyadic, min_size=1, max_size=40),
        shift=dyadic,
    )
    def test_rotation_equivariance(self, origin, samples, shift):
        # Rotating origin and samples together rotates the median.
        arr = np.array(samples)
        base = cw_median(origin, arr)
        rotated = cw_median((origin + shift) % 1.0, (arr + shift) % 1.0)
        expected = (base + shift) % 1.0
        assert rotated == pytest.approx(expected, abs=1e-12)


class TestExactTieAtBorder:
    """Boundary audit: samples whose float distances collapse (or round
    onto the full circle) still rank in true clockwise key order."""

    def test_sample_behind_origin_ranks_last_not_first(self):
        # A sample one ulp counter-clockwise of the origin is a whole
        # circle away: it sorts last, so the median of three is 0.75.
        origin = 0.5
        behind = math.nextafter(origin, 0.0)
        assert cw_median(origin, np.array([behind, 0.6, 0.75])) == 0.75
        # Inside the origin's own 2**-64 key cell the rank is the key
        # distance, 0 on either side: 0.0 sorts first behind an origin
        # of 2**-70 — the engine's rank, which every peer shares.
        assert cw_median(2.0**-70, np.array([0.0, 0.5, 0.75])) == 0.5

    def test_collapsed_float_distances_order_exactly(self):
        # 0.0 and 2**-60 both measure float distance exactly 0.9 from
        # origin 0.1 (subtractive rounding) but sit in distinct key
        # cells; the key rank orders 0.0 first whatever the draw order.
        # The returned float is the same either way (ties reconstruct
        # the same distance), which is what keeps stored artifacts stable.
        origin = 0.1
        for samples in ([0.0, 2.0**-60], [2.0**-60, 0.0]):
            arr = np.array(samples)
            assert float(((arr - origin) % 1.0)[0]) == float(((arr - origin) % 1.0)[1])
            assert from_unit(samples[0]) != from_unit(samples[1])
            assert cw_median(origin, arr) == cw_median(origin, arr[::-1]) == 0.0

    def test_full_circle_rounding_does_not_escape_the_order(self):
        # A sample one ulp counter-clockwise of the origin has float
        # distance rounding to exactly 1.0; it must rank last, not
        # shadow the true nearest sample.
        origin = 0.5
        behind = math.nextafter(origin, 0.0)
        assert cw_median(origin, np.array([behind, 0.6])) == 0.6
