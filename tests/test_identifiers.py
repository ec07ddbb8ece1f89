"""Unit + property tests for circular identifier arithmetic."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.protocol.decisions import cw_closer
from repro.ring.identifiers import (
    KeyspaceError,
    ccw_distance,
    circular_distance,
    cw_distance,
    cw_distances,
    cw_midpoint,
    in_closed_cw_range,
    in_cw_interval,
    normalize,
)

keys = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False)


class TestNormalize:
    def test_identity_inside_range(self):
        assert normalize(0.25) == 0.25

    def test_wraps_above_one(self):
        assert normalize(1.25) == pytest.approx(0.25)

    def test_wraps_negative(self):
        assert normalize(-0.25) == pytest.approx(0.75)

    def test_exact_multiple_maps_to_zero(self):
        assert normalize(3.0) == 0.0

    def test_rejects_nan(self):
        with pytest.raises(KeyspaceError):
            normalize(float("nan"))

    def test_rejects_infinity(self):
        with pytest.raises(KeyspaceError):
            normalize(math.inf)

    @given(st.floats(min_value=-100, max_value=100, allow_nan=False))
    def test_always_lands_in_unit_interval(self, value):
        assert 0.0 <= normalize(value) < 1.0


class TestCwDistance:
    def test_forward(self):
        assert cw_distance(0.2, 0.5) == pytest.approx(0.3)

    def test_wrapping(self):
        assert cw_distance(0.9, 0.1) == pytest.approx(0.2)

    def test_zero_for_equal(self):
        assert cw_distance(0.4, 0.4) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(KeyspaceError):
            cw_distance(1.0, 0.5)
        with pytest.raises(KeyspaceError):
            cw_distance(0.5, -0.1)

    @given(keys, keys)
    def test_in_unit_range(self, a, b):
        assert 0.0 <= cw_distance(a, b) < 1.0

    @given(keys, keys)
    def test_cw_plus_ccw_is_full_circle(self, a, b):
        if a != b:
            assert cw_distance(a, b) + ccw_distance(a, b) == pytest.approx(1.0)

    @given(keys, keys)
    def test_ccw_is_reversed_cw(self, a, b):
        assert ccw_distance(a, b) == cw_distance(b, a)


class TestCircularDistance:
    def test_shortest_arc(self):
        assert circular_distance(0.9, 0.1) == pytest.approx(0.2)

    def test_never_more_than_half(self):
        assert circular_distance(0.0, 0.5) == pytest.approx(0.5)

    @given(keys, keys)
    def test_symmetric(self, a, b):
        assert circular_distance(a, b) == pytest.approx(circular_distance(b, a))

    @given(keys, keys)
    def test_bounded_by_half(self, a, b):
        assert circular_distance(a, b) <= 0.5

    @given(keys, keys, keys)
    def test_triangle_inequality(self, a, b, c):
        assert circular_distance(a, c) <= circular_distance(a, b) + circular_distance(b, c) + 1e-12


class TestInCwInterval:
    def test_simple_interval(self):
        assert in_cw_interval(0.3, 0.2, 0.5)

    def test_excludes_start(self):
        assert not in_cw_interval(0.2, 0.2, 0.5)

    def test_includes_end(self):
        assert in_cw_interval(0.5, 0.2, 0.5)

    def test_wrapped_interval(self):
        assert in_cw_interval(0.05, 0.9, 0.1)
        assert in_cw_interval(0.95, 0.9, 0.1)
        assert not in_cw_interval(0.5, 0.9, 0.1)

    def test_degenerate_is_whole_circle(self):
        assert in_cw_interval(0.123, 0.4, 0.4)

    def test_degenerate_excludes_nothing_but_start_point_is_included(self):
        # start == end means the whole circle, including the point itself
        assert in_cw_interval(0.4, 0.4, 0.4)

    @given(keys, keys, keys)
    def test_every_key_is_in_exactly_one_half(self, key, start, mid):
        if start == mid or key == start or key == mid:
            return
        first = in_cw_interval(key, start, mid)
        second = in_cw_interval(key, mid, start)
        assert first != second


class TestMidpointAndVectorized:
    def test_midpoint_simple(self):
        assert cw_midpoint(0.2, 0.4) == pytest.approx(0.3)

    def test_midpoint_wrapping(self):
        assert cw_midpoint(0.9, 0.1) == pytest.approx(0.0)

    @given(keys, keys)
    def test_midpoint_is_equidistant(self, a, b):
        mid = cw_midpoint(a, b)
        assert cw_distance(a, mid) == pytest.approx(cw_distance(mid, b), abs=1e-9)

    def test_cw_distances_matches_scalar(self):
        targets = np.array([0.1, 0.5, 0.9])
        got = cw_distances(0.4, targets)
        expected = [cw_distance(0.4, float(t)) for t in targets]
        np.testing.assert_allclose(got, expected)

    def test_cw_distances_rejects_out_of_range(self):
        with pytest.raises(KeyspaceError):
            cw_distances(0.4, np.array([1.5]))

    def test_cw_distances_accepts_iterables(self):
        got = cw_distances(0.0, [0.25, 0.75])
        np.testing.assert_allclose(got, [0.25, 0.75])


# ----------------------------------------------------------------------
# Boundary-audit properties (the float-rounding bug class)
# ----------------------------------------------------------------------

denormal_keys = st.sampled_from(
    [
        0.0,
        5e-324,
        1.4e-45,
        1e-300,
        2.0**-64,
        2.0**-53,
        math.nextafter(1.0, 0.0),
        math.nextafter(math.nextafter(1.0, 0.0), 0.0),
        0.1,
        math.nextafter(0.1, 0.0),
        math.nextafter(0.1, 1.0),
    ]
)
boundary_keys = keys | denormal_keys


class TestVectorScalarParity:
    """`cw_distances` must agree with the scalar `cw_distance` bit for
    bit — including the >= 1.0 rounding clamp — on denormals and values
    adjacent to the 0.0/1.0 wrap."""

    @given(origin=boundary_keys, batch=st.lists(boundary_keys, min_size=1, max_size=30))
    def test_cw_distances_matches_scalar(self, origin, batch):
        vectorized = cw_distances(origin, np.array(batch, dtype=float))
        for key, got in zip(batch, vectorized):
            assert float(got) == cw_distance(origin, key)

    def test_clamp_parity_at_the_wrap(self):
        # A key a denormal step counter-clockwise of the origin rounds to
        # a full-circle distance; both paths must clamp below 1.0.
        origin = 0.1
        key = math.nextafter(origin, 0.0)
        scalar = cw_distance(origin, key)
        vector = float(cw_distances(origin, np.array([key]))[0])
        assert scalar == vector == math.nextafter(1.0, 0.0)

    def test_1e6_random_pairs_bitwise_parity(self):
        rng = np.random.default_rng(97)
        origins = rng.random(4)
        batch = np.concatenate([rng.random(250_000 - 6), np.array(
            [0.0, 5e-324, 1e-300, 2.0**-64, math.nextafter(1.0, 0.0), 0.5]
        )])
        for origin in origins:
            vectorized = cw_distances(float(origin), batch)
            # Independent elementwise recomputation of the scalar rule.
            expected = (batch - float(origin)) % 1.0
            expected[expected >= 1.0] = math.nextafter(1.0, 0.0)
            assert np.array_equal(vectorized, expected)
            spot = rng.integers(0, batch.size, 2_000)
            for i in spot:
                assert float(vectorized[i]) == cw_distance(float(origin), float(batch[i]))


class TestMetricPredicateAgreement:
    """The float metric is coarser than the comparison predicate; the
    one-sided guarantee (predicate-inside implies metric-inside) is what
    `PartitionTable.partition_of` leans on."""

    @given(key=boundary_keys, start=boundary_keys, end=boundary_keys)
    def test_predicate_inside_implies_metric_inside(self, key, start, end):
        if in_cw_interval(key, start, end) and start != end:
            assert cw_distance(start, key) <= cw_distance(start, end)

    @given(origin=boundary_keys, a=boundary_keys, b=boundary_keys)
    def test_cw_closer_consistent_with_metric(self, origin, a, b):
        # Exact order refines the rounded metric: strictly-closer in
        # exact terms can never measure strictly farther.
        if cw_closer(origin, a, b):
            assert cw_distance(origin, a) <= cw_distance(origin, b)

    @given(origin=boundary_keys, a=boundary_keys, b=boundary_keys, c=boundary_keys)
    def test_cw_closer_is_a_strict_total_order(self, origin, a, b, c):
        assert not cw_closer(origin, a, a)
        if a != b:
            assert cw_closer(origin, a, b) != cw_closer(origin, b, a)
        if cw_closer(origin, a, b) and cw_closer(origin, b, c):
            assert cw_closer(origin, a, c)


class TestInClosedCwRange:
    def test_point_range(self):
        assert in_closed_cw_range(0.3, 0.3, 0.3)
        assert not in_closed_cw_range(0.300001, 0.3, 0.3)

    def test_lo_belongs_to_wrapped_range(self):
        # The PR 2 regression: a key exactly at `lo` of a wrapped range.
        assert in_closed_cw_range(0.9, 0.9, 0.1)
        assert in_closed_cw_range(0.95, 0.9, 0.1)
        assert in_closed_cw_range(0.1, 0.9, 0.1)
        assert not in_closed_cw_range(0.5, 0.9, 0.1)

    @given(key=boundary_keys, lo=boundary_keys, hi=boundary_keys)
    def test_closed_range_is_interval_plus_lo(self, key, lo, hi):
        expected = key == lo if lo == hi else (key == lo or in_cw_interval(key, lo, hi))
        assert in_closed_cw_range(key, lo, hi) == expected
