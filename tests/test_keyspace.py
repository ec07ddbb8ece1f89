"""Tests for the exact 64-bit fixed-point keyspace (repro.ring.keyspace).

Covers the adapter contract (lossless round trips where the contract
promises them), exactness/totality of the scalar modular arithmetic, the
metric/predicate agreement the module guarantees *by construction*, and
bit-equivalence of every vectorized kernel with its scalar twin on 10^6
random values — including denormals and values adjacent to the 0.0/1.0
wrap, the inputs that broke the float-era geometry.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ring import keyspace
from repro.ring.keyspace import (
    KEY_MASK,
    KEY_MOD,
    KeyspaceError,
    ccw_distance,
    check_key,
    cw_distance,
    cw_distances,
    cw_rank_key,
    from_unit,
    from_units,
    in_cw_interval,
    in_cw_intervals,
    midpoint,
    to_unit,
    to_units,
)

ONE_BELOW_ONE = math.nextafter(1.0, 0.0)

#: Floats that historically broke subtractive geometry: zeros, denormals,
#: values adjacent to the wrap, and sub-resolution separations.
EDGE_UNITS = [
    0.0,
    5e-324,  # smallest denormal
    1.4e-45,
    1e-300,
    2.0**-64,
    math.nextafter(2.0**-64, 0.0),
    2.0**-53,
    2.0**-11,
    math.nextafter(2.0**-11, 0.0),
    0.1,
    0.5,
    math.nextafter(0.5, 0.0),
    0.9,
    ONE_BELOW_ONE,
    math.nextafter(ONE_BELOW_ONE, 0.0),
]

#: Keys at the circle's edges and at the adapters' exactness thresholds.
EDGE_KEYS = [
    0,
    1,
    2,
    (1 << 52) - 1,
    1 << 52,
    (1 << 53) - 1,
    1 << 53,
    1 << 63,
    KEY_MOD - (1 << 11),
    KEY_MOD - 1,
]

unit_floats = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False)
edge_or_random = unit_floats | st.sampled_from(EDGE_UNITS)
keys_st = st.integers(min_value=0, max_value=KEY_MOD - 1)


def rng():
    return np.random.default_rng(20260729)


def random_unit_pool(n: int) -> np.ndarray:
    """``n`` floats in [0, 1): uniform bulk plus the edge cases and a
    denormal-scale stripe."""
    generator = rng()
    bulk = generator.random(n - 2 * len(EDGE_UNITS) - 1000)
    tiny = generator.random(1000) * 1e-300  # deep denormal / sub-resolution stripe
    edges = np.array(EDGE_UNITS, dtype=float)
    return np.concatenate([bulk, tiny, edges, edges])


class TestAdapters:
    def test_from_unit_edge_values(self):
        assert from_unit(0.0) == 0
        assert from_unit(5e-324) == 0  # below resolution: floor to cell 0
        assert from_unit(2.0**-64) == 1
        assert from_unit(math.nextafter(2.0**-64, 0.0)) == 0
        assert from_unit(0.5) == 1 << 63
        assert from_unit(ONE_BELOW_ONE) == KEY_MOD - (1 << 11)

    def test_from_unit_rejects_out_of_domain(self):
        for bad in (1.0, -0.1, math.inf, -math.inf, math.nan, 2.0):
            with pytest.raises(KeyspaceError):
                from_unit(bad)

    def test_to_unit_edges_and_clamp(self):
        assert to_unit(0) == 0.0
        assert to_unit(1 << 63) == 0.5
        assert to_unit(KEY_MOD - 1) == ONE_BELOW_ONE  # clamped below 1.0
        assert to_unit(KEY_MOD - (1 << 11)) == ONE_BELOW_ONE

    def test_check_key_rejects_out_of_domain(self):
        for bad in (-1, KEY_MOD, KEY_MOD + 5):
            with pytest.raises(KeyspaceError):
                check_key(bad)

    @given(st.floats(min_value=2.0**-11, max_value=1.0, exclude_max=True))
    def test_unit_round_trip_lossless_at_or_above_resolution_ulp(self, x):
        # The documented lossless regime: ulp(x) >= 2**-64.
        assert to_unit(from_unit(x)) == x

    @given(edge_or_random)
    def test_to_unit_of_from_unit_within_one_cell(self, x):
        # Below 2**-11 the adapter quantizes to the floor of the cell.
        back = to_unit(from_unit(x))
        assert 0.0 <= back <= x
        assert x - back < 2.0**-64 + 1e-300

    @given(keys_st)
    def test_section_property(self, k):
        # to_unit is a section of from_unit over its image.
        assert from_unit(to_unit(from_unit(to_unit(k)))) == from_unit(to_unit(k))

    def test_key_round_trip_on_edge_keys(self):
        for k in EDGE_KEYS:
            representable = (k < (1 << 53)) or (k % (1 << 11) == 0)
            if representable and k < KEY_MOD - (1 << 10):  # clamp region excluded
                assert from_unit(to_unit(k)) == k, k

    @given(st.integers(min_value=0, max_value=(1 << 53) - 1))
    def test_key_round_trip_below_2_53(self, k):
        assert from_unit(to_unit(k)) == k

    @given(edge_or_random, edge_or_random)
    def test_from_unit_is_monotone(self, x, y):
        if x <= y:
            assert from_unit(x) <= from_unit(y)
        else:
            assert from_unit(x) >= from_unit(y)


class TestScalarGeometry:
    @given(keys_st, keys_st)
    def test_cw_plus_ccw_is_full_circle(self, a, b):
        if a == b:
            assert cw_distance(a, b) == 0 and ccw_distance(a, b) == 0
        else:
            assert cw_distance(a, b) + ccw_distance(a, b) == KEY_MOD

    @given(keys_st, keys_st)
    def test_distance_is_total_and_in_range(self, a, b):
        d = cw_distance(a, b)
        assert 0 <= d < KEY_MOD
        assert (a + d) & KEY_MASK == b  # the defining identity, exactly

    @given(keys_st, keys_st, keys_st)
    def test_metric_and_predicate_agree_by_construction(self, key, start, end):
        inside = in_cw_interval(key, start, end)
        if start == end:
            assert inside  # whole circle
        else:
            assert inside == (0 < cw_distance(start, key) <= cw_distance(start, end))

    @given(keys_st, keys_st)
    def test_midpoint_halves_the_arc(self, a, b):
        mid = midpoint(a, b)
        assert cw_distance(a, mid) == cw_distance(a, b) >> 1
        if a != b:
            assert in_cw_interval(mid, a, b) or mid == a  # odd spans floor toward a

    def test_midpoint_wraps(self):
        assert midpoint(KEY_MOD - 1, 1) == 0

    def test_cw_rank_key_orders_clockwise(self):
        origin = from_unit(0.9)
        ring_keys = [from_unit(x) for x in (0.95, 0.1, 0.5, 0.89)]
        ordered = [cw_rank_key(origin, ring_keys, r) for r in range(4)]
        assert ordered == [from_unit(x) for x in (0.95, 0.1, 0.5, 0.89)]

    def test_cw_rank_key_validates(self):
        with pytest.raises(KeyspaceError):
            cw_rank_key(0, [], 0)
        with pytest.raises(KeyspaceError):
            cw_rank_key(0, [1, 2], 2)


class TestVectorScalarEquivalence:
    """Every kernel must equal its scalar twin bit-for-bit — asserted on
    10^6 values/pairs spanning uniform, denormal and edge regimes."""

    N = 1_000_000

    def test_from_units_matches_scalar_on_1e6(self):
        pool = random_unit_pool(self.N)
        vec = from_units(pool)
        # Scalar spot-set: all edges + a deterministic 20k subsample.
        idx = rng().integers(0, pool.size, 20_000)
        idx = np.concatenate([idx, np.arange(pool.size - 2 * len(EDGE_UNITS), pool.size)])
        for i in idx:
            assert int(vec[i]) == from_unit(float(pool[i]))
        # Full-width check against an independent exact formulation:
        # x * 2**64 is a power-of-two scale, exact for every float.
        assert np.array_equal(vec.astype(object) * 1, [int(x * (2**64)) for x in pool.tolist()])

    def test_to_units_matches_scalar_on_1e6(self):
        generator = rng()
        ks = generator.integers(0, KEY_MOD, self.N, dtype=np.uint64)
        ks[: len(EDGE_KEYS)] = np.array(EDGE_KEYS, dtype=np.uint64)
        vec = to_units(ks)
        idx = np.concatenate([generator.integers(0, ks.size, 20_000), np.arange(len(EDGE_KEYS))])
        for i in idx:
            assert float(vec[i]) == to_unit(int(ks[i]))
        assert float(vec.max()) < 1.0

    def test_cw_distances_matches_scalar_on_1e6(self):
        generator = rng()
        origins = generator.integers(0, KEY_MOD, 4, dtype=np.uint64)
        ks = generator.integers(0, KEY_MOD, self.N // 4, dtype=np.uint64)
        for origin in origins:
            vec = cw_distances(int(origin), ks)
            for i in generator.integers(0, ks.size, 5_000):
                assert int(vec[i]) == cw_distance(int(origin), int(ks[i]))
            # Independent exact check over the full array via Python ints.
            sample = ks[:: max(1, ks.size // 5000)]
            expected = [(int(k) - int(origin)) & KEY_MASK for k in sample]
            assert cw_distances(int(origin), sample).tolist() == expected

    def test_in_cw_intervals_matches_scalar_on_1e6(self):
        generator = rng()
        keys_arr = generator.integers(0, KEY_MOD, self.N // 2, dtype=np.uint64)
        starts = generator.integers(0, KEY_MOD, self.N // 2, dtype=np.uint64)
        ends = starts.copy()
        flip = generator.random(ends.size) < 0.9
        ends[flip] = generator.integers(0, KEY_MOD, int(flip.sum()), dtype=np.uint64)
        vec = in_cw_intervals(keys_arr, starts, ends)
        for i in generator.integers(0, keys_arr.size, 20_000):
            assert bool(vec[i]) == in_cw_interval(int(keys_arr[i]), int(starts[i]), int(ends[i]))

    def test_from_units_rejects_bad_values(self):
        with pytest.raises(KeyspaceError):
            from_units(np.array([0.5, 1.0]))
        with pytest.raises(KeyspaceError):
            from_units(np.array([-0.1]))
        with pytest.raises(KeyspaceError):
            from_units(np.array([np.nan]))

    def test_empty_arrays(self):
        assert from_units(np.empty(0)).size == 0
        assert to_units(np.empty(0, dtype=np.uint64)).size == 0



class TestSearchSorted:
    """``search_sorted`` is ``np.searchsorted`` asked in key order: the
    same answer for every query, whatever the batch around it."""

    @given(
        column=st.lists(st.integers(0, 40), max_size=30),
        queries=st.lists(st.integers(-1, 42), max_size=30),
        side=st.sampled_from(["left", "right"]),
    )
    def test_equals_plain_searchsorted_with_duplicates(self, column, queries, side):
        table = np.sort(np.asarray(column, dtype=np.uint64) * np.uint64(2**58))
        asked = np.asarray([q % 41 for q in queries], dtype=np.uint64) * np.uint64(2**58)
        np.testing.assert_array_equal(
            keyspace.search_sorted(table, asked, side), np.searchsorted(table, asked, side)
        )

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_floats_with_signed_zero_and_a_2d_batch(self, side):
        table = np.asarray([-0.0, 0.0, 0.0, 0.25, 0.25, 0.5, 0.75])
        asked = np.asarray([[0.25, -0.0, 0.0], [0.9, 0.25, -0.0], [0.5, 0.1, 0.75]])
        found = keyspace.search_sorted(table, asked, side)
        assert found.shape == asked.shape
        np.testing.assert_array_equal(found, np.searchsorted(table, asked, side))

    def test_empty_column_and_empty_batch(self):
        empty = np.empty(0, dtype=np.uint64)
        assert keyspace.search_sorted(empty, np.asarray([5], dtype=np.uint64)).tolist() == [0]
        assert keyspace.search_sorted(np.asarray([1], dtype=np.uint64), empty).size == 0

class TestModuleExports:
    def test_reexported_from_ring_package(self):
        from repro.ring import KeyspaceError as ringKeyspaceError
        from repro.ring import keyspace as ks

        assert ks is keyspace
        assert ringKeyspaceError is KeyspaceError
