"""Tests for recursive-median partition tables (repro.core.partitions)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import PartitionTable
from repro.errors import PartitionError
from repro.ring.identifiers import cw_distance
from repro.rng import make_rng

keys = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False)


def make_table(origin: float, far_end: float, *medians: float) -> PartitionTable:
    return PartitionTable(origin=origin, far_end=far_end, medians=tuple(medians))


class TestConstruction:
    def test_empty_medians_single_partition(self):
        table = make_table(0.0, 0.9)
        assert table.n_partitions == 1
        assert table.arc(1) == (0.0, 0.9)

    def test_standard_halving_chain(self):
        # Node at 0, predecessor at 0.9; medians at 0.5, 0.25, 0.125.
        table = make_table(0.0, 0.9, 0.5, 0.25, 0.125)
        assert table.n_partitions == 4
        assert table.arcs() == [
            (0.5, 0.9),
            (0.25, 0.5),
            (0.125, 0.25),
            (0.0, 0.125),
        ]

    def test_rejects_median_beyond_far_end(self):
        with pytest.raises(PartitionError):
            make_table(0.0, 0.5, 0.7)

    def test_rejects_non_monotone_medians(self):
        with pytest.raises(PartitionError):
            make_table(0.0, 0.9, 0.25, 0.5)

    def test_wrapped_medians_accepted(self):
        # Origin at 0.8: clockwise medians may wrap past 1.0.
        table = make_table(0.8, 0.7, 0.3, 0.05, 0.9)
        assert table.n_partitions == 4

    def test_is_frozen(self):
        table = make_table(0.0, 0.9, 0.5)
        with pytest.raises(AttributeError):
            table.origin = 0.5  # type: ignore[misc]


class TestArcs:
    def test_arc_indices_bounds_checked(self):
        table = make_table(0.0, 0.9, 0.5)
        with pytest.raises(PartitionError):
            table.arc(0)
        with pytest.raises(PartitionError):
            table.arc(3)

    def test_innermost_arc_starts_at_origin(self):
        table = make_table(0.2, 0.1, 0.7)
        assert table.arc(table.n_partitions)[0] == 0.2

    def test_outermost_arc_ends_at_far_end(self):
        table = make_table(0.2, 0.1, 0.7)
        assert table.arc(1)[1] == 0.1

    def test_degenerate_inner_arc_is_none(self):
        # Sampling noise can set a median equal to the previous border;
        # the resulting empty arc must be reported as None, not (x, x)
        # which would mean "whole circle".
        table = make_table(0.0, 0.9, 0.5, 0.5)
        assert table.arc(2) is None

    def test_arcs_tile_the_population_span(self):
        # Consecutive arcs share borders: arc(i).start == arc(i+1).end.
        table = make_table(0.0, 0.9, 0.5, 0.25)
        arcs = table.arcs()
        for outer, inner in zip(arcs, arcs[1:]):
            assert outer[0] == inner[1]

    @given(
        origin=keys,
        distances=st.lists(
            st.floats(min_value=1e-6, max_value=0.999), min_size=1, max_size=8
        ),
    )
    def test_arcs_never_overlap(self, origin, distances):
        # Build a valid table from sorted clockwise distances.
        ordered = sorted(set(distances), reverse=True)
        far = (origin + ordered[0]) % 1.0
        medians = tuple((origin + d) % 1.0 for d in ordered[1:])
        table = PartitionTable(origin=origin, far_end=far, medians=medians)
        widths = [
            cw_distance(a[0], a[1]) for a in table.arcs() if a is not None
        ]
        total = sum(widths)
        # The arcs tile (origin, far_end] exactly: widths sum to the span.
        assert total == pytest.approx(cw_distance(origin, far), abs=1e-9)


class TestPartitionOf:
    def test_locates_keys_in_each_partition(self):
        table = make_table(0.0, 0.9, 0.5, 0.25)
        assert table.partition_of(0.7) == 1
        assert table.partition_of(0.4) == 2
        assert table.partition_of(0.1) == 3

    def test_borders_belong_to_outer_partition(self):
        # Arcs are (start, end]: the median itself closes the outer arc.
        table = make_table(0.0, 0.9, 0.5, 0.25)
        assert table.partition_of(0.5) == 2
        assert table.partition_of(0.25) == 3
        assert table.partition_of(0.9) == 1

    def test_origin_belongs_to_no_partition(self):
        table = make_table(0.0, 0.9, 0.5)
        with pytest.raises(PartitionError):
            table.partition_of(0.0)

    def test_key_beyond_far_end_rejected(self):
        table = make_table(0.0, 0.9, 0.5)
        with pytest.raises(PartitionError):
            table.partition_of(0.95)

    def test_wrapped_table_locates_keys(self):
        # Origin 0.8, far end 0.7, median 0.3: the outer partition A_1 is
        # the clockwise-far arc (0.3, 0.7]; the inner A_2 wraps (0.8, 0.3].
        table = make_table(0.8, 0.7, 0.3)
        assert table.partition_of(0.5) == 1  # in (0.3, 0.7]
        assert table.partition_of(0.65) == 1
        assert table.partition_of(0.9) == 2  # in (0.8, 0.3], wrapping
        assert table.partition_of(0.1) == 2
        assert table.partition_of(0.2) == 2

    @given(
        origin=keys,
        key=keys,
    )
    def test_partition_of_agrees_with_arc_membership(self, origin, key):
        far = (origin + 0.9) % 1.0
        medians = tuple((origin + d) % 1.0 for d in (0.45, 0.2, 0.1))
        table = PartitionTable(origin=origin, far_end=far, medians=medians)
        d = cw_distance(origin, key) if key != origin else 0.0
        if key == origin or d > 0.9:
            with pytest.raises(PartitionError):
                table.partition_of(key)
        else:
            index = table.partition_of(key)
            start, end = table.arc(index)
            # Membership double-check straight from the arc bounds.
            d_start = cw_distance(origin, start) if start != origin else 0.0
            d_end = cw_distance(origin, end)
            assert d_start < d <= d_end


class TestDescribe:
    def test_describe_mentions_every_partition(self):
        table = make_table(0.0, 0.9, 0.5, 0.25)
        text = table.describe()
        for i in range(1, table.n_partitions + 1):
            assert f"A_{i}" in text

    def test_describe_marks_empty_arcs(self):
        table = make_table(0.0, 0.9, 0.5, 0.5)
        assert "<empty>" in table.describe()


class TestMetricPredicatePartitionAgreement:
    """The acceptance property of the keyspace PR: `cw_distance`,
    `in_cw_interval` and `partition_of` must agree on 10^6 random
    (origin, key) pairs, denormals and boundary-adjacent values
    included.

    The contract (for the canonical table with far end 0.9 clockwise of
    the origin and medians at +0.45/+0.2/+0.1): for any `key != origin`,
    `partition_of` succeeds **iff** the rounded metric places the key at
    or inside the far end — `cw_distance(origin, key) <=
    cw_distance(origin, far)` — and the returned arc brackets the key's
    metric distance.
    """

    N = 1_000_000
    SPOT = 20_000

    @staticmethod
    def _pairs(n):
        import math as _math

        rng = make_rng(13)
        origins = rng.random(n)
        keys_arr = rng.random(n)
        # Boundary stripes: denormal keys, keys at/adjacent to the far
        # end, keys adjacent to the origin, and origins near the wrap.
        edge = np.array(
            [0.0, 5e-324, 1.4e-45, 1e-300, 2.0**-64, _math.nextafter(1.0, 0.0)]
        )
        m = n // 100
        keys_arr[:m] = rng.choice(edge, m)
        far = (origins + 0.9) % 1.0
        keys_arr[m : 2 * m] = far[m : 2 * m]  # exactly at the far end
        keys_arr[2 * m : 3 * m] = np.nextafter(far[2 * m : 3 * m], 1.0) % 1.0
        keys_arr[3 * m : 4 * m] = np.nextafter(origins[3 * m : 4 * m], 0.0)
        origins[4 * m : 5 * m] = rng.choice(edge, m)
        keys_arr[keys_arr >= 1.0] = 0.0
        origins[origins >= 1.0] = 0.0
        return origins, keys_arr

    def test_one_million_pairs(self):
        import math as _math

        origins, keys_arr = self._pairs(self.N)
        far = (origins + 0.9) % 1.0

        # Vectorized mirror of the scalar cw_distance (same % and clamp).
        def metric(origin, key):
            d = (key - origin) % 1.0
            clamp = _math.nextafter(1.0, 0.0)
            return np.where(d >= 1.0, clamp, d)

        d_key = metric(origins, keys_arr)
        d_far = metric(origins, far)
        metric_inside = d_key <= d_far

        # Vectorized mirror of the comparison predicate for (origin, far].
        linear = (origins < keys_arr) & (keys_arr <= far)
        wrapped = (keys_arr > origins) | (keys_arr <= far)
        predicate_inside = np.where(
            origins == far, True, np.where(origins < far, linear, wrapped)
        )

        # One-sided agreement everywhere: the exact predicate never
        # claims "inside" when the metric says "outside".
        violations = predicate_inside & ~metric_inside & (keys_arr != origins)
        assert not violations.any(), np.argwhere(violations)[:5]

        # Scalar partition_of must follow the metric verdict on every
        # metric/predicate *disagreement* (the historical bug surface)...
        disagree = np.nonzero(metric_inside & ~predicate_inside & (keys_arr != origins))[0]
        # ... and on a deterministic spot sample of ordinary pairs.
        rng = make_rng(7)
        spot = np.concatenate([disagree[:5000], rng.integers(0, self.N, self.SPOT)])
        checked_disagreements = 0
        for i in spot:
            origin, key = float(origins[i]), float(keys_arr[i])
            medians = tuple((origin + d) % 1.0 for d in (0.45, 0.2, 0.1))
            table = PartitionTable(origin=origin, far_end=float(far[i]), medians=medians)
            if key == origin or not metric_inside[i]:
                with pytest.raises(PartitionError):
                    table.partition_of(key)
                continue
            index = table.partition_of(key)
            bounds = table.arc(index)
            assert bounds is not None
            d = cw_distance(origin, key)
            d_start = cw_distance(origin, bounds[0]) if bounds[0] != origin else 0.0
            d_end = cw_distance(origin, bounds[1])
            assert d_start <= d <= d_end
            if not predicate_inside[i]:
                checked_disagreements += 1
                assert index == 1  # boundary keys belong to the outermost arc
        # The stripes must actually exercise the disagreement surface.
        assert disagree.size == 0 or checked_disagreements > 0

    def test_error_message_is_diagnosable(self):
        table = PartitionTable(origin=0.0, far_end=0.9, medians=(0.5,))
        with pytest.raises(PartitionError) as excinfo:
            table.partition_of(0.95)
        message = str(excinfo.value)
        # The next boundary bug must be debuggable from the test log:
        # computed distance, far-end distance, and the full table dump.
        assert "0.95" in message
        assert "far-end distance" in message
        assert "PartitionTable(origin=" in message
        assert "A_1" in message and "A_2" in message
