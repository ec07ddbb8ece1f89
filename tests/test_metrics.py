"""Tests for the measurement layer (repro.metrics)."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import hand_built
from repro.engine import BatchQueryEngine
from repro.metrics import (
    load_curve_points,
    load_gini,
    relative_degree_load,
    volume_exploitation,
)
from repro.rng import make_rng
from repro.routing import summarize_routes
from repro.workloads import QueryWorkload


class TestRelativeDegreeLoad:
    def test_ratios_sorted_ascending(self):
        ratios = relative_degree_load(np.array([5, 1, 3]), np.array([10, 10, 10]))
        np.testing.assert_allclose(ratios, [0.1, 0.3, 0.5])

    def test_heterogeneous_caps(self):
        ratios = relative_degree_load(np.array([10, 10]), np.array([40, 10]))
        np.testing.assert_allclose(ratios, [0.25, 1.0])

    def test_empty_input(self):
        assert relative_degree_load(np.array([]), np.array([])).size == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            relative_degree_load(np.array([1]), np.array([1, 2]))

    def test_zero_cap_rejected(self):
        with pytest.raises(ValueError):
            relative_degree_load(np.array([0]), np.array([0]))

    def test_input_not_mutated(self):
        degrees = np.array([5, 1, 3])
        relative_degree_load(degrees, np.array([10, 10, 10]))
        np.testing.assert_array_equal(degrees, [5, 1, 3])


class TestVolumeExploitation:
    def test_full_exploitation(self):
        assert volume_exploitation(np.array([4, 4]), np.array([4, 4])) == 1.0

    def test_partial(self):
        assert volume_exploitation(np.array([1, 3]), np.array([4, 4])) == 0.5

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            volume_exploitation(np.array([0]), np.array([0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            volume_exploitation(np.array([1]), np.array([1, 2]))


class TestLoadCurvePoints:
    def test_downsamples_to_requested_count(self):
        ratios = np.linspace(0, 1, 1000)
        points = load_curve_points(ratios, n_points=50)
        assert len(points) <= 50
        assert points[0] == (0.0, 0.0)
        assert points[-1] == (999.0, 1.0)

    def test_short_input_kept_whole(self):
        ratios = np.array([0.1, 0.2, 0.3])
        points = load_curve_points(ratios, n_points=100)
        assert len(points) == 3

    def test_empty_input(self):
        assert load_curve_points(np.array([])) == []

    def test_rejects_tiny_n_points(self):
        with pytest.raises(ValueError):
            load_curve_points(np.array([0.5]), n_points=1)

    def test_x_axis_is_original_index(self):
        ratios = np.linspace(0, 1, 500)
        points = load_curve_points(ratios, n_points=10)
        assert max(x for x, __ in points) == 499.0


class TestLoadGini:
    def test_perfectly_even(self):
        assert load_gini(np.array([0.5, 0.5, 0.5])) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_uneven(self):
        gini = load_gini(np.array([0.0] * 99 + [1.0]))
        assert gini > 0.9

    def test_monotone_in_spread(self):
        even = load_gini(np.array([0.4, 0.5, 0.6]))
        spread = load_gini(np.array([0.1, 0.5, 0.9]))
        assert spread > even

    def test_all_zero_is_zero(self):
        assert load_gini(np.array([0.0, 0.0])) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            load_gini(np.array([]))


def ring_overlay(n: int = 10, budget: int | None = None):
    """``n`` peers at ``i / n`` with ring pointers and one long link each
    (half the ring on), so routes cost a few hops."""
    return hand_built([i / n for i in range(n)], {i: [(i + n // 2) % n] for i in range(n)}, budget)


def one_at_a_time(overlay, rng, n_queries, workload=None, faulty=False):
    """The same queries ``BatchQueryEngine.measure`` draws, each routed by
    ``Substrate.route`` and folded."""
    wl = workload if workload is not None else QueryWorkload()
    return summarize_routes(
        overlay.route(q.source, q.target_key, faulty=faulty)
        for q in wl.generate(overlay.ring, rng, n_queries)
    )


class TestMeasureSearchCost:
    """The paper's search-cost metric, :meth:`BatchQueryEngine.measure`."""

    def test_defaults_to_one_query_per_live_peer(self):
        stats = BatchQueryEngine(ring_overlay(n=12)).measure(make_rng(0))
        assert stats.n_routes == 12

    def test_explicit_query_count(self):
        stats = BatchQueryEngine(ring_overlay(n=12)).measure(make_rng(1), n_queries=40)
        assert stats.n_routes == 40

    def test_cost_statistics(self):
        overlay = ring_overlay()
        stats = BatchQueryEngine(overlay).measure(make_rng(2), n_queries=10)
        assert stats == one_at_a_time(overlay, make_rng(2), 10)
        assert stats.mean_cost > 0
        assert stats.success_rate == 1.0

    def test_faulty_flag_propagates(self):
        overlay = ring_overlay(n=16)
        overlay.leave(8)  # the long links of 0 and of 8's ring neighbours dangle
        stats = BatchQueryEngine(overlay).measure(make_rng(3), n_queries=30, faulty=True)
        assert stats == one_at_a_time(overlay, make_rng(3), 30, faulty=True)
        assert stats.mean_wasted > 0.0

    def test_failures_counted(self):
        overlay = ring_overlay(budget=1)
        stats = BatchQueryEngine(overlay).measure(make_rng(4), n_queries=40)
        sources, targets = QueryWorkload().generate_arrays(overlay.ring, make_rng(4), 40)
        delivered = BatchQueryEngine(overlay).route_batch(sources, targets).success
        assert 0 < stats.success_rate == delivered.mean() < 1

    def test_custom_workload_used(self):
        overlay = ring_overlay()
        workload = QueryWorkload(target_mode="uniform")
        stats = BatchQueryEngine(overlay).measure(make_rng(5), n_queries=30, workload=workload)
        assert stats == one_at_a_time(overlay, make_rng(5), 30, workload=workload)
        # Uniform targets are (a.s.) not peer positions.
        positions = set(overlay.ring.positions_array().tolist())
        targets = {q.target_key for q in workload.generate(overlay.ring, make_rng(5), 30)}
        assert not targets <= positions

    def test_real_overlay_end_to_end(self, shared_overlay):
        stats = BatchQueryEngine(shared_overlay).measure(make_rng(6), n_queries=50)
        assert stats.n_routes == 50
        assert stats.success_rate == 1.0
        assert 0 < stats.mean_cost < 30
