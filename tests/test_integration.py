"""Cross-module integration tests: the paper's claims at reduced scale.

These run one shared growth per overlay kind (module-scoped fixtures keep
the suite fast) and assert the *shape* results the paper reports:

* search cost grows slowly (log-ish) with network size;
* the three cap distributions route equally well (Fig 1c);
* Oscar exploits more contributed degree volume than Mercury (§3 text);
* churn raises cost in kill-fraction order but never breaks navigability
  (Fig 2);
* the overlay keeps working across a grow -> rewire -> churn -> revive
  life cycle.
"""

from __future__ import annotations

import pytest

from repro.degree import ConstantDegrees, SpikyDegreeDistribution, SteppedDegrees
from repro.experiments import grow_and_measure, make_overlay
from repro.engine import BatchQueryEngine
from repro.membership import OracleView
from repro.metrics import load_gini, volume_exploitation
from repro.rng import split
from repro.workloads import GnutellaLikeDistribution

from conftest import crash_wave, links_of

SIZES = (150, 300, 600)
QUERIES = 150
KEYS = GnutellaLikeDistribution()


@pytest.fixture(scope="module")
def oscar_growth():
    """One Oscar growth (constant caps) measured at three sizes under churn."""
    overlay = make_overlay("oscar", seed=101)
    measurements = grow_and_measure(
        overlay, KEYS, ConstantDegrees(12), SIZES, QUERIES, 101, (0.0, 0.10, 0.33)
    )
    return overlay, measurements


@pytest.fixture(scope="module")
def mercury_growth():
    overlay = make_overlay("mercury", seed=101)
    measurements = grow_and_measure(overlay, KEYS, ConstantDegrees(12), SIZES, QUERIES, 101)
    return overlay, measurements


class TestSearchCostScaling:
    def test_all_queries_succeed(self, oscar_growth):
        __, measurements = oscar_growth
        for measurement in measurements:
            assert measurement.stats_by_kill[0.0].success_rate == 1.0

    def test_cost_grows_sublinearly(self, oscar_growth):
        __, measurements = oscar_growth
        costs = [m.stats_by_kill[0.0].mean_cost for m in measurements]
        # 4x the peers must cost far less than 4x the hops.
        assert costs[-1] < 2.5 * costs[0]

    def test_cost_below_worst_case_bound(self, oscar_growth):
        from repro.smallworld import worst_case_greedy_cost

        __, measurements = oscar_growth
        for measurement in measurements:
            bound = worst_case_greedy_cost(measurement.size)
            assert measurement.stats_by_kill[0.0].mean_cost < bound


class TestCapDistributionsEquivalent:
    """Figure 1(c): constant / realistic / stepped all route alike."""

    @pytest.fixture(scope="class")
    def three_cases(self):
        results = {}
        for label, degrees in (
            ("constant", ConstantDegrees(12)),
            ("realistic", SpikyDegreeDistribution(mean_degree=12.0, spike_fraction=0.5, d_max=60, spikes=(4, 8, 16, 24))),
            ("stepped", SteppedDegrees((8, 10, 12, 18))),
        ):
            overlay = make_overlay("oscar", seed=103)
            results[label] = grow_and_measure(overlay, KEYS, degrees, (400,), QUERIES, 103)[-1]
        return results

    def test_costs_nearly_identical(self, three_cases):
        costs = [m.stats_by_kill[0.0].mean_cost for m in three_cases.values()]
        assert max(costs) - min(costs) < 0.35 * max(costs)

    def test_all_succeed(self, three_cases):
        for measurement in three_cases.values():
            assert measurement.stats_by_kill[0.0].success_rate == 1.0

    def test_load_ratio_curves_similar(self, three_cases):
        # Figure 1(b): the relative-load profile has the same shape in
        # all three cap cases — compare Gini coefficients.
        ginis = [load_gini(m.load_ratios) for m in three_cases.values()]
        assert max(ginis) - min(ginis) < 0.2


class TestDegreeVolume:
    """§3 text: Oscar ~85% vs Mercury ~61% exploited volume."""

    def test_oscar_beats_mercury(self, oscar_growth, mercury_growth):
        __, oscar_measurements = oscar_growth
        __, mercury_measurements = mercury_growth
        assert oscar_measurements[-1].volume > mercury_measurements[-1].volume

    def test_oscar_volume_high(self, oscar_growth):
        __, measurements = oscar_growth
        assert measurements[-1].volume > 0.7

    def test_volume_direct_recompute(self, oscar_growth):
        overlay, measurements = oscar_growth
        recomputed = volume_exploitation(
            overlay.in_degree_array(), overlay.in_cap_array()
        )
        # Same overlay, measured after the final rewire: must agree.
        assert recomputed == pytest.approx(measurements[-1].volume, abs=1e-9)


class TestChurnOrdering:
    """Figure 2: cost ordering 0 < 10% < 33%, navigability preserved."""

    def test_cost_ordering_at_final_size(self, oscar_growth):
        __, measurements = oscar_growth
        final = measurements[-1].stats_by_kill
        assert final[0.0].mean_cost <= final[0.10].mean_cost <= final[0.33].mean_cost

    def test_churn_adds_wasted_traffic(self, oscar_growth):
        __, measurements = oscar_growth
        final = measurements[-1].stats_by_kill
        assert final[0.0].mean_wasted == 0.0
        assert final[0.33].mean_wasted > 0.0

    def test_navigable_under_heavy_churn(self, oscar_growth):
        __, measurements = oscar_growth
        for measurement in measurements:
            assert measurement.stats_by_kill[0.33].success_rate > 0.99

    def test_churn_cost_stays_shallow(self, oscar_growth):
        # "the search cost is fairly low given the high rate of failed
        # peers": within a small multiple of the fault-free cost.
        __, measurements = oscar_growth
        final = measurements[-1].stats_by_kill
        assert final[0.33].mean_cost < 6 * final[0.0].mean_cost


class TestLifecycle:
    def test_full_cycle_grow_rewire_churn_revive(self):
        from repro.ring import verify

        overlay = make_overlay("oscar", seed=107)
        overlay.grow(200, KEYS, ConstantDegrees(10))
        overlay.rewire(split(107, "cycle-rewire"))
        verify(overlay.ring, overlay.pointers)

        victims = crash_wave(overlay, 0.33, seed=107)
        engine = BatchQueryEngine(overlay)
        stats = engine.measure(split(107, "cycle-q1"), n_queries=80)
        assert stats.success_rate == 1.0

        OracleView(overlay.ring).revive(victims)
        overlay.repair_ring()
        verify(overlay.ring, overlay.pointers)

        overlay.grow(300, KEYS, ConstantDegrees(10))
        overlay.rewire(split(107, "cycle-rewire-2"))
        stats = engine.measure(split(107, "cycle-q2"), n_queries=80)
        assert stats.success_rate == 1.0

    def test_growth_determinism_end_to_end(self):
        def run() -> float:
            overlay = make_overlay("oscar", seed=109)
            m = grow_and_measure(overlay, KEYS, ConstantDegrees(8), (150,), 50, 109)[-1]
            return m.stats_by_kill[0.0].mean_cost

        assert run() == run()


class TestLinkRankNavigability:
    def test_oscar_links_approximate_harmonic(self, oscar_growth):
        from repro.smallworld import harmonic_divergence, link_rank_distribution

        overlay, __ = oscar_growth
        links = [(i, target) for i, targets in links_of(overlay).items() for target in targets]
        ranks = link_rank_distribution(overlay.ring, links)
        divergence = harmonic_divergence(ranks, overlay.ring.live_count)
        assert divergence < 0.35

    def test_mercury_links_worse_under_skew(self, oscar_growth, mercury_growth):
        from repro.smallworld import harmonic_divergence, link_rank_distribution

        def divergence_of(overlay) -> float:
            links = [(i, target) for i, targets in links_of(overlay).items() for target in targets]
            ranks = link_rank_distribution(overlay.ring, links)
            return harmonic_divergence(ranks, overlay.ring.live_count)

        oscar_overlay, __ = oscar_growth
        mercury_overlay, __m = mercury_growth
        assert divergence_of(oscar_overlay) < divergence_of(mercury_overlay)
