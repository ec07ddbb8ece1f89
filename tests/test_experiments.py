"""Tests for the experiment harness (repro.experiments).

Every experiment runs here at a very small scale; the assertions check
*structure* (series present, scalars computed, metadata recorded) and the
paper's shape claims that survive miniaturization (who wins, orderings,
flatness). The two claims that need more peers to clear sampling noise
run at ``SHAPE`` scale; tests/test_integration.py asserts the rest on
one shared growth.
"""

from __future__ import annotations

import math

import pytest

from repro.config import DEFAULT_SIZE_FLOOR
from repro.degree import ConstantDegrees
from repro.errors import ConfigError
from repro.experiments import (
    ExperimentResult,
    all_specs,
    get_spec,
    grow_and_measure,
    make_overlay,
)
from repro.experiments.base import scaled_sizes
from repro.experiments.growth import check_inputs
from repro.workloads import GnutellaLikeDistribution

SMALL = 0.02  # 10,000-peer figures shrink to 200 peers
SHAPE = 0.05  # 500 peers: enough for the two noise-sensitive shape claims
REGISTERED = {spec.id for spec in all_specs()}


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        assert {"fig1a", "fig1b", "fig1c", "fig2a", "fig2b"} <= REGISTERED

    def test_extensions_registered(self):
        assert {
            "ext-mercury",
            "ext-keydist",
            "abl-power-of-two",
            "abl-sampling",
            "abl-partitions",
        } <= REGISTERED

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError, match="fig1a"):
            get_spec("fig99")


class TestScaledSizes:
    def test_identity_at_full_scale(self):
        assert scaled_sizes((2000, 4000), 1.0) == (2000, 4000)

    def test_shrinks_with_floor(self):
        assert scaled_sizes((2000, 4000), 0.01, floor=64) == (64,)

    def test_deduplicates_preserving_order(self):
        sizes = scaled_sizes((2000, 4000, 6000, 8000, 10000), 0.001, floor=50)
        assert list(sizes) == sorted(set(sizes))

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            scaled_sizes((100,), 0.0)

    def test_default_floor(self):
        assert scaled_sizes((2000, 4000, 10000), 0.001) == (DEFAULT_SIZE_FLOOR,)


class TestExperimentResult:
    def test_render_includes_series_and_scalars(self):
        result = ExperimentResult(
            experiment_id="demo",
            title="Demo",
            series={"curve": [(1.0, 2.0), (3.0, 4.0)]},
            scalars={"answer": 42.0},
            metadata={"seed": 1},
        )
        text = result.render()
        assert "demo" in text and "curve" in text
        assert "42.000" in text
        assert "seed=1" in text

    def test_render_without_series(self):
        result = ExperimentResult(experiment_id="x", title="t")
        assert "x" in result.render()

    def test_write_csv(self, tmp_path):
        result = ExperimentResult(
            experiment_id="demo", title="t", series={"c": [(1.0, 2.0)]}
        )
        path = result.write_csv(tmp_path)
        assert path.name == "demo.csv"
        assert path.read_text().startswith("series,x,y")


class TestFig1a:
    def test_structure(self):
        result = get_spec("fig1a").run(scale=SMALL)
        assert result.experiment_id == "fig1a"
        assert "degree pdf" in result.series
        assert result.scalars["analytic_mean"] == pytest.approx(27.0, abs=1e-6)
        assert result.scalars["empirical_mean"] == pytest.approx(27.0, abs=2.0)

    def test_pdf_points_are_log_log_plottable(self):
        result = get_spec("fig1a").run(scale=SMALL)
        for degree, probability in result.series["degree pdf"]:
            assert degree >= 1.0
            assert probability > 0.0


class TestFig1b:
    def test_structure_and_volume_ordering(self):
        result = get_spec("fig1b").run(scale=SMALL, seed=3)
        for label in ("constant", "realistic", "stepped", "mercury constant"):
            assert label in result.series
            assert len(result.series[label]) > 10
        # Oscar exploits more volume than Mercury in every cap case.
        for label in ("constant", "realistic", "stepped"):
            assert (
                result.scalars[f"volume_{label}"]
                > result.scalars["volume_mercury_constant"]
            )

    def test_mercury_can_be_skipped(self):
        result = get_spec("fig1b").run(scale=SMALL, include_mercury=False)
        assert "mercury constant" not in result.series

    def test_load_ratios_bounded(self):
        result = get_spec("fig1b").run(scale=SMALL)
        for points in result.series.values():
            assert all(0.0 <= y <= 1.0 for __, y in points)

    def test_volume_high_and_close_across_cap_cases(self):
        # Paper: ~0.85 exploited volume in every heterogeneity case vs
        # Mercury's ~0.61. "Realistic" caps include rare 100+-cap peers
        # that cannot fill in a small network, hence the wide band.
        result = get_spec("fig1b").run(scale=SHAPE)
        labels = ("constant", "realistic", "stepped")
        volumes = [result.scalars[f"volume_{label}"] for label in labels]
        assert min(volumes) > 0.70
        assert max(volumes) - min(volumes) < 0.30
        assert result.scalars["volume_mercury_constant"] < min(volumes) - 0.05
        # The bulk of every load-ratio curve sits near the cap.
        for label in labels:
            ratios = sorted(y for __, y in result.series[label])
            assert ratios[len(ratios) // 2] > 0.6


class TestFig1c:
    def test_structure(self):
        result = get_spec("fig1c").run(scale=SMALL, n_queries=60)
        assert set(result.series) == {"constant", "realistic", "stepped"}
        sizes = [x for x, __ in result.series["constant"]]
        assert sizes == sorted(sizes)
        for label in result.series:
            assert result.scalars[f"success_{label}"] == 1.0

    def test_curves_close_to_each_other(self):
        result = get_spec("fig1c").run(scale=SMALL, n_queries=100, seed=5)
        final_costs = [points[-1][1] for points in result.series.values()]
        assert max(final_costs) - min(final_costs) < 0.5 * max(final_costs)


class TestFig2:
    def test_both_panels(self):
        for panel in ("fig2a", "fig2b"):
            result = get_spec(panel).run(scale=SMALL, n_queries=50)
            assert set(result.series) == {"no faults", "10% crashes", "33% crashes"}

    def test_churn_cost_ordering(self):
        result = get_spec("fig2a").run(scale=SMALL, n_queries=100, seed=7)
        final = {label: points[-1][1] for label, points in result.series.items()}
        assert final["no faults"] <= final["10% crashes"] <= final["33% crashes"]
        # The ordering holds along the whole curve (sampling jitter
        # tolerance at tiny sizes), not just at the endpoint.
        for (__, clean), (__, crashed) in zip(
            result.series["no faults"], result.series["33% crashes"]
        ):
            assert clean <= crashed + 0.5

    def test_realistic_caps_behave_like_constant_caps(self):
        # Figure 2(b): spiky caps change neither the churn ordering nor
        # navigability, and the fault-free curve stays shallow.
        result = get_spec("fig2b").run(scale=SMALL, n_queries=100, seed=7)
        cost_0, cost_10, cost_33 = (
            result.scalars[f"final_cost_{pct}pct"] for pct in (0, 10, 33)
        )
        assert cost_0 <= cost_10 <= cost_33 < 6 * cost_0
        assert result.scalars["success_33pct"] > 0.99
        fault_free = [cost for __, cost in result.series["no faults"]]
        assert max(fault_free) < 3 * min(fault_free) + 1.0

    def test_network_stays_navigable(self):
        result = get_spec("fig2a").run(scale=SMALL, n_queries=100)
        assert result.scalars["success_33pct"] > 0.99


class TestExtMercury:
    def test_structure_and_ordering(self):
        result = get_spec("ext-mercury").run(scale=SMALL, n_queries=60, seed=9)
        assert "oscar (gnutella keys)" in result.series
        assert "mercury (gnutella keys)" in result.series
        assert result.scalars["volume_advantage"] > 1.1
        # Search cost under skew: Oscar at or below Mercury; and the
        # fair-baseline control — Mercury routes no worse on the uniform
        # keys its histogram assumes.
        mercury_cost = result.scalars["final_cost_mercury_gnutella_keys"]
        assert result.scalars["final_cost_oscar_gnutella_keys"] <= mercury_cost * 1.05
        assert result.scalars["final_cost_mercury_uniform_keys"] <= mercury_cost * 1.05


class TestExtKeydist:
    def test_structure_and_flatness(self):
        result = get_spec("ext-keydist").run(scale=SMALL, n_queries=50, seed=10)
        assert set(result.series) == {"uniform", "clustered", "zipf", "gnutella"}
        for name in result.series:
            assert result.scalars[f"success_{name}"] == 1.0
        # Rank-space construction: heavy skew must not blow up cost.
        assert result.scalars["skew_penalty"] < 1.5

    def test_gini_spectrum_recorded(self):
        result = get_spec("ext-keydist").run(scale=SMALL, n_queries=30, seed=11)
        # The sweep really spans the skew spectrum.
        assert result.scalars["gini_uniform"] < 0.65
        assert result.scalars["gini_gnutella"] > 0.8


class TestAblations:
    def test_power_of_two(self):
        result = get_spec("abl-power-of-two").run(scale=SMALL, n_queries=40)
        assert result.scalars["load_gini_power-of-two"] <= result.scalars[
            "load_gini_single-choice"
        ] + 0.02
        # The balancer costs neither hops nor exploited volume.
        assert (
            result.scalars["cost_power-of-two"]
            <= result.scalars["cost_single-choice"] * 1.25
        )
        assert (
            result.scalars["volume_power-of-two"]
            >= result.scalars["volume_single-choice"] - 0.05
        )

    def test_sampling(self):
        result = get_spec("abl-sampling").run(
            scale=SMALL, n_queries=40, sample_sizes=(2, 8)
        )
        assert len(result.series["uniform sampling"]) == 2
        # "Very low sample sizes" already work: the 2-sample estimator
        # stays within 2x of exact medians, 8 samples close most of the
        # gap, and sampling never beats the oracle by a margin.
        oracle_cost = result.scalars["oracle_cost"]
        assert oracle_cost > 0
        assert result.scalars["cost_at_min_budget"] < 2.0 * oracle_cost
        assert 0.5 * oracle_cost < result.scalars["cost_at_max_budget"] < 1.4 * oracle_cost

    def test_partitions(self):
        result = get_spec("abl-partitions").run(
            scale=SMALL, n_queries=40, partition_counts=(4, 8)
        )
        assert len(result.series["mean cost"]) == 2
        # The cheapest partition count itself, not its index in the sweep.
        assert result.scalars["auto_k_equivalent"] in (4, 8)
        costs = dict(result.series["mean cost"])
        assert costs[result.scalars["auto_k_equivalent"]] == result.scalars["best_cost"]

    def test_log_n_partitions_are_near_optimal(self):
        result = get_spec("abl-partitions").run(
            scale=SHAPE, n_queries=200, partition_counts=(4, 6, 8, 10, 12)
        )
        costs = dict(result.series["mean cost"])
        log_n = math.log2(result.metadata["size"])
        at_log_n = costs[min(costs, key=lambda k: abs(k - log_n))]
        assert at_log_n <= 1.3 * min(costs.values())
        # Too few partitions lose navigability.
        assert costs[min(costs)] >= at_log_n * 0.95


class TestGrowAndMeasure:
    def test_measurements_per_size(self):
        overlay = make_overlay("oscar", seed=11)
        measurements = grow_and_measure(
            overlay, GnutellaLikeDistribution(), ConstantDegrees(8), (80, 160), 30, 11
        )
        assert [m.size for m in measurements] == [80, 160]
        for measurement in measurements:
            assert 0.0 in measurement.stats_by_kill
            assert 0.0 < measurement.volume <= 1.0
            assert measurement.load_ratios.size == measurement.size

    def test_churn_cases_leave_no_residue(self):
        overlay = make_overlay("oscar", seed=12)
        measured = grow_and_measure(
            overlay, GnutellaLikeDistribution(), ConstantDegrees(8), (100,), 20, 12, (0.0, 0.33)
        )
        # All victims revived afterwards, and the wave was routed around.
        assert overlay.ring.live_count == 100
        assert measured[-1].stats_by_kill[0.33].mean_wasted > 0.0

    def test_zero_queries_means_one_per_peer(self):
        overlay = make_overlay("oscar", seed=15)
        (measured,) = grow_and_measure(
            overlay, GnutellaLikeDistribution(), ConstantDegrees(8), (70,), 0, 15
        )
        assert measured.stats_by_kill[0.0].n_routes == 70

    def test_fixed_query_count(self):
        overlay = make_overlay("oscar", seed=16)
        (measured,) = grow_and_measure(
            overlay, GnutellaLikeDistribution(), ConstantDegrees(8), (70,), 25, 16
        )
        assert measured.stats_by_kill[0.0].n_routes == 25

    def test_unknown_overlay_kind(self):
        with pytest.raises(ValueError):
            make_overlay("kademlia", seed=1)  # type: ignore[arg-type]

    def test_chord_kind(self):
        overlay = make_overlay("chord", seed=14)
        measurements = grow_and_measure(
            overlay, GnutellaLikeDistribution(), ConstantDegrees(8), (60,), 10, 14
        )
        assert measurements[-1].stats_by_kill[0.0].success_rate == 1.0
        # Chord has no capacity caps, so exploited volume is undefined.
        assert measurements[-1].volume != measurements[-1].volume  # NaN
        assert measurements[-1].load_ratios.size == 0

    def test_mercury_kind(self):
        overlay = make_overlay("mercury", seed=13)
        measurements = grow_and_measure(
            overlay, GnutellaLikeDistribution(), ConstantDegrees(8), (60,), 10, 13
        )
        assert measurements[-1].stats_by_kill[0.0].success_rate == 1.0


class TestCheckInputs:
    """The loop's outside-input checks (the grow specs call them before
    anything is grown)."""

    @pytest.mark.parametrize("fraction", [-0.1, 1.0, 1.5])
    def test_rejects_out_of_range_fraction(self, fraction):
        with pytest.raises(ConfigError, match=r"kill_fraction must be in \[0, 1\)"):
            check_inputs(0, (0.0, fraction))

    def test_rejects_negative_queries(self):
        with pytest.raises(ConfigError, match="n_queries must be >= 0, got -1"):
            check_inputs(-1)
