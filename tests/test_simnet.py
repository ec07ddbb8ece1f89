"""Tests for the message-level latency simulation (repro.simnet)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError, EmptyPopulationError
from repro.simnet import (
    BandwidthModel,
    LatencyModel,
    QueryLatencyStats,
    QuerySimulation,
    replay_routes,
)

from conftest import build_overlay


class TestBandwidthModel:
    def test_rates_and_service_times(self):
        model = BandwidthModel({0: 2.0, 1: 10.0})
        assert model.rate(0) == 2.0
        assert model.service_time(0) == 0.5
        assert model.service_time(1) == pytest.approx(0.1)
        assert model.total_rate() == 12.0
        assert len(model) == 2

    def test_proportional_to_caps(self):
        model = BandwidthModel.proportional_to_caps({0: 4, 1: 8}, rate_per_link=2.0)
        assert model.rate(0) == 8.0
        assert model.rate(1) == 16.0

    def test_uniform(self):
        model = BandwidthModel.uniform([0, 1, 2], rate=5.0)
        assert all(model.rate(n) == 5.0 for n in (0, 1, 2))

    def test_unknown_peer_raises(self):
        with pytest.raises(KeyError):
            BandwidthModel({0: 1.0}).rate(99)

    @pytest.mark.parametrize("bad", [{}, {0: 0.0}, {0: -1.0}])
    def test_validation(self, bad):
        with pytest.raises(ConfigError):
            BandwidthModel(bad)

    def test_rate_per_link_validation(self):
        with pytest.raises(ConfigError):
            BandwidthModel.proportional_to_caps({0: 4}, rate_per_link=0.0)


class TestLatencyModel:
    def test_delays_are_stable_per_link(self):
        model = LatencyModel(mean_delay=0.05, seed=1)
        first = model.delay(0, 1)
        assert model.delay(0, 1) == first

    def test_directed_links_independent(self):
        model = LatencyModel(mean_delay=0.05, seed=2)
        assert model.delay(0, 1) != model.delay(1, 0)

    def test_zero_mean_is_free(self):
        model = LatencyModel(mean_delay=0.0)
        assert model.delay(0, 1) == 0.0
        assert model.path_delay([0, 1, 2]) == 0.0

    def test_path_delay_sums_links(self):
        model = LatencyModel(mean_delay=0.05, seed=3)
        total = model.path_delay([0, 1, 2])
        assert total == pytest.approx(model.delay(0, 1) + model.delay(1, 2))

    def test_single_node_path_free(self):
        assert LatencyModel(seed=4).path_delay([7]) == 0.0

    def test_mean_matches_parameter(self):
        model = LatencyModel(mean_delay=0.1, seed=5)
        delays = [model.delay(0, i) for i in range(1, 2001)]
        assert np.mean(delays) == pytest.approx(0.1, rel=0.1)

    def test_negative_mean_rejected(self):
        with pytest.raises(ConfigError):
            LatencyModel(mean_delay=-0.1)


class TestQueryLatencyStats:
    def test_from_samples(self):
        stats = QueryLatencyStats.from_samples([1.0, 2.0, 3.0, 4.0], [0.1, 0.2, 0.3, 0.4])
        assert stats.n_queries == 4
        assert stats.mean == 2.5
        assert stats.max == 4.0
        assert stats.mean_queue_wait == pytest.approx(0.25)
        assert stats.p50 == pytest.approx(2.5)

    def test_empty_rejected(self):
        with pytest.raises(EmptyPopulationError):
            QueryLatencyStats.from_samples([], [])


class TestQuerySimulation:
    @pytest.fixture(scope="class")
    def overlay(self):
        return build_overlay(n=120, seed=71, cap=8)

    def make_sim(self, overlay, rate=10.0, arrival_rate=200.0, mean_delay=0.01):
        nodes = overlay.ring.node_ids(live_only=True)
        return QuerySimulation(
            overlay,
            BandwidthModel.uniform(nodes, rate=rate),
            LatencyModel(mean_delay=mean_delay, seed=72),
            arrival_rate=arrival_rate,
            seed=73,
        )

    def test_all_queries_complete(self, overlay):
        stats = self.make_sim(overlay).run(n_queries=150)
        assert stats.n_queries == 150
        assert stats.mean > 0.0
        assert stats.p95 >= stats.p50

    def test_latency_scales_with_service_time(self, overlay):
        fast = self.make_sim(overlay, rate=100.0, arrival_rate=50.0).run(200)
        slow = self.make_sim(overlay, rate=5.0, arrival_rate=50.0).run(200)
        assert slow.mean > fast.mean

    def test_zero_propagation_still_costs_service(self, overlay):
        stats = self.make_sim(overlay, mean_delay=0.0, arrival_rate=50.0).run(100)
        assert stats.mean > 0.0

    def test_heavier_load_increases_queueing(self, overlay):
        light = self.make_sim(overlay, rate=5.0, arrival_rate=5.0).run(300)
        heavy = self.make_sim(overlay, rate=5.0, arrival_rate=500.0).run(300)
        assert heavy.mean_queue_wait > light.mean_queue_wait

    def test_run_is_reproducible(self, overlay):
        a = self.make_sim(overlay).run(100)
        b = self.make_sim(overlay).run(100)
        assert a == b

    def test_validation(self, overlay):
        with pytest.raises(ConfigError):
            self.make_sim(overlay, arrival_rate=0.0)
        with pytest.raises(ConfigError):
            self.make_sim(overlay).run(0)


class TestExtLatencyExperiment:
    def test_structure_and_direction(self):
        from repro.experiments import get_spec

        # 300 peers is the smallest size where the heterogeneity effect
        # clears per-seed noise (at ~200 peers the handful of slow peers
        # may land off the hot paths entirely).
        result = get_spec("ext-latency").run(scale=0.03, n_queries=300)
        assert set(result.series) == {"matched", "oblivious"}
        for label in ("matched", "oblivious"):
            assert result.scalars[f"p95_latency_{label}"] > 0.0
            ladder = dict(result.series[label])
            assert ladder[50.0] <= ladder[95.0] <= ladder[100.0]
        # Bandwidth-oblivious load placement must not be cheaper.
        assert result.scalars["mean_penalty"] > 1.0
        assert result.scalars["queue_penalty"] > 1.1


class TestReplayRoutes:
    """The one event loop, without an overlay: explicit paths and clocks."""

    @staticmethod
    def free(src, dst):
        return 0.0

    def test_second_query_waits_for_the_busy_server(self):
        latencies, waits = replay_routes(
            [("a", "x"), ("b", "x")], [0.0, 0.1], lambda node: 1.0, self.free
        )
        assert waits == [0.0, 0.9]
        assert latencies == [1.0, 1.9]

    def test_equal_arrival_times_are_served_in_submission_order(self):
        paths = [("a", "x", "first"), ("b", "x", "second"), ("c", "x", "third")]
        seen: list[str] = []

        def delay(src, dst):
            if src == "x":
                seen.append(dst)
            return 0.0

        latencies, waits = replay_routes(paths, [0.5, 0.5, 0.5], lambda node: 1.0, delay)
        assert seen == ["first", "second", "third"]
        assert waits == [0.0, 1.0, 2.0]
        assert latencies == [2.0, 3.0, 4.0]

    def test_single_node_path_is_free(self):
        assert replay_routes([("a",)], [3.0], lambda node: 1.0, self.free) == ([0.0], [0.0])

    def test_samples_come_out_in_completion_order(self):
        # The first query crosses a slow link; the later one overtakes it.
        delay = {("a", "x"): 5.0, ("b", "y"): 0.25}
        latencies, waits = replay_routes(
            [("a", "x"), ("b", "y")], [0.0, 1.0], lambda node: 0.5, lambda s, d: delay[s, d]
        )
        assert latencies == [0.75, 5.5]
        assert waits == [0.0, 0.0]

    def test_service_then_propagation_per_hop(self):
        service = {"x": 0.5, "y": 0.25}
        latencies, waits = replay_routes(
            [("a", "x", "y")], [0.0], service.__getitem__, lambda s, d: 0.125
        )
        assert latencies == [0.5 + 0.125 + 0.25 + 0.125]
        assert waits == [0.0]

    def test_no_paths_no_samples(self):
        assert replay_routes([], [], lambda node: 1.0, self.free) == ([], [])


class TestPinnedAgainstTheEventKernel:
    """``QueryLatencyStats`` of the heap loop, pinned to the last bit.

    First recorded when every query was a generator process on a
    discrete-event scheduler, which the heap loop reproduced exactly.
    Re-recorded once, when Oscar's per-peer builder was deleted and
    ``grow`` / ``rewire`` became ``grow_batch`` / ``rewire_batch``: with
    only ``build_overlay``'s two calls switched to those, before the
    deletion, so nothing but the builder moved them."""

    PINS = {
        "default": QueryLatencyStats(
            n_queries=300,
            mean=0.5373803075270595,
            p50=0.5156376506768834,
            p95=1.0495013665759663,
            max=1.4623104259943986,
            mean_queue_wait=0.17554411180375415,
        ),
        "heavy": QueryLatencyStats(
            n_queries=300,
            mean=1.5905730592368112,
            p50=1.5702826339219784,
            p95=3.0747580885835415,
            max=3.8041756976148045,
            mean_queue_wait=0.8966338262402141,
        ),
        "no_delay": QueryLatencyStats(
            n_queries=300,
            mean=0.5029825755420514,
            p50=0.4769335377987107,
            p95=0.975070078086948,
            max=1.5192619055634105,
            mean_queue_wait=0.17331590887538453,
        ),
        "fast": QueryLatencyStats(
            n_queries=300,
            mean=0.0675501342224134,
            p50=0.06398377720423887,
            p95=0.1259972879803437,
            max=0.20439303441604295,
            mean_queue_wait=0.0002453868287598403,
        ),
    }
    CONFIGS = {
        "default": {},
        "heavy": {"rate": 5.0, "arrival_rate": 500.0},
        "no_delay": {"mean_delay": 0.0},
        "fast": {"rate": 100.0, "arrival_rate": 50.0},
    }

    @pytest.fixture(scope="class")
    def overlay(self):
        return build_overlay(n=120, seed=71, cap=8)

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_stats_equal_the_parent_recording(self, overlay, name):
        sim = TestQuerySimulation().make_sim(overlay, **self.CONFIGS[name])
        assert sim.run(300) == self.PINS[name]


class TestNanIsRejected:
    """NaN compares false against everything: `x <= 0` let it through."""

    def test_models(self):
        nan = float("nan")
        with pytest.raises(ConfigError):
            BandwidthModel({0: nan})
        with pytest.raises(ConfigError):
            BandwidthModel.proportional_to_caps({0: 4}, rate_per_link=nan)
        with pytest.raises(ConfigError):
            LatencyModel(mean_delay=nan)

    def test_arrival_rate(self):
        overlay = build_overlay(n=20, seed=71, cap=4)
        with pytest.raises(ConfigError, match="arrival_rate must be > 0, got nan"):
            TestQuerySimulation().make_sim(overlay, arrival_rate=float("nan"))
