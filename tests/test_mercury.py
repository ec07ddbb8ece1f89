"""Tests for the Mercury baseline (repro.mercury)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import MercuryConfig
from repro.degree import ConstantDegrees
from repro.errors import EmptyPopulationError, UnknownNodeError
from repro.mercury import MercuryOverlay
from repro.mercury.construction import build_histogram, harmonic_rank_fraction
from repro.ring import verify
from repro.rng import make_rng
from repro.workloads import UniformKeys

from conftest import build_mercury, build_overlay, links_of


class TestHarmonicRankFraction:
    def test_bounds(self):
        rng = make_rng(0)
        for n in (2, 10, 1000):
            for __ in range(200):
                fraction = harmonic_rank_fraction(rng, n)
                assert 1.0 / n <= fraction <= 1.0

    def test_rejects_tiny_population(self):
        with pytest.raises(ValueError):
            harmonic_rank_fraction(make_rng(0), 1)

    def test_log_uniform_density(self):
        # P(d) ∝ 1/d on [1/n, 1] means log(d) is uniform on [-log n, 0].
        rng = make_rng(1)
        n = 1024
        draws = np.array([harmonic_rank_fraction(rng, n) for __ in range(20_000)])
        logs = np.log(draws) / np.log(n) + 1.0  # mapped to [0, 1]
        counts, __ = np.histogram(logs, bins=10, range=(0, 1))
        assert counts.min() > 2000 - 5 * np.sqrt(2000)


class TestBuildHistogram:
    def test_histogram_from_network(self):
        overlay = build_mercury(n=100, seed=1, rewire=False)
        hist = build_histogram(overlay.ring, MercuryConfig(), make_rng(2))
        assert hist.buckets == MercuryConfig().histogram_buckets
        assert hist.cumulative[-1] == pytest.approx(1.0)

    def test_histogram_reflects_population_density(self):
        overlay = build_mercury(n=300, seed=2, skewed=True, rewire=False)
        hist = build_histogram(
            overlay.ring, MercuryConfig(sample_size=256), make_rng(3)
        )
        positions = overlay.ring.positions_array(live_only=True)
        for probe in (0.25, 0.5, 0.75):
            true_mass = float((positions <= probe).mean())
            assert hist.cdf(probe) == pytest.approx(true_mass, abs=0.12)


class TestMercuryOverlayFacade:
    def test_grow_and_len(self):
        overlay = MercuryOverlay()
        overlay.grow(80, UniformKeys(), ConstantDegrees(6))
        assert len(overlay) == 80

    def test_ring_pointers_valid(self):
        overlay = build_mercury(n=60, seed=3)
        verify(overlay.ring, overlay.pointers)

    def test_routes_deliver(self):
        overlay = build_mercury(n=150, seed=4)
        rng = make_rng(5)
        for __ in range(50):
            source = overlay.random_live_node(rng)
            key = float(rng.random())
            result = overlay.route(source, key)
            assert result.success
            assert result.delivered_to == overlay.ring.successor_of_key(key)

    def test_neighbors_of_unknown_node(self):
        overlay = build_mercury(n=10, seed=5)
        with pytest.raises(UnknownNodeError):
            overlay.neighbors_of(999_999)

    def test_random_live_node_empty(self):
        with pytest.raises(EmptyPopulationError):
            MercuryOverlay().random_live_node()

    def test_rewire_returns_links_placed(self):
        overlay = build_mercury(n=80, seed=6, rewire=False)
        placed = overlay.rewire()
        assert placed > 0

    def test_caps_respected(self):
        overlay = build_mercury(n=120, seed=7, cap=5)
        assert np.all(overlay.in_degree_array() <= overlay.in_cap_array())
        assert np.all(overlay.out_degree_array() <= overlay.out_cap_array())

    def test_same_seed_reproducible(self):
        a = build_mercury(n=60, seed=8)
        b = build_mercury(n=60, seed=8)
        assert links_of(a) == links_of(b)

    def test_repr(self):
        overlay = build_mercury(n=10, seed=9)
        assert "MercuryOverlay" in repr(overlay)

    def test_faulty_routing_after_churn(self):
        overlay = build_mercury(n=100, seed=10)
        for victim in list(overlay.ring.node_ids())[::6]:
            overlay.ring.mark_dead(victim)
        overlay.repair_ring()
        rng = make_rng(11)
        delivered = 0
        for __ in range(40):
            source = overlay.random_live_node(rng)
            delivered += overlay.route(source, float(rng.random()), faulty=True).success
        assert delivered == 40


class TestMercuryVsOscarMechanism:
    """The comparison facts the paper quotes, at test-friendly scale."""

    def test_mercury_wastes_capacity_under_skew(self):
        oscar = build_overlay(n=400, seed=12, cap=8, skewed=True)
        mercury = build_mercury(n=400, seed=12, cap=8, skewed=True)
        oscar_volume = oscar.in_degree_array().sum() / oscar.in_cap_array().sum()
        mercury_volume = mercury.in_degree_array().sum() / mercury.in_cap_array().sum()
        assert oscar_volume > mercury_volume

    def test_mercury_link_ranks_distorted_under_skew(self):
        from repro.smallworld import harmonic_divergence, link_rank_distribution

        def divergence(overlay) -> float:
            links = [(i, target) for i, targets in links_of(overlay).items() for target in targets]
            ranks = link_rank_distribution(overlay.ring, links)
            return harmonic_divergence(ranks, overlay.ring.live_count)

        oscar = build_overlay(n=400, seed=13, cap=8, skewed=True)
        mercury = build_mercury(n=400, seed=13, cap=8, skewed=True)
        assert divergence(oscar) < divergence(mercury)

    def test_mercury_fine_on_uniform_keys(self):
        # Mercury's histogram is correct when the homogeneity assumption
        # holds; the baseline must not be a strawman.
        mercury = build_mercury(n=300, seed=14, cap=8, skewed=False)
        rng = make_rng(15)
        costs = []
        for __ in range(100):
            source = mercury.random_live_node(rng)
            result = mercury.route(source, float(rng.random()))
            assert result.success
            costs.append(result.cost)
        assert np.mean(costs) < np.log2(300) ** 2 / 4
