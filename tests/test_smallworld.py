"""Tests for Kleinberg utilities and theory anchors (repro.smallworld)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.ring import Ring
from repro.rng import make_rng
from repro.smallworld import (
    expected_greedy_cost,
    harmonic_divergence,
    link_rank_distribution,
    min_long_links_for_cost,
    worst_case_greedy_cost,
)


def even_ring(n: int) -> Ring:
    ring = Ring()
    for node_id in range(n):
        ring.insert(node_id, node_id / n)
    return ring


class TestLinkRankDistribution:
    def test_ranks_of_known_links(self):
        ring = even_ring(16)
        links = [(0, 1), (0, 8), (4, 5), (15, 0)]
        ranks = link_rank_distribution(ring, links)
        np.testing.assert_array_equal(ranks, [1, 8, 1, 1])

    def test_empty_links(self):
        assert link_rank_distribution(even_ring(4), []).size == 0


class TestHarmonicDivergence:
    def test_harmonic_links_score_low(self):
        rng = make_rng(6)
        n = 2048
        # Inverse-CDF draws with P(rank = r) ~ 1/r, clamped to [1, n].
        ranks = np.clip(np.exp(rng.random(20_000) * math.log(n)).astype(np.int64), 1, n)
        assert harmonic_divergence(ranks, n) < 0.1

    def test_point_mass_scores_high(self):
        n = 2048
        ranks = np.full(1000, 7)
        assert harmonic_divergence(ranks, n) > 0.8

    def test_uniform_rank_links_score_mid(self):
        # Uniform (not harmonic) rank links over-weight far ranks.
        rng = make_rng(7)
        n = 2048
        ranks = rng.integers(1, n + 1, size=20_000)
        divergence = harmonic_divergence(ranks, n)
        assert 0.3 < divergence < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            harmonic_divergence(np.array([]), 10)
        with pytest.raises(ValueError):
            harmonic_divergence(np.array([1]), 1)


class TestTheoryAnchors:
    def test_expected_cost_decreases_with_links(self):
        assert expected_greedy_cost(10_000, 27) < expected_greedy_cost(10_000, 1)

    def test_expected_cost_grows_slowly_with_n(self):
        # log^2 growth: a 100x larger network costs < 3x more, not 100x.
        assert expected_greedy_cost(100_000, 27) < 3 * expected_greedy_cost(1_000, 27)

    def test_tiny_network_zero(self):
        assert expected_greedy_cost(1, 5) == 0.0
        assert worst_case_greedy_cost(1) == 0.0

    def test_rejects_nonpositive_links(self):
        with pytest.raises(ValueError):
            expected_greedy_cost(100, 0)

    def test_worst_case_is_log_squared(self):
        assert worst_case_greedy_cost(1024) == pytest.approx(100.0)

    def test_min_links_inverts_expected_cost(self):
        n = 10_000
        links = min_long_links_for_cost(n, target_cost=10.0)
        assert expected_greedy_cost(n, links) <= 10.0
        assert expected_greedy_cost(n, links - 1) > 10.0 or links == 1

    def test_min_links_validation(self):
        with pytest.raises(ValueError):
            min_long_links_for_cost(100, 0.0)
        assert min_long_links_for_cost(1, 5.0) == 1

    def test_measured_overlay_within_theory_envelope(self, shared_overlay):
        # The shared 300-peer overlay with ~10 links/peer must beat the
        # 1-link worst case comfortably and sit within a small constant
        # of the expected-cost anchor.
        from repro.engine import BatchQueryEngine

        stats = BatchQueryEngine(shared_overlay).measure(make_rng(8), n_queries=150)
        n = len(shared_overlay)
        assert stats.mean_cost < worst_case_greedy_cost(n)
        anchor = expected_greedy_cost(n, 10)
        assert stats.mean_cost < 5 * max(anchor, 1.0)
