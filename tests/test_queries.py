"""Tests for query workload generation (repro.workloads.queries)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import EmptyPopulationError, ExperimentError
from repro.membership import OracleView
from repro.ring import Ring
from repro.rng import make_rng
from repro.workloads import GnutellaLikeDistribution, Query, QueryWorkload


def ring_of(n: int) -> Ring:
    ring = Ring()
    for node_id in range(n):
        ring.insert(node_id, node_id / n)
    return ring


class TestValidation:
    def test_key_mode_requires_distribution(self):
        with pytest.raises(ExperimentError):
            QueryWorkload(target_mode="key")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ExperimentError):
            QueryWorkload(target_mode="bogus")  # type: ignore[arg-type]

    def test_negative_count_rejected(self):
        workload = QueryWorkload()
        with pytest.raises(ExperimentError):
            list(workload.generate(ring_of(4), make_rng(0), -1))

    def test_empty_ring_rejected(self):
        with pytest.raises(EmptyPopulationError):
            list(QueryWorkload().generate(Ring(), make_rng(0), 5))


class TestPeerMode:
    def test_yields_requested_count(self):
        queries = list(QueryWorkload().generate(ring_of(16), make_rng(1), 100))
        assert len(queries) == 100
        assert all(isinstance(q, Query) for q in queries)

    def test_sources_are_live_peers(self):
        ring = ring_of(16)
        OracleView(ring).crash([3])
        queries = list(QueryWorkload().generate(ring, make_rng(2), 200))
        assert all(q.source != 3 for q in queries)

    def test_targets_are_peer_positions(self):
        ring = ring_of(8)
        positions = {ring.position(i) for i in range(8)}
        queries = list(QueryWorkload().generate(ring, make_rng(3), 100))
        assert all(q.target_key in positions for q in queries)

    def test_every_peer_eventually_targeted(self):
        ring = ring_of(8)
        queries = list(QueryWorkload().generate(ring, make_rng(4), 500))
        targeted = {q.target_key for q in queries}
        assert len(targeted) == 8

    def test_deterministic_per_rng(self):
        ring = ring_of(8)
        a = list(QueryWorkload().generate(ring, make_rng(5), 20))
        b = list(QueryWorkload().generate(ring, make_rng(5), 20))
        assert a == b


class TestKeyMode:
    def test_targets_follow_distribution(self):
        dist = GnutellaLikeDistribution()
        workload = QueryWorkload(target_mode="key", key_distribution=dist)
        queries = list(workload.generate(ring_of(8), make_rng(6), 3000))
        targets = np.array([q.target_key for q in queries])
        # Compare empirical mass below the distribution's median key.
        median_key = dist.quantile(0.5)
        assert (targets <= median_key).mean() == pytest.approx(0.5, abs=0.04)

    def test_targets_need_not_be_peer_positions(self):
        workload = QueryWorkload(target_mode="key", key_distribution=GnutellaLikeDistribution())
        queries = list(workload.generate(ring_of(4), make_rng(7), 50))
        positions = {i / 4 for i in range(4)}
        assert any(q.target_key not in positions for q in queries)


class TestUniformMode:
    def test_targets_roughly_uniform(self):
        workload = QueryWorkload(target_mode="uniform")
        queries = list(workload.generate(ring_of(4), make_rng(8), 8000))
        targets = np.array([q.target_key for q in queries])
        assert targets.mean() == pytest.approx(0.5, abs=0.02)
        counts, __ = np.histogram(targets, bins=10, range=(0, 1))
        assert counts.min() > 800 - 4 * np.sqrt(800)

    def test_zero_count_is_empty(self):
        assert list(QueryWorkload().generate(ring_of(4), make_rng(9), 0)) == []
