"""Partition estimation: the exact oracle table, and the sampled
estimates the construction engine makes — read back through
``OscarOverlay.partition_table`` after a ``rewire_batch``, on the kernels and on
their twin (``vectorized=False``) alike."""

from __future__ import annotations

import pytest

from repro import OscarOverlay
from repro.membership import OracleView
from repro.config import OscarConfig, SamplingMode
from repro.core import oracle_partitions
from repro.errors import SamplingError
from repro.ring import Ring, cw_distance
from repro.rng import make_rng
from repro.workloads import GnutellaLikeDistribution

from conftest import ids_in_cw_range


def even_ring(n: int) -> Ring:
    ring = Ring()
    for node_id in range(n):
        ring.insert(node_id, node_id / n)
    return ring


def skewed_ring(n: int, seed: int = 0) -> Ring:
    ring = Ring()
    keys = GnutellaLikeDistribution().sample(make_rng(seed), n)
    node_id = 0
    for key in keys:
        try:
            ring.insert(node_id, float(key))
        except Exception:
            continue
        node_id += 1
    return ring


def estimated(ring: Ring, seed: int, **config: object) -> list[OscarOverlay]:
    """An overlay over ``ring``'s peers (same dense ids, no links) after
    one ``rewire_batch`` on each path; the two tables checked equal.
    Dead peers of ``ring`` stay dead."""
    ids = sorted(ring.node_ids(live_only=False))
    assert ids == list(range(len(ids)))
    overlays = []
    for vectorized in (True, False):
        overlay = OscarOverlay(OscarConfig(**config), seed=seed)
        for node_id in ids:
            overlay._splice(ring.position(node_id))
        OracleView(overlay.ring).crash([i for i in ids if not ring.is_alive(i)])
        overlay.rewire_batch(make_rng(seed), vectorized=vectorized)
        overlays.append(overlay)
    kernel, twin = overlays
    assert tables(kernel) == tables(twin)
    return overlays


def tables(overlay: OscarOverlay) -> list:
    """Every live peer's partition table, in ring order."""
    return [overlay.partition_table(node_id) for node_id in overlay.live_node_ids()]


class TestOraclePartitions:
    def test_halving_on_even_ring(self):
        ring = even_ring(128)
        table = oracle_partitions(ring, 0, k=5)
        assert table.n_partitions == 5
        # Population excluding self: 127. Borders at ranks 63, 31, 15, 7.
        for median, rank in zip(table.medians, (63, 31, 15, 7)):
            assert median == pytest.approx(ring.position_at_cw_rank(0.0, rank))

    def test_partition_sizes_halve(self):
        ring = even_ring(256)
        table = oracle_partitions(ring, 17, k=6)
        sizes = [
            len(ids_in_cw_range(ring, arc[0], arc[1]))
            for arc in table.arcs()
            if arc is not None
        ]
        # 255 peers split as 128 (beyond m1=127) ... wait: A1 holds all
        # peers beyond the median rank: 255 - 127 = 128, then 64, 32, 16.
        assert sizes[0] in (127, 128)
        for bigger, smaller in zip(sizes, sizes[1:-1]):
            assert bigger == pytest.approx(2 * smaller, abs=2)

    def test_k_capped_by_population(self):
        ring = even_ring(4)
        table = oracle_partitions(ring, 0, k=10)
        assert table.n_partitions <= 3  # 3 other peers: at most ~log2 levels

    def test_empty_population_rejected(self):
        ring = Ring()
        ring.insert(0, 0.5)
        with pytest.raises(SamplingError):
            oracle_partitions(ring, 0, k=3)

    def test_skew_invariance_in_rank_space(self):
        # Oracle medians always split the *population*, however keys skew.
        ring = skewed_ring(200)
        node = ring.node_ids()[0]
        table = oracle_partitions(ring, node, k=4)
        n = ring.live_count - 1
        arc1 = table.arc(1)
        assert len(ids_in_cw_range(ring, arc1[0], arc1[1])) == pytest.approx(n / 2, abs=2)

    def test_dead_peers_excluded(self):
        ring = even_ring(64)
        OracleView(ring).crash([victim for victim in range(0, 64, 4) if victim != 1])
        table = oracle_partitions(ring, 1, k=4)
        live = ring.live_count - 1
        arc1 = table.arc(1)
        assert len(ids_in_cw_range(ring, arc1[0], arc1[1])) == pytest.approx(live / 2, abs=2)


class TestSampledPartitions:
    def test_uniform_mode_close_to_oracle(self):
        ring = skewed_ring(500, seed=1)
        node = ring.node_ids()[10]
        oracle = oracle_partitions(ring, node, k=8)
        n = ring.live_count - 1
        origin = ring.position(node)
        oracle_rank = ring.cw_rank_of(origin, ring.successor_of_key(oracle.medians[0]))
        for overlay in estimated(ring, 2, n_partitions=8, sample_size=64):
            sampled = overlay.partition_table(node)
            # Compare the rank position of the first (outermost) border.
            sampled_rank = ring.cw_rank_of(origin, ring.successor_of_key(sampled.medians[0]))
            assert abs(oracle_rank - sampled_rank) < 0.15 * n

    def test_low_sample_sizes_still_work(self):
        # The paper: "very good results in practice even with very low
        # sample sizes". With s=4 the borders are noisy but valid.
        ring = skewed_ring(300, seed=2)
        node = ring.node_ids()[5]
        for overlay in estimated(ring, 3, n_partitions=8, sample_size=4):
            table = overlay.partition_table(node)
            assert table.n_partitions >= 2
            # Invariant enforcement: medians strictly shrink.
            distances = [cw_distance(table.origin, m) for m in table.medians]
            assert all(a > b for a, b in zip(distances, distances[1:]))

    def test_walk_mode_produces_valid_tables(self):
        ring = skewed_ring(200, seed=3)
        node = ring.node_ids()[7]
        config = dict(sampling_mode=SamplingMode.WALK, sample_size=12, walk_hops=4)
        for overlay in estimated(ring, 4, n_partitions=6, **config):
            assert overlay.partition_table(node).n_partitions >= 2
            # Every peer walked its own arcs: all tables are real descents.
            assert all(table.n_partitions >= 2 for table in tables(overlay))

    def test_two_peer_network(self):
        for overlay in estimated(even_ring(2), 6, n_partitions=4):
            assert overlay.partition_table(0).n_partitions >= 1

    def test_sole_live_peer_rejected(self):
        ring = Ring()
        ring.insert(0, 0.5)
        with pytest.raises(SamplingError):
            estimated(ring, 7)

    def test_sole_live_peer_among_dead_gets_trivial_table(self):
        ring = even_ring(4)
        OracleView(ring).crash([1, 2, 3])
        # The dead peers are no population: node 0 alone cannot be
        # estimated (nor rewired), on either path.
        with pytest.raises(SamplingError):
            estimated(ring, 8)


class TestEstimateDispatch:
    def test_oracle_dispatch(self):
        ring = even_ring(64)
        config = OscarConfig(sampling_mode=SamplingMode.ORACLE)
        for overlay in estimated(ring, 9, sampling_mode=SamplingMode.ORACLE):
            for node_id in ring.node_ids():
                exact = oracle_partitions(ring, node_id, config.partitions_for(64))
                assert overlay.partition_table(node_id) == exact

    def test_uniform_dispatch_uses_auto_k(self):
        # auto partitions: log2(64) = 6
        for overlay in estimated(even_ring(64), 10):
            assert max(table.n_partitions for table in tables(overlay)) == 6

    def test_explicit_k_respected(self):
        config = dict(n_partitions=3, sampling_mode=SamplingMode.ORACLE)
        for overlay in estimated(even_ring(256), 11, **config):
            assert all(table.n_partitions == 3 for table in tables(overlay))


class TestEstimatorQualityUnderSkew:
    def test_sampled_borders_track_population_not_keyspace(self):
        # On a cascade, key-space midpoints are nowhere near population
        # medians; the estimator must find the latter.
        ring = skewed_ring(400, seed=12)
        node = ring.node_ids()[0]
        origin = ring.position(node)
        n = ring.live_count - 1
        for overlay in estimated(ring, 13, n_partitions=6, sample_size=32):
            table = overlay.partition_table(node)
            first_rank = ring.cw_rank_of(origin, ring.successor_of_key(table.medians[0]))
            # Population median rank is n/2; key-space midpoint under heavy
            # skew would land at a wildly different rank.
            assert abs(first_rank - n / 2) < 0.2 * n
