"""Scale smoke tests: 10k live asyncio peers, 100k-peer probe membership,
then a million-peer SoA build.

Marked ``slow`` and therefore excluded from the tier-1 run (see
``pytest.ini``); the bench-trajectory CI job runs it with ``-m slow``. The
gates are deliberately generous multiples of the measured CI-runner
numbers (~15 s build, ~0.9 GiB peak RSS for the million-peer half) —
they catch order-of-magnitude regressions (per-peer Python objects
creeping back in, accidental O(N²) loops), not scheduler jitter.
"""

from __future__ import annotations

import time

import pytest

from repro import OscarConfig, OscarOverlay
from repro.churn.sessions import ExponentialSessions
from repro.degree import ConstantDegrees
from repro.engine import BatchQueryEngine, SteadyStateChurnEngine
from repro.experiments import Runner
from repro.net import NetConfig, NetHarness
from repro.rng import split
from repro.workloads import GnutellaLikeDistribution, UniformKeys

from scripts.bench_ci import max_rss_mb  # type: ignore[import-not-found]

MILLION = 1_000_000
BUILD_WALL_SECONDS = 300.0
RSS_CEILING_MB = 8192.0

NET_PEERS = 10_000
NET_BUILD_WALL_SECONDS = 120.0
NET_RSS_CEILING_MB = 2048.0

DETECT_RSS_CEILING_MB = 1024.0


def check_rss_ceiling(ceiling_mb: float) -> None:
    """Fail when the process peak RSS (a high-water mark) exceeds the ceiling."""
    peak = max_rss_mb()
    assert peak <= ceiling_mb, (
        f"peak RSS {peak:.0f} MiB exceeds the {ceiling_mb:.0f} MiB ceiling"
    )


@pytest.mark.slow
def test_ten_thousand_live_asyncio_peers_boot_and_route():
    """10k live asyncio peer tasks on the in-memory transport.

    Ordered before the million-peer test on purpose:
    :func:`check_rss_ceiling` reads the whole-process high-water mark,
    so this gate is only meaningful while the process is still small.
    The measured numbers are ~12 s and ~130 MiB; the gates are
    order-of-magnitude guards (per-peer state bloat, a directory copy
    per peer), not scheduler jitter.
    """
    started = time.perf_counter()
    with NetHarness(NetConfig(seed=42)) as harness:
        stats = harness.build(NET_PEERS, UniformKeys(), ConstantDegrees(4))
        build_seconds = time.perf_counter() - started
        assert build_seconds < NET_BUILD_WALL_SECONDS, (
            f"10k-peer net build took {build_seconds:.0f}s "
            f"(gate {NET_BUILD_WALL_SECONDS:.0f}s)"
        )
        assert stats.links_placed > NET_PEERS  # several long links per peer
        success, __ = harness.route_check(100)
        assert success == 1.0
        summary = harness.summary()
        assert summary.n == NET_PEERS
        assert summary.cap_violations == 0
    check_rss_ceiling(NET_RSS_CEILING_MB)


@pytest.mark.slow
def test_hundred_thousand_peer_probe_membership_fits_a_gibibyte():
    """``detector-churn`` at 100k peers (half-life 64, 12 epochs): the
    probe plane evicts, never falsely at zero loss, and fits in 1 GiB.

    Ordered after the 10k net test (~130 MiB) and before the
    million-peer test, so the high-water mark it reads is its own. The
    measured numbers are ~48 s and ~500 MiB; the bit-packed gossip plane
    is what fits — its ``bool``-matrix predecessor peaked at 2.5 GiB.
    """
    record = Runner(defaults={"seed": 20070415}).run(
        "detector-churn", {"size": 100_000, "half_life": 64.0, "epochs": 12}
    )
    assert record.result.scalars["evictions"] > 0
    assert record.result.scalars["false_evictions"] == 0
    check_rss_ceiling(DETECT_RSS_CEILING_MB)


@pytest.mark.slow
def test_million_peer_build_and_steady_churn():
    keys = GnutellaLikeDistribution()
    degrees = ConstantDegrees(12)

    started = time.perf_counter()
    overlay = OscarOverlay(OscarConfig(), seed=42)
    overlay.grow_batch(MILLION, keys, degrees)
    build_seconds = time.perf_counter() - started
    assert overlay.size == MILLION
    assert build_seconds < BUILD_WALL_SECONDS, (
        f"1M-peer build took {build_seconds:.0f}s (gate {BUILD_WALL_SECONDS:.0f}s)"
    )
    check_rss_ceiling(RSS_CEILING_MB)

    probe = BatchQueryEngine(overlay).measure(
        split(42, "million-smoke"), n_queries=10_000
    )
    assert probe.success_rate == 1.0
    assert probe.n_routes == 10_000

    churn = SteadyStateChurnEngine(
        overlay,
        keys,
        degrees,
        ExponentialSessions(50.0),
        arrival_rate=2000.0,
        repair_every=5,
        n_probes=500,
        seed=7,
    )
    for _ in range(10):
        stats = churn.run_epoch()
        assert stats.probes.success_rate == 1.0
    assert overlay.size > MILLION // 2
    check_rss_ceiling(RSS_CEILING_MB)
