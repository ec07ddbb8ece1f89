"""Tier-1 tests of the asyncio message-passing runtime (``repro.net``).

The load-bearing contract is **oracle equivalence**: under the lockstep
coordinator the live runtime — real peer tasks, real envelopes, the
deterministic in-memory transport — must rebuild bit-for-bit the
topology :class:`~repro.engine.construct.BatchConstructionEngine`
derives from the same seed, including every
:class:`~repro.engine.construct.LinkAcquisitionStats` counter. The
peers run the one join machine,
:class:`~repro.protocol.join.JoinProtocol`, on dealt tickets — the
machine free-mode and TCP peers run on their own streams. Around that
sit invariant-level checks for the free (concurrent, adversarially
ordered) mode, the wire codec, TCP transport end to end, and the
walk-based sampling mode.
"""

from __future__ import annotations

import dataclasses
import inspect
import struct

import numpy as np
import pytest

from repro import OscarConfig
from repro.config import SamplingMode
from repro.core.overlay import OscarOverlay
from repro.degree import ConstantDegrees, SpikyDegreeDistribution
from repro.engine.construct import BatchConstructionEngine, LiveView
from repro.membership import DetectorConfig
from repro.engine import BatchQueryEngine
from repro.errors import ConfigError, SimulationError
from repro.net import NetConfig, NetHarness, codec
from repro.net.codec import MAX_FRAME, FrameError
from repro.rng import split
from repro.workloads import GnutellaLikeDistribution, UniformKeys

LOCKSTEP_PEERS = 500
REWIRE_PEERS = 256
FREE_PEERS = 150
WALK = OscarConfig(sampling_mode=SamplingMode.WALK)


def engine_topology(size, seed, keys, degrees, *, rewire=False):
    """Oracle topology + stats from the batched engine, keyed by node id."""
    overlay = OscarOverlay(OscarConfig(), seed=seed)
    engine = BatchConstructionEngine(overlay)
    stats = engine.grow(size, keys, degrees)
    if rewire:
        # The harness draws its lockstep rewire stream from the same
        # label, so the oracle and the runtime consume identical bits.
        stats = engine.rewire(split(seed, "rewire"))
    view = LiveView.capture(overlay)
    state = view.state
    links, in_deg = {}, {}
    for row in range(view.m):
        slot = int(view.slots[row])
        count = int(state.out_count[slot])
        node_id = int(view.ids[row])
        links[node_id] = [int(x) for x in state.out_links[slot][:count]]
        in_deg[node_id] = int(state.in_deg[slot])
    return links, in_deg, [getattr(stats, f) for f in stats.__slots__]


class TestCodec:
    ENVELOPE = {
        "src": 3,
        "msg": {"kind": "hello", "position": 0.123456789, "cap_in": 4},
    }

    def test_json_frame_round_trip(self):
        frame = codec.encode(self.ENVELOPE)
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4
        assert codec.decode_body(frame[4:]) == self.ENVELOPE

    def test_floats_survive_exactly(self):
        for value in (0.1 + 0.2, 1e-300, 0.9999999999999999):
            frame = codec.encode({"x": value})
            assert codec.decode_body(frame[4:])["x"] == value

    def test_oversized_frame_rejected(self):
        with pytest.raises(FrameError):
            codec.encode({"blob": "x" * (MAX_FRAME + 1)})

    def test_non_dict_body_rejected(self):
        with pytest.raises(FrameError):
            codec.decode_body(b"[1,2,3]")

    def test_unknown_codec_rejected(self):
        """JSON is the one wire format; no config field selects another."""
        with pytest.raises(TypeError):
            NetConfig(codec="pickle")


class TestLockstepOracle:
    """The runtime must equal the engine bit-for-bit under lockstep."""

    def test_grow_matches_engine_exactly(self):
        keys, degrees = UniformKeys(), ConstantDegrees(4)
        oracle_links, oracle_in, oracle_stats = engine_topology(
            LOCKSTEP_PEERS, 42, UniformKeys(), ConstantDegrees(4)
        )
        with NetHarness(NetConfig(seed=42, delivery="lockstep")) as harness:
            stats = harness.build(LOCKSTEP_PEERS, keys, degrees)
            assert harness.out_links() == oracle_links
            assert harness.in_degrees() == oracle_in
            assert [getattr(stats, f) for f in stats.__slots__] == oracle_stats

    def test_rewire_matches_engine_exactly(self):
        keys, degrees = GnutellaLikeDistribution(), SpikyDegreeDistribution()
        oracle_links, oracle_in, oracle_stats = engine_topology(
            REWIRE_PEERS,
            7,
            GnutellaLikeDistribution(),
            SpikyDegreeDistribution(),
            rewire=True,
        )
        with NetHarness(NetConfig(seed=7, delivery="lockstep")) as harness:
            harness.build(REWIRE_PEERS, keys, degrees)
            stats = harness.rewire()
            assert harness.out_links() == oracle_links
            assert harness.in_degrees() == oracle_in
            assert [getattr(stats, f) for f in stats.__slots__] == oracle_stats

    def test_lockstep_requires_memory_uniform(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            NetHarness(NetConfig(seed=0, delivery="lockstep", transport="tcp"))
        with pytest.raises(ConfigError):
            NetHarness(NetConfig(seed=0, delivery="lockstep", overlay=WALK))


class TestRoutesMatchWalkKernel:
    """Live probes hop exactly as the engines' walk kernel does."""

    def test_lockstep_probes_match_route_batch(self):
        keys, degrees = GnutellaLikeDistribution(), SpikyDegreeDistribution()
        probes = 200
        with NetHarness(NetConfig(seed=7, delivery="lockstep")) as harness:
            harness.build(REWIRE_PEERS, keys, degrees)
            success, mean_hops = harness.route_check(probes)
            directory = harness.directory
        assert success == 1.0
        overlay = OscarOverlay(OscarConfig(), seed=7)
        BatchConstructionEngine(overlay).grow(REWIRE_PEERS, keys, degrees)
        # The harness's own probe draws, replayed against the twin.
        rng = split(7, "net", "routes", 0)
        targets, sources = [], []
        for __ in range(probes):
            targets.append(float(rng.random()))
            sources.append(directory.id_at(int(rng.integers(0, directory.m))))
        result = BatchQueryEngine(overlay).route_batch(np.array(sources), np.array(targets))
        assert result.success.all()
        assert mean_hops == int(result.hops.sum()) / probes


class TestFreeMode:
    """Concurrent joins under adversarial delivery: invariants, not bits."""

    def test_random_delivery_respects_caps_and_routes(self):
        with NetHarness(NetConfig(seed=11, delivery="random")) as harness:
            stats = harness.build(FREE_PEERS, UniformKeys(), ConstantDegrees(4))
            assert stats.links_placed > 0
            summary = harness.summary()
            assert summary.n == FREE_PEERS
            assert summary.cap_violations == 0
            assert summary.directory_mismatches == 0
            success, mean_hops = harness.route_check(100)
            assert success == 1.0
            assert mean_hops > 0.0

    def test_same_seed_same_topology(self):
        def build_links(seed):
            with NetHarness(NetConfig(seed=seed, delivery="random")) as h:
                h.build(80, UniformKeys(), ConstantDegrees(4))
                return h.out_links()

        assert build_links(5) == build_links(5)
        assert build_links(5) != build_links(6)

    def test_rewire_resets_then_reacquires(self):
        with NetHarness(NetConfig(seed=3, delivery="random")) as harness:
            harness.build(80, UniformKeys(), ConstantDegrees(4))
            before = harness.out_links()
            stats = harness.rewire()
            assert stats.links_placed > 0
            after = harness.out_links()
            assert set(after) == set(before)  # same membership
            assert harness.summary().cap_violations == 0
            success, __ = harness.route_check(50)
            assert success == 1.0
            assert after != before  # fresh epoch RNG, different long links

    def test_walk_mode_build_routes(self):
        config = OscarConfig(sampling_mode=SamplingMode.WALK)
        with NetHarness(NetConfig(overlay=config, seed=9)) as harness:
            harness.build(60, UniformKeys(), ConstantDegrees(4))
            assert harness.summary().cap_violations == 0
            success, __ = harness.route_check(50)
            assert success == 1.0


class TestNetConfig:
    """The frozen configuration surface: every bad combination is a
    ConfigError at construction, not a traceback mid-run."""

    def test_defaults_resolve(self):
        # Five fields, one spelling each: lockstep is a delivery order and
        # probe loss is the detector's own knob.
        config = NetConfig()
        assert [f.name for f in dataclasses.fields(config)] == [
            "overlay",
            "seed",
            "delivery",
            "transport",
            "detector",
        ]
        assert (config.delivery, config.transport, config.detector) == ("fifo", "memory", None)

    # Probe loss is DetectorConfig.loss, validated there
    # (tests/test_membership.py::TestDetectorConfig).
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"transport": "carrier-pigeon"},
            {"delivery": "chaotic"},
            {"delivery": None},  # no unresolved spelling: fifo is the default
            {"delivery": "lockstep", "transport": "tcp"},
            {"delivery": "lockstep", "overlay": WALK},
            {"transport": None},
            {"delivery": "random", "detector": DetectorConfig(), "transport": "tcp"},
            {"delivery": "lockstep", "detector": DetectorConfig()},
            {"detector": DetectorConfig(), "transport": "tcp"},
        ],
    )
    def test_bad_combinations_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            NetConfig(**kwargs)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            NetConfig().seed = 7  # type: ignore[misc]

    def test_harness_rejects_kwargs_alongside_netconfig(self):
        # One constructor spelling: every knob lives inside the NetConfig.
        assert list(inspect.signature(NetHarness.__init__).parameters) == [
            "self",
            "config",
        ]
        with pytest.raises(TypeError):
            NetHarness(NetConfig(), seed=7)  # type: ignore[call-arg]

    def test_lockstep_sampling_walk_rejected(self):
        with pytest.raises(ConfigError):
            NetConfig(overlay=WALK, delivery="lockstep")


DETECTOR = DetectorConfig(
    failure_threshold=2,
    quorum=2,
    n_monitors=3,
    ping_interval_s=0.03,
    timeout_s=0.06,
)


class TestDetectorPipeline:
    """The wire half of the tentpole: silent kills detected via probe
    timeouts, quorum-evicted by the seed, converged via Dead
    broadcasts. Invariant-level (free mode), wall-clocked."""

    def test_kill_detect_evict_route(self):
        with NetHarness(NetConfig(seed=5, detector=DETECTOR)) as harness:
            harness.build(30, UniformKeys(), ConstantDegrees(4))
            harness.start_detector()
            harness.kill([3, 17])
            assert harness.await_evictions([3, 17], timeout_s=30.0) == [3, 17]
            assert harness.membership_agreement() == 0
            success, __ = harness.route_check(60)
            assert success >= 0.99
            summary = harness.summary()
            assert summary.n == 28
            assert summary.directory_mismatches == 0

    def test_kill_mid_join_still_quiesces_and_evicts(self):
        # Victims die while join walks and link negotiations are in
        # flight — survivors must time the lost replies out, finish
        # joining, and later evict the bodies.
        with NetHarness(NetConfig(seed=9, detector=DETECTOR)) as harness:
            harness.build(
                24, UniformKeys(), ConstantDegrees(4), kill_mid_join=(4, 11)
            )
            harness.start_detector()
            harness.await_evictions([4, 11], timeout_s=30.0)
            assert harness.membership_agreement() == 0
            success, __ = harness.route_check(40)
            assert success >= 0.99

    def test_eviction_converges_under_probe_loss(self):
        # The wire drops Pings at the detector's own loss rate.
        lossy = NetConfig(
            seed=13,
            detector=DetectorConfig(
                failure_threshold=3,
                quorum=2,
                n_monitors=3,
                loss=0.2,
                ping_interval_s=0.02,
                timeout_s=0.05,
            ),
        )
        with NetHarness(lossy) as harness:
            harness.build(20, UniformKeys(), ConstantDegrees(4))
            harness.start_detector()
            harness.kill([7])
            assert harness.await_evictions([7], timeout_s=30.0) == [7]
            assert harness.probes_dropped > 0

    def test_kill_mid_join_requires_detector(self):
        with NetHarness(NetConfig(seed=0)) as harness:
            with pytest.raises(ConfigError):
                harness.build(
                    20, UniformKeys(), ConstantDegrees(4), kill_mid_join=(3,)
                )

    def test_kill_requires_detector(self):
        # Without reply timers a probe into a victim would be awaited
        # forever: refused before any Kill is sent.
        with NetHarness(NetConfig(seed=5)) as harness:
            harness.build(30, UniformKeys(), ConstantDegrees(4))
            with pytest.raises(ConfigError):
                harness.kill([3, 17])
            success, __ = harness.route_check(20)
            assert success == 1.0
            assert harness.summary().n == 30

    def test_route_check_bounded_before_detector_starts(self):
        # Mid-join victims are still in every directory and nobody
        # probes them yet; the first probe starts at victim 20 and must
        # time out instead of hanging the check.
        with NetHarness(NetConfig(seed=9, detector=DETECTOR)) as harness:
            harness.build(24, UniformKeys(), ConstantDegrees(4), kill_mid_join=(4, 20))
            harness.route_check(2)
            summary = harness.summary()
            assert summary.routes_attempted == 2
            assert summary.routes_delivered < 2

    def test_kill_before_build_rejected(self):
        with NetHarness(NetConfig(seed=0, detector=DETECTOR)) as harness:
            with pytest.raises(SimulationError):
                harness.kill([1])

    def test_await_without_start_rejected(self):
        with NetHarness(NetConfig(seed=0, detector=DETECTOR)) as harness:
            harness.build(10, UniformKeys(), ConstantDegrees(3))
            with pytest.raises(SimulationError):
                harness.await_evictions([1])


class TestTcpTransport:
    def test_small_overlay_over_real_sockets(self):
        with NetHarness(NetConfig(seed=21, transport="tcp")) as harness:
            stats = harness.build(8, UniformKeys(), ConstantDegrees(3))
            assert stats.links_placed > 0
            summary = harness.summary()
            assert summary.n == 8
            assert summary.cap_violations == 0
            success, __ = harness.route_check(20)
            assert success == 1.0


class TestSummary:
    def test_summary_accounting(self):
        with NetHarness(NetConfig(seed=13)) as harness:
            harness.build(50, UniformKeys(), ConstantDegrees(4))
            harness.route_check(25)
            summary = harness.summary()
            assert summary.n == 50
            assert summary.links == sum(len(v) for v in harness.out_links().values())
            assert summary.routes_attempted == 25
            assert summary.routes_delivered == 25
            assert summary.route_success == 1.0
            assert summary.messages > 0
            assert summary.generations > 0
            assert summary.directory_mismatches == 0
