"""Tier-1 tests of the membership package (``repro.membership``).

Four layers, innermost out:

* the sans-I/O :class:`~repro.membership.detector.FailureDetector` and
  its timing contract — the *closed* alive-side boundary (a PONG whose
  round trip equals ``timeout_s`` exactly is on time; a poll at exactly
  the deadline expires nothing);
* :class:`~repro.membership.gossip.GossipMembership` — push-epidemic
  spread, the staleness bound, duplicate suppression, coverage before
  the bound, and the hypothesis differential that holds the count plane
  identical to its per-report scalar twin (completions,
  ``informed_count``, generator position); the per-peer set model it
  replaced is a distributional oracle in ``tests/test_gossip_oracle.py``;
* the :class:`~repro.membership.views.MembershipView` implementations —
  :class:`OracleView` must be byte-for-byte the old bitmap behavior,
  :class:`ProbeView` must measure detection lag and never falsely evict
  at zero loss (hypothesis property);
* the scalar/vectorized differential — both detector banks driven
  through identical schedules must agree on every observable
  (hypothesis-pinned, the bit-identity half of the acceptance
  criteria).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, EmptyPopulationError
from repro.membership import (
    POLL_TIMER,
    DetectorConfig,
    FailureDetector,
    GossipMembership,
    MembershipView,
    OracleView,
    ProbeView,
)
from repro.membership.vectorized import VectorizedDetectorBank
from repro.protocol.effects import Send, StartTimer, SuspectPeer
from repro.protocol.messages import Ping, Pong
from repro.ring import Ring
from repro.rng import split
from twins import ScalarDetectorBank, ScalarGossipMembership, ScalarProbeView

#: The probe view of each backend: the kernels, or the scalar twins.
PROBE_VIEWS = {"vectorized": ProbeView, "scalar": ScalarProbeView}


def make_ring(n: int) -> Ring:
    ring = Ring()
    ring.insert_many((i, i / n) for i in range(n))
    return ring


def pings(effects) -> dict[int, int]:
    """target -> seq of every Ping sent in ``effects``."""
    return {
        e.to: e.message.seq
        for e in effects
        if isinstance(e, Send) and isinstance(e.message, Ping)
    }


def suspects(effects) -> list[int]:
    return [e.peer for e in effects if isinstance(e, SuspectPeer)]


class TestDetectorConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"failure_threshold": 0},
            {"n_monitors": 0},
            {"quorum": 0},
            {"quorum": 4, "n_monitors": 3},
            {"loss": -0.1},
            {"loss": 1.0},
            {"rounds_per_epoch": 0},
            {"gossip_fanout": 0},
            {"staleness_rounds": -1},
            {"ping_interval_s": 0.0},
            {"timeout_s": 0.0},
            {"loss": float("nan")},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            DetectorConfig(**kwargs)

    def test_staleness_bound_derives_from_population(self):
        config = DetectorConfig(gossip_fanout=2)
        # ceil(log_3 n) + 3, monotone in n.
        assert config.staleness_bound(2) == 4
        assert config.staleness_bound(27) == 6
        assert config.staleness_bound(1000) <= config.staleness_bound(10_000)

    def test_staleness_bound_explicit_override(self):
        config = DetectorConfig(staleness_rounds=7)
        assert config.staleness_bound(2) == 7
        assert config.staleness_bound(1_000_000) == 7

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DetectorConfig().quorum = 1  # type: ignore[misc]


class TestFailureDetector:
    CFG = DetectorConfig(failure_threshold=2, ping_interval_s=1.0, timeout_s=0.5)

    def test_watch_is_idempotent_and_skips_self(self):
        fd = FailureDetector(7, self.CFG)
        fd.watch(3)
        fd.watch(3)
        fd.watch(7)  # a monitor never probes itself
        assert fd.targets == [3]
        fd.unwatch(3)
        fd.unwatch(3)  # idempotent
        assert fd.targets == []

    def test_poll_pings_each_target_and_rearms(self):
        fd = FailureDetector(0, self.CFG)
        fd.watch(5)
        fd.watch(2)
        effects = fd.poll(0.0)
        assert sorted(pings(effects)) == [2, 5]
        timer = effects[-1]
        assert isinstance(timer, StartTimer)
        assert timer.name == POLL_TIMER
        assert timer.delay == self.CFG.ping_interval_s

    def test_consecutive_timeouts_cross_threshold_once(self):
        fd = FailureDetector(0, self.CFG)
        fd.watch(9)
        fd.poll(0.0)
        assert suspects(fd.poll(1.0)) == []  # one failure, threshold 2
        assert fd.failures_of(9) == 1
        assert suspects(fd.poll(2.0)) == [9]  # second failure: suspect
        assert fd.suspected == [9]
        assert suspects(fd.poll(3.0)) == []  # once per episode
        assert fd.failures_of(9) == 3

    def test_pong_at_exact_timeout_boundary_is_on_time(self):
        fd = FailureDetector(0, self.CFG)
        fd.watch(4)
        seq = pings(fd.poll(0.0))[4]
        # Round trip == timeout_s exactly: the alive side owns the
        # closed boundary, so this resets the counter.
        fd.failures_of(4)
        assert fd.on_pong(4, Pong(seq=seq), now=self.CFG.timeout_s) == []
        assert fd.failures_of(4) == 0
        assert fd.pending_seq_of(4) is None

    def test_poll_at_exact_deadline_expires_nothing(self):
        fd = FailureDetector(0, self.CFG)
        fd.watch(4)
        seq = pings(fd.poll(0.0))[4]
        # now == sent_at + timeout_s: not overdue (strictly-after rule),
        # so the probe stays pending and no new ping goes out.
        effects = fd.poll(self.CFG.timeout_s)
        assert fd.failures_of(4) == 0
        assert pings(effects) == {}
        assert fd.pending_seq_of(4) == seq

    def test_late_correlated_pong_counts_one_failure(self):
        fd = FailureDetector(0, self.CFG)
        fd.watch(4)
        seq = pings(fd.poll(0.0))[4]
        assert fd.on_pong(4, Pong(seq=seq), now=0.51) == []
        assert fd.pending_seq_of(4) is None  # cleared: proof of life
        assert fd.failures_of(4) == 1  # but the window expired

    def test_late_pong_can_cross_the_threshold(self):
        fd = FailureDetector(0, dataclasses.replace(self.CFG, failure_threshold=1))
        fd.watch(4)
        seq = pings(fd.poll(0.0))[4]
        assert suspects(fd.on_pong(4, Pong(seq=seq), now=9.0)) == [4]

    def test_uncorrelated_pong_ignored(self):
        fd = FailureDetector(0, self.CFG)
        fd.watch(4)
        seq = pings(fd.poll(0.0))[4]
        assert fd.on_pong(4, Pong(seq=seq + 1), now=0.1) == []  # wrong seq
        assert fd.on_pong(6, Pong(seq=seq), now=0.1) == []  # unwatched src
        assert fd.pending_seq_of(4) == seq

    def test_on_time_pong_clears_suspicion_and_rearms_episode(self):
        fd = FailureDetector(0, self.CFG)
        fd.watch(9)
        fd.poll(0.0)
        fd.poll(1.0)
        assert suspects(fd.poll(2.0)) == [9]
        seq = fd.pending_seq_of(9)
        fd.on_pong(9, Pong(seq=seq), now=2.1)
        assert fd.suspected == []
        assert fd.failures_of(9) == 0
        # The episode edge re-armed: a fresh run of failures re-suspects.
        fd.poll(3.0)
        fd.poll(4.0)
        assert suspects(fd.poll(5.0)) == [9]

    def test_clear_pending_freezes_counters(self):
        fd = FailureDetector(0, self.CFG)
        fd.watch(4)
        fd.poll(0.0)
        fd.clear_pending()  # the monitor itself went down mid-probe
        effects = fd.poll(5.0)  # far past any deadline
        assert fd.failures_of(4) == 0  # nothing timed out
        assert 4 in pings(effects)  # fresh probe, fresh window


GOSSIP_TWINS = (GossipMembership, ScalarGossipMembership)
GOSSIP_OPS = ["start", "start_many", "cancel", "forget", "arrive", "leave", "empty", "spread"]


class TestGossipMembership:
    CFG = DetectorConfig(gossip_fanout=2)

    def test_duplicate_reports_suppressed(self):
        gossip = GossipMembership(self.CFG)
        assert gossip.start(5, origin=1)
        assert not gossip.start(5, origin=2)  # in flight
        live = np.arange(4, dtype=np.int64)
        rng = split(0, "gossip-test")
        while 5 not in gossip.completed:
            gossip.spread(live, rng)
        assert not gossip.start(5, origin=3)  # completed: dead stays dead

    def test_spread_completes_within_staleness_bound(self):
        gossip = GossipMembership(self.CFG)
        gossip.start(99, origin=0)
        live = np.arange(64, dtype=np.int64)
        rng = split(1, "gossip-test")
        rounds = 0
        while 99 not in gossip.completed:
            gossip.spread(live, rng)
            rounds += 1
        assert rounds <= self.CFG.staleness_bound(64)
        assert gossip.active == []

    def test_informed_set_grows_monotonically(self):
        gossip = GossipMembership(self.CFG)
        gossip.start(3, origin=0)
        live = np.arange(32, dtype=np.int64)
        rng = split(2, "gossip-test")
        last = gossip.informed_count(3)
        while 3 not in gossip.completed:
            gossip.spread(live, rng)
            now = gossip.informed_count(3)
            if now:
                assert now >= last
                last = now

    def test_cancel_aborts_in_flight_report(self):
        gossip = GossipMembership(self.CFG)
        gossip.start(5, origin=1)
        gossip.cancel(5)
        assert gossip.active == []
        assert gossip.start(5, origin=1)  # a cancelled report may restart

    def test_empty_population_completes_immediately(self):
        gossip = GossipMembership(self.CFG)
        gossip.start(5, origin=1)
        done = gossip.spread(np.empty(0, dtype=np.int64), split(3, "gossip-test"))
        assert done == [5]

    def test_forget_drops_in_flight_and_completed_state(self):
        gossip = GossipMembership(self.CFG)
        assert gossip.start_many([5, 7, 5], [1, 2, 3]) == 2  # repeated target: once
        gossip.spread(np.empty(0, dtype=np.int64), split(4, "gossip-test"))
        gossip.start(9, origin=1)
        gossip.forget([5, 9, 11])
        assert gossip.active == [] and gossip.completed == {7}
        assert gossip.start(5, origin=1)  # forgotten: may be reported again
        assert not gossip.start(7, origin=1)

    @pytest.mark.parametrize("cls", GOSSIP_TWINS)
    def test_report_covers_a_tiny_population_before_its_bound(self, cls):
        """Coverage, not the bound, completes a report over a tiny
        population: one live peer is the origin's own count (covered in
        the first round, no draw), and at fanout 2 most of 20 reports
        over three peers are covered before the bound of 4 retires the
        rest."""
        assert self.CFG.staleness_bound(3) == 4
        gossip, rng = cls(self.CFG), split(5, "gossip-test")
        gossip.start_many(range(100, 120), [0] * 20)
        assert gossip.spread(np.array([0], dtype=np.int64), rng) == list(range(100, 120))
        gossip.start_many(range(200, 220), [0] * 20)
        rounds = {}
        for age in range(1, 5):
            rounds.update(dict.fromkeys(gossip.spread(np.arange(3, dtype=np.int64), rng), age))
        assert sorted(rounds) == list(range(200, 220)) and gossip.active == []
        early = sorted(age for age in rounds.values() if age < 4)
        assert len(early) >= 15 and early[0] == 1, sorted(rounds.values())
        assert max(rounds.values()) == 4, sorted(rounds.values())  # the bound retires the rest

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        fanout=st.sampled_from([1, 2, 3]),
        staleness=st.sampled_from([0, 1, 4]),
        pool=st.lists(
            st.integers(min_value=0, max_value=5000), min_size=2, max_size=25, unique=True
        ),
        data=st.data(),
    )
    def test_count_plane_matches_scalar_twin(self, seed, fanout, staleness, pool, data):
        """The count-twin differential. Random start / start_many /
        cancel / forget programs over a population of sparse ids that
        arrives, leaves, revives and empties: after every ``spread`` the
        vectorized count plane and its per-report scalar twin agree on
        completions, ``active``, ``informed_count`` and generator
        position, and no report still in flight has reached the bound."""
        cfg = DetectorConfig(gossip_fanout=fanout, staleness_rounds=staleness)
        twins = [(cls(cfg), split(seed, "gossip-diff")) for cls in GOSSIP_TWINS]
        ids_from = st.sampled_from(pool)
        live = data.draw(st.lists(ids_from, min_size=1, max_size=12, unique=True), label="live")
        for step in range(data.draw(st.integers(min_value=1, max_value=12))):
            op = data.draw(st.sampled_from(GOSSIP_OPS), label=f"op@{step}")
            ids = data.draw(st.lists(ids_from, min_size=1, max_size=4), label=f"ids@{step}")
            if op == "start" and ids:
                assert len({g.start(ids[0], ids[-1]) for g, _ in twins}) == 1
            elif op == "start_many":
                origins = np.array(ids[::-1], dtype=np.int64)
                assert len({g.start_many(np.array(ids, np.int64), origins) for g, _ in twins}) == 1
            elif op == "cancel" and ids:
                for gossip, _ in twins:
                    gossip.cancel(ids[0])
            elif op == "forget":
                for gossip, _ in twins:
                    gossip.forget(ids)
            elif op == "arrive":  # arrivals and revivals alike: ids come (back)
                live += [i for i in dict.fromkeys(ids) if i not in live]
            elif op == "leave":
                live = [i for i in live if i not in ids]
            elif op == "empty":
                live = []
            population = np.array(live, dtype=np.int64)
            plane, reference = (g.spread(population, rng) for g, rng in twins)
            assert plane == reference
            (plane, rng_p), (reference, rng_r) = twins
            assert (plane._age < cfg.staleness_bound(max(len(live), 2))).all()
            assert plane.active == reference.active
            assert plane.completed == reference.completed
            for target in reference.active:
                assert 1 <= plane.informed_count(target) == reference.informed_count(target)
                assert plane.informed_count(target) < max(len(live), 1)
            assert rng_p.bit_generator.state == rng_r.bit_generator.state


@pytest.mark.parametrize("n", [7, 9_973, 10_000, 100_000, 2**33])
def test_batched_gossip_draw_matches_per_report_draws(n):
    """The RNG-layout assumption ``GossipMembership.spread`` rests on:
    one array-argument ``binomial`` over every report consumes the
    stream exactly like one scalar ``binomial`` per report, in order —
    zero-trial reports (covered, or ``k`` capped at ``n``) drawing
    nothing, push probabilities from the smallest to 1 — and leaves the
    generator in the same place, at every fanout."""
    k = np.unique(np.array([1, 2, 3, n // 7 + 1, n // 2, n - 1, n, n]).clip(1, n))
    for fanout in (1, 2, 3):
        p = 1.0 - (1.0 - 1.0 / n) ** (k * fanout)
        batched, per_report = (split(11, "gossip-layout", n, fanout) for _ in range(2))
        whole = batched.binomial(n - k, p)
        parts = [per_report.binomial(int(t), float(q)) for t, q in zip(n - k, p)]
        assert whole.tolist() == parts
        assert batched.bit_generator.state == per_report.bit_generator.state


class TestOracleView:
    def test_satisfies_the_protocol(self):
        assert isinstance(OracleView(make_ring(4)), MembershipView)
        assert isinstance(
            ProbeView(make_ring(4), DetectorConfig()), MembershipView
        )

    def test_reads_are_the_bitmap_verbatim(self):
        ring = make_ring(6)
        view = OracleView(ring)
        view.crash([2])
        assert list(view.live_ids()) == list(ring.ids_array(live_only=True))
        assert list(view.live_slots()) == list(ring.slots_array(live_only=True))
        assert view.live_count == ring.live_count == 5
        assert not view.is_live(2)
        assert view.is_live(3)

    def test_crash_revive_idempotent_input_order(self):
        view = OracleView(make_ring(6))
        assert view.crash([4, 1, 4]) == [4, 1]
        assert view.crash([1]) == []  # already dead
        assert view.revive([1, 4, 5]) == [1, 4]  # 5 was never dead
        assert view.ring.live_count == 6

    def test_crash_fraction_spares_at_least_one(self):
        view = OracleView(make_ring(5))
        victims = view.crash_fraction(split(0, "oracle-test"), 1.0)
        assert len(victims) == 4
        assert view.live_count == 1

    def test_crash_fraction_guards(self):
        view = OracleView(make_ring(5))
        with pytest.raises(ValueError):
            view.crash_fraction(split(0, "x"), 1.5)
        assert view.crash_fraction(split(0, "x"), 0.05) == []  # floors to 0
        view.crash(range(5))
        with pytest.raises(EmptyPopulationError):
            view.crash_fraction(split(0, "x"), 0.5)

    def test_knowledge_hooks_are_no_ops(self):
        view = OracleView(make_ring(4))
        assert view.advance(1) == []
        view.record_deaths([1, 2], 1)
        view.forget([1])
        assert view.live_count == 4


DETECT = DetectorConfig(
    failure_threshold=2, quorum=2, n_monitors=3, rounds_per_epoch=2
)


VIEWS = {
    "oracle": OracleView,
    "probe": lambda ring: ProbeView(ring, DETECT, seed=3),
}


class TestMembershipViewContract:
    """The ground-truth mutation half is written once, in the base
    class: both views must behave identically through it."""

    @pytest.mark.parametrize("make_view", VIEWS.values(), ids=VIEWS)
    def test_crash_and_revive_are_idempotent(self, make_view):
        view = make_view(make_ring(8))
        assert view.crash([6, 2, 6]) == [6, 2]
        assert view.crash([2, 6]) == []
        assert view.ring.live_count == 6
        assert view.revive([2, 3, 2]) == [2]  # 3 was never dead
        assert view.revive([2]) == []
        assert view.ring.live_count == 7

    @pytest.mark.parametrize("make_view", VIEWS.values(), ids=VIEWS)
    def test_crash_fraction_never_empties_the_population(self, make_view):
        view = make_view(make_ring(8))
        for round_no in range(4):
            view.crash_fraction(split(1, "contract", round_no), 1.0)
            assert view.ring.live_count == 1

    def test_equal_rng_state_draws_identical_victims(self):
        oracle, probe = (make_view(make_ring(40)) for make_view in VIEWS.values())
        for fraction in (0.25, 0.5):
            victims = oracle.crash_fraction(split(9, "contract"), fraction)
            assert victims
            assert victims == probe.crash_fraction(split(9, "contract"), fraction)
        assert list(oracle.ring.ids_array(live_only=True)) == list(
            probe.ring.ids_array(live_only=True)
        )


def evict_all(view: ProbeView, start_epoch: int, max_epochs: int = 40) -> int:
    """Advance until believed == truth; returns the last epoch run."""
    for epoch in range(start_epoch, start_epoch + max_epochs):
        view.advance(epoch)
        if view.live_count == view.ring.live_count:
            return epoch
    raise AssertionError("detector failed to converge")


class TestProbeView:
    def test_crashed_peer_lingers_until_quorum_evicts(self):
        view = ProbeView(make_ring(16), DETECT, seed=3)
        view.crash([5])
        view.record_deaths([5], epoch=1)
        assert view.is_live(5)  # truth-dead, believed-live: the lag
        assert view.live_count == 16
        last = evict_all(view, start_epoch=1)
        assert not view.is_live(5)
        assert view.evictions == 1
        assert view.false_evictions == 0
        assert view.detection_lags == [last - 1]

    def test_quorum_one_single_monitor_evicts(self):
        config = dataclasses.replace(DETECT, quorum=1, n_monitors=1)
        view = ProbeView(make_ring(12), config, seed=4)
        view.crash([7])
        view.record_deaths([7], epoch=1)
        evict_all(view, start_epoch=1)
        assert view.evictions == 1
        assert view.false_evictions == 0

    def test_revive_during_detection_restores_belief(self):
        view = ProbeView(make_ring(16), DETECT, seed=5)
        view.crash([5])
        view.record_deaths([5], epoch=1)
        view.advance(1)  # suspicion building, not yet evicted
        assert view.revive([5]) == [5]
        assert view.is_live(5)
        # Fresh detector state: many clean epochs later, still believed.
        for epoch in range(2, 8):
            view.advance(epoch)
        assert view.is_live(5)
        assert view.evictions == 0

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    def test_revived_peer_that_dies_again_is_evicted_again(self, backend):
        """evict -> revive -> crash: the completed report must not
        survive the revival, or the second death is a zombie forever."""
        view = PROBE_VIEWS[backend](make_ring(16), DETECT, seed=8)
        view.crash([5])
        view.record_deaths([5], epoch=1)
        last = evict_all(view, start_epoch=1)
        assert view.revive([5]) == [5] and view.is_live(5)
        view.crash([5])
        view.record_deaths([5], epoch=last + 1)
        rounds = DETECT.failure_threshold + DETECT.staleness_bound(16)
        epochs = -(-rounds // DETECT.rounds_per_epoch)
        evict_all(view, start_epoch=last + 1, max_epochs=epochs)
        assert not view.is_live(5)
        assert view.evictions == 2 and view.false_evictions == 0

    def test_revive_right_after_eviction_keeps_other_panels_monitored(self):
        """Regression: at small ``n`` the evicted peer still sits in the
        other targets' last-synced panels when it is revived before the
        next round; the scalar bank used to drop its machine anyway and
        the next round raised ``KeyError``. Both backends must now run
        on, and run identically."""
        trace = {}
        for backend in ("scalar", "vectorized"):
            view = PROBE_VIEWS[backend](make_ring(8), DETECT, seed=0)
            view.crash([2])
            view.record_deaths([2], epoch=1)
            last = evict_all(view, start_epoch=1)
            assert view.revive([2]) == [2] and view.is_live(2)
            view.crash([5])
            view.record_deaths([5], epoch=last + 1)
            seen = []
            for epoch in range(last + 1, last + 9):
                view.advance(epoch)
                seen.append(view.live_ids().tolist())
            assert view.is_live(2) and not view.is_live(5)
            trace[backend] = (last, seen, view.detection_lags, view.false_evictions)
        assert trace["scalar"] == trace["vectorized"]

    def test_forget_drops_all_trace_before_compaction(self):
        view = ProbeView(make_ring(16), DETECT, seed=6)
        view.crash([3, 9])
        view.record_deaths([3, 9], epoch=1)
        evict_all(view, start_epoch=1)
        view.forget([3, 9])
        view.ring.remove_many([3, 9])
        assert view.live_count == 14
        # A recycled identity starts clean: re-inserting one of the ids
        # must not inherit detector or gossip state.
        view.ring.insert(3, 0.987)
        assert view.is_live(3)
        for epoch in range(20, 26):
            view.advance(epoch)
        assert view.is_live(3)

    def test_crash_fraction_matches_oracle_draw_layout(self):
        probe = ProbeView(make_ring(20), DETECT, seed=7)
        oracle = OracleView(make_ring(20))
        assert probe.crash_fraction(split(9, "frac"), 0.3) == oracle.crash_fraction(
            split(9, "frac"), 0.3
        )

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=24),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        backend=st.sampled_from(["scalar", "vectorized"]),
        data=st.data(),
    )
    def test_zero_loss_means_zero_false_evictions(self, n, seed, backend, data):
        """The ISSUE's property: loss == 0 => no truth-live peer is ever
        evicted, whatever the crash schedule."""
        view = PROBE_VIEWS[backend](make_ring(n), DETECT, seed=seed)
        for epoch in range(1, 9):
            live = [int(i) for i in view.ring.ids_array(live_only=True)]
            if len(live) > 2:
                victims = data.draw(
                    st.lists(
                        st.sampled_from(live),
                        max_size=len(live) - 2,
                        unique=True,
                    ),
                    label=f"victims@{epoch}",
                )
                view.crash(victims)
                view.record_deaths(victims, epoch)
            view.advance(epoch)
            assert view.false_evictions == 0
            # Belief never contradicts truth downward at zero loss:
            # every truth-live peer stays believed-live.
            believed = set(int(i) for i in view.live_ids())
            truth = set(int(i) for i in view.ring.ids_array(live_only=True))
            assert truth <= believed

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=20),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        loss=st.sampled_from([0.0, 0.1, 0.3]),
        data=st.data(),
    )
    def test_scalar_and_vectorized_banks_agree(self, n, seed, loss, data):
        """The bit-identity differential: both backends (detector bank
        *and* gossip twin), fed identical churn — crashes, compaction
        of evicted peers, arrivals, revivals of the evicted — and the
        same seed (hence the same draws), must agree on every observable
        after every epoch."""
        config = dataclasses.replace(DETECT, loss=loss)
        views = {
            backend: PROBE_VIEWS[backend](make_ring(n), config, seed=seed)
            for backend in ("scalar", "vectorized")
        }
        scalar, vectorized = views["scalar"], views["vectorized"]
        schedule: list[tuple[list[int], bool, bool]] = []
        for epoch in range(1, 15):
            live = [int(i) for i in scalar.ring.ids_array(live_only=True)]
            victims = (
                data.draw(
                    st.lists(st.sampled_from(live), max_size=len(live) - 2, unique=True),
                    label=f"victims@{epoch}",
                )
                if len(live) > 2
                else []
            )
            compact = data.draw(st.booleans(), label=f"compact@{epoch}")
            revive = data.draw(st.booleans(), label=f"revive@{epoch}")
            schedule.append((victims, compact, revive))
            for view in views.values():
                if revive:  # every peer evicted so far comes back at once
                    believed = set(int(i) for i in view.live_ids())
                    ids = [int(i) for i in view.ring.ids_array(live_only=False)]
                    view.revive([i for i in ids if i not in believed])
                if compact:  # evicted peers leave the ring, one newcomer joins
                    believed = set(int(i) for i in view.live_ids())
                    gone = [int(i) for i in view.ring.ids_array(live_only=False)]
                    gone = [i for i in gone if i not in believed]
                    view.forget(gone)
                    view.ring.remove_many(gone)
                    view.ring.insert(n + epoch, (epoch + 0.5) / 16)
                view.crash(victims)
                view.record_deaths(victims, epoch)
                view.advance(epoch)
            assert list(scalar.live_ids()) == list(vectorized.live_ids()), schedule
            assert scalar.evictions == vectorized.evictions, schedule
            assert scalar.false_evictions == vectorized.false_evictions, schedule
            assert scalar.detection_lags == vectorized.detection_lags, schedule
            assert scalar._gossip.active == vectorized._gossip.active, schedule


class TestBankDifferential:
    @pytest.mark.parametrize("threshold, quorum", [(1, 1), (3, 2)])
    def test_crash_wave_reports_match_scalar_bank(self, threshold, quorum):
        """Both banks, driven round by round over the same draws after a
        30 % crash wave on 2 000 peers, report the same quorum targets
        with the same origins (the lowest-rank voting monitor) in the
        same believed-ring order — hundreds of them in one round."""
        config = DetectorConfig(
            failure_threshold=threshold, quorum=quorum, n_monitors=3, loss=0.01
        )
        ring = make_ring(2_000)
        rng = split(7, "bank-differential")
        OracleView(ring).crash_fraction(rng, 0.3)
        banks = VectorizedDetectorBank(config, ring.state), ScalarDetectorBank(config)
        ids, slots = ring.ids_array(live_only=False), ring.slots_array(live_only=False)
        most = 0
        for _ in range(threshold + 3):
            u = rng.random((ids.size, config.n_monitors))
            (targets, origins), (ref_targets, ref_origins) = (
                bank.round(ids, slots, ring.state.alive, u) for bank in banks
            )
            assert targets.tolist() == ref_targets.tolist()
            assert origins.tolist() == ref_origins.tolist()
            most = max(most, targets.size)
        assert most >= 300

    def test_ranks_past_a_shrunk_panel_clear(self):
        """Rows written at panel width 3 hold only cleared cells past
        ``J_eff`` once the believed ring is too small for three monitors
        — also a row whose first ``J_eff`` ranks did not change (row 0
        keeps monitors 1, 2; its third, 3, must go)."""
        config = DetectorConfig(n_monitors=3, loss=0.0)
        ring = make_ring(8)
        bank = VectorizedDetectorBank(config, ring.state)
        ids, slots = ring.ids_array(), ring.slots_array()
        bank.round(ids, slots, ring.state.alive, np.ones((8, 3)))
        assert ring.state.probe_monitor[slots[0]].tolist() == [1, 2, 3]
        bank.round(ids[:3], slots[:3], ring.state.alive, np.ones((3, 2)))
        state = ring.state
        assert state.probe_monitor[slots[:3]].tolist() == [[1, 2, -1], [2, 0, -1], [0, 1, -1]]
        assert not state.probe_fails[slots[:3]].any() and not state.probe_pending[slots].any()
