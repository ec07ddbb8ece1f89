"""Tests for the steady-state churn engine (repro.engine.churn) and the
session-time distributions (repro.churn.sessions)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.churn import (
    SESSION_DISTRIBUTIONS,
    ExponentialSessions,
    ParetoSessions,
    TraceSessions,
    make_sessions,
)
from repro.degree import ConstantDegrees
from repro.engine import SteadyStateChurnEngine
from repro.errors import ConfigError
from repro.experiments import make_overlay
from repro.experiments.churn import churn_loop
from repro.membership import DetectorConfig, OracleView, ProbeView
from repro.ring import verify
from repro.rng import split
from repro.workloads import GnutellaLikeDistribution, UniformKeys

from conftest import links_of
from twins import ReferenceChurnEngine, ScalarProbeView

#: The probe view of each backend: the kernels, or the scalar twins.
VIEWS = {"vectorized": ProbeView, "scalar": ScalarProbeView}


def build_engine(
    substrate: str = "oscar",
    size: int = 120,
    half_life: float = 6.0,
    sessions: str = "exponential",
    repair_every: int = 3,
    n_probes: int = 50,
    seed: int = 42,
    vectorized: bool = True,
    arrival_scale: float = 1.0,
    membership_factory=None,
    repair: str = "refill",
) -> SteadyStateChurnEngine:
    keys = GnutellaLikeDistribution()
    degrees = ConstantDegrees(8)
    overlay = make_overlay(substrate, seed=seed)
    overlay.grow_batch(size, keys, degrees, vectorized=vectorized)
    overlay.rewire_batch(vectorized=vectorized)
    session_times = make_sessions(sessions, half_life)
    engine = SteadyStateChurnEngine if vectorized else ReferenceChurnEngine
    return engine(
        overlay,
        keys,
        degrees,
        session_times,
        arrival_rate=arrival_scale * size / session_times.mean,
        repair_every=repair_every,
        n_probes=n_probes,
        seed=seed,
        membership=membership_factory(overlay.ring) if membership_factory else None,
        repair=repair,
    )


class TestSessionTimes:
    @pytest.mark.parametrize("name", sorted(SESSION_DISTRIBUTIONS))
    def test_median_is_half_life(self, name):
        sessions = make_sessions(name, 5.0)
        draw = sessions.sample(split(1, "median", name), 40_001)
        assert np.all(draw > 0)
        assert np.all(np.isfinite(draw))
        assert float(np.median(draw)) == pytest.approx(5.0, rel=0.1)

    @pytest.mark.parametrize("name", sorted(SESSION_DISTRIBUTIONS))
    def test_mean_matches_empirical(self, name):
        sessions = make_sessions(name, 4.0)
        draw = sessions.sample(split(2, "mean", name), 200_000)
        assert float(draw.mean()) == pytest.approx(sessions.mean, rel=0.1)

    def test_pareto_is_heavier_tailed_than_exponential(self):
        half_life = 8.0
        exp = ExponentialSessions(half_life).sample(split(3, "e"), 100_000)
        par = ParetoSessions(half_life).sample(split(3, "p"), 100_000)
        assert float(np.quantile(par, 0.999)) > float(np.quantile(exp, 0.999))

    def test_trace_follows_cascade_median(self):
        trace = TraceSessions(10.0)
        assert 0.0 < trace.k_median < 1.0
        assert trace.trace.cdf(trace.k_median) == pytest.approx(0.5, abs=1e-9)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            make_sessions("weibull", 5.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigError):
            ExponentialSessions(0.0)
        with pytest.raises(ConfigError):
            ExponentialSessions(float("inf"))
        with pytest.raises(ConfigError):
            ParetoSessions(5.0, alpha=1.0)  # infinite mean
        with pytest.raises(ConfigError):
            TraceSessions(5.0, dynamic_range=1.0)

    def test_sampling_is_deterministic(self):
        a = make_sessions("trace", 3.0).sample(split(4, "det"), 100)
        b = make_sessions("trace", 3.0).sample(split(4, "det"), 100)
        assert np.array_equal(a, b)


class TestEngineValidation:
    def test_rejects_bad_parameters(self):
        overlay = make_overlay("oscar", seed=0)
        overlay.grow_batch(10, UniformKeys(), ConstantDegrees(4))
        keys, degrees = UniformKeys(), ConstantDegrees(4)
        sessions = ExponentialSessions(4.0)
        with pytest.raises(ConfigError):
            SteadyStateChurnEngine(overlay, keys, degrees, sessions, arrival_rate=-1.0)
        with pytest.raises(ConfigError):
            SteadyStateChurnEngine(
                overlay, keys, degrees, sessions, arrival_rate=1.0, repair_every=0
            )
        with pytest.raises(ConfigError):
            SteadyStateChurnEngine(
                overlay, keys, degrees, sessions, arrival_rate=1.0, n_probes=-1
            )

    def test_rejects_unknown_repair_before_anything_runs(self):
        overlay = make_overlay("oscar", seed=0)
        overlay.grow_batch(10, UniformKeys(), ConstantDegrees(4))
        version = overlay.topology_version
        with pytest.raises(ConfigError, match="repair"):
            SteadyStateChurnEngine(
                overlay, UniformKeys(), ConstantDegrees(4), ExponentialSessions(4.0), 1.0,
                repair="masked",
            )
        assert overlay.topology_version == version
        with pytest.raises(ConfigError, match="repair"):
            churn_loop(
                scale=1.0, seed=0, substrate="oscar", size=10, epochs=1, half_life=4.0,
                sessions="exponential", keys="uniform", degrees="constant", repair_every=1,
                repair="masked", n_queries=0,
            )

    def test_rejects_tiny_overlay(self):
        overlay = make_overlay("oscar", seed=0)
        overlay.join(0.5, 4, 4)
        with pytest.raises(ConfigError):
            SteadyStateChurnEngine(
                overlay, UniformKeys(), ConstantDegrees(4), ExponentialSessions(4.0), 1.0
            )

    def test_rejects_unobservable_substrate(self):
        # A look-alike that is not a Substrate (no guaranteed link table
        # or join counter) must be refused loudly, not tracked silently
        # wrong — even when it duck-types every attribute the engine reads.
        real = make_overlay("oscar", seed=1)
        real.grow_batch(10, UniformKeys(), ConstantDegrees(4))

        class Opaque:
            ring = real.ring
            pointers = real.pointers
            state = real.state
            _next_id = real._next_id

        with pytest.raises(ConfigError, match="long links"):
            SteadyStateChurnEngine(
                Opaque(), UniformKeys(), ConstantDegrees(4), ExponentialSessions(4.0), 1.0
            )

    def test_rejects_negative_epoch_count(self):
        engine = build_engine(size=20, n_probes=5)
        with pytest.raises(ConfigError):
            engine.run(-1)


class TestEpochSemantics:
    def test_population_holds_roughly_steady(self):
        engine = build_engine(size=150, half_life=5.0, n_probes=20)
        history = engine.run(10)
        assert all(60 <= stats.live <= 300 for stats in history)
        assert sum(s.arrivals for s in history) > 0
        assert sum(s.departures for s in history) > 0

    def test_stale_links_accumulate_then_reset_on_repair(self):
        engine = build_engine(size=150, half_life=4.0, repair_every=3, n_probes=10)
        history = engine.run(9)
        repair_epochs = [s.epoch for s in history if s.link_repair]
        assert repair_epochs == [3, 6, 9]
        for epoch in (3, 6):
            before = history[epoch - 1].stale_links  # counted pre-repair
            after = history[epoch].stale_links  # one epoch of fresh damage
            assert before > 0
            assert after < before
        assert all(s.compacted > 0 for s in history if s.link_repair)
        assert all(s.compacted == 0 for s in history if not s.link_repair)

    def test_ring_stays_memory_bounded(self):
        engine = build_engine(size=100, half_life=2.0, repair_every=2, n_probes=5)
        engine.run(12)
        ring = engine.substrate.ring
        # Dead peers only survive until the next repair epoch; the ring
        # can never hold more than ~repair_every epochs of corpses.
        assert len(ring) < 3 * ring.live_count

    def test_incremental_runs_equal_one_run(self):
        one = build_engine(seed=9, n_probes=10)
        two = build_engine(seed=9, n_probes=10)
        combined = one.run(3) + one.run(2)
        assert combined == two.run(5)
        assert one.epoch == two.epoch == 5

    def test_probe_counts_follow_convention(self):
        engine = build_engine(size=80, n_probes=17)
        assert engine.run_epoch().probes == 17
        per_peer = build_engine(size=80, n_probes=0)
        stats = per_peer.run_epoch()
        assert stats.probes == stats.live

    def test_total_expiry_spares_longest_lived(self):
        # Tiny half-life, no arrivals: everyone's session expires in
        # epoch 1, but one peer must survive every epoch.
        engine = build_engine(size=30, half_life=0.25, arrival_scale=0.0, n_probes=3)
        history = engine.run(3)
        assert history[0].departures == 29
        assert all(s.live >= 1 for s in history)

    def test_epoch_row_lands_in_the_churn_table(self):
        engine = build_engine(size=40, n_probes=5)
        rows = engine.run(2)
        table = engine.substrate.state.obs.table("churn")
        assert table["epoch"].tolist() == [1, 2]
        for name, column in table.items():
            assert column.tolist() == [getattr(row, name) for row in rows], name
        assert table["live"][-1] == engine.substrate.ring.live_count
        assert table["believed"].tolist() == table["live"].tolist()  # the oracle
        assert ((0.0 <= table["success_rate"]) & (table["success_rate"] <= 1.0)).all()


class TestReferenceEquivalence:
    @pytest.mark.parametrize("substrate", ["oscar", "chord", "mercury"])
    def test_vectorized_matches_reference(self, substrate):
        self.assert_twins_agree(substrate, "refill")

    @pytest.mark.parametrize("substrate", ["oscar", "chord", "mercury"])
    def test_full_repair_matches_reference(self, substrate):
        self.assert_twins_agree(substrate, "full")

    @staticmethod
    def assert_twins_agree(substrate: str, repair: str) -> None:
        vec = build_engine(substrate=substrate, size=90, n_probes=25, repair=repair)
        ref = build_engine(
            substrate=substrate, size=90, n_probes=25, vectorized=False, repair=repair
        )
        assert vec.run(7) == ref.run(7)
        ring_v, ring_r = vec.substrate.ring, ref.substrate.ring
        assert np.array_equal(ring_v.ids_array(), ring_r.ids_array())
        assert np.array_equal(ring_v.positions_array(), ring_r.positions_array())
        assert np.array_equal(
            ring_v.ids_array(live_only=True), ring_r.ids_array(live_only=True)
        )
        assert vec.substrate.pointers.successor == ref.substrate.pointers.successor

    @settings(max_examples=15, deadline=None)
    @given(
        substrate=st.sampled_from(["oscar", "chord", "mercury"]),
        size=st.integers(min_value=12, max_value=60),
        half_life=st.sampled_from([0.5, 2.0, 6.0, 40.0]),
        sessions=st.sampled_from(sorted(SESSION_DISTRIBUTIONS)),
        repair_every=st.integers(min_value=1, max_value=5),
        arrival_scale=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        epochs=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        repair=st.sampled_from(["refill", "full"]),
    )
    def test_equivalence_and_invariants_property(
        self, substrate, size, half_life, sessions, repair_every, arrival_scale, epochs, seed,
        repair,
    ):
        """Any interleaving of joins, deaths and repairs the process
        produces keeps ring/pointer invariants intact, and the
        vectorized and reference paths never diverge — under either
        repair policy."""
        vec = build_engine(
            substrate=substrate,
            size=size,
            half_life=half_life,
            sessions=sessions,
            repair_every=repair_every,
            n_probes=5,
            seed=seed,
            vectorized=True,
            arrival_scale=arrival_scale,
            repair=repair,
        )
        ref = build_engine(
            substrate=substrate,
            size=size,
            half_life=half_life,
            sessions=sessions,
            repair_every=repair_every,
            n_probes=5,
            seed=seed,
            vectorized=False,
            arrival_scale=arrival_scale,
            repair=repair,
        )
        for __ in range(epochs):
            stats_v = vec.run_epoch()
            stats_r = ref.run_epoch()
            assert stats_v == stats_r
            state_v, state_r = vec.substrate.state, ref.substrate.state
            for column in ("in_deg", "out_count", "n_medians", "samples_spent"):
                assert np.array_equal(getattr(state_v, column), getattr(state_r, column))
            ring = vec.substrate.ring
            verify(ring, vec.substrate.pointers)  # raises on violation
            assert ring.live_count >= 1
            # The session table tracks exactly the live population.
            live = set(int(i) for i in ring.ids_array(live_only=True))
            tracked = set(int(i) for i in vec._session_ids)
            assert tracked <= live


class TestExternalInterleaving:
    def test_epochs_interleaved_with_wave_churn(self):
        """Engine epochs composed with external crash waves + revival
        (the fig2 procedure) keep pointers verifiable at every
        stabilization point."""
        from repro.ring import repair_all

        engine = build_engine(size=120, half_life=10.0, n_probes=10, seed=5)
        substrate = engine.substrate
        view = engine.membership
        for round_no in range(3):
            engine.run_epoch()
            verify(substrate.ring, substrate.pointers)
            victims = view.crash_fraction(split(5, "wave", round_no), 0.2)
            repair_all(substrate.ring, substrate.pointers)
            verify(substrate.ring, substrate.pointers)
            view.revive(victims)
            repair_all(substrate.ring, substrate.pointers)
            verify(substrate.ring, substrate.pointers)


class TestMembershipViews:
    """Acceptance for the membership API redesign: the oracle view is
    the old engine behavior bit-for-bit, and a lossless probe detector
    converges to the oracle's ground truth."""

    def test_explicit_oracle_is_bit_identical_to_default(self):
        default = build_engine(size=100, half_life=5.0, seed=11)
        explicit = build_engine(
            size=100, half_life=5.0, seed=11, membership_factory=OracleView
        )
        assert isinstance(default.membership, OracleView)
        assert default.run(6) == explicit.run(6)
        ring_d, ring_e = default.substrate.ring, explicit.substrate.ring
        assert np.array_equal(ring_d.ids_array(), ring_e.ids_array())
        assert np.array_equal(
            ring_d.ids_array(live_only=True), ring_e.ids_array(live_only=True)
        )

    @pytest.mark.parametrize("backend", ["vectorized", "scalar"])
    def test_probe_zero_loss_converges_to_oracle_live_set(self, backend):
        config = DetectorConfig(
            failure_threshold=2, quorum=2, n_monitors=3, rounds_per_epoch=2
        )
        oracle = build_engine(size=80, half_life=6.0, seed=23)
        probe = build_engine(
            size=80,
            half_life=6.0,
            seed=23,
            membership_factory=lambda ring: VIEWS[backend](ring, config, seed=23),
        )
        epochs = 8
        oracle.run(epochs)
        probe.run(epochs)
        # The detector consumes only its private ("steady-detect", e)
        # streams, so ground-truth churn is identical under both views.
        truth_oracle = sorted(
            int(i) for i in oracle.substrate.ring.ids_array(live_only=True)
        )
        ring = probe.substrate.ring
        assert sorted(int(i) for i in ring.ids_array(live_only=True)) == truth_oracle
        # Freeze churn and let probe rounds + gossip drain the backlog:
        # belief must converge onto ground truth with no false evictions.
        view = probe.membership
        for extra_epoch in range(epochs, epochs + 60):
            if view.live_count == ring.live_count:
                break
            view.advance(extra_epoch)
        assert view.live_count == ring.live_count
        assert sorted(int(i) for i in view.live_ids()) == truth_oracle
        assert view.false_evictions == 0


class TestFalseEvictions:
    """A false eviction (a truth-live peer a lossy probe view evicts)
    leaves through the engine's one departure door in the epoch that
    evicted it: ``leave_batch``, ring pointers repaired at once, its
    session ended — and a wave that would empty the overlay reprieves
    the longest-lived peer, believed live again."""

    #: Every probe a coin flip and one missed pong a vote: on 16 peers
    #: every peer is falsely evicted within a few epochs.
    LOSSY = DetectorConfig(loss=0.6, failure_threshold=1, quorum=1)

    def lossy_engine(self, seed: int, vectorized: bool = True) -> SteadyStateChurnEngine:
        view = ProbeView if vectorized else ScalarProbeView
        return build_engine(
            size=16,
            half_life=16.0,
            repair_every=2,
            n_probes=4,
            seed=seed,
            vectorized=vectorized,
            membership_factory=lambda ring: view(ring, self.LOSSY, seed=seed),
        )

    def test_false_evictions_leave_by_leave_batch(self, monkeypatch):
        engine = self.lossy_engine(seed=2)
        overlay, view = engine.substrate, engine.membership
        left: list[list[int]] = []
        evicted: list[list[int]] = []
        leave_batch, advance = overlay.leave_batch, view.advance

        def leaving(node_ids, repair=True):
            left.append(sorted(int(i) for i in node_ids))
            return leave_batch(node_ids, repair=repair)

        def evicting(epoch):
            evicted.append(advance(epoch))
            return evicted[-1]

        monkeypatch.setattr(overlay, "leave_batch", leaving)
        monkeypatch.setattr(view, "advance", evicting)
        for __ in range(5):  # the sixth epoch's evictions would empty the overlay
            left.clear()
            row = engine.run_epoch()
            verify(overlay.ring, overlay.pointers)
            wrongly = evicted[-1]
            if wrongly:
                assert left[-1] == sorted(wrongly)  # the epoch's last leave_batch
                slots = overlay.state.slots_of(wrongly)  # -1: compacted by the repair
                assert not overlay.state.alive[slots[slots >= 0]].any()
                assert not np.isin(wrongly, engine._session_ids).any()
            else:
                assert len(left) == (row.departures > 0)
        assert view.false_evictions == sum(map(len, evicted)) > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_an_eviction_wave_never_empties_the_overlay(self, seed):
        twins = [self.lossy_engine(seed, vectorized) for vectorized in (True, False)]
        engine = twins[0]
        ring, state = engine.substrate.ring, engine.substrate.state
        reprieved = 0
        for __ in range(6):
            live_before = ring.live_count
            rows = [twin.run_epoch() for twin in twins]
            assert rows[0] == rows[1]
            verify(ring, engine.substrate.pointers)
            false = state.obs.rows("membership")[-1].false_evictions
            live = live_before + rows[0].arrivals - rows[0].departures
            assert rows[0].live == ring.live_count == live - min(false, live - 1) >= 1
            if false == live:  # the reprieved peer starts over: fresh probe rows
                reprieved += 1
                keep = ring.slots_array()[state.alive[ring.slots_array()]]
                assert not state.probe_fails[keep].any()
            slots = ring.slots_array()
            assert not (state.alive[slots] & state.believed_dead[slots]).any()
        if seed in (1, 5):  # an epoch that evicts every live peer
            assert reprieved


class TestStaleLinkCount:
    """``_count_stale_links`` is a gather from one id-indexed
    believed-live table; the set-walking twin's count, taken on the same
    engine, pins it on every shape of link table the engine can meet."""

    @staticmethod
    def both(engine: SteadyStateChurnEngine) -> int:
        count = engine._count_stale_links()
        assert count == ReferenceChurnEngine._count_stale_links(engine)
        return count

    @pytest.mark.parametrize("substrate", ["oscar", "chord", "mercury"])
    def test_probe_view_crashed_undetected_then_evicted_then_retired(self, substrate):
        config = DetectorConfig(failure_threshold=2, quorum=2, n_monitors=3, rounds_per_epoch=2)
        engine = build_engine(
            substrate=substrate,
            size=60,
            seed=31,
            membership_factory=lambda ring: ProbeView(ring, config, seed=31),
        )
        overlay, view = engine.substrate, engine.membership
        assert self.both(engine) == 0
        victims = [int(i) for i in overlay.ring.ids_array(live_only=True)[[3, 17, 40]]]
        view.crash(victims)
        view.record_deaths(victims, 1)
        # Crashed but undetected: still believed live, nothing is stale yet.
        assert self.both(engine) == 0
        for epoch in range(1, 40):
            view.advance(epoch)
            if view.live_count == overlay.ring.live_count:
                break
        inbound = int(np.isin(overlay.state.out_links[view.live_slots()], victims).sum())
        assert inbound > 0 and self.both(engine) == inbound
        # Retired: the ids no longer have a slot, the dangling links still count.
        view.forget(victims)
        overlay.retire(victims)
        assert self.both(engine) == inbound

    def test_empty_link_table_and_ids_past_every_live_id(self):
        engine = build_engine(size=40, seed=32)
        state = engine.substrate.state
        slots = engine.membership.live_slots()
        state.clear_links(slots)
        assert self.both(engine) == 0
        # Targets above every live id (a newer peer, already gone) are stale.
        top = int(engine.membership.live_ids().max())
        state.set_links(int(slots[0]), [top + 1, top + 5_000, int(state.node_id[slots[1]])])
        assert self.both(engine) == 2


class TestRepairPolicies:
    """``repair="refill"`` replaces what churn broke and keeps the rest;
    ``repair="full"`` is the paper's rewire of every peer."""

    def test_repair_counters_ride_the_repair_epochs(self):
        engine = build_engine(size=80, half_life=4.0, n_probes=5, repair="full")
        engine.run(6)
        t = engine.substrate.state.obs.table("churn")
        repaired = t["link_repair"]
        assert repaired.tolist() == [e % engine.repair_every == 0 for e in range(1, 7)]
        assert repaired.any()
        assert (t["repair_links_placed"][repaired] > 0).all()
        assert (t["repair_samples_spent"][repaired] > 0).all()  # every peer re-estimated
        for name in (n for n in t if n.startswith("repair_")):
            assert (t[name][~repaired] == 0).all(), name

    def test_refill_spends_no_samples_and_keeps_every_healthy_link(self):
        engine = build_engine(size=120, half_life=4.0, n_probes=5, repair_every=3)
        overlay = engine.substrate
        engine.run(2)
        live = set(overlay.ring.ids_array(live_only=True).tolist())
        before = {
            node_id: [t for t in links if t in live] for node_id, links in links_of(overlay).items()
        }
        stats = engine.run_epoch()  # epoch 3 repairs; arrivals and departures come first
        assert stats.link_repair and stats.repair_samples_spent == 0
        assert stats.repair_links_placed > 0
        alive = set(overlay.ring.ids_array(live_only=True).tolist())
        for (node_id, links), cap in zip(links_of(overlay).items(), overlay.out_cap_array()):
            kept = [t for t in before.get(node_id, []) if t in alive]
            assert links[: len(kept)] == kept
            assert set(links) <= alive and len(links) <= cap

    @pytest.mark.parametrize("repair", ["refill", "full"])
    def test_in_degree_is_the_live_in_link_count_after_repair(self, repair):
        engine = build_engine(size=100, half_life=3.0, n_probes=5, repair_every=2, repair=repair)
        overlay = engine.substrate
        stats = engine.run(4)[-1]
        assert stats.link_repair
        live = overlay.ring.ids_array(live_only=True)
        links = overlay.state.out_links[overlay.ring.slots_array(live_only=True)]
        counts = np.bincount(links[np.isin(links, live)], minlength=int(live.max()) + 1)
        assert np.array_equal(overlay.in_degree_array(), counts[live])
        assert (overlay.in_degree_array() <= overlay.in_cap_array()).all()
