"""Unit tests of the sans-I/O protocol core (``repro.protocol``).

The simulators exercise these kernels end to end (the engines now call
them directly); this module pins the *local* contracts a transport
driver leans on — decision functions, message wire round-trips, the
link-negotiation state machine, the join machine's estimation level and
its equivalence with the construction engine's one-peer join, and the
per-hop router's equivalence with the omniscient simulator.
"""

from __future__ import annotations

import dataclasses
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import OscarConfig
from repro.core.overlay import OscarOverlay
from repro.core.partitions import PartitionTable
from repro.degree import ConstantDegrees, SpikyDegreeDistribution
from repro.engine.construct import BatchConstructionEngine
from repro.errors import SamplingError
from repro.protocol import (
    Deliver,
    Directory,
    GreedyRouter,
    JoinProtocol,
    LinkEstablished,
    LinkNegotiation,
    Send,
    accepts_link,
    border_is_terminal,
    closest_preceding,
    cw_arc_slice,
    cw_closer,
    link_winner_key,
    message_from_wire,
    mh_accepts,
    propose_neighbor,
)
from repro.protocol.messages import (
    AcquireReport,
    AcquireTicket,
    BeginAcquire,
    DirectoryUpdate,
    EstimateLevel,
    EstimateReport,
    Hello,
    JoinDone,
    LinkCommit,
    LinkReply,
    LinkRequest,
    LinkResult,
    Message,
    RouteDone,
    RouteProbe,
    WalkDone,
    WalkStep,
)
from repro.ring.identifiers import in_cw_interval
from repro.rng import split
from repro.routing.greedy import route_greedy
from repro.workloads import UniformKeys
from tests.conftest import build_overlay

SEED = -1


class TestDecisions:
    def test_accepts_link_is_strict_cap_comparison(self):
        assert accepts_link(0, 1)
        assert accepts_link(3, 4)
        assert not accepts_link(4, 4)
        assert not accepts_link(5, 4)

    def test_link_winner_key_matches_scalar_tuple(self):
        # The scalar construction path ranked accepting candidates by
        # (in_degree, -spare, id); spare = rho - in_degree, so the
        # middle term is in_degree - rho.
        cases = [(0, 4, 7), (3, 4, 1), (2, 8, 5), (2, 3, 5)]
        for in_degree, rho, node_id in cases:
            assert link_winner_key(in_degree, rho, node_id) == (
                in_degree,
                in_degree - rho,
                node_id,
            )
        ranked = sorted(cases, key=lambda c: link_winner_key(*c))
        assert ranked[0] == (0, 4, 7)  # least loaded wins
        # Equal load: more spare capacity wins.
        assert link_winner_key(2, 8, 5) < link_winner_key(2, 3, 5)

    def test_mh_accepts_consumes_rng_only_on_uphill_moves(self):
        rng = split(0, "mh")
        state0 = rng.bit_generator.state
        # Downhill or equal: accepted without a draw.
        assert mh_accepts(5, 5, rng)
        assert mh_accepts(5, 3, rng)
        assert rng.bit_generator.state == state0
        # Uphill: exactly one uniform consumed.
        twin = split(0, "mh")
        expected = twin.random() < 2 / 4
        assert mh_accepts(2, 4, rng) == expected
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_propose_neighbor_uniform_index_draw(self):
        neighbors = [10, 20, 30, 40]
        rng = split(1, "prop")
        twin = split(1, "prop")
        assert propose_neighbor(neighbors, rng) == neighbors[int(twin.integers(0, 4))]

    def test_border_is_terminal(self):
        # Border equal to the previous end: arc failed to shrink.
        assert border_is_terminal(0.5, 0.2, 0.5)
        # Border outside (origin, prev]: clamp fires.
        assert border_is_terminal(0.9, 0.2, 0.5)
        # A strictly shrinking border continues the descent.
        assert not border_is_terminal(0.3, 0.2, 0.5)

    def test_cw_closer(self):
        assert cw_closer(0.1, 0.2, 0.5)  # 0.2 is cw-closer to 0.1 than 0.5
        assert not cw_closer(0.1, 0.5, 0.2)
        assert cw_closer(0.9, 0.05, 0.3)  # wrapping

    def test_closest_preceding_picks_max_progress_without_overshoot(self):
        # Target at 0.8; candidates at 0.3, 0.7, 0.85 — 0.7 precedes the
        # target most closely, 0.85 overshoots.
        best, best_pos = closest_preceding(
            1,
            0.1,
            0.8,
            2,
            0.3,
            [(2, 0.3), (3, 0.7), (4, 0.85)],
        )
        assert (best, best_pos) == (3, 0.7)

    def test_cw_arc_slice_counts_match_bruteforce(self):
        positions = np.sort(split(3, "arc").random(64))
        for start, end in [(0.2, 0.7), (0.7, 0.2), (0.5, 0.5), (0.0, 0.999)]:
            lo, __, count = cw_arc_slice(positions, start, end)
            expected = int(sum(in_cw_interval(p, start, end) for p in positions))
            assert count == expected
            if count:
                first = positions[lo % positions.size]
                assert in_cw_interval(float(first), start, end)


class TestMessages:
    def _samples(self) -> list[Message]:
        return [
            Hello(host="127.0.0.1", port=4100),
            DirectoryUpdate(peers=[[0, 0.1]], addrs=[[0, "127.0.0.1", 4100]]),
            LinkRequest(token=3),
            LinkReply(token=3, accept=True, in_degree=2, rho_in=4),
            LinkCommit(token=3, priority=11),
            LinkResult(token=3, granted=False),
            WalkStep(
                walk_id=5,
                origin=1,
                start=0.1,
                end=0.9,
                n_samples=4,
                hops_per_sample=2,
                until_sample=2,
                steps_left=9,
                collected=[0.5],
                current=3,
                current_pos=0.5,
                proposer_deg=2,
            ),
            WalkDone(walk_id=5, positions=[0.5, 0.7]),
            RouteProbe(probe_id=1, target=0.42, origin=-1, hops=3, budget=40),
            RouteDone(probe_id=1, delivered=9, hops=3, ok=True),
            JoinDone(node_id=2, links=4, gave_up=0),
            EstimateLevel(level=2, u_row=[0.1, 0.9]),
            BeginAcquire(priority=5),
            AcquireTicket(round_no=1, u_part=0.3, u_cand=[0.2, 0.8]),
            AcquireReport(round_no=1, cont=True),
        ]

    def test_wire_round_trip_every_kind(self):
        for message in self._samples():
            restored = message_from_wire(message.to_wire())
            assert restored == message
            assert type(restored) is type(message)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown message kind"):
            message_from_wire({"kind": "nope"})

    def test_duplicate_kind_rejected(self):
        with pytest.raises(TypeError, match="duplicate message kind"):

            @dataclasses.dataclass(frozen=True)
            class Rogue(Message):  # noqa: F841 - definition itself must raise
                kind = "hello"


class TestLinkNegotiation:
    def test_happy_path_commits_to_least_loaded(self):
        nego = LinkNegotiation(token=1, candidates=[10, 20], priority=3)
        effects = nego.start()
        requests = [e for e in effects if isinstance(e, Send)]
        assert {e.to for e in requests} == {10, 20}
        assert nego.on_reply(10, LinkReply(token=1, accept=True, in_degree=2, rho_in=4)) == []
        effects = nego.on_reply(20, LinkReply(token=1, accept=True, in_degree=1, rho_in=4))
        commit = [e for e in effects if isinstance(e, Send)]
        assert len(commit) == 1 and commit[0].to == 20
        assert commit[0].message == LinkCommit(token=1, priority=3)
        done = nego.on_result(LinkResult(token=1, granted=True))
        assert LinkEstablished(peer=20) in done
        assert nego.placed and nego.linked_to == 20 and not nego.conflict

    def test_all_refuse_fails_with_refusal_count(self):
        nego = LinkNegotiation(token=1, candidates=[10, 20])
        nego.start()
        nego.on_reply(10, LinkReply(token=1, accept=False, in_degree=4, rho_in=4))
        nego.on_reply(20, LinkReply(token=1, accept=False, in_degree=5, rho_in=4))
        assert nego.done and not nego.placed
        assert nego.refusals == 2

    def test_timeout_decides_with_missing_counted_refused(self):
        nego = LinkNegotiation(token=1, candidates=[10, 20])
        nego.start()
        nego.on_reply(10, LinkReply(token=1, accept=True, in_degree=0, rho_in=4))
        effects = nego.on_timer()
        commit = [e for e in effects if isinstance(e, Send)]
        assert len(commit) == 1 and commit[0].to == 10
        assert nego.refusals == 1  # the silent candidate

    def test_denied_commit_is_a_conflict(self):
        nego = LinkNegotiation(token=1, candidates=[10])
        nego.start()
        nego.on_reply(10, LinkReply(token=1, accept=True, in_degree=0, rho_in=4))
        nego.on_result(LinkResult(token=1, granted=False))
        assert nego.done and not nego.placed and nego.conflict

    def test_stale_and_duplicate_replies_ignored(self):
        nego = LinkNegotiation(token=1, candidates=[10, 20])
        nego.start()
        assert nego.on_reply(10, LinkReply(token=9, accept=True)) == []  # wrong token
        assert nego.on_reply(99, LinkReply(token=1, accept=True)) == []  # unknown peer
        nego.on_reply(10, LinkReply(token=1, accept=True, in_degree=0, rho_in=4))
        assert nego.on_reply(10, LinkReply(token=1, accept=True, in_degree=0, rho_in=4)) == []


class TestPartitionEstimator:
    """Partition estimation is :class:`JoinProtocol`'s level step: one
    border per row of uniforms, the descent ending on an empty level or
    a clamped border."""

    def test_descends_and_builds_a_table(self):
        n = 64
        positions = [i / n for i in range(n)]
        join = JoinProtocol(
            0, 0.0, SEED, Directory(range(n), positions), None,
            k=4, sample_size=8, rho_max_out=2, link_retries=2,
        )
        assert join.far_end == positions[-1]
        rng = split(7, "est")
        for level in range(3):
            (effect,) = join.on_level(EstimateLevel(level=level, u_row=list(rng.random(8))))
            assert effect.to == SEED and isinstance(effect.message, EstimateReport)
            if not effect.message.cont:
                break
        table = PartitionTable(origin=0.0, far_end=join.far_end, medians=tuple(join.medians))
        assert 2 <= table.n_partitions <= 4
        assert not effect.message.cont  # k - 1 levels at most

    def test_empty_sample_terminates_the_descent(self):
        positions = [0.1 + i / 10 for i in range(8)]
        join = JoinProtocol(
            0, 0.1, SEED, Directory(range(8), positions), split(1, "walk"),
            k=5, sample_size=4, rho_max_out=0, link_retries=2, walk_mode=True,
        )
        launch = join.start()
        assert isinstance(launch[0].message, WalkStep)
        effects = join.on_walk_done(WalkDone(walk_id=1, positions=[]))
        assert join.medians == [] and join.done
        assert effects[-1] == Send(to=SEED, message=JoinDone(node_id=0, links=0, gave_up=0))

    def test_degenerate_arc_needs_no_samples(self):
        # The sole member: far end == origin, one partition, no draws.
        rng = split(3, "solo")
        before = rng.bit_generator.state
        join = JoinProtocol(
            5, 0.3, SEED, Directory([5], [0.3]), rng,
            k=4, sample_size=8, rho_max_out=0, link_retries=2,
        )
        join.start()
        assert join.far_end == 0.3 and join.medians == [] and join.done
        assert rng.bit_generator.state == before

    def test_feeding_a_finished_estimator_raises(self):
        join = JoinProtocol(
            5, 0.3, SEED, Directory([5], [0.3]), None,
            k=4, sample_size=8, rho_max_out=0, link_retries=2,
        )
        with pytest.raises(SamplingError):
            join.on_level(EstimateLevel(level=0, u_row=[0.5]))


def drive(join, overlay):
    """Run a free join machine to ``JoinDone`` synchronously: link
    requests and commits are answered from the overlay's ``in_deg`` /
    ``cap_in`` columns, and every grant is applied to them."""
    state = overlay.state
    effects = deque(join.start())
    seen = []
    while effects:
        effect = effects.popleft()
        seen.append(effect)
        message = effect.message if isinstance(effect, Send) else None
        if isinstance(message, LinkRequest):
            slot = state.slot_of(effect.to)
            in_degree, cap = int(state.in_deg[slot]), int(state.cap_in[slot])
            reply = LinkReply(
                token=message.token,
                accept=accepts_link(in_degree, cap),
                in_degree=in_degree,
                rho_in=cap,
            )
            effects.extend(join.on_reply(effect.to, reply))
        elif isinstance(message, LinkCommit):
            slot = state.slot_of(effect.to)
            granted = accepts_link(int(state.in_deg[slot]), int(state.cap_in[slot]))
            state.in_deg[slot] += granted
            effects.extend(join.on_result(LinkResult(token=message.token, granted=granted)))
    return seen


class TestJoinProtocolMatchesEngine:
    """One peer's :class:`JoinProtocol`, fed from the overlay's join
    stream, is :meth:`OscarOverlay.join` (the splice plus the engine's
    one-row ``join_cohort``) on a twin overlay: the engine's layout for
    one row *is* the per-peer layout — ``shuffle`` of one row draws
    nothing, ``random(1)`` is ``random()``, ``random((1, s))`` is
    ``random(s)``."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(2, 60),
        spiky=st.booleans(),
        cap=st.integers(1, 6),
        saturated=st.booleans(),
        caps=st.tuples(st.integers(0, 6), st.integers(0, 8)),
        power_of_two=st.booleans(),
        link_retries=st.integers(0, 3),
        sample_size=st.sampled_from([1, 2, 5, 16]),
        where=st.one_of(
            st.floats(0.0, 1.0, exclude_max=True), st.sampled_from(["below", "above"])
        ),
    )
    def test_join_equals_the_engine_join(
        self, seed, n, spiky, cap, saturated, caps, power_of_two, link_retries, sample_size, where
    ):
        config = OscarConfig(
            power_of_two=power_of_two, link_retries=link_retries, sample_size=sample_size
        )
        degrees = SpikyDegreeDistribution() if spiky else ConstantDegrees(cap)
        # "below" / "above": the joiner shares the 2**-64 key cell of
        # peers at 2**-70 and 2**-69, below both or between them — rows
        # that tie on key distance, ranked by draw index.
        shared = isinstance(where, str)
        position = {"below": 2.0**-71, "above": 1.5 * 2.0**-70}.get(where, where)

        def spliced():
            overlay = OscarOverlay(config, seed=seed)
            overlay.grow(n, UniformKeys(), degrees)
            if shared:
                overlay.join(2.0**-70, cap, cap)
                overlay.join(2.0**-69, cap, cap)
            if saturated:
                live = overlay.ring.slots_array(live_only=True)
                overlay.state.in_deg[live] = overlay.state.cap_in[live]
            assume(position not in overlay.ring.positions_array(live_only=False))
            return overlay, overlay._splice(position, *caps)

        twin, node_id = spliced()
        ring = twin.ring
        directory = Directory(ring.ids_array(live_only=True), ring.positions_array(live_only=True))
        join = JoinProtocol(
            node_id, position, SEED, directory, twin._join_rng,
            k=config.partitions_for(directory.m),
            sample_size=sample_size,
            rho_max_out=caps[1],
            link_retries=link_retries,
            power_of_two=power_of_two,
        )
        effects = drive(join, twin)
        done = JoinDone(node_id=node_id, links=len(join.links), gave_up=join.slots_given_up)
        assert effects[-1] == Send(to=SEED, message=done)

        for vectorized in (True, False):
            overlay, engine_id = spliced()
            assert engine_id == node_id
            ids = np.array([node_id], dtype=np.int64)
            stats = BatchConstructionEngine(overlay, vectorized=vectorized).join_cohort(ids)
            state = overlay.state
            slot = state.slot_of(node_id)
            assert join.links == state.out_links[slot, : state.out_count[slot]].tolist()
            assert join.medians == state.medians[slot, : state.n_medians[slot]].tolist()
            assert [getattr(join, f) for f in stats.__slots__] == [
                getattr(stats, f) for f in stats.__slots__
            ]
            assert twin._join_rng.bit_generator.state == overlay._join_rng.bit_generator.state
            assert twin.in_degree_array().tolist() == overlay.in_degree_array().tolist()


class TestGreedyRouterEquivalence:
    def _hop(self, overlay, node_id, target):
        ring = overlay.ring
        successor = ring.successor(node_id)
        return GreedyRouter.decide(
            target,
            me=node_id,
            my_position=ring.position(node_id),
            predecessor_position=ring.position(ring.predecessor(node_id)),
            successor=successor,
            successor_position=ring.position(successor),
            neighbors=[
                (peer, ring.position(peer)) for peer in overlay.neighbors_of(node_id)
            ],
        )

    def test_probe_hops_replay_route_greedy_paths(self):
        overlay = build_overlay(n=80, seed=5, cap=6)
        ring = overlay.ring
        rng = split(5, "probe-targets")
        for __ in range(40):
            target = float(rng.random())
            source = int(ring.ids_array(live_only=True)[int(rng.integers(0, 80))])
            reference = route_greedy(
                ring, overlay.pointers, overlay, source, target, record_path=True
            )
            current, hops, path = source, 0, [source]
            while True:
                decision = self._hop(overlay, current, target)
                if isinstance(decision, Deliver):
                    break
                current = decision.to
                hops += 1
                path.append(current)
                assert hops <= 200, "per-hop router failed to converge"
            assert current == reference.delivered_to
            assert hops == reference.cost
            assert path == list(reference.path)

    def test_sole_member_delivers_everything(self):
        # predecessor == self: the peer owns the whole circle.
        decision = GreedyRouter.decide(
            0.6,
            me=1,
            my_position=0.1,
            predecessor_position=0.1,
            successor=1,
            successor_position=0.1,
            neighbors=[],
        )
        assert isinstance(decision, Deliver)


class TestEffects:
    def test_effect_values_are_frozen(self):
        effect = LinkEstablished(peer=3)
        assert effect.peer == 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            effect.peer = 5

    def test_directory_round_trip_and_lookup(self):
        directory = Directory([5, 2, 9], [0.7, 0.1, 0.4])
        assert list(directory.ids) == [2, 9, 5]  # sorted by position
        assert directory.row_of(9) == 1
        assert directory.successor_of_key(0.45) == 5
        assert directory.successor_of_key(0.95) == 2  # wraps
        assert Directory.from_pairs(directory.to_pairs()).to_pairs() == directory.to_pairs()
