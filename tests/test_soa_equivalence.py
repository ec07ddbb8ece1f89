"""Differential equivalence: object-view API vs raw-array kernels.

The struct-of-arrays refactor keeps two ways to read and write one
substrate: the object views (``OscarNode`` / ``MercuryNode`` /
``FingerTable`` over :class:`~repro.core.soa.SubstrateState`) that the
scalar reference paths drive one peer at a time, and the raw array
kernels the vectorized engines scatter into directly. These tests run
the *same seeded program* — interleaved bulk grows, rewirings, churn
epochs and routed probe batches — once through each path and require the
outcomes to be bit-identical on all three substrates:

* final topology (membership, positions, keys, liveness, every link
  table, in-degrees, partition tables / fingers, samples spent);
* every :class:`~repro.engine.churn.ChurnEpochStats` along the way;
* every probe batch's :class:`~repro.routing.RouteStats`.

A separate check pins view/array coherence: whatever the vectorized
kernels wrote must read back identically through the object views.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ChordOverlay, MercuryOverlay, OscarConfig, OscarOverlay
from repro.churn.sessions import ExponentialSessions
from repro.degree import ConstantDegrees
from repro.engine import BatchQueryEngine, SteadyStateChurnEngine
from repro.rng import split
from repro.workloads import UniformKeys

SUBSTRATES = ("oscar", "mercury", "chord")

ops_strategy = st.lists(
    st.sampled_from(["grow", "rewire", "epoch", "epoch", "route"]),
    min_size=3,
    max_size=7,
)


def make_substrate(name: str, seed: int):
    if name == "oscar":
        return OscarOverlay(OscarConfig(), seed=seed)
    if name == "mercury":
        return MercuryOverlay(seed=seed)
    return ChordOverlay(seed=seed)


def run_program(name: str, seed: int, ops: list[str], vectorized: bool):
    """Replay one seeded program; returns (overlay, epoch stats, route stats)."""
    overlay = make_substrate(name, seed)
    keys = UniformKeys()
    degrees = ConstantDegrees(6)
    overlay.grow_batch(12, keys, degrees, vectorized=vectorized)
    churn = None
    epoch_stats = []
    route_stats = []
    for i, op in enumerate(ops):
        if op == "grow":
            overlay.grow_batch(overlay.size + 5, keys, degrees, vectorized=vectorized)
        elif op == "rewire":
            overlay.rewire_batch(split(seed, "prog-rewire", i), vectorized=vectorized)
        elif op == "epoch":
            if churn is None:
                churn = SteadyStateChurnEngine(
                    overlay,
                    keys,
                    degrees,
                    ExponentialSessions(6.0),
                    arrival_rate=4.0,
                    repair_every=2,
                    n_probes=8,
                    seed=seed + 1,
                    vectorized=vectorized,
                )
            epoch_stats.append(churn.run_epoch())
        else:  # route
            faulty = len(overlay.ring) > overlay.ring.live_count
            route_stats.append(
                BatchQueryEngine(overlay, vectorized=vectorized).measure(
                    split(seed, "prog-route", i), n_queries=16, faulty=faulty
                )
            )
    return overlay, epoch_stats, route_stats


def topology_fingerprint(name: str, overlay) -> dict:
    """Everything observable about the final topology, exactly."""
    ring = overlay.ring
    ids = [int(i) for i in ring.ids_array(live_only=False)]
    fp: dict = {
        "ids": ids,
        "pos": ring.positions_array(live_only=False).tobytes(),
        "keys": ring.keys_array(live_only=False).tobytes(),
        "alive": [ring.is_alive(i) for i in ids],
        "succ": dict(overlay.pointers.successor),
        "pred": dict(overlay.pointers.predecessor),
    }
    if name == "chord":
        fp["links"] = {i: list(overlay.fingers[i]) for i in ids}
        fp["app_key"] = dict(overlay.application_key)
        return fp
    per_node = {}
    for i in ids:
        node = overlay.nodes[i]
        per_node[i] = (
            list(node.out_links),
            node.in_degree,
            node.rho_max_in,
            node.rho_max_out,
            node.samples_spent,
            node.partitions if name == "oscar" else None,
        )
    fp["links"] = per_node
    return fp


class TestProgramEquivalence:
    @given(seed=st.integers(0, 2**20), ops=ops_strategy)
    @settings(max_examples=8, deadline=None)
    def test_oscar_program_bit_identical(self, seed, ops):
        self.check("oscar", seed, ops)

    @given(seed=st.integers(0, 2**20), ops=ops_strategy)
    @settings(max_examples=5, deadline=None)
    def test_mercury_program_bit_identical(self, seed, ops):
        self.check("mercury", seed, ops)

    @given(seed=st.integers(0, 2**20), ops=ops_strategy)
    @settings(max_examples=5, deadline=None)
    def test_chord_program_bit_identical(self, seed, ops):
        self.check("chord", seed, ops)

    def check(self, name: str, seed: int, ops: list[str]) -> None:
        vec = run_program(name, seed, ops, vectorized=True)
        ref = run_program(name, seed, ops, vectorized=False)
        assert topology_fingerprint(name, vec[0]) == topology_fingerprint(name, ref[0])
        assert vec[1] == ref[1]  # every ChurnEpochStats, field for field
        assert vec[2] == ref[2]  # every probe batch's RouteStats


class TestViewArrayCoherence:
    """Reads through the object views must agree with the raw arrays the
    vectorized kernels wrote (same state, two access paths)."""

    @given(seed=st.integers(0, 2**20))
    @settings(max_examples=10, deadline=None)
    def test_oscar_views_match_arrays(self, seed):
        overlay, _, _ = run_program(
            "oscar", seed, ["grow", "rewire", "epoch", "epoch"], vectorized=True
        )
        state = overlay.state
        for node_id in overlay.ring.node_ids(live_only=False):
            slot = state.slot_of(node_id)
            node = overlay.nodes[node_id]
            row = state.out_links[slot, : state.out_count[slot]]
            assert list(node.out_links) == [int(t) for t in row]
            assert node.in_degree == int(state.in_deg[slot])
            assert node.rho_max_in == int(state.cap_in[slot])
            assert node.rho_max_out == int(state.cap_out[slot])
            assert node.position == float(state.pos[slot])
            parts = node.partitions
            if state.n_medians[slot] < 0:
                assert parts is None
            else:
                assert parts is not None
                assert parts.origin == float(state.part_origin[slot])
                assert parts.far_end == float(state.part_far_end[slot])
                n_med = int(state.n_medians[slot])
                assert parts.medians == tuple(
                    float(x) for x in state.medians[slot, :n_med]
                )

    def test_in_degrees_match_actual_link_counts(self):
        overlay, _, _ = run_program(
            "oscar", 1234, ["grow", "rewire", "epoch", "epoch", "rewire"], True
        )
        live = set(overlay.ring.node_ids(live_only=True))
        counted: dict[int, int] = {i: 0 for i in overlay.ring.node_ids(live_only=False)}
        for i in counted:
            for t in overlay.nodes[i].out_links:
                if int(t) in counted:
                    counted[int(t)] += 1
        # in_degree is acquisition-side bookkeeping over *live* linkers;
        # after churn the recorded value counts links placed, so it must
        # be at least the surviving links and exact right after a rewire.
        for i in live:
            assert overlay.nodes[i].in_degree == counted[i]
