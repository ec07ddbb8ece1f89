"""Differential equivalence: vectorized kernels vs their sequential twins.

Every engine runs two ways over the one
:class:`~repro.core.soa.SubstrateState`: the numpy kernels that read and
write whole columns, and the pure-Python reference twins
that walk the same columns one peer at a time — the construction
engine's ``vectorized=False`` path, and the churn and query engines'
subclasses in ``tests/twins/``.
These tests run the *same seeded program* — interleaved bulk grows,
rewirings, churn epochs and routed probe batches — once through each
path and require the outcomes to be bit-identical on all three
substrates:

* final topology (membership, positions, keys, liveness, every link
  row, in-degrees, caps, samples spent, Oscar's partition tables);
* every ``churn`` row along the way;
* every probe batch's :class:`~repro.routing.RouteStats`.

A separate check pins the in-degree bookkeeping against the link rows.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ChordOverlay, MercuryOverlay, OscarConfig, OscarOverlay
from repro.churn.sessions import ExponentialSessions
from repro.degree import ConstantDegrees
from repro.engine import BatchQueryEngine, SteadyStateChurnEngine
from repro.rng import split
from repro.workloads import UniformKeys
from twins import ReferenceChurnEngine, ReferenceQueryEngine

from conftest import links_of

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
    churn_engine = SteadyStateChurnEngine if vectorized else ReferenceChurnEngine
    query_engine = BatchQueryEngine if vectorized else ReferenceQueryEngine
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
                churn = churn_engine(
                    overlay,
                    keys,
                    degrees,
                    ExponentialSessions(6.0),
                    arrival_rate=4.0,
                    repair_every=2,
                    n_probes=8,
                    seed=seed + 1,
                )
            epoch_stats.append(churn.run_epoch())
        else:  # route
            route_stats.append(
                query_engine(overlay).measure(
                    split(seed, "prog-route", i), n_queries=16
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
    state, slots = overlay.state, ring.slots_array(live_only=False)
    fp["links"] = links_of(overlay, live_only=False)
    for column in ("in_deg", "cap_in", "cap_out", "samples_spent"):
        fp[column] = getattr(state, column)[slots].tolist()
    if name == "chord":
        fp["app_key"] = dict(overlay.application_key)
    if name == "oscar":
        fp["partitions"] = [overlay.partition_table(i) for i in ids]
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
        assert vec[1] == ref[1]  # every churn row, column for column
        assert vec[2] == ref[2]  # every probe batch's RouteStats


class TestViewArrayCoherence:
    """The in-degree column agrees with the link rows the vectorized
    kernels wrote."""

    def test_in_degrees_match_actual_link_counts(self):
        overlay, _, _ = run_program(
            "oscar", 1234, ["grow", "rewire", "epoch", "epoch", "rewire"], True
        )
        links = links_of(overlay, live_only=False)
        counted = dict.fromkeys(links, 0)
        for targets in links.values():
            for t in targets:
                if t in counted:
                    counted[t] += 1
        # in_degree is acquisition-side bookkeeping over *live* linkers;
        # after churn the recorded value counts links placed, so it must
        # be at least the surviving links and exact right after a rewire.
        state = overlay.state
        for i in overlay.ring.node_ids(live_only=True):
            assert int(state.in_deg[state.slot_of(i)]) == counted[i]
