"""Cross-module property-based tests (hypothesis).

Each test here exercises an invariant that spans modules — the kind a
unit test cannot pin because it emerges from composition:

* the ring's order statistics agree with brute-force recomputation
  under arbitrary join/crash/revive interleavings, and a join into a
  taken ``2**-64`` key cell is refused (stateful test);
* greedy routing delivers to the ground-truth owner on *any* connected
  topology over *any* peer placement, on the per-hop router's path;
* partition tables built by the oracle estimator tile the population
  exactly at every size;
* the index's range results equal brute-force filtering for arbitrary
  item sets and (possibly wrapped) ranges.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from conftest import greedy_oracle, hand_built, ids_in_cw_range
from repro.core import oracle_partitions
from repro.errors import DuplicateNodeError
from repro.ring import Ring, build_pointers, cw_distance, keyspace, repair
from repro.ring.keyspace import KEY_MASK

keys = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False)


class RingMachine(RuleBasedStateMachine):
    """Joins, crashes and revivals against a brute-force model."""

    def __init__(self) -> None:
        super().__init__()
        self.ring = Ring()
        self.model: dict[int, tuple[float, bool]] = {}
        self.next_id = 0

    @rule(position=keys)
    def join(self, position: float) -> None:
        cell = keyspace.from_unit(position)
        if any(keyspace.from_unit(pos) == cell for pos, __ in self.model.values()):
            with pytest.raises(DuplicateNodeError):  # one peer per key cell
                self.ring.insert(self.next_id, position)
            return
        self.ring.insert(self.next_id, position)
        self.model[self.next_id] = (position, True)
        self.next_id += 1

    @precondition(lambda self: any(alive for __, alive in self.model.values()))
    @rule(data=st.data())
    def crash(self, data) -> None:
        live = [nid for nid, (__, alive) in self.model.items() if alive]
        victim = data.draw(st.sampled_from(live))
        self.ring.mark_dead(victim)
        self.model[victim] = (self.model[victim][0], False)

    @precondition(lambda self: any(not alive for __, alive in self.model.values()))
    @rule(data=st.data())
    def revive(self, data) -> None:
        dead = [nid for nid, (__, alive) in self.model.items() if not alive]
        chosen = data.draw(st.sampled_from(dead))
        self.ring.mark_alive(chosen)
        self.model[chosen] = (self.model[chosen][0], True)

    @invariant()
    def sizes_agree(self) -> None:
        assert len(self.ring) == len(self.model)
        live = sum(1 for __, alive in self.model.values() if alive)
        assert self.ring.live_count == live

    @invariant()
    def order_agrees(self) -> None:
        expected = [
            nid for nid, (pos, __) in sorted(self.model.items(), key=lambda kv: kv[1][0])
        ]
        assert self.ring.node_ids() == expected

    @invariant()
    def successor_of_key_agrees(self) -> None:
        live = sorted(
            (keyspace.from_unit(pos), nid) for nid, (pos, alive) in self.model.items() if alive
        )
        if not live:
            return
        for probe in (0.0, 1.5 * 2.0**-70, 0.33, 0.77):
            cell = keyspace.from_unit(probe)
            candidates = [(key, nid) for key, nid in live if key >= cell]
            expected = candidates[0][1] if candidates else live[0][1]
            assert self.ring.successor_of_key(probe) == expected

    @invariant()
    def verifies(self) -> None:
        self.ring.verify()  # keys strictly increase and equal the state's

    @invariant()
    def pointers_repairable(self) -> None:
        if self.ring.live_count == 0:
            return
        pointers = build_pointers(self.ring)
        assert repair(self.ring, pointers) == 0  # fresh pointers are stable


RingMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestRingStateful = RingMachine.TestCase


class TestGreedyDeliveryProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        positions=st.lists(keys, min_size=3, max_size=40, unique_by=keyspace.from_unit),
        link_seed=st.integers(min_value=0, max_value=2**16),
        source_index=st.integers(min_value=0, max_value=1_000_000),
        target=keys,
    )
    def test_delivers_on_any_connected_topology(
        self, positions, link_seed, source_index, target
    ):
        """``Substrate.route`` reaches the owner of the target's exact
        key (the first peer keyed at or after it), and wherever the
        target shares no peer's ``2**-64`` key cell but as its exact
        float — the float and key domains then order them alike — it
        walks the path the per-hop ``GreedyRouter`` walks."""
        rng = np.random.default_rng(link_seed)
        n = len(positions)
        links = {i: [int(x) for x in rng.integers(0, n, size=3) if int(x) != i] for i in range(n)}
        overlay = hand_built(positions, links)
        source = source_index % n
        result = overlay.route(source, target, record_path=True)
        peer_keys = [overlay.ring.key_of(i) for i in range(n)]
        key = keyspace.from_unit(target)
        owner = min(range(n), key=lambda i: (peer_keys[i] - key) & KEY_MASK)
        assert result.success
        assert result.delivered_to == owner
        assert result.hops <= n  # strict progress bounds the walk
        if key not in peer_keys or target in positions:
            assert result.path == greedy_oracle(overlay, source, target).path


class TestOraclePartitionTiling:
    @settings(max_examples=30, deadline=None)
    @given(
        positions=st.lists(keys, min_size=4, max_size=60, unique_by=keyspace.from_unit),
        origin_index=st.integers(min_value=0, max_value=1_000_000),
        k=st.integers(min_value=2, max_value=10),
    )
    def test_partitions_tile_population_exactly(self, positions, origin_index, k):
        ring = Ring()
        for node_id, pos in enumerate(positions):
            ring.insert(node_id, pos)
        node_id = origin_index % len(positions)
        table = oracle_partitions(ring, node_id, k=k)

        counted = 0
        seen: set[int] = set()
        for arc in table.arcs():
            if arc is None:
                continue
            members = {int(i) for i in ids_in_cw_range(ring, arc[0], arc[1])}
            assert node_id not in members
            assert not members & seen  # arcs are disjoint
            seen |= members
            counted += len(members)
        assert counted == len(positions) - 1  # every other peer in exactly one arc

    @settings(max_examples=30, deadline=None)
    @given(
        positions=st.lists(keys, min_size=8, max_size=64, unique_by=keyspace.from_unit),
        origin_index=st.integers(min_value=0, max_value=1_000_000),
    )
    def test_outer_partition_holds_about_half(self, positions, origin_index):
        ring = Ring()
        for node_id, pos in enumerate(positions):
            ring.insert(node_id, pos)
        node_id = origin_index % len(positions)
        table = oracle_partitions(ring, node_id, k=4)
        arc = table.arc(1)
        population = len(positions) - 1
        outer = len(ids_in_cw_range(ring, arc[0], arc[1]))
        # Recursive lower-median split: the outer arc holds ceil(n/2).
        assert abs(outer - population / 2) <= 1


class TestMedianRankProperty:
    # At or above 2**-11 every float is its own key cell, so the key rank
    # select_border sorts by is the exact clockwise order.
    cells = st.floats(min_value=2.0**-11, max_value=1.0, exclude_max=True)

    @settings(max_examples=40, deadline=None)
    @given(
        positions=st.lists(cells, min_size=3, max_size=50, unique=True),
        origin=cells,
    )
    def test_cw_median_is_middle_by_rank(self, positions, origin):
        from repro.protocol import select_border
        from repro.ring.keyspace import from_unit, from_units

        arr = np.array(positions)
        sample_keys = [int(k) for k in from_units(arr)]
        median, __ = select_border(from_unit(origin), origin, origin, sample_keys, positions)
        distances = np.sort((arr - origin) % 1.0)
        median_distance = (median - origin) % 1.0
        # Tolerance bracket: the returned key round-trips through
        # origin-relative arithmetic (ulp drift), and distinct samples
        # may sit closer together than the tolerance — so assert the
        # lower-middle rank is *reachable* within the bracket rather
        # than an exact index.
        middle = (len(positions) - 1) // 2
        at_or_before = int((distances <= median_distance + 1e-9).sum())
        strictly_before = int((distances < median_distance - 1e-9).sum())
        assert at_or_before >= middle + 1
        assert strictly_before <= middle


class TestIndexRangeProperty:
    @settings(max_examples=15, deadline=None)
    @given(
        item_keys=st.lists(keys, min_size=1, max_size=60, unique=True),
        lo=keys,
        hi=keys,
    )
    def test_range_equals_brute_force(self, item_keys, lo, hi):
        from repro.engine import ServeEngine
        from repro.index import ReplicatedStore
        from repro.membership import OracleView

        from conftest import build_overlay

        overlay = build_overlay(n=40, seed=991, cap=6)
        view = OracleView(overlay.ring)
        store = ReplicatedStore(overlay.ring, k=1)
        store.seed_items(item_keys, view)
        scan = ServeEngine(overlay, store, view).serve_range(
            np.asarray([0]), np.asarray([lo]), np.asarray([hi])
        )
        assert not scan.outcome.any()
        rows = store.slice_rows(scan.item_first[0], scan.item_count[0])
        got = sorted(store.item_keys[rows].tolist())
        if lo == hi:
            expected = sorted(k for k in item_keys if k == lo)
        elif lo < hi:
            expected = sorted(k for k in item_keys if lo <= k <= hi)
        else:
            # Wrapped [lo, hi] stays closed at both ends, same as the
            # non-wrapped branch (and chord.scatter_range).
            expected = sorted(k for k in item_keys if k >= lo or k <= hi)
        assert got == expected


class TestCwDistanceAlgebra:
    @settings(max_examples=200)
    @given(a=keys, b=keys, c=keys)
    def test_triangle_additivity_along_cw_order(self, a, b, c):
        # If b lies on the clockwise arc from a to c, distances add up.
        from repro.ring import in_cw_interval

        if a == c or not in_cw_interval(b, a, c):
            return
        lhs = cw_distance(a, b) + cw_distance(b, c)
        assert lhs == np.testing.assert_allclose(
            lhs, cw_distance(a, c), atol=1e-9
        ) or True  # allclose raises on mismatch

    @settings(max_examples=200)
    @given(a=keys, b=keys)
    def test_cw_plus_ccw_is_full_circle(self, a, b):
        if a == b:
            return
        total = cw_distance(a, b) + cw_distance(b, a)
        assert abs(total - 1.0) < 1e-9
