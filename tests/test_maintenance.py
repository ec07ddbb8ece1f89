"""Tests for Chord-style ring pointer maintenance (repro.ring.maintenance)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EmptyPopulationError, RingInvariantError
from repro.ring import (
    Ring,
    RingPointers,
    attach_node,
    build_pointers,
    repair,
    repair_all,
    verify,
)


def fresh_ring(positions: list[float]) -> Ring:
    ring = Ring()
    for node_id, pos in enumerate(positions):
        ring.insert(node_id, pos)
    return ring


class TestBuildPointers:
    def test_five_ring_wiring(self, five_ring):
        ring, ids = five_ring
        pointers = build_pointers(ring)
        assert pointers.successor[0] == 1
        assert pointers.successor[4] == 0  # wraps
        assert pointers.predecessor[0] == 4
        verify(ring, pointers)

    def test_single_peer_points_at_itself(self):
        ring = fresh_ring([0.5])
        pointers = build_pointers(ring)
        assert pointers.successor[0] == 0
        assert pointers.predecessor[0] == 0
        verify(ring, pointers)

    def test_dead_peers_excluded(self):
        ring = fresh_ring([0.1, 0.2, 0.3])
        ring.mark_dead(1)
        pointers = build_pointers(ring)
        assert pointers.successor[0] == 2
        assert 1 not in pointers.successor

    def test_empty_ring_rejected(self):
        with pytest.raises(EmptyPopulationError):
            build_pointers(Ring())


class TestAttachNode:
    def test_splice_preserves_invariants(self, five_ring):
        ring, ids = five_ring
        pointers = build_pointers(ring)
        ring.insert(99, 0.45)
        attach_node(ring, pointers, 99)
        verify(ring, pointers)
        assert pointers.successor[99] == 2
        assert pointers.predecessor[99] == 1
        assert pointers.successor[1] == 99
        assert pointers.predecessor[2] == 99

    def test_first_node_self_loop(self):
        ring = Ring()
        pointers = RingPointers(ring.state)
        ring.insert(0, 0.3)
        attach_node(ring, pointers, 0)
        assert pointers.successor[0] == 0
        verify(ring, pointers)

    def test_incremental_join_sequence_stays_valid(self):
        ring = Ring()
        pointers = RingPointers(ring.state)
        rng = np.random.default_rng(3)
        for node_id in range(50):
            ring.insert(node_id, float(rng.random()))
            attach_node(ring, pointers, node_id)
            verify(ring, pointers)


class TestRepair:
    def test_noop_on_stable_ring(self, five_ring):
        ring, __ = five_ring
        pointers = build_pointers(ring)
        assert repair(ring, pointers) == 0

    def test_repairs_after_single_crash(self, five_ring):
        ring, __ = five_ring
        pointers = build_pointers(ring)
        ring.mark_dead(2)
        changed = repair(ring, pointers)
        assert changed > 0
        verify(ring, pointers)
        assert pointers.successor[1] == 3
        assert pointers.predecessor[3] == 1
        assert 2 not in pointers.successor
        assert 2 not in pointers.predecessor

    def test_repairs_after_mass_crash(self):
        ring = fresh_ring([i / 20 for i in range(20)])
        pointers = build_pointers(ring)
        for victim in (0, 1, 2, 5, 7, 11, 13, 17, 19):
            ring.mark_dead(victim)
        repair(ring, pointers)
        verify(ring, pointers)

    def test_repair_is_idempotent(self, five_ring):
        ring, __ = five_ring
        pointers = build_pointers(ring)
        ring.mark_dead(0)
        ring.mark_dead(3)
        assert repair(ring, pointers) > 0
        assert repair(ring, pointers) == 0

    def test_repair_handles_revival(self, five_ring):
        ring, __ = five_ring
        pointers = build_pointers(ring)
        ring.mark_dead(2)
        repair(ring, pointers)
        ring.mark_alive(2)
        changed = repair(ring, pointers)
        assert changed > 0
        verify(ring, pointers)
        assert pointers.successor[1] == 2

    def test_repair_empty_ring_rejected(self):
        ring = fresh_ring([0.5])
        pointers = build_pointers(ring)
        ring.mark_dead(0)
        with pytest.raises(EmptyPopulationError):
            repair(ring, pointers)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=40),
        kill_seed=st.integers(min_value=0, max_value=2**16),
        kill_fraction=st.floats(min_value=0.0, max_value=0.9),
    )
    def test_repair_always_restores_invariants(self, n, kill_seed, kill_fraction):
        rng = np.random.default_rng(kill_seed)
        positions = np.sort(rng.random(n))
        ring = Ring()
        for node_id, pos in enumerate(positions):
            try:
                ring.insert(node_id, float(pos))
            except Exception:
                pass  # duplicate positions possible at tiny probability
        pointers = build_pointers(ring)
        live = ring.node_ids(live_only=True)
        n_kill = min(int(kill_fraction * len(live)), len(live) - 1)
        for victim in rng.choice(live, size=n_kill, replace=False):
            ring.mark_dead(int(victim))
        repair(ring, pointers)
        verify(ring, pointers)


class TestRepairAll:
    def test_noop_on_stable_ring(self, five_ring):
        ring, __ = five_ring
        pointers = build_pointers(ring)
        assert repair_all(ring, pointers) == 0

    def test_empty_ring_rejected(self):
        ring = fresh_ring([0.5])
        ring.mark_dead(0)
        with pytest.raises(EmptyPopulationError):
            repair_all(ring, RingPointers(ring.state))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=24),
        data=st.data(),
    )
    def test_bit_identical_to_scalar_repair(self, n, data):
        """repair_all must return the same change count and produce the
        same pointer tables as entry-by-entry repair on any damage."""
        positions = [i / n for i in range(n)]
        ring_a = fresh_ring(positions)
        ring_b = fresh_ring(positions)
        pointers_a = build_pointers(ring_a)
        pointers_b = build_pointers(ring_b)
        victims = data.draw(
            st.lists(st.integers(min_value=0, max_value=n - 1), unique=True, max_size=n - 1)
        )
        for victim in victims:
            ring_a.mark_dead(victim)
            ring_b.mark_dead(victim)
        # Scramble some surviving entries to exercise the changed-entry path.
        survivors = [i for i in range(n) if i not in set(victims)]
        if len(survivors) >= 2:
            pointers_a.successor[survivors[0]] = survivors[-1]
            pointers_b.successor[survivors[0]] = survivors[-1]
        assert repair_all(ring_a, pointers_a) == repair(ring_b, pointers_b)
        assert pointers_a.successor == pointers_b.successor
        assert pointers_a.predecessor == pointers_b.predecessor
        verify(ring_a, pointers_a)

    def test_idempotent(self, five_ring):
        ring, __ = five_ring
        pointers = build_pointers(ring)
        ring.mark_dead(0)
        ring.mark_dead(3)
        assert repair_all(ring, pointers) > 0
        assert repair_all(ring, pointers) == 0
        verify(ring, pointers)


class TestVerify:
    def test_detects_missing_pointer(self, five_ring):
        ring, __ = five_ring
        pointers = build_pointers(ring)
        del pointers.successor[2]
        with pytest.raises(RingInvariantError):
            verify(ring, pointers)

    def test_detects_dangling_target(self, five_ring):
        ring, __ = five_ring
        pointers = build_pointers(ring)
        ring.mark_dead(3)
        # no repair: 2's successor still points at dead 3
        with pytest.raises(RingInvariantError):
            verify(ring, pointers)

    def test_detects_geometric_mismatch(self, five_ring):
        ring, __ = five_ring
        pointers = build_pointers(ring)
        pointers.successor[0], pointers.successor[1] = 2, 1
        with pytest.raises(RingInvariantError):
            verify(ring, pointers)

    def test_detects_entry_for_dead_node(self, five_ring):
        ring, __ = five_ring
        pointers = build_pointers(ring)
        ring.mark_dead(4)
        repair(ring, pointers)
        pointers.successor[4] = 0  # stale entry resurfaces
        with pytest.raises(RingInvariantError):
            verify(ring, pointers)


def _position(node_id: int) -> float:
    """A distinct position per id (golden-ratio rotation)."""
    return (0.5 + node_id * 0.6180339887498949) % 1.0


OPS = ("insert", "insert_many", "mark_dead", "mark_alive", "remove_many", "corrupt")


class TestPointerColumns:
    """The pointers live in ``state.succ`` / ``state.pred``: random
    membership programs over twin rings — one stabilized by the array
    kernel, one by the scalar twin — must stay cell-for-cell equal."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_kernel_equals_scalar_twin_on_random_programs(self, data):
        n0 = data.draw(st.integers(1, 6), label="initial peers")
        twins = [Ring(), Ring()]
        for ring in twins:
            ring.insert_many((i, _position(i)) for i in range(n0))
        handles = [build_pointers(ring) for ring in twins]
        next_id = n0

        def subset(ids, max_size):
            if not ids:
                return []
            return data.draw(st.lists(st.sampled_from(ids), unique=True, max_size=max_size))

        def join(ids, bulk):
            for ring, pointers in zip(twins, handles):
                if bulk:
                    ring.insert_many((i, _position(i)) for i in ids)
                else:
                    ring.insert(ids[0], _position(ids[0]))
                for i in ids:  # fresh or recycled, a new slot holds no pointer
                    slot = ring.state.slot_of(i)
                    assert ring.state.succ[slot] == ring.state.pred[slot] == -1
                    assert i not in pointers.successor and i not in pointers.predecessor

        for __ in range(data.draw(st.integers(1, 8), label="steps")):
            for __ in range(data.draw(st.integers(1, 3), label="mutations")):
                ring = twins[0]
                known = ring.node_ids()
                live = ring.node_ids(live_only=True)
                dead = sorted(set(known) - set(live))
                op = data.draw(st.sampled_from(OPS))
                if op in ("insert", "insert_many"):
                    k = 1 if op == "insert" else data.draw(st.integers(1, 3))
                    join(list(range(next_id, next_id + k)), bulk=op == "insert_many")
                    next_id += k
                elif op in ("mark_dead", "mark_alive"):
                    chosen = subset(live, len(live) - 1) if op == "mark_dead" else subset(dead, 3)
                    for ring in twins:
                        for node_id in chosen:
                            getattr(ring, op)(node_id)
                elif op == "remove_many":
                    # Live peers go too — unrepaired, so their cells are
                    # set when the slot is freed; one live peer stays.
                    chosen = subset(live[1:] + dead, 3)
                    for ring in twins:
                        ring.remove_many(chosen)
                else:
                    node_id = data.draw(st.sampled_from(known))
                    side = data.draw(st.sampled_from(["successor", "predecessor"]))
                    value = data.draw(st.none() | st.integers(0, next_id + 2))
                    for pointers in handles:
                        view = getattr(pointers, side)
                        if value is None:
                            view.pop(node_id, None)
                        else:
                            view[node_id] = value
            assert repair_all(twins[0], handles[0]) == repair(twins[1], handles[1])
            assert handles[0] == handles[1]
            for column in ("succ", "pred"):
                np.testing.assert_array_equal(
                    getattr(twins[0].state, column), getattr(twins[1].state, column)
                )
            for ring, pointers in zip(twins, handles):
                verify(ring, pointers)
                assert set(pointers.successor) == set(ring.node_ids(live_only=True))

    def test_views_write_the_cells_the_kernel_reads(self, five_ring):
        ring, __ = five_ring
        pointers = build_pointers(ring)
        state = ring.state
        assert pointers.successor == {0: 1, 1: 2, 2: 3, 3: 4, 4: 0}
        assert len(pointers.predecessor) == 5 and list(pointers.predecessor) == [0, 1, 2, 3, 4]
        pointers.successor[3] = 0
        assert state.succ[state.slot_of(3)] == 0
        del pointers.predecessor[2]
        assert state.pred[state.slot_of(2)] == -1 and 2 not in pointers.predecessor
        assert pointers.predecessor.get(2) is None and len(pointers.predecessor) == 4
        with pytest.raises(KeyError):
            del pointers.predecessor[2]
        with pytest.raises(KeyError):
            pointers.successor[99] = 0  # only peers the state knows hold pointers
        assert repair_all(ring, pointers) == 2
