"""Unit + property tests for the Ring substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DuplicateNodeError, EmptyPopulationError, UnknownNodeError
from repro.ring import Ring, keyspace
from repro.protocol.estimation import cw_arc_slice
from repro.ring.keyspace import KeyspaceError

from conftest import draw_in_arc, ids_in_cw_range, kill


def choose_in_cw_range(ring: Ring, rng, start: float, end: float, k: int) -> np.ndarray:
    """The construction engine's uniform draw over the ring's live peers."""
    live = ring.positions_array(live_only=True), ring.ids_array(live_only=True)
    return draw_in_arc(*live, rng, start, end, k)


def make_ring(positions: list[float]) -> Ring:
    ring = Ring()
    for node_id, pos in enumerate(positions):
        ring.insert(node_id, pos)
    return ring


class TestMembership:
    def test_insert_and_lookup(self, five_ring):
        ring, ids = five_ring
        assert len(ring) == 5
        assert ring.position(2) == 0.5
        assert all(ring.is_alive(i) for i in ids)

    def test_duplicate_id_rejected(self, five_ring):
        ring, __ = five_ring
        with pytest.raises(DuplicateNodeError):
            ring.insert(0, 0.55)

    def test_duplicate_position_rejected(self, five_ring):
        ring, __ = five_ring
        with pytest.raises(DuplicateNodeError):
            ring.insert(99, 0.5)

    def test_unknown_node_raises(self, five_ring):
        ring, __ = five_ring
        with pytest.raises(UnknownNodeError):
            ring.position(99)

    def test_contains(self, five_ring):
        ring, __ = five_ring
        assert 0 in ring
        assert 99 not in ring

    def test_mark_dead_and_alive(self, five_ring):
        ring, __ = five_ring
        version = ring.version
        ring.mark_dead_slots(ring.known_slots([2, 4]))
        assert not ring.is_alive(2) and not ring.is_alive(4)
        assert ring.live_count == 3 and ring.version == version + 2
        ring.mark_alive_slots(ring.known_slots([2, 4]))
        assert ring.is_alive(2) and ring.is_alive(4)
        assert ring.live_count == 5 and ring.version == version + 4

    def test_mark_dead_idempotent(self, five_ring):
        """Repeats and peers already in the target state change nothing,
        the version included."""
        ring, __ = five_ring
        kill(ring, 2, 2)
        version = ring.version
        kill(ring, 2)
        ring.mark_alive_slots(ring.known_slots([0, 0, 1]))
        assert ring.live_count == 4 and ring.version == version

    def test_known_slots_names_the_first_unknown_id(self, five_ring):
        ring, __ = five_ring
        assert ring.known_slots([3, 0]).tolist() == [ring.state.slot_of(3), ring.state.slot_of(0)]
        with pytest.raises(UnknownNodeError, match="98"):
            ring.known_slots([1, 98, 99])

    def test_node_ids_in_clockwise_order(self):
        ring = make_ring([0.7, 0.1, 0.4])
        assert ring.node_ids() == [1, 2, 0]

    def test_iteration_matches_node_ids(self, five_ring):
        ring, ids = five_ring
        assert list(ring) == ids


def ring_fingerprint(ring: Ring) -> tuple:
    state = ring.state
    return (
        ring.version,
        ring.node_ids(),
        ring.positions_array().tolist(),
        ring.keys_array().tolist(),
        state.n_slots,
        list(state._free),
    )


class TestBulkValidation:
    """``insert_many`` / ``remove_many`` validate on arrays: same
    exception class and first-offender message whether the batch comes
    as pairs or as two columns, and nothing mutates before the raise."""

    INSERT_ERRORS = [
        ([4, 5, 4], [0.11, 0.12, 0.13], DuplicateNodeError, "repeated node id"),
        ([5, 3, 1], [0.11, 0.12, 0.13], DuplicateNodeError, "node 3 already joined"),
        ([5, 6, 7], [0.11, 0.12, 0.11], DuplicateNodeError, "repeated position"),
        # First offender in position order: 0.3 (node 1) before 0.9 (node 4).
        ([5, 6, 7], [0.9, 0.11, 0.3], DuplicateNodeError, "0.3 already occupied by node 1"),
        ([5, 6, 7], [0.11, 1.0, -0.5], KeyspaceError, "position must be in [0, 1), got 1.0"),
        ([5, 6, 7], [0.11, float("nan"), 2.0], KeyspaceError, "position must be finite, got nan"),
        ([5, 6, 7], [float("inf"), 0.2, 0.3], KeyspaceError, "position must be finite, got inf"),
    ]

    @pytest.mark.parametrize("ids, positions, error, message", INSERT_ERRORS)
    def test_insert_errors_match_and_leave_the_ring_untouched(
        self, five_ring, ids, positions, error, message
    ):
        ring, __ = five_ring
        kill(ring, 2)
        before = ring_fingerprint(ring)
        for batch in (
            (zip(ids, positions),),
            (np.asarray(ids), np.asarray(positions)),
        ):
            with pytest.raises(error) as caught:
                ring.insert_many(*batch)
            assert message in str(caught.value)
            assert ring_fingerprint(ring) == before

    def test_insert_columns_match_pairs(self):
        positions = np.random.default_rng(3).random(50)
        pairs, columns = Ring(), Ring()
        pairs.insert_many(enumerate(positions.tolist()))
        columns.insert_many(np.arange(50), positions)
        assert ring_fingerprint(pairs) == ring_fingerprint(columns)
        with pytest.raises(ValueError):
            columns.insert_many(np.arange(60, 63), positions[:2] / 2)
        assert ring_fingerprint(pairs) == ring_fingerprint(columns)

    @pytest.mark.parametrize("as_array", [False, True])
    def test_remove_names_the_first_unknown_id(self, five_ring, as_array):
        ring, __ = five_ring
        before = ring_fingerprint(ring)
        batch = [0, 77, 3, 99]
        with pytest.raises(UnknownNodeError) as caught:
            ring.remove_many(np.asarray(batch) if as_array else iter(batch))
        assert caught.value.args == (77,)
        with pytest.raises(DuplicateNodeError, match="repeated node id"):
            ring.remove_many(np.asarray([1, 4, 1]) if as_array else (1, 4, 1))
        assert ring_fingerprint(ring) == before
        ring.remove_many(np.asarray([], dtype=np.int64) if as_array else ())
        assert ring_fingerprint(ring) == before


class TestRemoveMany:
    def test_removes_live_and_dead(self, five_ring):
        ring, __ = five_ring
        kill(ring, 1)
        version_before = ring.version
        ring.remove_many([1, 3])
        assert len(ring) == 3
        assert 1 not in ring and 3 not in ring
        assert ring.live_count == 3
        assert ring.version == version_before + 2

    def test_position_becomes_free_again(self, five_ring):
        ring, __ = five_ring
        position = ring.position(2)
        ring.remove_many([2])
        ring.insert(99, position)  # no DuplicateNodeError
        assert ring.position(99) == position

    def test_matches_sorted_order_after_removal(self):
        ring = make_ring([0.7, 0.1, 0.4, 0.9, 0.2])
        ring.remove_many([0, 4])  # positions 0.7 and 0.2
        assert ring.node_ids() == [1, 2, 3]
        assert list(ring.positions_array()) == [0.1, 0.4, 0.9]

    def test_unknown_id_rejected_before_any_mutation(self, five_ring):
        ring, __ = five_ring
        with pytest.raises(UnknownNodeError):
            ring.remove_many([0, 99])
        assert len(ring) == 5
        assert 0 in ring

    def test_repeated_id_rejected(self, five_ring):
        ring, __ = five_ring
        with pytest.raises(DuplicateNodeError):
            ring.remove_many([2, 2])
        assert len(ring) == 5

    def test_empty_removal_is_a_noop(self, five_ring):
        ring, __ = five_ring
        version = ring.version
        ring.remove_many([])
        assert ring.version == version

    def test_lookups_consistent_after_removal(self, five_ring):
        ring, __ = five_ring
        ring.remove_many([2])
        remaining = ring.node_ids()
        for node_id in remaining:
            assert ring.successor(ring.predecessor(node_id)) == node_id
        assert ring.successor_of_key(0.5) == 3  # 0.5's peer is gone

    def test_mirrors_insert_many_round_trip(self):
        ring = make_ring([i / 10 for i in range(10)])
        ring.remove_many(list(range(0, 10, 2)))
        ring.insert_many((90 + i, (i + 0.5) / 10) for i in range(5))
        assert len(ring) == 10
        assert ring.live_count == 10


class TestSuccessorLookups:
    def test_successor_of_key_between_nodes(self, five_ring):
        ring, __ = five_ring
        assert ring.successor_of_key(0.4) == 2  # node at 0.5

    def test_successor_of_key_exact_position(self, five_ring):
        ring, __ = five_ring
        assert ring.successor_of_key(0.5) == 2  # successor is at-or-after

    def test_successor_of_key_wraps(self, five_ring):
        ring, __ = five_ring
        assert ring.successor_of_key(0.95) == 0  # wraps to node at 0.1

    def test_successor_of_node(self, five_ring):
        ring, __ = five_ring
        assert ring.successor(0) == 1
        assert ring.successor(4) == 0  # wrap

    def test_predecessor_of_node(self, five_ring):
        ring, __ = five_ring
        assert ring.predecessor(0) == 4  # wrap
        assert ring.predecessor(3) == 2

    def test_successor_skips_dead(self, five_ring):
        ring, __ = five_ring
        kill(ring, 1)
        assert ring.successor(0, live_only=True) == 2
        assert ring.successor(0, live_only=False) == 1

    def test_neighbor_of_dead_node(self, five_ring):
        ring, __ = five_ring
        kill(ring, 2)
        # asking for the live successor of the dead node itself
        assert ring.successor(2, live_only=True) == 3
        assert ring.predecessor(2, live_only=True) == 1

    def test_empty_ring_raises(self):
        ring = Ring()
        with pytest.raises(EmptyPopulationError):
            ring.successor_of_key(0.5)

    def test_all_dead_raises(self, five_ring):
        ring, ids = five_ring
        kill(ring, *ids)
        with pytest.raises(EmptyPopulationError):
            ring.successor_of_key(0.5, live_only=True)

    def test_single_node_is_own_successor(self):
        ring = make_ring([0.5])
        assert ring.successor(0) == 0
        assert ring.predecessor(0) == 0


class TestRangeQueries:
    """Clockwise arcs over the ring: the tests' brute-force arc oracle
    (``conftest.ids_in_cw_range``, which the partition tests count
    with) and the construction engine's uniform draw over an arc."""

    def test_simple_range(self, five_ring):
        ring, __ = five_ring
        ids = ids_in_cw_range(ring, 0.2, 0.6)
        assert list(ids) == [1, 2]  # nodes at 0.3 and 0.5

    def test_range_includes_end_node(self, five_ring):
        ring, __ = five_ring
        assert list(ids_in_cw_range(ring, 0.2, 0.5)) == [1, 2]

    def test_range_excludes_start_node(self, five_ring):
        ring, __ = five_ring
        assert list(ids_in_cw_range(ring, 0.3, 0.5)) == [2]

    def test_wrapped_range(self, five_ring):
        ring, __ = five_ring
        assert list(ids_in_cw_range(ring, 0.8, 0.2)) == [4, 0]

    def test_whole_circle_when_start_equals_end(self, five_ring):
        ring, __ = five_ring
        assert len(ids_in_cw_range(ring, 0.5, 0.5)) == 5

    def test_range_size_matches_ids(self, five_ring):
        # The arc window the construction engine draws from holds
        # exactly the oracle's peers.
        ring, __ = five_ring
        __, __, count = cw_arc_slice(ring.positions_array(live_only=True), 0.2, 0.6)
        assert count == len(ids_in_cw_range(ring, 0.2, 0.6))

    def test_live_only_filtering(self, five_ring):
        ring, __ = five_ring
        kill(ring, 1)
        assert list(ids_in_cw_range(ring, 0.2, 0.6, live_only=True)) == [2]
        assert list(ids_in_cw_range(ring, 0.2, 0.6, live_only=False)) == [1, 2]

    def test_choose_in_range_uniformity(self, five_ring):
        ring, __ = five_ring
        draws = choose_in_cw_range(ring, np.random.default_rng(0), 0.0, 0.99, k=5000)
        counts = np.bincount(draws, minlength=5)
        assert counts.min() > 800  # all 5 nodes drawn roughly uniformly

    def test_choose_in_empty_range(self, five_ring):
        ring, __ = five_ring
        assert len(ids_in_cw_range(ring, 0.55, 0.65)) == 0
        assert choose_in_cw_range(ring, np.random.default_rng(0), 0.55, 0.65, k=3).size == 0

    def test_choose_respects_liveness(self, five_ring):
        # range (0.2, 0.6] holds nodes 1 (at 0.3) and 2 (at 0.5); with 2
        # dead every draw must return node 1.
        ring, __ = five_ring
        kill(ring, 2)
        draws = choose_in_cw_range(ring, np.random.default_rng(0), 0.2, 0.6, k=100)
        assert set(draws.tolist()) == {1}



class TestRanks:
    def test_position_at_rank_one_is_next_clockwise(self, five_ring):
        ring, __ = five_ring
        assert ring.position_at_cw_rank(0.1, 1) == 0.3

    def test_position_at_full_rank_wraps_to_origin_node(self, five_ring):
        ring, __ = five_ring
        assert ring.position_at_cw_rank(0.1, 5) == 0.1

    def test_position_at_rank_from_key_between_nodes(self, five_ring):
        ring, __ = five_ring
        assert ring.position_at_cw_rank(0.2, 1) == 0.3

    def test_rank_bounds_enforced(self, five_ring):
        ring, __ = five_ring
        with pytest.raises(ValueError):
            ring.position_at_cw_rank(0.1, 0)
        with pytest.raises(ValueError):
            ring.position_at_cw_rank(0.1, 6)

    def test_cw_rank_of_inverse_of_position_at(self, five_ring):
        ring, __ = five_ring
        for rank in range(1, 6):
            pos = ring.position_at_cw_rank(0.1, rank)
            node = ring.successor_of_key(pos)
            assert ring.cw_rank_of(0.1, node) == rank

    def test_rank_of_dead_node_raises(self, five_ring):
        ring, __ = five_ring
        kill(ring, 3)
        with pytest.raises(UnknownNodeError):
            ring.cw_rank_of(0.1, 3, live_only=True)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False),
        min_size=2,
        max_size=40,
        unique_by=keyspace.from_unit,
    ),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False),
)
def test_property_successor_is_geometrically_first(positions, key):
    """successor_of_key returns the key-wise first node at/after key
    (denormal positions and keys included: a key inside a peer's
    ``2**-64`` cell is that peer's)."""
    ring = make_ring(positions)
    node = ring.successor_of_key(key)
    target = keyspace.from_unit(key)
    reach = keyspace.cw_distance(target, ring.key_of(node))
    # No other node lies strictly between key and its owner (clockwise).
    for other in range(len(positions)):
        if other != node:
            assert keyspace.cw_distance(target, ring.key_of(other)) > reach


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False),
        min_size=3,
        max_size=40,
        unique_by=keyspace.from_unit,
    )
)
def test_property_successor_predecessor_roundtrip(positions):
    ring = make_ring(positions)
    for node in range(len(positions)):
        assert ring.predecessor(ring.successor(node)) == node
        assert ring.successor(ring.predecessor(node)) == node


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False),
        min_size=2,
        max_size=30,
        unique_by=keyspace.from_unit,
    ),
    st.data(),
)
def test_property_range_partition_of_circle(positions, data):
    """Any split point partitions all peers into the two half-intervals."""
    ring = make_ring(positions)
    a = data.draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    b = data.draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    if keyspace.from_unit(a) == keyspace.from_unit(b):
        return  # one key cell: the whole circle both ways
    first = len(ids_in_cw_range(ring, a, b))
    second = len(ids_in_cw_range(ring, b, a))
    assert first + second == len(positions)


class TestExactKeys:
    """The ring's uint64 key twin of every float position."""

    def test_key_of_matches_adapter(self, five_ring):
        ring, ids = five_ring
        for node_id in ids:
            assert ring.key_of(node_id) == keyspace.from_unit(ring.position(node_id))

    def test_keys_array_aligned_and_sorted(self, five_ring):
        ring, __ = five_ring
        keys_arr = ring.keys_array()
        assert keys_arr.dtype == np.uint64
        assert np.array_equal(keys_arr, keyspace.from_units(ring.positions_array()))
        assert np.all(keys_arr[:-1] < keys_arr[1:])

    def test_keys_array_live_view_tracks_deaths(self, five_ring):
        ring, ids = five_ring
        kill(ring, ids[2])
        live = ring.keys_array(live_only=True)
        assert live.size == len(ids) - 1
        assert keyspace.from_unit(ring.position(ids[2])) not in live.tolist()

    def test_sub_resolution_positions_share_a_cell(self):
        # Distinct floats closer than 2**-64 fall in one key cell, which
        # holds one peer: the second is refused like an equal float,
        # live or dead holder, one at a time or within one batch, and
        # nothing changes.
        ring = Ring()
        ring.insert(0, 0.0)
        ring.insert(2, 0.5)
        kill(ring, 0)
        before = ring_fingerprint(ring)
        with pytest.raises(DuplicateNodeError, match="occupied by node 0"):
            ring.insert(1, 1e-300)
        with pytest.raises(DuplicateNodeError, match="occupied by node 0"):
            ring.insert_many([(3, 0.25), (1, 1e-300)])
        with pytest.raises(DuplicateNodeError, match="repeated position"):
            ring.insert_many([(3, 2**-64 + 2**-70), (1, 2**-64 + 2**-69)])  # both in cell 1
        assert ring_fingerprint(ring) == before
        ring.insert_many([(3, 2**-64), (1, 0.75)])  # the next cell is free
        assert ring.keys_array().tolist() == [0, 1, *keyspace.from_units([0.5, 0.75]).tolist()]
        ring.verify()

    def test_unknown_node_rejected(self, five_ring):
        ring, __ = five_ring
        with pytest.raises(UnknownNodeError):
            ring.key_of(999)
