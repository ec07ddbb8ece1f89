"""One facade contract, three substrates.

Everything :class:`repro.core.substrate.Substrate` owns is written once,
so it is pinned once — parametrized over Oscar, Mercury and Chord: bulk
departures equal per-peer departures, refusals mutate nothing, every
mutator moves ``topology_version``.
"""

from __future__ import annotations

import pytest

from repro import Substrate
from repro.degree import ConstantDegrees
from repro.engine import TopologySnapshot
from repro.errors import EmptyPopulationError, UnknownNodeError
from repro.experiments import make_overlay
from repro.ring import repair, verify
from repro.workloads import GnutellaLikeDistribution

KINDS = ("oscar", "mercury", "chord")
KEYS = GnutellaLikeDistribution()
CAPS = ConstantDegrees(5)


def build(kind: str, n: int = 40, seed: int = 7) -> Substrate:
    overlay = make_overlay(kind, seed=seed)
    overlay.grow(n, KEYS, CAPS)
    return overlay


def snapshot(overlay: Substrate) -> tuple:
    """Everything a refused call must leave untouched, byte for byte."""
    return (
        overlay.state.alive.tobytes(),
        dict(overlay.pointers.successor),
        dict(overlay.pointers.predecessor),
        overlay.topology_version,
    )


def some_ids(overlay: Substrate, k: int) -> list[int]:
    return overlay.live_node_ids()[1 : 2 * k : 2]


@pytest.mark.parametrize("kind", KINDS)
class TestLeaveBatch:
    def test_equals_per_peer_leave(self, kind):
        bulk, scalar, twin = build(kind), build(kind), build(kind)
        ids = some_ids(bulk, 9)
        fixed = bulk.leave_batch(ids)
        for node_id in ids:
            scalar.leave(node_id)
        assert bulk.state.alive.tobytes() == scalar.state.alive.tobytes()
        assert bulk.pointers == scalar.pointers
        bulk.ring.verify()
        verify(bulk.ring, bulk.pointers)
        # The bulk repair_all rebuild counts exactly what scalar repair does.
        for node_id in ids:
            twin.ring.mark_dead(node_id)
        assert fixed == repair(twin.ring, twin.pointers) > 0
        assert bulk.pointers == twin.pointers

    def test_duplicate_and_dead_ids_are_idempotent(self, kind):
        once, twice = build(kind), build(kind)
        ids = some_ids(once, 4)
        once.leave_batch(ids)
        twice.leave_batch(ids + ids[:2])
        assert twice.leave_batch(ids) == 0  # all dead already, ring stable
        assert once.state.alive.tobytes() == twice.state.alive.tobytes()
        assert once.pointers == twice.pointers

    def test_deferred_repair_bumps_no_link_epoch(self, kind):
        overlay = build(kind)
        ids = some_ids(overlay, 3)
        before = snapshot(overlay)
        assert overlay.leave_batch(ids, repair=False) == 0
        membership, links = overlay.topology_version
        assert links == before[3][1] and membership > before[3][0]
        assert (dict(overlay.pointers.successor), dict(overlay.pointers.predecessor)) == before[1:3]
        assert not any(overlay.ring.is_alive(i) for i in ids)

    def test_unknown_id_is_refused_atomically(self, kind):
        overlay = build(kind)
        first, *__, last = overlay.live_node_ids()
        before = snapshot(overlay)
        with pytest.raises(UnknownNodeError):
            overlay.leave_batch([first, 10_000, last])
        with pytest.raises(UnknownNodeError):
            overlay.leave(10_000)
        assert snapshot(overlay) == before

    def test_emptying_the_population_is_refused_atomically(self, kind):
        overlay = build(kind, n=3)
        overlay.leave(overlay.live_node_ids()[0], repair=False)  # one already dead
        before = snapshot(overlay)
        with pytest.raises(EmptyPopulationError):
            overlay.leave_batch(list(overlay.ring.node_ids()))
        assert snapshot(overlay) == before
        survivor, other = overlay.live_node_ids()
        overlay.leave(other)
        before = snapshot(overlay)
        with pytest.raises(EmptyPopulationError):
            overlay.leave(survivor)
        assert snapshot(overlay) == before
        assert overlay.size == len(overlay) == 1


@pytest.mark.parametrize("kind", KINDS)
class TestFacade:
    def test_every_mutator_changes_topology_version(self, kind):
        overlay = build(kind, n=20)
        live = overlay.live_node_ids()
        join_args = (0.123456,) if kind == "chord" else (0.123456, 5, 5)
        mutators = [
            lambda: overlay.join(*join_args),
            lambda: overlay.grow(overlay.size + 3, KEYS, CAPS),
            lambda: overlay.leave(live[0]),
            lambda: overlay.leave_batch(live[1:4]),
            lambda: overlay.rewire(),
            lambda: overlay.repair_ring(),
        ]
        seen = {overlay.topology_version}
        for mutate in mutators:
            mutate()
            assert overlay.topology_version not in seen
            seen.add(overlay.topology_version)

    def test_neighbors_are_ring_pointers_then_link_row(self, kind):
        overlay = build(kind)
        overlay.rewire()
        for node_id in overlay.live_node_ids():
            slot = overlay.state.slot_of(node_id)
            row = overlay.state.out_links[slot, : overlay.state.out_count[slot]].tolist()
            expected = [overlay.pointers.successor[node_id], overlay.pointers.predecessor[node_id]]
            assert list(overlay.neighbors_of(node_id)) == expected + row
        with pytest.raises(UnknownNodeError):
            overlay.neighbors_of(10_000)

    def test_snapshot_successor_column_is_the_pointer_view_as_rows(self, kind):
        overlay = build(kind)
        crashed, retired, *__ = some_ids(overlay, 4)
        overlay.leave(retired)
        overlay.retire([retired])
        overlay.leave(crashed, repair=False)  # its cell and its neighbors' go stale
        snap = TopologySnapshot.capture(overlay)
        successor = overlay.pointers.successor
        assert crashed in successor and retired not in successor
        assert retired not in snap.all_ids
        for row, node_id in enumerate(snap.all_ids.tolist()):
            target = successor.get(node_id)
            assert snap.table.succ_row[row] == (-1 if target is None else snap.row_of[target])

    def test_degree_columns_are_live_ring_order(self, kind):
        overlay = build(kind)
        overlay.leave_batch(some_ids(overlay, 5))
        n = overlay.size
        for column in ("in_degree", "out_degree", "in_cap", "out_cap"):
            assert getattr(overlay, f"{column}_array")().shape == (n,)
        # Dangling links still count on the sender's side.
        links = [t for i in overlay.live_node_ids() for t in overlay.neighbors_of(i)[2:]]
        assert overlay.out_degree_array().sum() == len(links) > 0
        assert overlay.in_cap_array().any() == (kind != "chord")

    def test_retire_compacts_peers_and_their_side_state(self, kind):
        overlay = build(kind)
        gone = some_ids(overlay, 6)
        overlay.leave_batch(gone)
        total = len(overlay.ring)
        overlay.retire(gone)
        assert len(overlay.ring) == total - len(gone)
        assert not any(node_id in overlay.ring for node_id in gone)
        overlay.ring.verify()
        verify(overlay.ring, overlay.pointers)
        if kind == "chord":
            assert set(overlay.application_key) == set(overlay.ring.node_ids())
            held = overlay.state.node_id[overlay.state.node_id >= 0]  # freed with the slot
            assert sorted(held.tolist()) == sorted(overlay.application_key)
