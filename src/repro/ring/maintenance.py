"""Chord-style ring maintenance: explicit successor/predecessor pointers.

The paper *assumes* that "the ring structure was preserved by the devised
self-stabilizing techniques (e.g. Chord ring maintenance algorithms)"
while long-range links are left dangling after crashes. This module
implements exactly that contract:

* the pointers are the ``succ`` / ``pred`` columns of the shared
  :class:`~repro.core.soa.SubstrateState` (node ids, ``-1`` = none);
  :class:`RingPointers` is the dict-shaped handle scalar code reads and
  writes them through;
* :func:`repair_all` is the self-stabilization outcome as one array
  kernel — every live peer points at its live ring neighbors, nobody
  else holds a pointer — returning how many cells had to change;
  :func:`build_pointers` is the same kernel on a fresh handle and
  :func:`repair` its entry-by-entry scalar twin;
* :func:`verify` checks the ring invariants (pointers exactly on the
  live peers, wired in geometric order) and raises
  :class:`~repro.errors.RingInvariantError` on violation.

Keeping the pointers explicit (rather than recomputing successors from the
sorted order on demand) makes the repair step observable and testable, and
lets the fault-aware router distinguish "ring link, always live after
repair" from "long link, possibly dangling".
"""

from __future__ import annotations

from collections.abc import Iterator, MutableMapping
from typing import TYPE_CHECKING

import numpy as np

from ..errors import EmptyPopulationError, RingInvariantError
from ..types import NodeId
from .ring import Ring

if TYPE_CHECKING:
    from ..core.soa import SubstrateState

__all__ = [
    "RingPointers",
    "attach_node",
    "build_pointers",
    "repair",
    "repair_all",
    "verify",
]


class _PointerColumn(MutableMapping[NodeId, NodeId]):
    """``node id -> pointer target id`` view over one state column.

    A peer is *in* the mapping while its cell is not ``-1``; ``del``
    writes ``-1``. Only peers the state knows can hold a pointer.
    Iteration is in slot order.
    """

    __slots__ = ("_state", "_name")

    def __init__(self, state: "SubstrateState", name: str) -> None:
        self._state = state
        self._name = name

    def _cells(self) -> np.ndarray:
        # Looked up per access: the state replaces its columns when it grows.
        column: np.ndarray = getattr(self._state, self._name)
        return column

    def _slot(self, node_id: NodeId) -> int:
        slot = self._state.slot_of(node_id)
        if slot < 0:
            raise KeyError(node_id)
        return slot

    def __getitem__(self, node_id: NodeId) -> NodeId:
        target = int(self._cells()[self._slot(node_id)])
        if target < 0:
            raise KeyError(node_id)
        return target

    def __setitem__(self, node_id: NodeId, target: NodeId) -> None:
        self._cells()[self._slot(node_id)] = int(target)

    def __delitem__(self, node_id: NodeId) -> None:
        cells, slot = self._cells(), self._slot(node_id)
        if cells[slot] < 0:
            raise KeyError(node_id)
        cells[slot] = -1

    def __iter__(self) -> Iterator[NodeId]:
        held = self._cells() >= 0
        return iter(self._state.node_id[held].tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self._cells() >= 0))

    def __repr__(self) -> str:
        return repr(dict(self))


class RingPointers:
    """Handle on the ring-pointer columns of one substrate state:
    ``successor`` / ``predecessor`` are mapping views over
    ``state.succ`` / ``state.pred``."""

    __slots__ = ("state", "successor", "predecessor")

    def __init__(self, state: "SubstrateState") -> None:
        self.state = state
        self.successor = _PointerColumn(state, "succ")
        self.predecessor = _PointerColumn(state, "pred")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RingPointers):
            return NotImplemented
        return self.successor == other.successor and self.predecessor == other.predecessor


def build_pointers(ring: Ring) -> RingPointers:
    """Wire the current live population of ``ring`` and return the handle
    on its pointers. A single live peer points at itself (the degenerate
    Chord ring)."""
    pointers = RingPointers(ring.state)
    repair_all(ring, pointers)
    return pointers


def attach_node(ring: Ring, pointers: RingPointers, node_id: NodeId) -> None:
    """Splice a freshly joined live peer into maintained pointers.

    The Chord join step: the new peer adopts its geometric neighbors and
    they adopt it back. A first (sole) peer points at itself.
    """
    if ring.live_count == 1:
        pointers.successor[node_id] = node_id
        pointers.predecessor[node_id] = node_id
        return
    succ = ring.successor(node_id, live_only=True)
    pred = ring.predecessor(node_id, live_only=True)
    pointers.successor[node_id] = succ
    pointers.predecessor[node_id] = pred
    pointers.successor[pred] = node_id
    pointers.predecessor[succ] = node_id


def repair_all(ring: Ring, pointers: RingPointers) -> int:
    """Self-stabilize ``pointers`` after membership changes — the one
    array kernel behind joins in bulk, departures in bulk and
    :func:`build_pointers`.

    The correct wiring is the live ids in ring order rolled by one,
    scattered through their slots; every other cell is ``-1``. Returns
    the number of cells that had to change — pointers dropped from dead
    peers plus live cells that were missing or stale — 0 when the ring
    was already stable. **Bit-identical** in count and result to the
    scalar :func:`repair` (the test suite pins the equivalence).
    """
    live = ring.ids_array(live_only=True)
    if live.size == 0:
        raise EmptyPopulationError("cannot repair a ring with no live peers")
    slots = ring.slots_array(live_only=True)
    state = pointers.state
    changes = 0
    for column, shift in ((state.succ, -1), (state.pred, 1)):
        correct = np.full(column.size, -1, dtype=np.int64)
        correct[slots] = np.roll(live, shift)
        changes += int(np.count_nonzero(column != correct))
        column[:] = correct
    return changes


def repair(ring: Ring, pointers: RingPointers) -> int:
    """Scalar reference twin of :func:`repair_all`: entry by entry
    through the mapping views, same change count, same end state."""
    live = ring.node_ids(live_only=True)
    if not live:
        raise EmptyPopulationError("cannot repair a ring with no live peers")
    live_set = set(live)
    changes = 0
    for table, step in ((pointers.successor, 1), (pointers.predecessor, -1)):
        for node in list(table):
            if node not in live_set:  # owner died: drop its state
                del table[node]
                changes += 1
        for i, node in enumerate(live):
            target = live[(i + step) % len(live)]
            if table.get(node) != target:
                table[node] = target
                changes += 1
    return changes


def verify(ring: Ring, pointers: RingPointers) -> None:
    """Check ring invariants; raise :class:`RingInvariantError` on failure.

    Invariants checked, per column:

    1. no cell of a dead, retired or free slot holds a pointer;
    2. every live peer holds one, and it is its true live clockwise
       (resp. counter-clockwise) neighbor — which makes the two columns
       mutually inverse and every target live.
    """
    live = ring.ids_array(live_only=True)
    slots = ring.slots_array(live_only=True)
    state = pointers.state
    for name, column, shift in (("successor", state.succ, -1), ("predecessor", state.pred, 1)):
        stray = column >= 0
        stray[slots] = False
        if stray.any():
            owner = int(state.node_id[int(stray.argmax())])
            raise RingInvariantError(f"{name} entry for non-live node {owner}")
        actual, expected = column[slots], np.roll(live, shift)
        wrong = np.flatnonzero(actual != expected)
        if wrong.size:
            i = int(wrong[0])
            if actual[i] < 0:
                raise RingInvariantError(f"live node {int(live[i])} is missing ring pointers")
            raise RingInvariantError(
                f"{name} of {int(live[i])} is {int(actual[i])}, expected {int(expected[i])}"
            )
