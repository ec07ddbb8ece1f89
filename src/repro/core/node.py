"""Per-peer state of the Oscar overlay.

A node's state is deliberately small: capacities, its current partition
table, and its link sets. Link *semantics* (acceptance, choice-of-two,
rewiring) live in the construction engine, :mod:`repro.engine.construct`;
the node only does the local bookkeeping a real peer would do.

Since the struct-of-arrays refactor a node object is a *view*: it holds
``(state, slot)`` and every attribute reads or writes one cell of the
shared :class:`~repro.core.soa.SubstrateState`. Overlay-owned nodes
share the overlay's state (so the batch kernels see the same cells);
a node constructed directly — ``OscarNode(node_id=..., position=...)``
— owns a private one-slot state, which keeps the old dataclass
constructor and the standalone-population tests working unchanged.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import CapacityExhaustedError
from ..ring import keyspace
from ..types import NodeId
from .partitions import PartitionTable
from .soa import LinkView, SubstrateState

__all__ = ["OscarNode", "StateNodeView"]


def _cell(name: str, settable: bool = True) -> property:
    """A view property over one cell of column ``name``, read and
    written as the Python scalar of the column's declared dtype."""
    cast = float if np.issubdtype(SubstrateState.COLUMNS[name].dtype, np.floating) else int

    def fget(self: "StateNodeView"):
        return cast(getattr(self._state, name)[self._slot])

    def fset(self: "StateNodeView", value) -> None:
        getattr(self._state, name)[self._slot] = cast(value)

    return property(fget, fset if settable else None)


class StateNodeView:
    """Shared view machinery for Oscar/Mercury per-peer objects."""

    __slots__ = ("_state", "_slot")

    @classmethod
    def _view(cls, state: SubstrateState, slot: int):
        """Wrap an existing slot (the overlay/NodeTable path)."""
        obj = object.__new__(cls)
        obj._state = state
        obj._slot = int(slot)
        return obj

    def _init_standalone(
        self,
        node_id: NodeId,
        position: float,
        rho_max_in: int,
        rho_max_out: int,
        out_links,
        in_degree: int,
        samples_spent: int,
    ) -> None:
        state = SubstrateState(1)
        pos = float(position)
        key = (
            keyspace.from_unit(pos)
            if math.isfinite(pos) and 0.0 <= pos < 1.0
            else 0
        )
        slot = state.alloc_one(int(node_id), pos, key)
        state.cap_in[slot] = int(rho_max_in)
        state.cap_out[slot] = int(rho_max_out)
        self._state = state
        self._slot = slot
        if out_links:
            LinkView(state, slot).extend(out_links)
        if in_degree:
            state.in_deg[slot] = int(in_degree)
        if samples_spent:
            state.samples_spent[slot] = int(samples_spent)

    # -- array-backed fields ------------------------------------------

    node_id = _cell("node_id", settable=False)
    rho_max_in = _cell("cap_in")
    rho_max_out = _cell("cap_out")
    in_degree = _cell("in_deg")
    samples_spent = _cell("samples_spent")

    @property
    def position(self) -> float:
        return float(self._state.pos[self._slot])

    @position.setter
    def position(self, value: float) -> None:
        pos = float(value)
        self._state.pos[self._slot] = pos
        self._state.key[self._slot] = (
            keyspace.from_unit(pos)
            if math.isfinite(pos) and 0.0 <= pos < 1.0
            else 0
        )

    @property
    def out_links(self) -> LinkView:
        return LinkView(self._state, self._slot)

    #: The fields ``==`` compares; subclasses append their learned state.
    _fields: tuple[str, ...] = (
        "node_id",
        "position",
        "rho_max_in",
        "rho_max_out",
        "out_links",
        "in_degree",
        "samples_spent",
    )

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)

    __hash__ = None  # mutable view, same as the old (unfrozen) dataclass

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(id={self.node_id}, pos={self.position:.6f}, "
            f"out={len(self.out_links)}/{self.rho_max_out}, in={self.in_degree}/{self.rho_max_in})"
        )

    # -- shared protocol ----------------------------------------------

    @property
    def can_accept(self) -> bool:
        """Whether this peer acknowledges one more incoming long link."""
        return self.in_degree < self.rho_max_in

    def accept_in_link(self) -> None:
        """Register an incoming link; raises if the cap is exhausted.

        The raise (rather than a silent clamp) enforces the protocol: the
        requesting peer must have asked first, so hitting this means a
        bug in link acquisition, not an unlucky draw.
        """
        if not self.can_accept:
            raise CapacityExhaustedError(
                f"node {self.node_id} is at its in-degree cap ({self.rho_max_in})"
            )
        self._state.in_deg[self._slot] += 1

    def reset_links(self) -> None:
        """Forget outgoing links (the caller fixes the targets' in-degrees)."""
        self.out_links.clear()


class OscarNode(StateNodeView):
    """One Oscar peer.

    Attributes:
        node_id: Stable id (dense integer, assigned at join).
        position: Key-space position in ``[0, 1)``.
        rho_max_in: Max incoming long links this peer accepts — its
            locally chosen contribution budget.
        rho_max_out: Max outgoing long links it tries to hold.
        out_links: Current outgoing long-range neighbors (ordered,
            duplicates disallowed). Ring links are *not* stored here —
            they live in the shared :class:`~repro.ring.RingPointers`
            and are exempt from caps, as the ring is mandatory.
        in_degree: Count of long links currently pointing at this peer.
        partitions: The node's current view of the key space; ``None``
            until first estimated.
        samples_spent: Cumulative sampling messages this peer has issued
            (cost-accounting for the sampling ablation).
    """

    __slots__ = ()
    _fields = StateNodeView._fields + ("partitions",)

    def __init__(
        self,
        node_id: NodeId,
        position: float,
        rho_max_in: int,
        rho_max_out: int,
        out_links=None,
        in_degree: int = 0,
        partitions: PartitionTable | None = None,
        samples_spent: int = 0,
    ) -> None:
        self._init_standalone(
            node_id, position, rho_max_in, rho_max_out, out_links, in_degree, samples_spent
        )
        if partitions is not None:
            self.partitions = partitions

    @property
    def partitions(self) -> PartitionTable | None:
        state, slot = self._state, self._slot
        n = int(state.n_medians[slot])
        if n < 0:
            return None
        return PartitionTable(
            origin=float(state.part_origin[slot]),
            far_end=float(state.part_far_end[slot]),
            medians=tuple(float(x) for x in state.medians[slot, :n]),
        )

    @partitions.setter
    def partitions(self, table: PartitionTable | None) -> None:
        state, slot = self._state, self._slot
        if table is None:
            state.n_medians[slot] = -1
            return
        medians = table.medians
        state.part_origin[slot] = table.origin
        state.part_far_end[slot] = table.far_end
        if medians:
            state.ensure_width("medians", len(medians))
            state.medians[slot, : len(medians)] = medians
        state.n_medians[slot] = len(medians)

    @property
    def wants_more_links(self) -> bool:
        """Whether this peer still has unused outgoing slots."""
        return len(self.out_links) < self.rho_max_out

    @property
    def spare_in_capacity(self) -> int:
        """Remaining incoming slots (>= 0)."""
        return max(0, self.rho_max_in - self.in_degree)

    def drop_in_link(self) -> None:
        """Unregister an incoming link (rewiring teardown)."""
        if self.in_degree <= 0:
            raise CapacityExhaustedError(f"node {self.node_id} has no incoming links to drop")
        self._state.in_deg[self._slot] -= 1
