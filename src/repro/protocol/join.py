"""The join procedure as one sans-I/O machine per joining peer.

:class:`JoinProtocol` strings together the paper's join pipeline —
estimate the partition table by sampling, then fill the outgoing link
slots partition by partition — as a state machine over typed
messages/effects. It owns the *requester side* only: answering link
requests is the resident peer's job (the :mod:`repro.net` node driver),
and membership knowledge arrives as a
:class:`~repro.protocol.directory.Directory` the driver obtained from
the seed.

Fidelity contract: the machine makes one peer's decisions one request
at a time — the same retry budget, acceptance rule, power-of-two winner
key and refusal/conflict accounting as the construction engine
(:mod:`repro.engine.construct`) — but draws from *its own* labelled
stream and learns load from :class:`~repro.protocol.messages.LinkReply`
fields rather than reading other peers' state. Equivalence with the
engine is therefore at the invariant level (degree caps, partition
balance, routing success); the bit-exact oracle lives in
:mod:`repro.net`'s lockstep mode, which bypasses this machine's sampling
and deals engine-layout tickets instead.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..ring.identifiers import in_cw_interval
from ..types import NodeId
from .directory import Directory
from .effects import CancelTimer, Effect, JoinOutcome, Send, StartTimer
from .estimation import PartitionEstimator
from .messages import JoinDone, LinkReply, LinkResult, WalkDone
from .negotiation import LinkNegotiation
from .sampling import SamplingWalk

if TYPE_CHECKING:  # pragma: no cover - annotation-only (avoids a core cycle)
    from ..core.partitions import PartitionTable

__all__ = ["JoinProtocol", "WALK_TIMER"]

#: Timer guarding one sampling walk's round trip. Inert under the
#: lockstep drivers; under the failure-detector runtime it relaunches
#: the walk (fresh ``walk_id``, so a zombie ``WalkDone`` from the dead
#: walk is discarded) when a relay peer died mid-walk.
WALK_TIMER = "walk"


class JoinProtocol:
    """Estimate partitions, then negotiate long links, for one peer.

    States: ``idle -> estimating -> acquiring -> done``. ``UNIFORM``
    sampling resolves against the directory synchronously (i.i.d. arc
    draws — the idealization the sim also uses), so ``start()`` runs
    straight into acquisition; ``WALK`` sampling suspends on real
    :class:`~repro.protocol.messages.WalkStep` round trips.

    The driver feeds back: ``on_reply`` / ``on_result`` / ``on_timer``
    for the active link negotiation, ``on_walk_done`` for walk samples.
    Every method returns the effects to execute.
    """

    __slots__ = (
        "node_id",
        "position",
        "seed",
        "directory",
        "rng",
        "k",
        "sample_size",
        "target",
        "link_retries",
        "n_candidates",
        "walk_mode",
        "walk_hops",
        "priority",
        "state",
        "table",
        "links",
        "links_placed",
        "slots_given_up",
        "draws",
        "refusals",
        "empty_partition_draws",
        "conflicts",
        "_estimator",
        "_nego",
        "_attempts",
        "_walk_id",
        "_token",
    )

    def __init__(
        self,
        node_id: NodeId,
        position: float,
        seed: NodeId,
        directory: Directory,
        rng: np.random.Generator,
        *,
        k: int,
        sample_size: int,
        rho_max_out: int,
        link_retries: int,
        power_of_two: bool = True,
        walk_mode: bool = False,
        walk_hops: int = 8,
        priority: int = 0,
    ) -> None:
        self.node_id = int(node_id)
        self.position = float(position)
        self.seed = int(seed)
        self.directory = directory
        self.rng = rng
        self.k = int(k)
        self.sample_size = int(sample_size)
        self.target = int(rho_max_out)
        self.link_retries = int(link_retries)
        self.n_candidates = 2 if power_of_two else 1
        self.walk_mode = bool(walk_mode)
        self.walk_hops = int(walk_hops)
        self.priority = int(priority)
        self.state = "idle"
        self.table: PartitionTable | None = None
        self.links: list[NodeId] = []
        self.links_placed = 0
        self.slots_given_up = 0
        self.draws = 0
        self.refusals = 0
        self.empty_partition_draws = 0
        self.conflicts = 0
        self._estimator: PartitionEstimator | None = None
        self._nego: LinkNegotiation | None = None
        self._attempts = 0
        self._walk_id = 0
        self._token = 0

    @property
    def done(self) -> bool:
        """Whether the join pipeline finished (links placed or given up)."""
        return self.state == "done"

    # -- estimation ----------------------------------------------------

    def start(self) -> list[Effect]:
        """Kick off estimation (and, in ``UNIFORM`` mode, acquisition)."""
        if self.state != "idle":
            raise RuntimeError(f"cannot start join in state {self.state!r}")
        self.state = "estimating"
        row = self.directory.row_of(self.node_id)
        far_end = self.directory.position_at(self.directory.predecessor_row(row))
        self._estimator = PartitionEstimator(self.position, far_end, self.k)
        if self.walk_mode:
            return self._request_walk()
        while (arc := self._estimator.pending_arc()) is not None:
            self._estimator.add_samples(self._uniform_arc_positions(*arc))
        return self._begin_acquire()

    def _uniform_arc_positions(self, start: float, end: float) -> np.ndarray:
        """I.i.d. directory draws from clockwise arc ``(start, end]``."""
        lo, count = self.directory.arc_slice(start, end)
        if count == 0:
            return np.empty(0, dtype=float)
        u = self.rng.random(self.sample_size)
        positions = []
        for x in u:
            r = self.directory.arc_member(lo, int(x * count))
            if self.directory.id_at(r) != self.node_id:
                positions.append(self.directory.position_at(r))
        return np.asarray(positions, dtype=float)

    def _request_walk(self) -> list[Effect]:
        assert self._estimator is not None
        arc = self._estimator.pending_arc()
        if arc is None:
            return self._begin_acquire()
        start, end = arc
        row = self.directory.row_of(self.node_id)
        first = self.directory.id_at(self.directory.successor_row(row))
        first_pos = self.directory.position_at(self.directory.successor_row(row))
        # The successor can fall outside a shrunken arc only when the arc
        # has no live members beyond us — same bail as the sim sampler.
        if first == self.node_id or not in_cw_interval(first_pos, start, end):
            self._estimator.add_samples(np.empty(0, dtype=float))
            return self._request_walk()
        self._walk_id += 1
        launch = SamplingWalk.initiate(
            self._walk_id,
            self.node_id,
            start,
            end,
            first,
            n_samples=self.sample_size,
            hops_per_sample=self.walk_hops,
            burn_in=2 * self.walk_hops,
        )
        return [launch, StartTimer(name=WALK_TIMER)]

    def on_walk_done(self, msg: WalkDone) -> list[Effect]:
        """A walk returned its samples; feed the estimator, walk on."""
        if self.state != "estimating" or msg.walk_id != self._walk_id:
            return []
        assert self._estimator is not None
        positions = [float(p) for p in msg.positions if float(p) != self.position]
        self._estimator.add_samples(np.asarray(positions, dtype=float))
        return [CancelTimer(name=WALK_TIMER), *self._request_walk()]

    # -- acquisition ---------------------------------------------------

    def _begin_acquire(self) -> list[Effect]:
        assert self._estimator is not None
        self.table = self._estimator.table()
        self.state = "acquiring"
        return self._next_attempt()

    def _next_attempt(self) -> list[Effect]:
        """Draw partitions until a negotiation can launch or we finish."""
        assert self.table is not None
        while True:
            if len(self.links) >= self.target:
                return self._finish(gave_up=False)
            if self._attempts > self.link_retries:
                # Scalar semantics: the first slot that exhausts its
                # retries abandons every remaining slot.
                return self._finish(gave_up=True)
            self._attempts += 1
            self.draws += 1
            arc = self.table.arc(self.table.sample_partition(self.rng))
            if arc is None:
                self.empty_partition_draws += 1
                continue
            lo, count = self.directory.arc_slice(arc[0], arc[1])
            if count == 0:
                self.empty_partition_draws += 1
                continue
            drawn = {
                self.directory.id_at(self.directory.arc_member(lo, int(x * count)))
                for x in self.rng.random(self.n_candidates)
            }
            eligible = [c for c in sorted(drawn) if c != self.node_id and c not in self.links]
            if not eligible:
                continue
            self._token += 1
            self._nego = LinkNegotiation(self._token, eligible, priority=self.priority)
            return self._nego.start()

    def _after_nego(self, effects: list[Effect]) -> list[Effect]:
        nego = self._nego
        if nego is None or not nego.done:
            return effects
        self.refusals += nego.refusals
        if nego.placed:
            assert nego.linked_to is not None
            self.links.append(nego.linked_to)
            self.links_placed += 1
            self._attempts = 0
        elif nego.conflict:
            self.conflicts += 1
        self._nego = None
        return effects + self._next_attempt()

    def on_reply(self, peer: NodeId, reply: LinkReply) -> list[Effect]:
        """A candidate answered the active negotiation's request."""
        if self._nego is None:
            return []
        return self._after_nego(self._nego.on_reply(peer, reply))

    def on_result(self, result: LinkResult) -> list[Effect]:
        """The chosen candidate granted or denied the commit."""
        if self._nego is None:
            return []
        return self._after_nego(self._nego.on_result(result))

    def on_timer(self, name: str) -> list[Effect]:
        """A timer fired.

        ``WALK_TIMER`` while estimating abandons the lost walk — the
        arc records no samples (the same bail as an arc with no live
        members) and estimation walks on under a fresh ``walk_id``, so
        the dead walk's eventual ``WalkDone``, if any, is stale and
        ignored. Any other timer belongs to the active link
        negotiation, where missing replies become refusals and a
        missing commit result becomes a conflict.
        """
        if name == WALK_TIMER:
            if self.state != "estimating":
                return []
            assert self._estimator is not None
            self._estimator.add_samples(np.empty(0, dtype=float))
            return self._request_walk()
        if self._nego is None:
            return []
        return self._after_nego(self._nego.on_timer())

    def _finish(self, gave_up: bool) -> list[Effect]:
        self.state = "done"
        if gave_up:
            self.slots_given_up += 1
        done = JoinDone(
            node_id=self.node_id, links=len(self.links), gave_up=int(gave_up)
        )
        return [
            JoinOutcome(links=tuple(self.links), gave_up=int(gave_up)),
            Send(to=self.seed, message=done),
        ]
