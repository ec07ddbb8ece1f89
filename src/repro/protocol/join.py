"""The join procedure as one sans-I/O machine per joining peer.

:class:`JoinProtocol` is the per-peer form of
:class:`~repro.engine.construct.BatchConstructionEngine`'s join: estimate
the recursive-median partition borders level by level, then fill the
outgoing link slots by two choices with a retry budget. It owns the
*requester side* only: answering link requests is the resident peer's
job (the :mod:`repro.net` node driver), and membership knowledge arrives
as a :class:`~repro.protocol.directory.Directory` the driver obtained
from the seed.

Fidelity contract: two steps take uniforms, in the engine's draw layout
for one row —

* an **estimation level** over ``sample_size`` uniforms, each resolved
  to a member of the remaining arc ``(origin, previous border]``; the
  border is :func:`~repro.protocol.estimation.select_border` over them,
  exactly the engine's sequential reference;
* an **acquisition attempt** over one partition uniform plus ``n_cand``
  candidate uniforms: the partition's arc in the engine's convention,
  candidates deduped in draw order, then a
  :class:`~repro.protocol.negotiation.LinkNegotiation` whose outcome
  feeds the fill / give-up decision the engine's round takes.

Only the source of the uniforms varies. A machine holding a generator
(free mode, every TCP run) draws them itself — ``random(sample_size)``
per level, nothing for a one-peer priority shuffle, ``random()`` then
``random(n_cand)`` per attempt, which is what the engine draws for a
one-peer cohort — and reports ``JoinDone`` when it finishes. A machine
built with ``rng=None`` is *dealt*: the lockstep coordinator's
:class:`~repro.protocol.messages.EstimateLevel` /
:class:`~repro.protocol.messages.AcquireTicket` rows feed the same steps,
and each step answers with a report saying whether the peer is still
active. The bit-exact lockstep oracle therefore checks the machine free
and TCP peers run. ``WALK`` sampling replaces the level's uniform draws
by a restricted walk over real messages (free mode only).

Engine parity under lockstep delivery: replies carry the round-start
in-degree because the superstep barrier processes every ``LinkReply``
before any ``LinkCommit``; the winner is the
:func:`~repro.protocol.decisions.link_winner_key` minimum the engine's
reference evaluates; a commit's grant re-checks the live in-degree, and
commits replay in ascending priority — the engine round's conflict rule.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import SamplingError
from ..ring.identifiers import in_cw_interval
from ..ring.keyspace import from_units
from ..types import NodeId
from .directory import Directory
from .effects import CancelTimer, Effect, JoinOutcome, Send, StartTimer
from .estimation import select_border
from .messages import (
    AcquireReport,
    AcquireTicket,
    BeginAcquire,
    EstimateLevel,
    EstimateReport,
    JoinDone,
    LinkReply,
    LinkResult,
    WalkDone,
)
from .negotiation import LinkNegotiation
from .sampling import SamplingWalk

__all__ = ["JoinProtocol", "WALK_TIMER"]

#: Timer guarding one sampling walk's round trip. Inert under the
#: lockstep drivers; under the failure-detector runtime it abandons the
#: walk (ending the descent, like an arc with no live members) when a
#: relay peer died mid-walk.
WALK_TIMER = "walk"


class JoinProtocol:
    """Estimate partitions, then negotiate long links, for one peer.

    States: ``idle -> estimating -> acquiring -> done``. A free machine
    runs ``start()`` straight into acquisition under ``UNIFORM``
    sampling; ``WALK`` sampling suspends on real
    :class:`~repro.protocol.messages.WalkStep` round trips. A dealt
    machine (``rng=None``) moves on ``on_level`` / ``on_begin`` /
    ``on_ticket``.

    The driver feeds back: ``on_reply`` / ``on_result`` / ``on_timer``
    for the active link negotiation, ``on_walk_done`` for walk samples.
    Every method returns the effects to execute. ``medians`` are the
    borders accepted so far, outermost first, and the six counters are
    :class:`~repro.engine.construct.LinkAcquisitionStats`' fields.
    """

    __slots__ = (
        "node_id",
        "position",
        "seed",
        "directory",
        "rng",
        "sample_size",
        "target",
        "link_retries",
        "n_candidates",
        "walk_mode",
        "walk_hops",
        "priority",
        "state",
        "far_end",
        "medians",
        "links",
        "links_placed",
        "slots_given_up",
        "draws",
        "refusals",
        "empty_partition_draws",
        "conflicts",
        "_anchor",
        "_prev",
        "_levels_left",
        "_nego",
        "_attempts",
        "_walk_id",
    )

    def __init__(
        self,
        node_id: NodeId,
        position: float,
        seed: NodeId,
        directory: Directory,
        rng: np.random.Generator | None,
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
        self.sample_size = int(sample_size)
        self.target = int(rho_max_out)
        self.link_retries = int(link_retries)
        self.n_candidates = 2 if power_of_two else 1
        self.walk_mode = bool(walk_mode)
        self.walk_hops = int(walk_hops)
        self.priority = int(priority)
        self.state = "idle"
        row = directory.row_of(self.node_id)
        self.far_end = directory.position_at(directory.predecessor_row(row))
        self.medians: list[float] = []
        self.links: list[NodeId] = []
        self.links_placed = 0
        self.slots_given_up = 0
        self.draws = 0
        self.refusals = 0
        self.empty_partition_draws = 0
        self.conflicts = 0
        self._anchor = directory.key_at(row)
        self._prev = self.far_end
        # A far end equal to the origin means the peer is the sole live
        # member in scope: single-partition table, nothing to estimate.
        self._levels_left = 0 if self.far_end == self.position else max(0, int(k) - 1)
        self._nego: LinkNegotiation | None = None
        self._attempts = 0
        self._walk_id = 0

    @property
    def done(self) -> bool:
        """Whether the join pipeline finished (links placed or given up)."""
        return self.state == "done"

    def start(self) -> list[Effect]:
        """Free mode: estimate from the own stream (or a walk), then acquire."""
        if self.state != "idle":
            raise RuntimeError(f"cannot start join in state {self.state!r}")
        assert self.rng is not None, "a dealt machine waits for its tickets"
        self.state = "estimating"
        if self.walk_mode:
            return self._request_walk()
        while self._levels_left:
            self._level(self.rng.random(self.sample_size))
        return self._begin_acquire()

    # -- estimation ----------------------------------------------------

    def _level(self, u_row: Sequence[float]) -> None:
        """One estimation level: each uniform draws a member of the
        remaining arc from the directory (none when the arc is empty)."""
        d = self.directory
        lo, count = d.arc_slice(self.position, self._prev)
        rows = [d.arc_member(lo, int(float(u) * count)) for u in u_row] if count else []
        self._take_border([d.key_at(r) for r in rows], [d.position_at(r) for r in rows])

    def _take_border(self, keys: list[int], positions: list[float]) -> None:
        """Accept the border one level's samples select, or end the descent
        (no samples, or the border clamp fires)."""
        border, stop = (
            select_border(self._anchor, self.position, self._prev, keys, positions)
            if keys
            else (self._prev, True)
        )
        if stop:
            self._levels_left = 0
            return
        self.medians.append(border)
        self._prev = border
        self._levels_left -= 1

    def on_level(self, msg: EstimateLevel) -> list[Effect]:
        """Dealt mode: one estimation level over the coordinator's row."""
        if not self._levels_left:
            raise SamplingError("the descent is finished; no level is pending")
        self._level(msg.u_row)
        report = EstimateReport(level=msg.level, cont=self._levels_left > 0)
        return [Send(to=self.seed, message=report)]

    def _request_walk(self) -> list[Effect]:
        if not self._levels_left:
            return self._begin_acquire()
        d = self.directory
        first_row = d.successor_row(d.row_of(self.node_id))
        first = d.id_at(first_row)
        # The successor can fall outside a shrunken arc only when the arc
        # has no live members beyond us — an empty level ends the descent.
        if first == self.node_id or not in_cw_interval(
            d.position_at(first_row), self.position, self._prev
        ):
            self._levels_left = 0
            return self._begin_acquire()
        self._walk_id += 1
        launch = SamplingWalk.initiate(
            self._walk_id,
            self.node_id,
            self.position,
            self._prev,
            first,
            n_samples=self.sample_size,
            hops_per_sample=self.walk_hops,
            burn_in=2 * self.walk_hops,
        )
        return [launch, StartTimer(name=WALK_TIMER)]

    def on_walk_done(self, msg: WalkDone) -> list[Effect]:
        """A walk returned its samples: take the level's border, walk on."""
        if self.state != "estimating" or msg.walk_id != self._walk_id:
            return []
        positions = [float(p) for p in msg.positions if float(p) != self.position]
        self._take_border([int(key) for key in from_units(positions)], positions)
        return [CancelTimer(name=WALK_TIMER), *self._request_walk()]

    # -- acquisition ---------------------------------------------------

    def _begin_acquire(self) -> list[Effect]:
        self.state = "acquiring" if len(self.links) < self.target else "done"
        return [] if self.rng is None else self._next()

    def on_begin(self, msg: BeginAcquire) -> list[Effect]:
        """Dealt mode: estimation is over; take the shuffled priority."""
        self.priority = int(msg.priority)
        return self._begin_acquire()

    def on_ticket(self, msg: AcquireTicket) -> list[Effect]:
        """Dealt mode: one acquisition attempt over the ticket's uniforms."""
        return self._attempt(msg.u_part, msg.u_cand)

    def _next(self) -> list[Effect]:
        """Free mode: the next attempt from the own stream, or ``JoinDone``."""
        assert self.rng is not None
        if self.state == "acquiring":
            return self._attempt(self.rng.random(), self.rng.random(self.n_candidates))
        done = JoinDone(node_id=self.node_id, links=len(self.links), gave_up=self.slots_given_up)
        return [
            JoinOutcome(links=tuple(self.links), gave_up=self.slots_given_up),
            Send(to=self.seed, message=done),
        ]

    def _arc(self, p: int) -> tuple[float, float] | None:
        """Partition ``p`` (0-indexed, outermost first) as the clockwise
        arc ``(start, end]`` — the engine's convention; ``None`` for an
        inner arc whose borders coincide (provably empty)."""
        end = self.far_end if p == 0 else self.medians[p - 1]
        start = self.medians[p] if p < len(self.medians) else self.position
        return None if start == end and p > 0 else (start, end)

    def _attempt(self, u_part: float, u_cand: Sequence[float]) -> list[Effect]:
        """One acquisition attempt: draw a partition and candidates, and
        negotiate with the eligible ones — or, with nobody to ask, end
        the attempt on the spot. The attempt index is the negotiation
        token (and, dealt, the coordinator's round number)."""
        d = self.directory
        token = self.draws
        self.draws += 1
        arc = self._arc(int(float(u_part) * (len(self.medians) + 1)))
        lo, count = d.arc_slice(*arc) if arc is not None else (0, 0)
        if count == 0:
            self.empty_partition_draws += 1
            return self._end_attempt(placed=False)
        drawn = [d.id_at(d.arc_member(lo, int(float(u) * count))) for u in u_cand]
        eligible = [c for c in dict.fromkeys(drawn) if c != self.node_id and c not in self.links]
        if not eligible:
            return self._end_attempt(placed=False)
        self._nego = LinkNegotiation(token, eligible, priority=self.priority)
        return self._nego.start()

    def _end_attempt(self, placed: bool) -> list[Effect]:
        """The engine round's bookkeeping: a placed link resets the
        slot's tries and may fill the table; a failure spends one of the
        ``link_retries + 1`` tries, and exhausting them gives the
        remaining slots up. Then the next attempt (free) or the round's
        report (dealt)."""
        if placed:
            self._attempts = 0
            if len(self.links) >= self.target:
                self.state = "done"
        else:
            self._attempts += 1
            if self._attempts > self.link_retries:
                self.slots_given_up += 1
                self.state = "done"
        if self.rng is not None:
            return self._next()
        report = AcquireReport(round_no=self.draws - 1, cont=self.state == "acquiring")
        return [Send(to=self.seed, message=report)]

    def _after_nego(self, effects: list[Effect]) -> list[Effect]:
        nego = self._nego
        if nego is None or not nego.done:
            return effects
        self._nego = None
        self.refusals += nego.refusals
        if nego.placed:
            assert nego.linked_to is not None
            self.links.append(nego.linked_to)
            self.links_placed += 1
        elif nego.conflict:
            self.conflicts += 1
        return effects + self._end_attempt(nego.placed)

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

        ``WALK_TIMER`` while estimating abandons the lost walk and ends
        the descent (the same bail as an arc with no live members); a
        later ``WalkDone`` from it is stale and ignored. Any other timer
        belongs to the active link negotiation, where missing replies
        become refusals and a missing commit result becomes a conflict.
        """
        if name == WALK_TIMER:
            if self.state != "estimating":
                return []
            self._levels_left = 0
            return self._begin_acquire()
        if self._nego is None:
            return []
        return self._after_nego(self._nego.on_timer())
