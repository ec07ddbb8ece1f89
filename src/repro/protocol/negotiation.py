"""One link-acquisition attempt as a sans-I/O state machine.

Paper §2's acknowledge-and-choose procedure, message-shaped: the
requester asks every sampled candidate, candidates acknowledge iff
below their volunteered in-cap, and the requester commits to the
power-of-two winner — which re-checks its *live* cap at commit time, so
a concurrent requester that committed first turns the grant into a
conflict. The construction engine collapses this exchange into direct
state reads; :class:`LinkNegotiation` is the same decision sequence
with the reads replaced by :class:`~repro.protocol.messages.LinkReply`
fields, which is exactly what lets the asyncio runtime and the
in-process engines share one protocol.

Lifecycle::

    nego = LinkNegotiation(token, candidates, priority)
    effects = nego.start()                   # Send(LinkRequest) x N + StartTimer
    effects = nego.on_reply(peer, reply)     # last reply -> CancelTimer + commit/fail
    effects = nego.on_result(result)         # -> CancelTimer + LinkEstablished/conflict
    effects = nego.on_timer()                # asking: missing replies count as
                                             # refusals; committing: lost result
                                             # counts as a conflict

The machine is single-shot: retries and re-sampling are the caller's
loop (:class:`~repro.protocol.join.JoinProtocol`), matching the
engine's retry bookkeeping.
"""

from __future__ import annotations

from typing import Sequence

from ..types import NodeId
from .decisions import accepts_link, link_winner_key
from .effects import CancelTimer, Effect, LinkEstablished, Send, StartTimer
from .messages import LinkCommit, LinkReply, LinkRequest, LinkResult

__all__ = ["LinkNegotiation"]

_TIMER = "link-replies"


class LinkNegotiation:
    """Negotiate one long link with a fixed candidate set.

    States: ``idle -> asking -> committing -> placed | failed``; the
    terminal flags distinguish *why* an attempt failed (``refusals``
    everyone at cap, ``conflict`` lost the commit race) because the
    acquisition statistics count them separately.
    """

    __slots__ = (
        "token",
        "candidates",
        "priority",
        "state",
        "refusals",
        "conflict",
        "linked_to",
        "_replies",
    )

    def __init__(self, token: int, candidates: Sequence[NodeId], priority: int = 0) -> None:
        if not candidates:
            raise ValueError("negotiation needs at least one candidate")
        self.token = int(token)
        self.candidates = tuple(int(c) for c in candidates)
        self.priority = int(priority)
        self.state = "idle"
        self.refusals = 0
        self.conflict = False
        self.linked_to: NodeId | None = None
        self._replies: dict[int, LinkReply] = {}

    @property
    def done(self) -> bool:
        """Whether the attempt reached a terminal state."""
        return self.state in ("placed", "failed")

    @property
    def placed(self) -> bool:
        """Whether the attempt ended with a granted link."""
        return self.state == "placed"

    def start(self) -> list[Effect]:
        """Ask every candidate; arm the reply timer."""
        if self.state != "idle":
            raise RuntimeError(f"cannot start negotiation in state {self.state!r}")
        self.state = "asking"
        request = LinkRequest(token=self.token)
        effects: list[Effect] = [Send(to=c, message=request) for c in self.candidates]
        effects.append(StartTimer(name=_TIMER))
        return effects

    def on_reply(self, peer: NodeId, reply: LinkReply) -> list[Effect]:
        """Record one candidate's acknowledgment (or refusal)."""
        if self.state != "asking" or reply.token != self.token:
            return []
        peer = int(peer)
        if peer not in self.candidates or peer in self._replies:
            return []
        self._replies[peer] = reply
        if len(self._replies) < len(self.candidates):
            return []
        return [CancelTimer(name=_TIMER), *self._choose()]

    def on_timer(self) -> list[Effect]:
        """The negotiation timer fired.

        In ``asking`` the unresponsive candidates count as refusals and
        the winner is chosen from whoever did answer. In ``committing``
        a missing :class:`~repro.protocol.messages.LinkResult` (the
        chosen candidate died before granting) counts as a lost commit
        race — ``conflict`` — so the caller's retry loop redraws rather
        than hanging on a dead peer.
        """
        if self.state == "committing":
            self.state = "failed"
            self.conflict = True
            self.linked_to = None
            return []
        if self.state != "asking":
            return []
        return self._choose()

    def _choose(self) -> list[Effect]:
        # Candidate order, not reply-arrival order, so the winner scan is
        # deterministic under any delivery schedule.
        accepting = [
            (c, r)
            for c in self.candidates
            if (r := self._replies.get(c)) is not None and r.accept and accepts_link(r.in_degree, r.rho_in)
        ]
        self.refusals = len(self.candidates) - len(accepting)
        if not accepting:
            self.state = "failed"
            return []
        chosen, __ = min(accepting, key=lambda cr: link_winner_key(cr[1].in_degree, cr[1].rho_in, cr[0]))
        self.state = "committing"
        self.linked_to = chosen
        # The commit-phase timer guards against the chosen candidate
        # dying between its acknowledgment and the grant: inert under
        # the lockstep drivers (which always deliver a LinkResult),
        # load-bearing under the failure-detector runtime.
        return [
            Send(to=chosen, message=LinkCommit(token=self.token, priority=self.priority)),
            StartTimer(name=_TIMER),
        ]

    def on_result(self, result: LinkResult) -> list[Effect]:
        """The chosen candidate granted or denied the commit."""
        if self.state != "committing" or result.token != self.token:
            return []
        if result.granted:
            self.state = "placed"
            assert self.linked_to is not None
            return [CancelTimer(name=_TIMER), LinkEstablished(peer=self.linked_to)]
        self.state = "failed"
        self.conflict = True
        self.linked_to = None
        return [CancelTimer(name=_TIMER)]
