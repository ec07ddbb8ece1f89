"""The restricted sampling walk as a message-borne state machine.

The walker state travels *in* the :class:`~repro.protocol.messages.WalkStep`
message (the mobile-agent shape): whichever peer holds the message
advances the walk one step and forwards it. Moving needs the classic
two-party Metropolis–Hastings exchange, because the acceptance test
compares the degrees of both endpoints and no peer knows the other's:

1. the *current* peer proposes a uniformly-drawn restricted neighbor and
   sends the walk there, stamping its own restricted degree into
   ``proposer_deg``;
2. the *proposal* peer evaluates
   :func:`~repro.protocol.decisions.mh_accepts` against its own degree
   with its own stream — accepting keeps the walk, rejecting bounces it
   back; either way one step is consumed and samples are collected on
   the post-decision position, then the walk is handed onward (or
   :class:`~repro.protocol.messages.WalkDone` is returned to the origin
   when the sample quota or the step budget runs out).

This is the walk :class:`repro.sampling.BatchRestrictedWalker` runs in
lock-step — same proposal rule, same ``min(1, deg_here / deg_there)``
acceptance rule (here via the shared :mod:`~repro.protocol.decisions`
functions), a ``burn_in + n_samples * hops_per_sample + 1`` step budget
— but it distributes the draws across the visited peers' streams, so
equivalence with the single-stream simulation is statistical, not
bitwise (the net runtime's lockstep oracle therefore runs ``UNIFORM``
estimation; walk mode is exercised invariant-level).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from ..types import NodeId
from .decisions import mh_accepts, propose_neighbor
from .effects import Effect, Send
from .messages import WalkDone, WalkStep

__all__ = ["SamplingWalk"]


class SamplingWalk:
    """Stateless per-peer walk handler (all walk state rides in the message).

    Drivers call :meth:`on_step` with the peer's *local* view of the
    walk's restricted subgraph: its arc-member neighbors and its own
    position. The handler never reaches beyond those arguments.
    """

    @staticmethod
    def initiate(
        walk_id: int,
        origin: NodeId,
        start: float,
        end: float,
        first: NodeId,
        *,
        n_samples: int,
        hops_per_sample: int,
        burn_in: int = 0,
    ) -> Send:
        """The effect that launches a walk at peer ``first``.

        Step accounting matches the simulation walker: the first sample
        lands after ``burn_in`` steps (or ``hops_per_sample`` when no
        burn-in), subsequent samples every ``hops_per_sample``, and the
        walk hard-stops after ``burn_in + n_samples * hops_per_sample + 1``
        steps even if short on samples.
        """
        until = burn_in if burn_in > 0 else hops_per_sample
        budget = burn_in + n_samples * hops_per_sample + 1
        step = WalkStep(
            walk_id=int(walk_id),
            origin=int(origin),
            start=float(start),
            end=float(end),
            n_samples=int(n_samples),
            hops_per_sample=int(hops_per_sample),
            until_sample=int(until),
            steps_left=int(budget),
            collected=[],
            current=int(first),
            current_pos=0.0,
            proposer_deg=-1,
        )
        return Send(to=int(first), message=step)

    @staticmethod
    def on_step(
        msg: WalkStep,
        *,
        me: NodeId,
        my_position: float,
        neighbors: Sequence[NodeId],
        rng: np.random.Generator,
    ) -> list[Effect]:
        """Advance a walk that just arrived at this peer.

        ``neighbors`` is this peer's restricted neighborhood — its ring
        and long-link neighbors whose positions fall inside the walk's
        arc ``(start, end]`` (the driver filters against its directory).
        """
        me = int(me)
        degree = max(1, len(neighbors))
        if msg.proposer_deg < 0:
            # I hold the walk: propose a restricted neighbor. A peer
            # with no arc neighbors strands the walk — return what was
            # collected rather than spin.
            if not neighbors:
                done = WalkDone(walk_id=msg.walk_id, positions=list(msg.collected))
                return [Send(to=msg.origin, message=done)]
            proposal = int(propose_neighbor(list(neighbors), rng))
            out = replace(msg, current=me, current_pos=float(my_position), proposer_deg=degree)
            return [Send(to=proposal, message=out)]

        # I am the proposal: decide the move with my own degree/stream.
        if mh_accepts(msg.proposer_deg, degree, rng):
            cur, cur_pos = me, float(my_position)
        else:
            cur, cur_pos = int(msg.current), float(msg.current_pos)
        steps_left = msg.steps_left - 1
        until = msg.until_sample - 1
        collected = list(msg.collected)
        if until <= 0:
            collected.append(cur_pos)
            until = msg.hops_per_sample
        if len(collected) >= msg.n_samples or steps_left <= 0:
            done = WalkDone(walk_id=msg.walk_id, positions=collected)
            return [Send(to=msg.origin, message=done)]
        nxt = replace(
            msg,
            until_sample=until,
            steps_left=steps_left,
            collected=collected,
            current=cur,
            current_pos=cur_pos,
            proposer_deg=-1,
        )
        return [Send(to=cur, message=nxt)]
