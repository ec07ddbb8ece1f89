"""Sans-I/O protocol core: Oscar's per-peer decisions as pure machines.

Every Oscar behaviour — joining with partition estimation, restricted
sampling walks, link negotiation with refusals, greedy routing — is a
sequence of *local decisions* a peer takes over information it received
in messages. This package states those decisions once, transport-free:

* :mod:`~repro.protocol.decisions` — the atomic decision rules (link
  acceptance, the power-of-two winner key, the Metropolis–Hastings
  acceptance step, the border clamp, the closest-preceding-hop rule).
  The sequential reference of :mod:`repro.engine.construct`, the one
  Oscar builder, calls these *exact same functions*, so the sim is
  pinned bit-identical to the protocol by construction; the simulator's
  greedy routing is the walk kernel (:mod:`repro.engine.walk`), held to
  :class:`~repro.protocol.routing.GreedyRouter` hop by hop by the tests;
* :mod:`~repro.protocol.messages` / :mod:`~repro.protocol.effects` —
  the typed message grammar and the typed effects machines emit
  (``Send``, ``StartTimer``, ``LinkEstablished``, ...);
* :mod:`~repro.protocol.estimation` — the exact-rank border and
  arc-window kernels the engine's reference and the join machine share;
* the four state machines: :class:`~repro.protocol.join.JoinProtocol`,
  :class:`~repro.protocol.sampling.SamplingWalk`,
  :class:`~repro.protocol.negotiation.LinkNegotiation`,
  :class:`~repro.protocol.routing.GreedyRouter` — pure objects that
  consume typed messages/events and emit typed effects, never touching
  sockets, clocks, or another peer's state. ``JoinProtocol`` is the
  per-peer form of the construction engine's join: every live peer,
  free or lockstep, in memory or over TCP, joins through it.

Drivers provide the I/O: the synchronous engines deliver omnisciently
in-process, while :mod:`repro.net` runs one asyncio task per peer over
a pluggable transport. Uniforms are *passed in* — a labelled stream from
:mod:`repro.rng` or rows dealt by the lockstep coordinator; nothing here
creates entropy, reads a clock, or blocks.
"""

from .decisions import (
    accepts_link,
    border_is_terminal,
    closest_preceding,
    cw_closer,
    link_winner_key,
    mh_accepts,
    propose_neighbor,
)
from .directory import Directory
from .effects import (
    CancelTimer,
    Effect,
    LinkEstablished,
    Send,
    StartTimer,
)
from .estimation import cw_arc_slice, select_border
from .join import JoinProtocol
from .messages import Message, message_from_wire
from .negotiation import LinkNegotiation
from .routing import Deliver, Forward, GreedyRouter
from .sampling import SamplingWalk

__all__ = [
    "CancelTimer",
    "Deliver",
    "Directory",
    "Effect",
    "Forward",
    "GreedyRouter",
    "JoinProtocol",
    "LinkEstablished",
    "LinkNegotiation",
    "Message",
    "SamplingWalk",
    "Send",
    "StartTimer",
    "accepts_link",
    "border_is_terminal",
    "closest_preceding",
    "cw_arc_slice",
    "cw_closer",
    "link_winner_key",
    "message_from_wire",
    "mh_accepts",
    "propose_neighbor",
    "select_border",
]
