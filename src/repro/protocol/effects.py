"""Typed effects the protocol machines emit instead of doing I/O.

A machine never sends, sleeps, or mutates another peer: it *returns*
a list of effects and the driver interprets them — the synchronous
engines apply them in-process, the :mod:`repro.net` runtime turns them
into transport writes and asyncio timers. Effects are plain frozen
dataclasses so tests can assert on them structurally.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..types import NodeId
from .messages import Message

__all__ = [
    "CancelTimer",
    "Effect",
    "LinkEstablished",
    "Send",
    "StartTimer",
    "SuspectPeer",
]


@dataclass(frozen=True)
class Effect:
    """Marker base for everything a machine asks its driver to do."""


@dataclass(frozen=True)
class Send(Effect):
    """Deliver ``message`` to peer ``to``."""

    to: NodeId
    message: Message


@dataclass(frozen=True)
class StartTimer(Effect):
    """Arm (or re-arm) the named timer; the driver owns the clock and
    calls the machine's ``on_timer(name)`` when it fires.

    ``delay`` is a *hint* in the driver's time unit (seconds on the
    asyncio runtime); ``0.0`` means "use the driver's default for this
    timer name" — the pre-existing machines emit it and keep working
    unchanged on drivers that ignore timers entirely."""

    name: str
    delay: float = 0.0


@dataclass(frozen=True)
class CancelTimer(Effect):
    """Disarm the named timer if still pending."""

    name: str


@dataclass(frozen=True)
class SuspectPeer(Effect):
    """A failure detector crossed ``consecutive_failures >= K`` for
    ``peer``: the driver forwards the suspicion to whatever membership
    authority it answers to (the seed on the net runtime, the
    quorum tally inside :class:`~repro.membership.probe.ProbeView` in
    the sim)."""

    peer: NodeId
    failures: int = 0


@dataclass(frozen=True)
class LinkEstablished(Effect):
    """A long link to ``peer`` was granted and is now held."""

    peer: NodeId
