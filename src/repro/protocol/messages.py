"""The typed message grammar every transport speaks.

One flat registry of frozen dataclasses; each kind round-trips through
``to_wire()`` / :func:`message_from_wire` as a plain dict of JSON-safe
values (ints, floats, bools, strings, lists), so the same grammar runs
over the in-memory queue transport (objects passed by reference — float
exactness trivially preserved) and the TCP codec (length-prefixed JSON;
IEEE doubles survive it losslessly).

Grammar overview (sender identity travels in the transport envelope,
never inside the message):

* bootstrap — ``Hello`` (peer -> seed: up, and where to reach me),
  ``DirectoryUpdate`` (seed broadcast of the membership, plus the
  address book on transports that dial);
* link negotiation — ``LinkRequest`` / ``LinkReply`` / ``LinkCommit`` /
  ``LinkResult`` (the message form of paper §2's acknowledge-and-choose
  procedure; see :class:`~repro.protocol.negotiation.LinkNegotiation`);
* sampling walks — ``WalkStep`` hop-carries the walker state,
  ``WalkDone`` returns collected positions to the origin;
* routing — ``RouteProbe`` hops a lookup greedily, ``RouteDone``
  reports the delivery back to the origin;
* join/rewire orchestration — ``JoinDone``, ``Rewire``;
* lockstep construction (coordinator-dealt RNG tickets that replicate
  the batched engine's draw layout exactly) — ``EstimateLevel`` /
  ``EstimateReport`` / ``BeginAcquire`` / ``AcquireTicket`` /
  ``AcquireReport``;
* failure detection and membership (probe-derived liveness; see
  :mod:`repro.membership` and ``docs/membership.md``) — ``Ping`` /
  ``Pong`` correlated probes, ``Suspect`` (monitor -> membership
  authority after ``K`` consecutive failures), ``Dead`` (authority
  broadcast of quorum-confirmed evictions), ``StartDetector`` (arm the
  probe schedule) and ``Kill`` (test/driver-injected peer death — the
  victim stops serving, so everyone else must *detect* it).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, ClassVar

__all__ = [
    "AcquireReport",
    "AcquireTicket",
    "BeginAcquire",
    "Dead",
    "DirectoryUpdate",
    "EstimateLevel",
    "EstimateReport",
    "Hello",
    "JoinDone",
    "Kill",
    "LinkCommit",
    "LinkReply",
    "LinkRequest",
    "LinkResult",
    "Message",
    "Ping",
    "Pong",
    "Rewire",
    "RouteDone",
    "RouteProbe",
    "StartDetector",
    "Suspect",
    "WalkDone",
    "WalkStep",
    "message_from_wire",
]

_REGISTRY: dict[str, type["Message"]] = {}


@dataclass(frozen=True)
class Message:
    """Base of every wire message; subclasses set a unique ``kind``."""

    kind: ClassVar[str] = ""

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if not cls.kind:
            raise TypeError(f"{cls.__name__} must declare a wire kind")
        if cls.kind in _REGISTRY:
            raise TypeError(f"duplicate message kind {cls.kind!r}")
        _REGISTRY[cls.kind] = cls

    def to_wire(self) -> dict[str, Any]:
        """Plain-dict wire form (``kind`` plus the dataclass fields)."""
        payload: dict[str, Any] = {"kind": self.kind}
        for f in fields(self):
            payload[f.name] = getattr(self, f.name)
        return payload


def message_from_wire(payload: dict[str, Any]) -> Message:
    """Inverse of :meth:`Message.to_wire`; raises on unknown kinds."""
    data = dict(payload)
    kind = data.pop("kind", None)
    cls = _REGISTRY.get(kind)  # type: ignore[arg-type]
    if cls is None:
        raise ValueError(f"unknown message kind {kind!r}")
    return cls(**data)


# ----------------------------------------------------------------------
# bootstrap
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Hello(Message):
    """Peer -> seed: I am up. ``host``/``port`` is the peer's listening
    address on transports that need an address book (TCP); the
    in-memory transport leaves them empty."""

    kind: ClassVar[str] = "hello"
    host: str = ""
    port: int = 0


@dataclass(frozen=True)
class DirectoryUpdate(Message):
    """Seed broadcast of the membership directory (``[[id, position],
    ...]``); receiving it starts the peer's join.

    ``addrs`` (``[[id, host, port], ...]``) rides along on transports
    that dial peers directly; it is membership *plumbing*, not protocol
    state — the machines only ever see ``peers``.
    """

    kind: ClassVar[str] = "directory"
    peers: list = None  # type: ignore[assignment]
    addrs: list = None  # type: ignore[assignment]


# ----------------------------------------------------------------------
# link negotiation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LinkRequest(Message):
    """Requester -> candidate: may I hold a long link to you?"""

    kind: ClassVar[str] = "link_request"
    token: int = 0


@dataclass(frozen=True)
class LinkReply(Message):
    """Candidate -> requester: acknowledgment plus the load fields the
    power-of-two winner key ranks on."""

    kind: ClassVar[str] = "link_reply"
    token: int = 0
    accept: bool = False
    in_degree: int = 0
    rho_in: int = 0


@dataclass(frozen=True)
class LinkCommit(Message):
    """Requester -> chosen candidate: commit the acknowledged link.

    ``priority`` is the requester's acquisition rank; the lockstep
    transport orders a round's commits by it, replicating the engine's
    priority-ordered conflict resolution.
    """

    kind: ClassVar[str] = "link_commit"
    token: int = 0
    priority: int = 0


@dataclass(frozen=True)
class LinkResult(Message):
    """Candidate -> requester: grant (cap re-checked live) or deny."""

    kind: ClassVar[str] = "link_result"
    token: int = 0
    granted: bool = False


# ----------------------------------------------------------------------
# sampling walks
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WalkStep(Message):
    """One hop of a restricted Metropolis–Hastings walker.

    The full walker state rides in the message (the classic mobile-agent
    shape): when ``proposer_deg < 0`` the receiver *is* the walker's
    current node and must propose; otherwise the receiver is a proposal
    evaluating the MH acceptance against ``proposer_deg``.
    """

    kind: ClassVar[str] = "walk_step"
    walk_id: int = 0
    origin: int = -1
    start: float = 0.0
    end: float = 0.0
    n_samples: int = 0
    hops_per_sample: int = 0
    until_sample: int = 0
    steps_left: int = 0
    collected: list = None  # type: ignore[assignment]  # positions
    current: int = -1
    current_pos: float = 0.0
    proposer_deg: int = -1


@dataclass(frozen=True)
class WalkDone(Message):
    """Final hop -> origin: the collected sample positions (may be short
    if the step budget ran out)."""

    kind: ClassVar[str] = "walk_done"
    walk_id: int = 0
    positions: list = None  # type: ignore[assignment]


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RouteProbe(Message):
    """A greedy lookup in flight; each peer applies
    :class:`~repro.protocol.routing.GreedyRouter` and forwards."""

    kind: ClassVar[str] = "route_probe"
    probe_id: int = 0
    target: float = 0.0
    origin: int = -1
    hops: int = 0
    budget: int = 0


@dataclass(frozen=True)
class RouteDone(Message):
    """Delivering peer -> origin: where the probe landed."""

    kind: ClassVar[str] = "route_done"
    probe_id: int = 0
    delivered: int = -1
    hops: int = 0
    ok: bool = False


# ----------------------------------------------------------------------
# join / rewire orchestration
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class JoinDone(Message):
    """Peer -> seed: my join (or rewire epoch) reached quiescence. The
    harness reads the counters off the machines; ``links`` /
    ``gave_up`` are informational."""

    kind: ClassVar[str] = "join_done"
    node_id: int = -1
    links: int = 0
    gave_up: int = 0


@dataclass(frozen=True)
class Rewire(Message):
    """Seed -> peer: drop my links, zero my in-degree and join afresh
    (dealt in lockstep mode, on the epoch's own stream otherwise)."""

    kind: ClassVar[str] = "rewire"
    epoch: int = 0


# ----------------------------------------------------------------------
# lockstep construction tickets (engine-exact draw layout)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EstimateLevel(Message):
    """Coordinator -> active peer: one estimation level's uniform row.

    ``u_row`` is this peer's slice of the engine's per-level
    ``rng.random((active, sample_size))`` matrix; the peer's
    :class:`~repro.protocol.join.JoinProtocol` resolves the draws against
    its directory and selects the border locally.
    """

    kind: ClassVar[str] = "estimate_level"
    level: int = 0
    u_row: list = None  # type: ignore[assignment]


@dataclass(frozen=True)
class EstimateReport(Message):
    """Peer -> coordinator: does my descent take another level?"""

    kind: ClassVar[str] = "estimate_report"
    level: int = 0
    cont: bool = False


@dataclass(frozen=True)
class BeginAcquire(Message):
    """Coordinator -> peer: estimation is done; here is your shuffled
    acquisition priority."""

    kind: ClassVar[str] = "begin_acquire"
    priority: int = 0


@dataclass(frozen=True)
class AcquireTicket(Message):
    """Coordinator -> active peer: one acquisition round's draws
    (partition uniform + candidate uniforms, engine layout)."""

    kind: ClassVar[str] = "acquire_ticket"
    round_no: int = 0
    u_part: float = 0.0
    u_cand: list = None  # type: ignore[assignment]


@dataclass(frozen=True)
class AcquireReport(Message):
    """Peer -> coordinator: this round's attempt is over; do I take
    another ticket? (The counters stay with the peer.)"""

    kind: ClassVar[str] = "acquire_report"
    round_no: int = 0
    cont: bool = False


# ----------------------------------------------------------------------
# failure detection and membership
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Ping(Message):
    """Monitor -> target: one liveness probe; ``seq`` correlates the
    answer (a stale ``Pong`` with an old sequence never resets the
    failure counter)."""

    kind: ClassVar[str] = "ping"
    seq: int = 0


@dataclass(frozen=True)
class Pong(Message):
    """Target -> monitor: the correlated answer to ``Ping(seq)``."""

    kind: ClassVar[str] = "pong"
    seq: int = 0


@dataclass(frozen=True)
class Suspect(Message):
    """Monitor -> membership authority: ``target`` missed
    ``failures`` consecutive probes (``failures >= K``); the authority
    evicts once a quorum of distinct monitors concurs."""

    kind: ClassVar[str] = "suspect"
    target: int = 0
    failures: int = 0


@dataclass(frozen=True)
class Dead(Message):
    """Authority broadcast: ``targets`` are evicted — drop links to
    them, stop probing them, and remove them from the directory."""

    kind: ClassVar[str] = "dead"
    targets: list = field(default_factory=list)


@dataclass(frozen=True)
class StartDetector(Message):
    """Seed -> peer: arm the probe schedule over the current directory
    neighborhood (detector knobs travel in the peer's NetConfig)."""

    kind: ClassVar[str] = "start_detector"


@dataclass(frozen=True)
class Kill(Message):
    """Driver -> peer: crash on receipt. The victim acknowledges the
    transport superstep, detaches, and stops serving — from every other
    peer's perspective it silently dies, which is exactly what the
    failure detectors must notice."""

    kind: ClassVar[str] = "kill"
