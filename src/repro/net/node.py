"""The per-peer driver: one asyncio task animating the protocol machines.

:class:`NetNode` owns a peer's *state* (position, caps, in-degree, the
long links it holds) and its *I/O* (an endpoint), and drives the pure
:mod:`repro.protocol` machines over them. Every peer joins through one
:class:`~repro.protocol.join.JoinProtocol`; the two operating modes
differ only in where its uniforms come from and who paces the rounds:

* **free** — the machine draws from the peer's own labelled RNG stream:
  it estimates partitions against the seed-fed directory (or by real
  message walks in ``WALK`` mode) and negotiates links concurrently
  with everyone else. Delivery order is whatever the transport
  provides; equivalence with the engines is at the invariant level.
  TCP always runs free mode.
* **lockstep** (``NetConfig(delivery="lockstep")``) — the peer holds no
  construction RNG at all: the coordinator (the harness behind the seed
  id) deals ``EstimateLevel`` / ``AcquireTicket`` rows in the batched
  engine's exact draw layout, and the machine runs the same steps over
  them.
  Combined with the memory transport's superstep barrier (replies
  precede commits; commits replay in priority order), the built
  topology is bit-identical to :meth:`BatchConstructionEngine.grow
  <repro.engine.construct.BatchConstructionEngine.grow>`.

Both modes begin a join the same way — on the seed's
``DirectoryUpdate`` at boot and on every ``Rewire`` — and their
*resident* duties are identical and message-driven: acknowledge link
requests below the in-cap, grant commits against the live in-degree,
advance sampling walks, and route probes greedily.
"""

from __future__ import annotations

import asyncio
from typing import Any

import numpy as np

from ..config import SamplingMode
from ..membership import POLL_TIMER, FailureDetector
from ..protocol.decisions import accepts_link
from ..protocol.directory import Directory
from ..protocol.effects import (
    CancelTimer,
    Effect,
    LinkEstablished,
    Send,
    StartTimer,
    SuspectPeer,
)
from ..protocol.join import JoinProtocol
from ..protocol.messages import (
    AcquireTicket,
    BeginAcquire,
    Dead,
    DirectoryUpdate,
    EstimateLevel,
    Hello,
    Kill,
    LinkCommit,
    LinkReply,
    LinkRequest,
    LinkResult,
    Message,
    Ping,
    Pong,
    Rewire,
    RouteDone,
    RouteProbe,
    StartDetector,
    Suspect,
    WalkDone,
    WalkStep,
)
from ..protocol.routing import Deliver, GreedyRouter
from ..protocol.sampling import SamplingWalk
from ..ring.identifiers import in_cw_interval
from ..rng import split
from .config import NetConfig

__all__ = ["NetNode", "SEED_ID"]

SEED_ID = -1
"""The seed node's transport id (peers are 0..n-1)."""


class NetNode:
    """One peer: state + endpoint + the machines that animate them.

    Args:
        endpoint: Transport endpoint (memory or TCP); its ``node_id`` is
            this peer's id.
        position: Ring position in ``[0, 1)``.
        cap_in / cap_out: Volunteered capacities (``rho_max_in/out``).
        config: The run's :class:`~repro.net.config.NetConfig`: overlay
            parameters, the root seed of this peer's labelled streams,
            the delivery mode (``"lockstep"`` = dealt joins) and the
            failure-detector knobs. Without a detector, protocol timers
            stay inert and the peer never probes liveness; with one,
            ``StartTimer`` / ``CancelTimer`` effects are wired to real
            loop timers — so probe schedules fire, reply timeouts count
            dead candidates as refusals, a lost walk ends the descent —
            and a ``StartDetector`` message arms a
            :class:`~repro.membership.detector.FailureDetector` over
            this peer's directory predecessors.
        directory: Pre-shared :class:`Directory` (in-memory runs share
            one object across all peers; TCP peers build a private copy
            from the seed's broadcast).
    """

    def __init__(
        self,
        endpoint: Any,
        position: float,
        cap_in: int,
        cap_out: int,
        config: NetConfig,
        directory: Directory | None = None,
    ) -> None:
        self.endpoint = endpoint
        self.node_id = int(endpoint.node_id)
        self.position = float(position)
        self.cap_in = int(cap_in)
        self.cap_out = int(cap_out)
        self.config = config
        self.directory = directory
        self._shared_directory = directory is not None
        self.in_degree = 0
        self.out_links: list[int] = []
        self.join: JoinProtocol | None = None
        self.epoch = 0
        self.rng: np.random.Generator | None = None
        # failure-detector state (None/empty unless a detector is set)
        self._fd: FailureDetector | None = None
        self._timers: dict[str, asyncio.TimerHandle] = {}
        self._stopped = False

    # -- lifecycle -----------------------------------------------------

    async def run(self) -> None:
        """Bootstrap, then serve messages until cancelled."""
        await self.endpoint.start()
        host, port = self.endpoint.address
        self.endpoint.send(SEED_ID, Hello(host=host, port=port))
        while not self._stopped:
            src, message = await self.endpoint.recv()
            try:
                self.dispatch(src, message)
            finally:
                self.endpoint.done()

    # -- message dispatch ----------------------------------------------

    def dispatch(self, src: int, message: Message) -> None:
        """Handle one message synchronously; effects go to the endpoint."""
        if isinstance(message, Kill):
            self._crash()
            return
        if isinstance(message, Ping):
            self.endpoint.send(src, Pong(seq=message.seq))
            return
        if isinstance(message, Pong):
            if self._fd is not None:
                self._run_effects(self._fd.on_pong(src, message, now=self._now()))
            return
        if isinstance(message, StartDetector):
            self._arm_detector()
            return
        if isinstance(message, Dead):
            self._on_dead(message)
            return
        if isinstance(message, DirectoryUpdate):
            self._on_directory(message)
            return
        if isinstance(message, LinkRequest):
            self.endpoint.send(
                src,
                LinkReply(
                    token=message.token,
                    accept=accepts_link(self.in_degree, self.cap_in),
                    in_degree=self.in_degree,
                    rho_in=self.cap_in,
                ),
            )
            return
        if isinstance(message, LinkCommit):
            granted = accepts_link(self.in_degree, self.cap_in)
            if granted:
                self.in_degree += 1
            self.endpoint.send(src, LinkResult(token=message.token, granted=granted))
            return
        if isinstance(message, WalkStep):
            self._run_effects(
                SamplingWalk.on_step(
                    message,
                    me=self.node_id,
                    my_position=self.position,
                    neighbors=self._arc_neighbors(message.start, message.end),
                    rng=self._walk_rng(),
                )
            )
            return
        if isinstance(message, RouteProbe):
            self._on_probe(message)
            return
        if isinstance(message, Rewire):
            self._on_rewire(message)
            return
        join = self.join
        if join is None:
            return
        if isinstance(message, LinkReply):
            self._run_effects(join.on_reply(src, message))
        elif isinstance(message, LinkResult):
            self._run_effects(join.on_result(message))
        elif isinstance(message, WalkDone):
            self._run_effects(join.on_walk_done(message))
        elif isinstance(message, EstimateLevel):
            self._run_effects(join.on_level(message))
        elif isinstance(message, BeginAcquire):
            self._run_effects(join.on_begin(message))
        elif isinstance(message, AcquireTicket):
            self._run_effects(join.on_ticket(message))

    def _run_effects(self, effects: list[Effect]) -> None:
        for effect in effects:
            if isinstance(effect, Send):
                self.endpoint.send(effect.to, effect.message)
            elif isinstance(effect, LinkEstablished):
                self.out_links.append(int(effect.peer))
            elif isinstance(effect, SuspectPeer):
                self.endpoint.send(
                    SEED_ID,
                    Suspect(target=int(effect.peer), failures=int(effect.failures)),
                )
            elif isinstance(effect, StartTimer):
                if self.config.detector is not None:
                    self._start_timer(effect.name, effect.delay)
            elif isinstance(effect, CancelTimer):
                if self.config.detector is not None:
                    self._cancel_timer(effect.name)
            # Without a detector config, timers stay deliberately inert:
            # every directory member is live and replies, so the oracle
            # modes never need them and stay exactly as deterministic as
            # before the detector existed (exercised in protocol tests).

    # -- failure detection ----------------------------------------------

    def _now(self) -> float:
        # The loop's monotonic clock, not a wall clock: timer math only.
        return asyncio.get_running_loop().time()

    def _start_timer(self, name: str, delay: float) -> None:
        """(Re-)arm ``name``; a zero delay means one reply-timeout."""
        self._cancel_timer(name)
        assert self.config.detector is not None
        seconds = delay if delay > 0.0 else self.config.detector.timeout_s
        loop = asyncio.get_running_loop()
        self._timers[name] = loop.call_later(seconds, self._on_timer, name)

    def _cancel_timer(self, name: str) -> None:
        handle = self._timers.pop(name, None)
        if handle is not None:
            handle.cancel()

    def _on_timer(self, name: str) -> None:
        """A loop timer fired; route it to the owning machine."""
        self._timers.pop(name, None)
        if self._stopped:
            return
        if name == POLL_TIMER:
            if self._fd is not None:
                self._run_effects(self._fd.poll(self._now()))
            return
        if self.join is not None:
            self._run_effects(self.join.on_timer(name))

    def _crash(self) -> None:
        """``Kill`` semantics: stop serving, silently, mid-everything.

        Cancels every armed timer, detaches from the transport (later
        sends to this id vanish — nobody gets connection errors, their
        probes just never come back) and lets the run loop exit. The
        superstep ack for the ``Kill`` itself still happens in the run
        loop's ``finally``, keeping the pump's accounting intact.
        """
        self._stopped = True
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()
        self._fd = None
        if hasattr(self.endpoint, "detach"):
            self.endpoint.detach()

    def _arm_detector(self) -> None:
        """``StartDetector``: probe my directory predecessors forever."""
        if self.config.detector is None or self.directory is None or self._stopped:
            return
        self._fd = FailureDetector(self.node_id, self.config.detector)
        self._rewatch()
        self._run_effects(self._fd.poll(self._now()))

    def _rewatch(self) -> None:
        """Point the detector at the current directory neighborhood.

        Each peer is probed by its ``n_monitors`` clockwise successors,
        so this monitor watches its clockwise *predecessors*. Targets
        that left the neighborhood (eviction shifted the rows) are
        unwatched first so their counters don't leak across targets.
        """
        assert self._fd is not None and self.directory is not None
        d = self.directory
        config = self.config.detector
        assert config is not None
        row = d.row_of(self.node_id)
        panel = min(config.n_monitors, d.m - 1)
        want = {int(d.id_at(row - j)) for j in range(1, panel + 1)}
        for target in self._fd.targets:
            if target not in want:
                self._fd.unwatch(target)
        for target in sorted(want):
            self._fd.watch(target)

    def _on_dead(self, message: Dead) -> None:
        """Quorum-confirmed evictions: rebuild my membership knowledge.

        The rebuilt directory is always a *private* copy — peers that
        bootstrapped on the shared at-scale object fork it here, since
        from this point on membership knowledge is per-peer state that
        gossip/broadcast keeps in (bounded-staleness) agreement.
        """
        if self.directory is None or self._stopped:
            return
        targets = {int(t) for t in message.targets}
        targets.discard(self.node_id)  # an eviction of me I outlived
        if not targets:
            return
        keep = [pair for pair in self.directory.to_pairs() if int(pair[0]) not in targets]
        self.directory = Directory.from_pairs(keep)
        self._shared_directory = False
        self.out_links = [link for link in self.out_links if link not in targets]
        if self._fd is not None:
            for target in sorted(targets):
                self._fd.unwatch(target)
            self._rewatch()

    # -- bootstrap and rewiring ----------------------------------------

    def _on_directory(self, message: DirectoryUpdate) -> None:
        """Boot: adopt the membership (and, on TCP, the address book),
        then begin joining."""
        if not self._shared_directory:
            self.directory = Directory.from_pairs(message.peers)
        self.endpoint.learn_addresses(message.addrs)
        self._begin_join()

    def _on_rewire(self, message: Rewire) -> None:
        """A rewiring epoch: local teardown, then a fresh join.

        Teardown is purely local (own links dropped, own in-degree
        zeroed), and the memory transport's superstep barrier guarantees
        every peer resets before any re-acquisition request lands.
        """
        self.out_links.clear()
        self.in_degree = 0
        self.epoch = int(message.epoch)
        self._begin_join()

    def _begin_join(self) -> None:
        """Deal this epoch's join machine (lockstep: it waits for the
        coordinator's tickets) or start it on the own stream (free)."""
        if self.config.delivery == "lockstep":
            self.join = self._new_join(rng=None)
            return
        self.rng = split(self.config.seed, "net", self.epoch, self.node_id)
        self.join = self._new_join(self.rng)
        self._run_effects(self.join.start())

    def _new_join(self, rng: np.random.Generator | None) -> JoinProtocol:
        """This peer's join machine over its directory; ``rng=None``
        makes it dealt (lockstep)."""
        assert self.directory is not None
        overlay = self.config.overlay
        return JoinProtocol(
            self.node_id,
            self.position,
            SEED_ID,
            self.directory,
            rng,
            k=overlay.partitions_for(max(1, self.directory.m)),
            sample_size=overlay.sample_size,
            rho_max_out=self.cap_out,
            link_retries=overlay.link_retries,
            power_of_two=overlay.power_of_two,
            walk_mode=overlay.sampling_mode is SamplingMode.WALK,
            walk_hops=overlay.walk_hops,
        )

    # -- walking and routing -------------------------------------------

    def _walk_rng(self) -> np.random.Generator:
        if self.rng is None:
            self.rng = split(self.config.seed, "net", self.epoch, self.node_id)
        return self.rng

    def _arc_neighbors(self, start: float, end: float) -> list[int]:
        """My restricted neighborhood for a walk over ``(start, end]``."""
        assert self.directory is not None
        d = self.directory
        row = d.row_of(self.node_id)
        out: list[int] = []
        for peer in (d.id_at(row + 1), d.id_at(row - 1), *self.out_links):
            if peer == self.node_id or peer in out:
                continue
            if in_cw_interval(d.position_at(d.row_of(peer)), start, end):
                out.append(int(peer))
        return out

    def _on_probe(self, message: RouteProbe) -> None:
        assert self.directory is not None
        d = self.directory
        row = d.row_of(self.node_id)
        decision = GreedyRouter.decide(
            message.target,
            me=self.node_id,
            my_position=self.position,
            predecessor_position=d.position_at(row - 1),
            successor=d.id_at(row + 1),
            successor_position=d.position_at(row + 1),
            neighbors=[
                (peer, d.position_at(d.row_of(peer)))
                for peer in (d.id_at(row + 1), d.id_at(row - 1), *self.out_links)
            ],
        )
        if isinstance(decision, Deliver):
            self.endpoint.send(
                message.origin,
                RouteDone(
                    probe_id=message.probe_id,
                    delivered=self.node_id,
                    hops=message.hops,
                    ok=True,
                ),
            )
            return
        if message.hops >= message.budget:
            self.endpoint.send(
                message.origin,
                RouteDone(
                    probe_id=message.probe_id,
                    delivered=self.node_id,
                    hops=message.hops,
                    ok=False,
                ),
            )
            return
        self.endpoint.send(
            decision.to,
            RouteProbe(
                probe_id=message.probe_id,
                target=message.target,
                origin=message.origin,
                hops=message.hops + 1,
                budget=message.budget,
            ),
        )
