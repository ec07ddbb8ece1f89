"""Boot a network, run it to quiescence, validate the topology.

:class:`NetHarness` owns the seed side of the runtime: it registers the
seed endpoint (:data:`~repro.net.node.SEED_ID`), creates peer ``i``'s
endpoint and boots its :class:`~repro.net.node.NetNode` task, collects
one ``Hello`` per peer and broadcasts one ``DirectoryUpdate`` — the same
boot sequence over both transports, except that TCP peers announce
listening addresses the broadcast passes on — and drives construction
to quiescence. Every peer joins through one
:class:`~repro.protocol.join.JoinProtocol`, and the stats are the sum of
the peers' own counters; two build disciplines differ only in where the
machines' uniforms come from and who paces the rounds:

* **free** — peers join concurrently under their own labelled RNG
  streams; the harness only deals membership and collects ``JoinDone``.
  Runs over the memory transport (any delivery order) and over TCP.
* **lockstep** (``delivery="lockstep"``, memory transport only) — the
  harness is the *coordinator*: it consumes one construction stream in
  the batched engine's exact draw layout (caps, positions, one uniform
  matrix per estimation level over the active rows in ascending row
  order, one priority shuffle, one partition + candidate draw per
  acquisition round) and deals the uniforms to peers as RNG tickets for
  as long as they report themselves active. Peers decide everything
  locally from their directory; the transport's superstep barrier gives
  replies snapshot semantics and replays commits in priority order. The
  resulting topology and
  :class:`~repro.engine.construct.LinkAcquisitionStats` are
  **bit-identical** to :meth:`BatchConstructionEngine.grow
  <repro.engine.construct.BatchConstructionEngine.grow>` /
  :meth:`rewire <repro.engine.construct.BatchConstructionEngine.rewire>`
  on the same seed — the oracle-equivalence contract of ``docs/net.md``.

A third discipline rides on top of free mode when
:attr:`NetConfig.detector` is set: the harness is the **membership
authority**. ``start_detector()`` arms per-peer probe schedules; peers
whose probes time out send ``Suspect`` reports to the seed, which
tallies distinct reporters and — at quorum — evicts the target,
rebuilds its directory and broadcasts ``Dead`` so every live peer
rebuilds its own. ``kill()`` crashes peers silently (they detach from
the transport, so everyone else must *detect* the death), and
``await_evictions()`` / ``membership_agreement()`` observe the
detection pipeline end to end.

The facade is synchronous (one private :class:`asyncio.Runner` carries
the loop across calls) so the test suite needs no asyncio plugin::

    harness = NetHarness(NetConfig(delivery="lockstep", seed=7))
    stats = harness.build(500, UniformKeys(), ConstantDegrees(4))
    success, hops = harness.route_check(200)
    harness.close()
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..degree import DegreeDistribution, assign_caps
from ..engine.construct import LinkAcquisitionStats, draw_positions
from ..errors import ConfigError, SimulationError
from ..protocol.directory import Directory
from ..protocol.messages import (
    AcquireReport,
    AcquireTicket,
    BeginAcquire,
    Dead,
    DirectoryUpdate,
    EstimateLevel,
    EstimateReport,
    Hello,
    JoinDone,
    Kill,
    Message,
    Rewire,
    RouteDone,
    RouteProbe,
    StartDetector,
    Suspect,
)
from ..rng import split
from ..workloads import KeyDistribution
from .config import NetConfig
from .node import SEED_ID, NetNode
from .transport import MemoryTransport, TcpEndpoint

__all__ = ["NetHarness", "TopologySummary"]


@dataclass(frozen=True)
class TopologySummary:
    """What a finished run looks like, in one verifiable value."""

    n: int
    links: int
    gave_up: int
    cap_violations: int
    routes_attempted: int
    routes_delivered: int
    mean_hops: float
    messages: int
    generations: int
    directory_mismatches: int = 0

    @property
    def route_success(self) -> float:
        """Fraction of probes delivered to the responsible peer."""
        if not self.routes_attempted:
            return 1.0
        return self.routes_delivered / self.routes_attempted


class NetHarness:
    """Seed-side driver: boot peers, build, rewire, probe, extract.

    Args:
        config: The :class:`~repro.net.config.NetConfig` carrying every
            knob, validated there with
            :class:`~repro.errors.ConfigError`.
    """

    def __init__(self, config: NetConfig = NetConfig()) -> None:
        self.config = config
        self.nodes: list[NetNode] = []
        self.directory: Directory | None = None
        self.stats = LinkAcquisitionStats()
        self._runner = asyncio.Runner()
        self._transport: MemoryTransport | None = None
        self._seed_ep: Any = None
        self._tasks: list[asyncio.Task] = []
        self._epoch = 0
        self._probe_id = 0
        self._routes = (0, 0, 0)  # attempted, delivered, total hops
        self._closed = False
        # membership-authority state (used only when detector is set)
        self._detector_on = False
        self._killed: set[int] = set()
        self._evicted: set[int] = set()
        self._suspects: dict[int, set[int]] = {}

    # -- sync facade ---------------------------------------------------

    def __enter__(self) -> "NetHarness":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def build(
        self,
        n: int,
        keys: KeyDistribution,
        degrees: DegreeDistribution,
        kill_mid_join: tuple[int, ...] = (),
    ) -> LinkAcquisitionStats:
        """Draw a population and build the overlay to quiescence.

        The population draw consumes ``split(seed, "join")`` exactly as
        :meth:`BatchConstructionEngine.grow` growing a fresh overlay
        does (caps first, then positions with in-batch collision
        rejection) — in lockstep mode the same generator then feeds the
        coordinator, completing the engine's stream layout.

        ``kill_mid_join`` crashes those peer ids right after the
        directory broadcast, i.e. *while everyone is still joining*:
        negotiations with the victims run into probe silence and are
        resolved by the (detector-armed) reply timers, so the build
        still quiesces. Requires ``NetConfig.detector`` — without
        timers a request to a dead candidate would hang forever.
        """
        if n < 2:
            raise SimulationError("a network needs at least 2 peers")
        kill_mid_join = tuple(int(i) for i in kill_mid_join)
        if kill_mid_join:
            if self.config.detector is None:
                raise ConfigError(
                    "kill_mid_join needs NetConfig.detector set: dead-peer "
                    "negotiations only resolve via the reply timers"
                )
            bad = [i for i in kill_mid_join if not 0 <= i < n]
            if bad:
                raise ConfigError(f"kill_mid_join ids out of range [0, {n}): {bad}")
            if len(set(kill_mid_join)) >= n - 1:
                raise ConfigError("kill_mid_join must leave at least 2 peers alive")
        rng = split(self.config.seed, "join")
        caps_in, caps_out = assign_caps(degrees, rng, n)
        positions = draw_positions(rng, keys, n, occupied=np.empty(0))
        self.stats = self._runner.run(
            self._build_async(n, positions, caps_in, caps_out, rng, kill_mid_join)
        )
        return self.stats

    def rewire(self) -> LinkAcquisitionStats:
        """One global rewiring epoch over the booted network.

        Lockstep mode consumes a fresh ``split(seed, "rewire")`` stream
        in the engine's :meth:`~BatchConstructionEngine.rewire` layout;
        free mode bumps the epoch label of every peer's own stream.
        """
        if self.directory is None:
            raise SimulationError("build() the network before rewiring it")
        self._epoch += 1
        self.stats = self._runner.run(self._rewire_async())
        return self.stats

    def route_check(
        self,
        n_probes: int,
        budget: int | None = None,
        timeout_s: float | None = None,
    ) -> tuple[float, float]:
        """Probe ``n_probes`` random keys from random peers via real
        ``RouteProbe`` hops; returns ``(success rate, mean hops)``.

        A probe only counts as delivered when it terminates ``ok`` at
        exactly the peer :meth:`Directory.successor_of_key` names —
        judged against the harness's *current* directory, so after an
        eviction the responsibility of the dead peer's arc has moved to
        its successor. ``timeout_s`` bounds each probe's round trip
        (defaulting to 2 s whenever a detector is configured — a probe
        that lands on a dead-but-undetected peer is silently dropped and
        must not hang the check); timed-out probes count attempted but
        undelivered.
        """
        if self.directory is None:
            raise SimulationError("build() the network before routing on it")
        if timeout_s is None and self.config.detector is not None:
            timeout_s = 2.0
        return self._runner.run(self._route_async(n_probes, budget, timeout_s))

    def out_links(self) -> dict[int, list[int]]:
        """``node id -> out-link ids`` in placement order."""
        return {node.node_id: list(node.out_links) for node in self.nodes}

    def in_degrees(self) -> dict[int, int]:
        """``node id -> live in-degree``."""
        return {node.node_id: node.in_degree for node in self.nodes}

    def summary(self) -> TopologySummary:
        """Snapshot the run (topology + probe + transport counters).

        Topology counters cover the *live* population (killed and
        evicted peers' links no longer exist); without kills that is
        every peer, exactly as before the membership redesign.
        """
        attempted, delivered, hops = self._routes
        transport = self._transport
        live = self._live_nodes()
        return TopologySummary(
            n=len(live),
            links=sum(len(node.out_links) for node in live),
            gave_up=self.stats.slots_given_up,
            cap_violations=sum(1 for node in live if node.in_degree > node.cap_in),
            routes_attempted=attempted,
            routes_delivered=delivered,
            mean_hops=hops / delivered if delivered else 0.0,
            messages=transport.messages_delivered if transport else 0,
            generations=transport.generations if transport else 0,
            directory_mismatches=self.membership_agreement(),
        )

    @property
    def probes_dropped(self) -> int:
        """Pings the lossy probe plane has eaten so far (0 without a
        detector or at its ``loss == 0``)."""
        transport = self._transport
        return transport.probes_dropped if transport is not None else 0

    def close(self) -> None:
        """Tear down tasks, transports and the private event loop."""
        if self._closed:
            return
        self._closed = True
        try:
            self._runner.run(self._close_async())
        finally:
            self._runner.close()

    # -- async internals -----------------------------------------------

    async def _build_async(
        self,
        n: int,
        positions: np.ndarray,
        caps_in: np.ndarray,
        caps_out: np.ndarray,
        rng: np.random.Generator,
        kill_mid_join: tuple[int, ...] = (),
    ) -> LinkAcquisitionStats:
        """Boot the seed and ``n`` peers, deal membership, build.

        Peer ``i`` is id ``i`` on either transport. Memory peers share
        the harness's one :class:`Directory` object (the 10k-peer scale
        regime); TCP peers rebuild it from the broadcast, whose
        ``addrs`` carry the listening addresses their ``Hello`` messages
        announced.
        """
        config = self.config
        self.directory = Directory(range(n), positions)
        shared: Directory | None = None
        if config.transport == "tcp":
            self._seed_ep = TcpEndpoint(SEED_ID)
            await self._seed_ep.start()
            endpoints: list[Any] = [TcpEndpoint(i) for i in range(n)]
        else:
            loss = config.detector.loss if config.detector is not None else 0.0
            self._transport = MemoryTransport(config.delivery, config.seed, loss)
            self._seed_ep = self._transport.endpoint(SEED_ID)
            self._transport.start()
            endpoints = [self._transport.endpoint(i) for i in range(n)]
            shared = self.directory
        loop = asyncio.get_running_loop()
        for i, endpoint in enumerate(endpoints):
            endpoint.learn_addresses([(SEED_ID, *self._seed_ep.address)])
            node = NetNode(
                endpoint, positions[i], int(caps_in[i]), int(caps_out[i]), config, shared
            )
            self.nodes.append(node)
            self._tasks.append(loop.create_task(node.run()))
        hellos = await self._collect(n, Hello)
        addrs = [[src, hello.host, hello.port] for src, hello in hellos if hello.port]
        self._seed_ep.learn_addresses(addrs)
        pairs = self.directory.to_pairs()
        for node in self.nodes:
            self._seed_ep.send(node.node_id, DirectoryUpdate(peers=pairs, addrs=addrs))
        if config.delivery == "lockstep":
            return await self._coordinate(rng, list(range(n)))
        # Buffered after the directory broadcast: every peer starts
        # joining, then the victims die in the following generation.
        for victim in kill_mid_join:
            self._killed.add(victim)
            self._seed_ep.send(victim, Kill())
        await self._collect_join(self._live_nodes())
        return self._aggregate()

    async def _rewire_async(self) -> LinkAcquisitionStats:
        assert self.directory is not None
        live = self._live_nodes()
        for node in live:
            self._seed_ep.send(node.node_id, Rewire(epoch=self._epoch))
        if self.config.delivery == "lockstep":
            rng = split(self.config.seed, "rewire")
            return await self._coordinate(rng, list(range(self.directory.m)))
        await self._collect_join(live)
        return self._aggregate()

    async def _route_async(
        self, n_probes: int, budget: int | None, timeout_s: float | None
    ) -> tuple[float, float]:
        directory = self.directory
        assert directory is not None
        m = directory.m
        if budget is None:
            budget = 4 * max(1, math.ceil(math.log2(max(2, m)))) + 8
        rng = split(self.config.seed, "net", "routes", self._probe_id)
        attempted, delivered, hops_total = self._routes
        for __ in range(int(n_probes)):
            probe_id = self._probe_id
            self._probe_id += 1
            target = float(rng.random())
            start = directory.id_at(int(rng.integers(0, m)))
            expected = directory.successor_of_key(target)
            self._seed_ep.send(
                start,
                RouteProbe(
                    probe_id=probe_id, target=target, origin=SEED_ID, hops=0, budget=budget
                ),
            )
            message: Message | None = None
            while True:
                try:
                    __, message = await self._recv_seed(timeout_s)
                except asyncio.TimeoutError:
                    # The probe reached a dead-but-not-yet-evicted peer
                    # and was silently dropped: attempted, undelivered.
                    message = None
                    break
                if isinstance(message, RouteDone) and message.probe_id == probe_id:
                    break
            attempted += 1
            if message is not None and message.ok and message.delivered == expected:
                delivered += 1
                hops_total += message.hops
        self._routes = (attempted, delivered, hops_total)
        success = delivered / attempted if attempted else 1.0
        return success, (hops_total / delivered if delivered else 0.0)

    async def _close_async(self) -> None:
        for task in self._tasks:
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()
        if self._transport is not None:
            self._transport.stop()
        if self._seed_ep is not None:
            await self._seed_ep.close()
        for node in self.nodes:
            await node.endpoint.close()

    # -- the lockstep coordinator (engine-exact draw layout) -----------

    async def _coordinate(
        self, rng: np.random.Generator, rows: list[int]
    ) -> LinkAcquisitionStats:
        """Deal RNG tickets in :class:`BatchConstructionEngine`'s layout.

        ``rows`` are the requesting directory rows in ascending order —
        the same index space as the engine's ``LiveView`` rows, so every
        uniform lands on the peer the engine would have spent it on. The
        coordinator is a pure dealer: each level and each round it draws
        one row per peer still reporting itself active, in row order;
        every decision and counter lives in the peers' dealt
        :class:`~repro.protocol.join.JoinProtocol` machines.
        """
        config = self.config.overlay
        directory = self.directory
        assert directory is not None
        ids = [directory.id_at(r) for r in rows]

        # Estimation: one (active, sample_size) matrix per level.
        active = ids
        for level in range(config.partitions_for(max(1, directory.m)) - 1):
            if not active:
                break
            u = rng.random((len(active), config.sample_size))
            for node_id, u_row in zip(active, u):
                self._seed_ep.send(
                    node_id, EstimateLevel(level=level, u_row=[float(x) for x in u_row])
                )
            active = await self._still_active(active, EstimateReport)

        # One priority shuffle over the requesting rows.
        order = np.asarray(rows, dtype=np.int64)
        rng.shuffle(order)
        priority_of = {int(row): rank for rank, row in enumerate(order)}
        for row, node_id in zip(rows, ids):
            self._seed_ep.send(node_id, BeginAcquire(priority=priority_of[row]))

        # Acquisition rounds: one partition + candidate draw per active
        # peer; every peer with out-capacity starts active.
        n_cand = 2 if config.power_of_two else 1
        active = [node_id for node_id in ids if self.nodes[node_id].cap_out > 0]
        round_no = 0
        while active:
            u_part = rng.random(len(active))
            u_cand = rng.random((len(active), n_cand))
            for j, node_id in enumerate(active):
                self._seed_ep.send(
                    node_id,
                    AcquireTicket(
                        round_no=round_no,
                        u_part=float(u_part[j]),
                        u_cand=[float(x) for x in u_cand[j]],
                    ),
                )
            active = await self._still_active(active, AcquireReport)
            round_no += 1
        return self._aggregate()

    async def _still_active(self, dealt: list[int], kind: type[Message]) -> list[int]:
        """One ``kind`` report per dealt peer; the ones that go on, in
        dealt order."""
        reports = dict(await self._collect(len(dealt), kind))
        return [node_id for node_id in dealt if reports[node_id].cont]

    # -- membership authority (detector mode) --------------------------

    def kill(self, node_ids: tuple[int, ...] | list[int]) -> None:
        """Crash peers silently: they detach from the transport and
        stop serving — no goodbye, no error; the rest of the network
        only learns of the deaths through probe timeouts. Requires a
        built network with ``NetConfig.detector`` set — without reply
        timers, anything sent to a victim would be awaited forever."""
        if self.config.detector is None:
            raise ConfigError(
                "kill() needs NetConfig.detector set: a dead peer's silence "
                "only resolves via the reply timers"
            )
        if self.directory is None:
            raise SimulationError("build() the network before killing peers")
        ids = [int(i) for i in node_ids]
        known = {node.node_id for node in self.nodes}
        bad = [i for i in ids if i not in known]
        if bad:
            raise SimulationError(f"cannot kill unknown peers {bad}")
        self._runner.run(self._kill_async(ids))

    async def _kill_async(self, ids: list[int]) -> None:
        by_id = {node.node_id: task for node, task in zip(self.nodes, self._tasks)}
        tasks = []
        for node_id in ids:
            if node_id in self._killed:
                continue
            self._killed.add(node_id)
            self._seed_ep.send(node_id, Kill())
            tasks.append(by_id[node_id])
        if not tasks:
            return
        __, pending = await asyncio.wait(tasks, timeout=10.0)
        if pending:
            raise SimulationError(f"{len(pending)} victims did not stop within 10s")

    def start_detector(self) -> None:
        """Arm every live peer's probe schedule (broadcast
        ``StartDetector``). From here on the network is never quiescent
        — probes fly forever — and the seed acts as the membership
        authority, tallying ``Suspect`` reports into quorum evictions."""
        if self.directory is None:
            raise SimulationError("build() the network before starting detectors")
        if self.config.detector is None:
            raise ConfigError("start_detector() requires NetConfig.detector to be set")
        self._detector_on = True
        self._runner.run(self._start_detector_async())

    async def _start_detector_async(self) -> None:
        for node in self._live_nodes():
            self._seed_ep.send(node.node_id, StartDetector())
        await asyncio.sleep(0)

    def await_evictions(self, node_ids: tuple[int, ...] | list[int], timeout_s: float = 30.0) -> list[int]:
        """Block until every id in ``node_ids`` has been quorum-evicted
        (raising :class:`SimulationError` at ``timeout_s``), then let
        the ``Dead`` broadcasts settle so live peers converge. Returns
        the evicted ids sorted."""
        if not self._detector_on:
            raise SimulationError("start_detector() before awaiting evictions")
        want = {int(i) for i in node_ids}
        return self._runner.run(self._await_evictions_async(want, float(timeout_s)))

    async def _await_evictions_async(self, want: set[int], timeout_s: float) -> list[int]:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout_s
        while not want <= self._evicted:
            remaining = deadline - loop.time()
            if remaining <= 0.0:
                missing = sorted(want - self._evicted)
                raise SimulationError(
                    f"evictions timed out after {timeout_s}s; still live: {missing}"
                )
            try:
                await self._recv_seed(remaining)  # Suspects tallied inside
            except asyncio.TimeoutError:
                continue
        # Settle: drain stray suspects while the pump delivers the Dead
        # broadcasts, so membership_agreement() sees the converged view.
        settle_until = loop.time() + 0.25
        while loop.time() < settle_until:
            try:
                await self._recv_seed(max(0.01, settle_until - loop.time()))
            except asyncio.TimeoutError:
                break
        return sorted(want)

    def membership_agreement(self) -> int:
        """How many live peers' directories disagree with the seed's.

        The invariant the free-mode gate checks: after evictions settle
        (``await_evictions``), every live peer must have rebuilt its
        private directory to exactly the authority's member set — 0
        mismatches. During the detection lag the count is positive,
        which is the bounded staleness the detector grid measures.
        """
        if self.directory is None:
            raise SimulationError("build() the network before comparing directories")
        truth = {int(i) for i in self.directory.ids}
        return sum(
            1
            for node in self._live_nodes()
            if node.directory is None or {int(i) for i in node.directory.ids} != truth
        )

    def _live_nodes(self) -> list[NetNode]:
        """The peers neither killed nor evicted, in id order."""
        dead = self._killed | self._evicted
        return [node for node in self.nodes if node.node_id not in dead]

    def _on_suspect(self, src: int, message: Suspect) -> None:
        """Tally one monitor's report; evict at quorum."""
        target = int(message.target)
        if target in self._evicted or target == SEED_ID:
            return
        reporters = self._suspects.setdefault(target, set())
        reporters.add(int(src))
        quorum = self.config.detector.quorum if self.config.detector else 1
        if len(reporters) >= quorum:
            self._evict(target)

    def _evict(self, target: int) -> None:
        """Quorum reached: drop ``target`` and broadcast ``Dead``."""
        assert self.directory is not None
        self._evicted.add(target)
        self._suspects.pop(target, None)
        keep = [pair for pair in self.directory.to_pairs() if int(pair[0]) != target]
        self.directory = Directory.from_pairs(keep)
        for node in self._live_nodes():
            self._seed_ep.send(node.node_id, Dead(targets=[target]))

    # -- plumbing ------------------------------------------------------

    async def _recv_seed(self, timeout_s: float | None = None) -> tuple[int, Message]:
        """One seed-bound message, with ``Suspect`` tallied in passing.

        Every seed receive funnels through here so the membership
        authority keeps working no matter which wait is active —
        ``Suspect`` reports arriving during a route check or a rewire
        still count toward quorum instead of being dropped.
        """
        if timeout_s is None:
            src, message = await self._seed_ep.recv()
        else:
            src, message = await asyncio.wait_for(self._seed_ep.recv(), timeout_s)
        self._seed_ep.done()
        if isinstance(message, Suspect):
            self._on_suspect(src, message)
        return src, message

    async def _collect(
        self, count: int, kind: type[Message]
    ) -> list[tuple[int, Message]]:
        """Await ``count`` seed-bound messages of ``kind``."""
        out: list[tuple[int, Message]] = []
        while len(out) < count:
            src, message = await self._recv_seed()
            if isinstance(message, kind):
                out.append((src, message))
        return out

    async def _collect_join(self, expected: list[NetNode]) -> None:
        """Await one ``JoinDone`` from every peer in ``expected``.

        Dead peers never report, so membership (not a bare count) is
        what quiesces a build with mid-join kills; the generous guard
        converts a hung build into a diagnosable failure instead of a
        silent test timeout.
        """
        pending = {node.node_id for node in expected}
        while pending:
            try:
                src, message = await self._recv_seed(120.0)
            except asyncio.TimeoutError:
                raise SimulationError(
                    f"build did not quiesce: no JoinDone from {sorted(pending)}"
                ) from None
            if isinstance(message, JoinDone):
                pending.discard(int(src))

    def _aggregate(self) -> LinkAcquisitionStats:
        """Sum the per-peer join counters into engine-shaped stats."""
        stats = LinkAcquisitionStats()
        for node in self._live_nodes():
            if node.join is not None:
                stats.merge(node.join)
        return stats
