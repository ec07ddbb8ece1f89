"""Pluggable transports: deterministic in-memory queues and real TCP.

Every peer driver talks to an *endpoint* with one tiny surface —
``await recv()`` one message, ``send()`` any number of messages,
``done()`` when the triggering message is fully handled — so the same
:class:`~repro.net.node.NetNode` runs unchanged over both transports.

:class:`MemoryTransport` is a shared scheduler implementing seeded
deterministic delivery as *supersteps*: sends buffer centrally, and the
pump flushes a generation only when every handler has finished (the
``done()`` counter hits zero), delivering one message at a time and
waiting for it to be fully processed before the next. Three orderings:

* ``fifo`` — send order (the canonical deterministic schedule);
* ``random`` — each generation shuffled by a seeded generator
  (adversarial-but-reproducible delivery for invariant tests);
* ``lockstep`` — like fifo, except ``LinkCommit`` messages in a
  generation are delivered in ascending ``priority`` — exactly the
  sequential commit replay of the batched engine's acquisition round,
  which is what makes the lockstep oracle bit-exact.

The superstep barrier is also a protocol guarantee the harness leans
on: all messages *sent* in one generation are *processed* before any
message sent while handling them — e.g. every ``LinkReply`` of a round
precedes every ``LinkCommit``, giving replies snapshot semantics
without any explicit synchronization.

:class:`TcpEndpoint` is the real thing: one listening socket per peer,
lazily-dialed outgoing connections, frames via :mod:`~repro.net.codec`.
Delivery order is whatever the kernel provides — TCP runs free mode,
where equivalence is at the invariant level.
"""

from __future__ import annotations

import asyncio
from typing import Iterable

from ..protocol.messages import LinkCommit, Message, Ping, message_from_wire
from ..rng import split
from . import codec

__all__ = ["MemoryEndpoint", "MemoryTransport", "TcpEndpoint"]


class MemoryTransport:
    """Shared superstep scheduler for in-process peers.

    Args:
        mode: ``"fifo"``, ``"random"`` or ``"lockstep"`` (see module
            docstring).
        seed: Seeds the ``random`` mode's delivery shuffle and the
            probe-plane loss stream.
        loss: Probe-plane loss probability in ``[0, 1)`` (the
            detector's ``loss``): each ``Ping`` is independently dropped
            with this probability — one draw per probe round trip —
            from the dedicated ``split(seed, "net", "loss")`` stream.
            Every other frame is always delivered, and a zero ``loss``
            consumes no draws at all.
    """

    def __init__(self, mode: str = "fifo", seed: int = 0, loss: float = 0.0) -> None:
        if mode not in ("fifo", "random", "lockstep"):
            raise ValueError(f"unknown delivery mode {mode!r}")
        if not (0.0 <= loss < 1.0):
            raise ValueError(f"loss must be in [0, 1), got {loss}")
        self.mode = mode
        self.loss = float(loss)
        self._rng = split(seed, "net", "delivery")
        self._loss_rng = split(seed, "net", "loss") if loss > 0.0 else None
        self._queues: dict[int, asyncio.Queue] = {}
        self._buffer: list[tuple[int, int, Message]] = []
        self._outstanding = 0
        self._drained = asyncio.Event()
        self._drained.set()
        self._work = asyncio.Event()
        self._pump_task: asyncio.Task | None = None
        self.messages_delivered = 0
        self.probes_dropped = 0
        self.generations = 0

    # -- endpoint surface ---------------------------------------------

    def endpoint(self, node_id: int) -> "MemoryEndpoint":
        """Register ``node_id`` and return its endpoint."""
        if node_id in self._queues:
            raise ValueError(f"node {node_id} already registered")
        queue: asyncio.Queue = asyncio.Queue()
        self._queues[node_id] = queue
        return MemoryEndpoint(self, node_id, queue)

    def detach(self, node_id: int) -> None:
        """Deregister ``node_id``: later sends to it silently vanish.

        This is the crashed-peer failure model — from every other
        peer's perspective the victim just stops answering, which is
        exactly the signal the failure detectors must turn into an
        eviction. Idempotent.
        """
        self._queues.pop(node_id, None)

    def send(self, src: int, dst: int, message: Message) -> None:
        """Buffer one message for the next delivery generation."""
        self._buffer.append((src, dst, message))
        self._work.set()

    def done_one(self) -> None:
        """A handler finished processing one delivered message."""
        self._outstanding -= 1
        if self._outstanding == 0:
            self._drained.set()

    # -- the pump ------------------------------------------------------

    def start(self) -> None:
        """Start the delivery pump on the running loop."""
        if self._pump_task is None:
            self._pump_task = asyncio.get_running_loop().create_task(self._pump())

    def stop(self) -> None:
        """Cancel the pump (idempotent)."""
        if self._pump_task is not None:
            self._pump_task.cancel()
            self._pump_task = None

    def _order(self, batch: list[tuple[int, int, Message]]) -> Iterable[tuple[int, int, Message]]:
        if self.mode == "random":
            order = self._rng.permutation(len(batch))
            return [batch[int(i)] for i in order]
        if self.mode == "lockstep":
            # Non-commits first in send order, then commits by priority:
            # the engine round's sequential commit replay.
            def key(entry: tuple[int, tuple[int, int, Message]]) -> tuple[int, int, int]:
                i, (__, ___, msg) = entry
                if isinstance(msg, LinkCommit):
                    return (1, msg.priority, i)
                return (0, 0, i)

            return [e for __, e in sorted(enumerate(batch), key=lambda p: key(p))]
        return batch

    async def _pump(self) -> None:
        while True:
            await self._drained.wait()
            if not self._buffer:
                self._work.clear()
                if not self._buffer:
                    await self._work.wait()
                continue
            batch, self._buffer = self._buffer, []
            self.generations += 1
            for src, dst, message in self._order(batch):
                queue = self._queues.get(dst)
                if queue is None:
                    continue
                if (
                    self._loss_rng is not None
                    and isinstance(message, Ping)
                    and float(self._loss_rng.random()) < self.loss
                ):
                    self.probes_dropped += 1
                    continue
                self._outstanding += 1
                self._drained.clear()
                self.messages_delivered += 1
                queue.put_nowait((src, message))
                # One-at-a-time with ack: the next delivery waits until
                # this one is fully handled (its sends only buffer).
                await self._drained.wait()


class MemoryEndpoint:
    """One peer's handle on a :class:`MemoryTransport`."""

    __slots__ = ("_transport", "node_id", "_queue")

    def __init__(self, transport: MemoryTransport, node_id: int, queue: asyncio.Queue) -> None:
        self._transport = transport
        self.node_id = node_id
        self._queue = queue

    async def start(self) -> None:
        """Nothing to bring up — registration happened at creation."""

    async def close(self) -> None:
        """Nothing to tear down."""

    def detach(self) -> None:
        """Crash hook: deregister from the transport (see
        :meth:`MemoryTransport.detach`)."""
        self._transport.detach(self.node_id)

    @property
    def address(self) -> tuple[str, int]:
        """Placeholder address (the memory transport has no sockets)."""
        return ("", 0)

    def learn_addresses(self, addrs: Iterable[tuple[int, str, int]]) -> None:
        """No address book needed in process."""

    async def recv(self) -> tuple[int, Message]:
        """Next delivered ``(src, message)``."""
        return await self._queue.get()

    def send(self, dst: int, message: Message) -> None:
        """Buffer a message into the transport's next generation."""
        self._transport.send(self.node_id, dst, message)

    def done(self) -> None:
        """Acknowledge the current message as fully handled."""
        self._transport.done_one()


class TcpEndpoint:
    """One peer's localhost-TCP endpoint (listener + dialed connections).

    Args:
        node_id: This peer's id (stamped into outgoing envelopes).
        host: Interface to bind (localhost only — this transport exists
            for same-machine experiments, not the open internet).
    """

    def __init__(self, node_id: int, host: str = "127.0.0.1") -> None:
        self.node_id = int(node_id)
        self._host = host
        self._server: asyncio.base_events.Server | None = None
        self._inbox: asyncio.Queue = asyncio.Queue()
        self._writers: dict[int, asyncio.StreamWriter] = {}
        self._addrs: dict[int, tuple[str, int]] = {}
        self._reader_tasks: set[asyncio.Task] = set()

    async def start(self) -> None:
        """Bind the listening socket (port 0 = ephemeral)."""
        self._server = await asyncio.start_server(self._on_connection, self._host, 0)

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` of the listener."""
        assert self._server is not None, "endpoint not started"
        sock = self._server.sockets[0]
        return (self._host, int(sock.getsockname()[1]))

    def learn_addresses(self, addrs: Iterable[tuple[int, str, int]]) -> None:
        """Extend the address book (from ``Hello`` / ``DirectoryUpdate``)."""
        for node_id, host, port in addrs:
            if int(port):
                self._addrs[int(node_id)] = (str(host), int(port))

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                payload = await codec.read_frame(reader)
                if payload is None:
                    break
                self._inbox.put_nowait(
                    (int(payload["src"]), message_from_wire(payload["msg"]))
                )
        except asyncio.CancelledError:
            # Shutdown path: finish cleanly so the streams machinery
            # doesn't log a cancelled handler at loop close.
            pass
        finally:
            writer.close()

    async def recv(self) -> tuple[int, Message]:
        """Next received ``(src, message)``."""
        return await self._inbox.get()

    def send(self, dst: int, message: Message) -> None:
        """Frame and write to ``dst`` (dialing on first use).

        Sends are fire-and-forget: the write is scheduled on the loop
        so handlers stay synchronous, mirroring the memory endpoint.
        """
        task = asyncio.get_running_loop().create_task(self._send(int(dst), message))
        self._reader_tasks.add(task)
        task.add_done_callback(self._reader_tasks.discard)

    async def _send(self, dst: int, message: Message) -> None:
        writer = self._writers.get(dst)
        if writer is None:
            addr = self._addrs.get(dst)
            if addr is None:
                raise ConnectionError(f"no known address for node {dst}")
            __, writer = await asyncio.open_connection(addr[0], addr[1])
            self._writers[dst] = writer
        writer.write(codec.encode({"src": self.node_id, "msg": message.to_wire()}))
        await writer.drain()

    def done(self) -> None:
        """No superstep accounting over TCP."""

    async def close(self) -> None:
        """Close the listener and every dialed connection."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in self._writers.values():
            writer.close()
        self._writers.clear()
        for task in list(self._reader_tasks):
            task.cancel()
