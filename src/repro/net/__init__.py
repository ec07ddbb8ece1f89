"""Asyncio message-passing runtime for the sans-I/O protocol core.

Where the engines (:mod:`repro.engine`) execute Oscar's construction as
omniscient in-process rounds, this package runs it as an actual
distributed system: one asyncio task per peer, each driving the same
:mod:`repro.protocol` state machines over a pluggable transport —

* :mod:`~repro.net.config` — :class:`~repro.net.config.NetConfig`, the
  frozen, eagerly-validated configuration surface (overlay, seed,
  delivery — ``"lockstep"`` is the oracle mode — transport and the
  failure-detector knobs, probe-plane loss included);
* :mod:`~repro.net.codec` — length-prefixed JSON frames;
* :mod:`~repro.net.transport` — the in-memory queue transport with
  seeded deterministic delivery order (``fifo`` / ``random`` /
  ``lockstep`` supersteps) and a real localhost-TCP transport;
* :mod:`~repro.net.node` — the per-peer driver: answers link requests,
  advances walks, routes probes, and runs the one join machine,
  :class:`~repro.protocol.join.JoinProtocol`, on its own stream (free
  mode) or on coordinator-dealt RNG tickets (lockstep mode);
* :mod:`~repro.net.harness` — :class:`~repro.net.harness.NetHarness`:
  boots a seed plus N peers through one sequence on either transport
  (``Hello`` in, one ``DirectoryUpdate`` out), runs join/rewire to
  quiescence, extracts
  the final topology, and validates it against the deterministic
  engines (the oracle-equivalence contract of ``docs/net.md``). With
  :attr:`NetConfig.detector` set it also runs the probe-derived
  membership pipeline: ``kill()`` crashes peers silently and the
  per-peer failure detectors turn probe timeouts into ``Suspect``
  reports, quorum evictions and ``Dead`` broadcasts (see
  ``docs/membership.md``).

Determinism: the runtime never reads wall clocks or OS entropy — every
draw comes from :func:`repro.rng.split` streams and the in-memory
delivery order is itself seeded, so ``net-smoke`` runs are exactly
reproducible. (``repro/net/`` is exempt from the CLK001 wallclock lint
rule only for the *TCP* event loop's internals — see
``docs/determinism.md``.)
"""

from .config import NetConfig
from .harness import NetHarness, TopologySummary
from .node import SEED_ID, NetNode
from .transport import MemoryTransport, TcpEndpoint

__all__ = [
    "MemoryTransport",
    "NetConfig",
    "NetHarness",
    "NetNode",
    "SEED_ID",
    "TcpEndpoint",
    "TopologySummary",
]
