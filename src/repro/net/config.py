"""The net runtime's configuration surface, validated once.

:class:`NetConfig` is the one argument of
:class:`~repro.net.harness.NetHarness`: a frozen dataclass validated
eagerly at construction with :class:`~repro.errors.ConfigError` — the
same fail-at-the-boundary convention as
:class:`~repro.config.OscarConfig` and
:class:`~repro.membership.config.DetectorConfig` — so every knob
combination is vetted by one ``__post_init__``.

The interesting cross-field rules, and why:

* **lockstep** is the bit-exact oracle mode: it needs the memory
  transport's superstep barrier, ``UNIFORM`` sampling (the engine's
  idealization) and the ``lockstep`` delivery order — and it keeps
  protocol timers inert, so a failure detector (real timers, real
  probe timeouts) is contradictory in it.
* **detector** mode runs only over the memory transport: the TCP
  endpoint has no detach-on-death hook, so a "killed" TCP peer would
  reset connections instead of silently dropping probes — the wrong
  failure model.
* **loss** applies to the probe plane only (``Ping``/``Pong`` frames),
  so it is meaningless without a detector and unsupported over TCP.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import OscarConfig, SamplingMode
from ..errors import ConfigError
from ..membership import DetectorConfig

__all__ = ["NetConfig"]

_TRANSPORTS = ("memory", "tcp")
_DELIVERIES = (None, "fifo", "random", "lockstep")


@dataclass(frozen=True)
class NetConfig:
    """Everything a :class:`~repro.net.harness.NetHarness` run needs.

    Attributes:
        overlay: Overlay construction parameters shared by every peer.
        seed: Root seed — population draws, free-mode peer streams, the
            ``random`` delivery shuffle, probe-plane loss and route
            probes all derive from it by label.
        lockstep: Coordinator-dealt oracle mode (memory transport,
            ``UNIFORM`` sampling, no detector).
        delivery: Memory-transport delivery order override; ``None``
            resolves to ``"lockstep"`` when ``lockstep`` else ``"fifo"``
            (see :attr:`resolved_delivery`).
        transport: ``"memory"`` or ``"tcp"``.
        detector: Per-peer failure-detector knobs; ``None`` (the
            default) keeps today's oracle behavior — protocol timers
            stay inert and liveness is never probed. Setting it arms
            real loop timers on every peer: probe schedules fire,
            reply timeouts count dead candidates as refusals, and the
            harness gains ``kill()`` / ``start_detector()`` /
            ``await_evictions()``.
        loss: Probe-plane loss probability in ``[0, 1)`` — each
            ``Ping``/``Pong`` frame is independently dropped with this
            probability by the memory transport (seeded stream,
            ``split(seed, "net", "loss")``). Construction and routing
            traffic is never dropped.
    """

    overlay: OscarConfig = field(default_factory=OscarConfig)
    seed: int = 0
    lockstep: bool = False
    delivery: str | None = None
    transport: str = "memory"
    detector: DetectorConfig | None = None
    loss: float = 0.0

    def __post_init__(self) -> None:
        if self.transport not in _TRANSPORTS:
            raise ConfigError(
                f"transport must be one of {_TRANSPORTS}, got {self.transport!r}"
            )
        if self.delivery not in _DELIVERIES:
            raise ConfigError(
                f"delivery must be one of {_DELIVERIES}, got {self.delivery!r}"
            )
        if not (0.0 <= self.loss < 1.0):
            raise ConfigError(f"loss must be in [0, 1), got {self.loss}")
        if self.lockstep:
            if self.transport != "memory":
                raise ConfigError("lockstep oracle mode requires the memory transport")
            if self.overlay.sampling_mode is not SamplingMode.UNIFORM:
                raise ConfigError("lockstep oracle mode requires UNIFORM sampling")
            if self.delivery not in (None, "lockstep"):
                raise ConfigError(
                    "lockstep oracle mode fixes the delivery order; "
                    f"got delivery={self.delivery!r}"
                )
            if self.detector is not None:
                raise ConfigError(
                    "lockstep oracle mode keeps timers inert and liveness "
                    "oracular; it cannot run a failure detector"
                )
        if self.detector is not None and self.transport != "memory":
            raise ConfigError(
                "the failure detector requires the memory transport "
                "(TCP peers cannot silently die)"
            )
        if self.loss > 0.0 and self.detector is None:
            raise ConfigError(
                "loss drops probe-plane frames only; it needs detector set"
            )

    @property
    def resolved_delivery(self) -> str:
        """The delivery order actually used by the memory transport."""
        return self.delivery or ("lockstep" if self.lockstep else "fifo")
