"""The net runtime's configuration surface, validated once.

:class:`NetConfig` is the one argument of
:class:`~repro.net.harness.NetHarness` and of every
:class:`~repro.net.node.NetNode`: a frozen dataclass validated eagerly
at construction with :class:`~repro.errors.ConfigError` — the same
fail-at-the-boundary convention as :class:`~repro.config.OscarConfig`
and :class:`~repro.membership.config.DetectorConfig` — so every knob
combination is vetted by one ``__post_init__``.

The interesting cross-field rules, and why:

* **delivery="lockstep"** is the bit-exact oracle mode: the coordinator
  deals the engine's draws and the memory transport replays commits in
  priority order — one decision. It needs the memory transport's
  superstep barrier and ``UNIFORM`` sampling (the engine's
  idealization), and it keeps protocol timers inert, so a failure
  detector (real timers, real probe timeouts) is contradictory in it.
* **detector** mode runs only over the memory transport: the TCP
  endpoint has no detach-on-death hook, so a "killed" TCP peer would
  reset connections instead of silently dropping probes — the wrong
  failure model. Probe-plane loss is the detector's own ``loss``, so
  loss without a detector cannot be written.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import OscarConfig, SamplingMode
from ..errors import ConfigError
from ..membership import DetectorConfig

__all__ = ["NetConfig"]

_TRANSPORTS = ("memory", "tcp")
_DELIVERIES = ("fifo", "random", "lockstep")


@dataclass(frozen=True)
class NetConfig:
    """Everything a :class:`~repro.net.harness.NetHarness` run needs.

    Attributes:
        overlay: Overlay construction parameters shared by every peer.
        seed: Root seed — population draws, free-mode peer streams, the
            ``random`` delivery shuffle, probe-plane loss and route
            probes all derive from it by label.
        delivery: The memory transport's delivery order: ``"fifo"``,
            ``"random"`` (seeded adversarial shuffles) or
            ``"lockstep"`` — the coordinator-dealt oracle mode.
        transport: ``"memory"`` or ``"tcp"``.
        detector: Per-peer failure-detector knobs; ``None`` (the
            default) keeps the oracle behavior — protocol timers stay
            inert and liveness is never probed. Setting it arms real
            loop timers on every peer: probe schedules fire, reply
            timeouts count dead candidates as refusals, and the harness
            gains ``kill()`` / ``start_detector()`` /
            ``await_evictions()``. Its ``loss`` drops each ``Ping`` with
            that probability — one draw per round trip, as
            :class:`~repro.membership.probe.ProbeView` reads it.
    """

    overlay: OscarConfig = field(default_factory=OscarConfig)
    seed: int = 0
    delivery: str = "fifo"
    transport: str = "memory"
    detector: DetectorConfig | None = None

    def __post_init__(self) -> None:
        if self.transport not in _TRANSPORTS:
            raise ConfigError(
                f"transport must be one of {_TRANSPORTS}, got {self.transport!r}"
            )
        if self.delivery not in _DELIVERIES:
            raise ConfigError(
                f"delivery must be one of {_DELIVERIES}, got {self.delivery!r}"
            )
        if self.delivery == "lockstep":
            if self.transport != "memory":
                raise ConfigError("lockstep oracle mode requires the memory transport")
            if self.overlay.sampling_mode is not SamplingMode.UNIFORM:
                raise ConfigError("lockstep oracle mode requires UNIFORM sampling")
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
