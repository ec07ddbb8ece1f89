"""Exception hierarchy for the Oscar reproduction library.

All exceptions raised by :mod:`repro` derive from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the precise failure mode.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigError",
    "EmptyPopulationError",
    "UnknownNodeError",
    "DuplicateNodeError",
    "DeadNodeError",
    "RingInvariantError",
    "RoutingError",
    "SamplingError",
    "InsufficientSamplesError",
    "PartitionError",
    "DistributionError",
    "SimulationError",
    "ExperimentError",
]


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class ConfigError(ReproError, ValueError):
    """A configuration value is missing, inconsistent or out of range."""


class EmptyPopulationError(ReproError, ValueError):
    """An operation required at least one (live) peer but none exist."""


class UnknownNodeError(ReproError, KeyError):
    """A node id was referenced that is not part of the overlay."""

    def __init__(self, node_id: int) -> None:
        super().__init__(node_id)
        self.node_id = node_id

    def __str__(self) -> str:  # KeyError quotes its argument; be clearer.
        return f"unknown node id: {self.node_id}"


class DuplicateNodeError(ReproError, ValueError):
    """A node id or ring position was inserted twice."""


class DeadNodeError(ReproError, RuntimeError):
    """An operation was attempted on (or from) a crashed peer."""

    def __init__(self, node_id: int, operation: str = "operation") -> None:
        super().__init__(f"{operation} attempted on dead node {node_id}")
        self.node_id = node_id
        self.operation = operation


class RingInvariantError(ReproError, RuntimeError):
    """The ring's successor/predecessor structure is inconsistent."""


class RoutingError(ReproError, RuntimeError):
    """Greedy routing could not make progress or deliver a message."""


class SamplingError(ReproError, RuntimeError):
    """A sampling procedure (random walk, median estimation) failed."""


class InsufficientSamplesError(SamplingError):
    """Fewer samples were gathered than the estimator requires."""

    def __init__(self, needed: int, got: int) -> None:
        super().__init__(f"estimator needs >= {needed} samples, got {got}")
        self.needed = needed
        self.got = got


class PartitionError(ReproError, RuntimeError):
    """Logarithmic partitioning produced an invalid partition table."""


class DistributionError(ReproError, ValueError):
    """A key or degree distribution was constructed with invalid parameters."""


class SimulationError(ReproError, RuntimeError):
    """A running simulation or network harness was driven into an unusable state."""


class ExperimentError(ReproError, RuntimeError):
    """An experiment harness was invoked with an unusable configuration."""
