"""Timing models: per-peer service rates and per-hop propagation.

Kept deliberately simple — single-server FIFO queue per peer, constant
mean propagation — because the *relative* comparison (bandwidth-aware
vs bandwidth-oblivious load placement) is what the EXT-L experiment
needs, not absolute milliseconds.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..rng import split
from ..types import NodeId

__all__ = ["BandwidthModel", "LatencyModel"]


class BandwidthModel:
    """Per-peer message service rates.

    A peer's bandwidth is expressed as a *rate* (messages per simulated
    second). Forwarding one message through a peer occupies its single
    server for ``1 / rate`` seconds, so slow peers queue under load.

    Args:
        rates: Mapping of node id to service rate (> 0).
    """

    def __init__(self, rates: dict[NodeId, float]) -> None:
        if not rates:
            raise ConfigError("BandwidthModel needs at least one peer rate")
        for node, rate in rates.items():
            if not rate > 0:
                raise ConfigError(f"service rate of node {node} must be > 0, got {rate}")
        self._rates = dict(rates)

    @classmethod
    def proportional_to_caps(
        cls, caps: dict[NodeId, int], rate_per_link: float = 1.0
    ) -> "BandwidthModel":
        """Bandwidth matched to declared degree caps (the Oscar story:
        peers *derived* their caps from their bandwidth, so a peer with
        twice the cap really is twice as fast)."""
        if not rate_per_link > 0:
            raise ConfigError(f"rate_per_link must be > 0, got {rate_per_link}")
        return cls({node: cap * rate_per_link for node, cap in caps.items()})

    @classmethod
    def uniform(cls, nodes: "list[NodeId]", rate: float) -> "BandwidthModel":
        """Every peer serves at the same rate (homogeneity assumption)."""
        return cls({node: rate for node in nodes})

    def rate(self, node: NodeId) -> float:
        """Service rate of ``node``; raises KeyError for unknown peers."""
        return self._rates[node]

    def service_time(self, node: NodeId) -> float:
        """Time ``node``'s server is busy per forwarded message."""
        return 1.0 / self._rates[node]

    def total_rate(self) -> float:
        """Aggregate service capacity of the system."""
        return float(sum(self._rates.values()))

    def __len__(self) -> int:
        return len(self._rates)


class LatencyModel:
    """Seeded propagation delays per directed link.

    Each ``(u, v)`` link gets an exponential delay with the configured
    mean, fixed at first use (links are stable network paths, so the
    same link always shows the same latency).
    """

    def __init__(self, mean_delay: float = 0.02, seed: int = 42) -> None:
        if not mean_delay >= 0:
            raise ConfigError(f"mean_delay must be >= 0, got {mean_delay}")
        self.mean_delay = mean_delay
        self._rng = split(seed, "simnet-latency")
        self._delay: dict[tuple[NodeId, NodeId], float] = {}

    def delay(self, src: NodeId, dst: NodeId) -> float:
        """Propagation delay of the directed link ``src -> dst``."""
        if self.mean_delay == 0.0:
            return 0.0
        key = (src, dst)
        found = self._delay.get(key)
        if found is None:
            found = float(self._rng.exponential(self.mean_delay))
            self._delay[key] = found
        return found

    def path_delay(self, path: "list[NodeId] | tuple[NodeId, ...]") -> float:
        """Total propagation along a node path (no queueing)."""
        return float(
            np.sum([self.delay(a, b) for a, b in zip(path, path[1:])])
            if len(path) > 1
            else 0.0
        )
