"""Frozen configuration dataclasses for overlays, routing and experiments.

Configurations are plain, immutable value objects: they carry only scalars
and enums (never live objects), validate themselves eagerly in
``__post_init__`` and can therefore be hashed, compared, logged and swept
over by the experiment harness. Distribution objects (key and degree
samplers) are passed separately wherever a config is consumed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from .errors import ConfigError

__all__ = [
    "DEFAULT_SIZE_FLOOR",
    "SamplingMode",
    "OscarConfig",
    "MercuryConfig",
    "RoutingConfig",
]

#: The floor of ``repro.experiments.base.scaled_sizes``, the one rule for
#: scaled network sizes: a scaled measurement size never drops below this
#: many peers. 64 peers keeps even heavily miniaturized runs statistically
#: meaningful, while staying small enough for sub-second CI smoke runs.
DEFAULT_SIZE_FLOOR = 64


class SamplingMode(enum.Enum):
    """Fidelity of the subpopulation sampling used for median estimation.

    ORACLE
        Exact medians computed over the true subpopulation. No sampling
        noise; used for invariant tests and as an upper-bound ablation.
    UNIFORM
        ``sample_size`` i.i.d. uniform draws from the restricted
        subpopulation — the stationary outcome of a well-mixed
        Metropolis-Hastings random walk. The default for experiments.
    WALK
        An explicit random walk over overlay links that refuses to step
        outside the subpopulation's key range (the paper's Mercury-style
        restricted walker), collecting every ``walk_hops``-th node.
    """

    ORACLE = "oracle"
    UNIFORM = "uniform"
    WALK = "walk"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class OscarConfig:
    """Parameters of the Oscar overlay construction (paper §2).

    Attributes:
        n_partitions: Number of logarithmic partitions each node maintains.
            ``0`` means "auto": ``ceil(log2(N))`` at (re)wiring time, the
            paper's ``log_a N`` with ``a = 2``.
        sample_size: Samples drawn per median estimate. The paper reports
            that "very low sample sizes" suffice; 16 is our default.
        sampling_mode: See :class:`SamplingMode`.
        walk_hops: Steps between collected samples in ``WALK`` mode (mixing
            time knob).
        power_of_two: Draw two candidate neighbors per long link and keep
            the one with the lower current in-degree ("power of two random
            choices", paper §3). Disabling this is the ABL-P2 ablation.
        link_retries: How many times a peer redraws (partition, candidate)
            after all candidates of a draw refused before giving up on that
            out-link slot.
    """

    n_partitions: int = 0
    sample_size: int = 16
    sampling_mode: SamplingMode = SamplingMode.UNIFORM
    walk_hops: int = 8
    power_of_two: bool = True
    link_retries: int = 8

    def __post_init__(self) -> None:
        _require(self.n_partitions >= 0, f"n_partitions must be >= 0, got {self.n_partitions}")
        _require(self.sample_size >= 1, f"sample_size must be >= 1, got {self.sample_size}")
        _require(isinstance(self.sampling_mode, SamplingMode), "sampling_mode must be a SamplingMode")
        _require(self.walk_hops >= 1, f"walk_hops must be >= 1, got {self.walk_hops}")
        _require(self.link_retries >= 0, f"link_retries must be >= 0, got {self.link_retries}")

    def partitions_for(self, population: int) -> int:
        """Resolve the partition count for a network of ``population`` peers."""
        _require(population >= 1, f"population must be >= 1, got {population}")
        if self.n_partitions:
            return self.n_partitions
        return max(1, math.ceil(math.log2(max(2, population))))

    def with_mode(self, mode: SamplingMode) -> "OscarConfig":
        """Return a copy with a different sampling mode (ablation helper)."""
        return replace(self, sampling_mode=mode)


@dataclass(frozen=True)
class MercuryConfig:
    """Parameters of the Mercury baseline (Bharambe et al., SIGCOMM'04).

    Attributes:
        sample_size: Uniform node-position samples each peer draws to build
            its density histogram. The default 192 matches Oscar's total
            per-peer budget (16 samples x ~12 median levels) so the
            comparison isolates *how* the budget is spent, not its size.
        histogram_buckets: Equi-width buckets of the rank->key estimator.
            Mercury learns the distribution at a *uniform* resolution —
            exactly the property the paper argues fails on arbitrary
            distributions. 64 buckets is deliberately generous.
        link_retries: Redraws after a refused link (same acceptance rule as
            Oscar but a single candidate per draw — no power of two).
    """

    sample_size: int = 192
    histogram_buckets: int = 64
    link_retries: int = 8

    def __post_init__(self) -> None:
        _require(self.sample_size >= 2, f"sample_size must be >= 2, got {self.sample_size}")
        _require(self.histogram_buckets >= 1, f"histogram_buckets must be >= 1, got {self.histogram_buckets}")
        _require(self.link_retries >= 0, f"link_retries must be >= 0, got {self.link_retries}")


@dataclass(frozen=True)
class RoutingConfig:
    """Parameters of greedy routing and its fault-aware variant (paper §3).

    Attributes:
        budget: Maximum messages (hops + probes + backtracks) per query
            before the route is abandoned. The fault-aware router charges
            one message per probe of a dead peer and one per backtrack,
            the paper's "wasted" traffic unit.
    """

    budget: int = 10_000

    def __post_init__(self) -> None:
        _require(self.budget >= 1, f"budget must be >= 1, got {self.budget}")
