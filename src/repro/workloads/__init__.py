"""Key and query workloads.

Distributions over the key circle (:class:`UniformKeys`,
:class:`ClusteredKeys`, :class:`ZipfKeys`, and the Gnutella-trace
substitute :class:`GnutellaLikeDistribution`) plus the random-query
generator used by every experiment and the skewed serving workloads
(:class:`ServingWorkload` Zipf popularity, :class:`FlashCrowdSchedule`
hot-region spikes) the data plane is load-tested with.
"""

from ..errors import ConfigError
from .base import KeyDistribution
from .gnutella import GnutellaLikeDistribution
from .queries import Query, QueryWorkload
from .serving import FlashCrowdSchedule, ServingWorkload
from .standard import ClusteredKeys, UniformKeys, ZipfKeys

__all__ = [
    "ClusteredKeys",
    "FlashCrowdSchedule",
    "GnutellaLikeDistribution",
    "KeyDistribution",
    "Query",
    "QueryWorkload",
    "ServingWorkload",
    "UniformKeys",
    "ZipfKeys",
]


def by_name(name: str, **kwargs: object) -> KeyDistribution:
    """Construct a key distribution from its CLI name.

    Recognized names: ``uniform``, ``clustered``, ``zipf``, ``gnutella``.
    """
    registry = {
        "uniform": UniformKeys,
        "clustered": ClusteredKeys,
        "zipf": ZipfKeys,
        "gnutella": GnutellaLikeDistribution,
    }
    try:
        factory = registry[name]
    except KeyError:
        raise ConfigError(f"unknown key distribution {name!r}; known: {sorted(registry)}") from None
    return factory(**kwargs)  # type: ignore[arg-type]
