"""Degree-capacity models: the paper's three heterogeneity cases.

* :class:`ConstantDegrees` — everyone caps at 27;
* :class:`SpikyDegreeDistribution` — the "realistic" measured-P2P
  emulation (Fig 1a);
* :class:`SteppedDegrees` — uniform over {19, 23, 27, 39};

all three share mean 27 so experiments compare like with like.
:func:`assign_caps` turns a distribution into per-peer
``(rho_max_in, rho_max_out)`` arrays.
"""

from ..errors import ConfigError
from .base import DegreeDistribution, assign_caps
from .spiky import SpikyDegreeDistribution
from .standard import ConstantDegrees, SteppedDegrees

__all__ = [
    "ConstantDegrees",
    "DegreeDistribution",
    "SpikyDegreeDistribution",
    "SteppedDegrees",
    "assign_caps",
    "by_name",
]


def by_name(name: str, **kwargs: object) -> DegreeDistribution:
    """Construct a degree distribution from its CLI name.

    Recognized names: ``constant``, ``stepped``, ``realistic``.
    """
    registry = {
        "constant": ConstantDegrees,
        "stepped": SteppedDegrees,
        "realistic": SpikyDegreeDistribution,
    }
    try:
        factory = registry[name]
    except KeyError:
        raise ConfigError(f"unknown degree distribution {name!r}; known: {sorted(registry)}") from None
    return factory(**kwargs)  # type: ignore[arg-type]
