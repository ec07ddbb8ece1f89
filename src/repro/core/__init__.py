"""Oscar core: the paper's primary contribution.

* :class:`PartitionTable` — recursive-median logarithmic partitions;
* :func:`oracle_partitions` — the exact table sampled estimates approach;
* :class:`OscarOverlay` — the facade tying ring, links and routing
  together; it builds through the one construction engine,
  :class:`repro.engine.construct.BatchConstructionEngine`;
* :class:`SubstrateState` — the struct-of-arrays store every substrate's
  per-peer columns live in, one array per field indexed by slot.
"""

from .estimators import oracle_partitions
from .overlay import OscarOverlay
from .partitions import PartitionTable
from .soa import SubstrateState
from .substrate import Substrate

__all__ = [
    "OscarOverlay",
    "PartitionTable",
    "Substrate",
    "SubstrateState",
    "oracle_partitions",
]
