"""Ring substrate: circular key space, peer ring, and maintenance.

Public surface:

* :mod:`repro.ring.keyspace` — exact 64-bit fixed-point modular
  geometry (``uint64`` keys, circle ``2**64``) plus the lossless-where-
  possible ``float ↔ Key`` adapters; the vectorized arithmetic core of
  the batched routing hot path;
* :mod:`repro.ring.identifiers` — the float ``[0, 1)`` edge API whose
  comparison-exact predicates the scalar layers (partitions, routing,
  medians) decide with;
* :class:`repro.ring.Ring` — the sorted, liveness-aware peer circle;
* :mod:`repro.ring.maintenance` — Chord-style pointer repair the paper
  assumes survives churn.
"""

from . import keyspace
from .identifiers import (
    KeyspaceError,
    ccw_distance,
    circular_distance,
    cw_distance,
    cw_distances,
    cw_midpoint,
    in_closed_cw_range,
    in_cw_interval,
    normalize,
)
from .maintenance import (
    RingPointers,
    attach_node,
    build_pointers,
    repair,
    repair_all,
    verify,
)
from .ring import Ring

__all__ = [
    "KeyspaceError",
    "Ring",
    "RingPointers",
    "attach_node",
    "build_pointers",
    "ccw_distance",
    "circular_distance",
    "cw_distance",
    "cw_distances",
    "cw_midpoint",
    "in_closed_cw_range",
    "in_cw_interval",
    "keyspace",
    "normalize",
    "repair",
    "repair_all",
    "verify",
]
