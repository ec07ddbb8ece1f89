"""Sampling substrate: restricted walks and density histograms.

* :class:`BatchRestrictedWalker` — the paper's Mercury-style restricted
  Metropolis–Hastings walk over clockwise arcs (the ``WALK`` fidelity
  mode), every walker in lock-step, with its sequential twin
  :meth:`~BatchRestrictedWalker.walk_reference`; the construction
  engine draws ``UNIFORM`` samples itself;
* :class:`NodeDensityHistogram` — Mercury's equi-width density learner.

Oscar's partition borders are not estimated here: the construction
engine and the per-peer join machine both take them with the exact-rank
:func:`repro.protocol.estimation.select_border`.
"""

from .batch_walk import BatchRestrictedWalker, in_cw_arc
from .histogram import NodeDensityHistogram

__all__ = [
    "BatchRestrictedWalker",
    "NodeDensityHistogram",
    "in_cw_arc",
]
