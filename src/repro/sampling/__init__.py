"""Sampling substrate: restricted walks, medians, density histograms.

* :class:`BatchRestrictedWalker` — the paper's Mercury-style restricted
  Metropolis–Hastings walk over clockwise arcs (the ``WALK`` fidelity
  mode), every walker in lock-step, with its sequential twin
  :meth:`~BatchRestrictedWalker.walk_reference`; the construction
  engine draws ``UNIFORM`` samples itself;
* :func:`cw_sample_median` / :func:`cw_sample_quantile` — clockwise
  order statistics used for Oscar's recursive partition borders;
* :class:`NodeDensityHistogram` — Mercury's equi-width density learner.
"""

from .batch_walk import BatchRestrictedWalker, in_cw_arc
from .histogram import NodeDensityHistogram
from .median import cw_sample_median, cw_sample_quantile, lower_median_index

__all__ = [
    "BatchRestrictedWalker",
    "NodeDensityHistogram",
    "cw_sample_median",
    "cw_sample_quantile",
    "in_cw_arc",
    "lower_median_index",
]
