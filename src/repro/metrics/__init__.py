"""Measurement layer: degree load and volume exploitation.

Search cost, the paper's "average search cost induced by N random
queries", is :meth:`BatchQueryEngine.measure
<repro.engine.batch.BatchQueryEngine.measure>`.
"""

from .degree_load import load_curve_points, load_gini, relative_degree_load, volume_exploitation

__all__ = [
    "load_curve_points",
    "load_gini",
    "relative_degree_load",
    "volume_exploitation",
]
