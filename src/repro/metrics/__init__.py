"""Measurement layer: search cost, degree load, volume exploitation."""

from .degree_load import load_curve_points, load_gini, relative_degree_load, volume_exploitation
from .search import measure_search_cost

__all__ = [
    "load_curve_points",
    "load_gini",
    "measure_search_cost",
    "relative_degree_load",
    "volume_exploitation",
]
