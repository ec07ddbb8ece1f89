"""Small-world theory: harmonic link-rank diagnostics and analytic bounds."""

from .kleinberg import harmonic_divergence, link_rank_distribution
from .theory import expected_greedy_cost, min_long_links_for_cost, worst_case_greedy_cost

__all__ = [
    "expected_greedy_cost",
    "harmonic_divergence",
    "link_rank_distribution",
    "min_long_links_for_cost",
    "worst_case_greedy_cost",
]
