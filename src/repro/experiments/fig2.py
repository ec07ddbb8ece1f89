"""Figure 2: search cost under churn (10% and 33% crash waves).

Two panels, identical mechanics: growth to 10,000 peers with constant
caps (2a) or "realistic" spiky caps (2b); at every measured size a
crash wave kills 0% / 10% / 33% of the population, the ring is assumed
self-stabilized (and is repaired accordingly), long links stay dangling,
and queries run through the probing/backtracking router. Shape to
reproduce: cost ordering 0 < 10% < 33%, all curves staying shallow —
"Oscar remains navigable and the search cost is fairly low given the
high rate of failed peers".
"""

from __future__ import annotations

from ..config import ChurnConfig, GrowthConfig, OscarConfig
from ..degree import ConstantDegrees, DegreeDistribution, SpikyDegreeDistribution
from .base import ExperimentResult, scaled_sizes
from .fig1c import PAPER_SIZES
from ..workloads import GnutellaLikeDistribution
from .growth import grow_and_measure, make_overlay
from .spec import experiment

__all__ = ["run_panel", "run_fig2a", "run_fig2b"]

KILL_FRACTIONS = (0.0, 0.10, 0.33)


def run_panel(
    panel: str,
    degrees: DegreeDistribution,
    scale: float,
    seed: int,
    oscar_config: OscarConfig | None,
    n_queries: int,
) -> ExperimentResult:
    """One churn panel for a given cap distribution."""
    sizes = scaled_sizes(PAPER_SIZES, scale)
    keys = GnutellaLikeDistribution()
    growth = GrowthConfig(measure_sizes=sizes, n_queries=n_queries, seed=seed)
    churn_cases = tuple(ChurnConfig(kill_fraction=f, seed=seed) for f in KILL_FRACTIONS)

    overlay = make_overlay("oscar", seed=seed, oscar_config=oscar_config)
    measurements = grow_and_measure(overlay, keys, degrees, growth, churn_cases=churn_cases)

    series: dict[str, list[tuple[float, float]]] = {}
    scalars: dict[str, float] = {}
    for fraction in KILL_FRACTIONS:
        label = "no faults" if fraction == 0 else f"{int(fraction * 100)}% crashes"
        series[label] = [
            (float(m.size), m.stats_by_kill[fraction].mean_cost) for m in measurements
        ]
        final = measurements[-1].stats_by_kill[fraction]
        scalars[f"final_cost_{int(fraction * 100)}pct"] = final.mean_cost
        scalars[f"success_{int(fraction * 100)}pct"] = final.success_rate
        scalars[f"wasted_{int(fraction * 100)}pct"] = final.mean_wasted

    return ExperimentResult(
        experiment_id=panel,
        title=f"Churn simulation ({degrees.name} in-degree distribution)",
        series=series,
        scalars=scalars,
        metadata={
            "seed": seed,
            "scale": scale,
            "sizes": sizes,
            "keys": keys.name,
            "degrees": degrees.name,
        },
    )


@experiment(
    "fig2a",
    title="Churn simulation, constant in-degree caps",
    tags=("figure",),
    help={"n_queries": "queries per measurement (0 = one per live peer)"},
)
def run_fig2a(
    scale: float = 1.0,
    seed: int = 42,
    oscar_config: OscarConfig | None = None,
    n_queries: int = 0,
) -> ExperimentResult:
    """Figure 2(a): crash waves over constant caps."""
    return run_panel("fig2a", ConstantDegrees(), scale, seed, oscar_config, n_queries)


@experiment(
    "fig2b",
    title="Churn simulation, realistic (spiky) in-degree caps",
    tags=("figure",),
    help={"n_queries": "queries per measurement (0 = one per live peer)"},
)
def run_fig2b(
    scale: float = 1.0,
    seed: int = 42,
    oscar_config: OscarConfig | None = None,
    n_queries: int = 0,
) -> ExperimentResult:
    """Figure 2(b): crash waves over the spiky cap distribution."""
    return run_panel("fig2b", SpikyDegreeDistribution(), scale, seed, oscar_config, n_queries)
