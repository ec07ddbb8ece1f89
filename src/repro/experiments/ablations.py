"""Design-choice ablations called out in DESIGN.md.

Three studies isolating Oscar's knobs:

* ABL-P2  — the "power of two" balancer (paper §3): in-degree balance
  and exploited volume with one vs two candidates per draw;
* ABL-S   — sampling fidelity and budget (paper §2: "very good results
  ... even with very low sample sizes"): search cost under ORACLE /
  UNIFORM sampling at several sample sizes;
* ABL-K   — partition count: cost and navigability (harmonic
  divergence) as the number of logarithmic partitions deviates from
  ``log2 N``.
"""

from __future__ import annotations

from ..config import GrowthConfig, OscarConfig, SamplingMode
from ..degree import SpikyDegreeDistribution
from ..metrics import load_gini
from ..smallworld import harmonic_divergence, link_rank_distribution
from ..workloads import GnutellaLikeDistribution
from .base import ExperimentResult, scaled_sizes
from .growth import grow_and_measure, make_overlay
from .spec import experiment

__all__ = ["run_power_of_two", "run_sampling", "run_partitions"]

_ABL_SIZE = 4000  # a mid-scale network is enough to separate the knobs


@experiment(
    "abl-power-of-two",
    title="Power of two choices: in-degree balance under spiky caps",
    tags=("ablation",),
    help={"n_queries": "queries per measurement (0 = one per live peer)"},
)
def run_power_of_two(scale: float = 1.0, seed: int = 42, n_queries: int = 0) -> ExperimentResult:
    """ABL-P2: choice-of-two vs single choice under spiky caps."""
    size = scaled_sizes((_ABL_SIZE,), scale)[0]
    growth = GrowthConfig(measure_sizes=(size,), n_queries=n_queries, seed=seed)
    keys = GnutellaLikeDistribution()
    degrees = SpikyDegreeDistribution()

    series: dict[str, list[tuple[float, float]]] = {}
    scalars: dict[str, float] = {}
    for label, po2 in (("power-of-two", True), ("single-choice", False)):
        overlay = make_overlay("oscar", seed=seed, oscar_config=OscarConfig(power_of_two=po2))
        measurement = grow_and_measure(overlay, keys, degrees, growth)[-1]
        stats = measurement.stats_by_kill[0.0]
        series[label] = [(float(i), float(r)) for i, r in enumerate(measurement.load_ratios[:: max(1, size // 200)])]
        scalars[f"volume_{label}"] = measurement.volume
        scalars[f"load_gini_{label}"] = load_gini(measurement.load_ratios)
        scalars[f"cost_{label}"] = stats.mean_cost

    return ExperimentResult(
        experiment_id="abl-power-of-two",
        title="Power of two choices: in-degree balance under spiky caps",
        series=series,
        scalars=scalars,
        metadata={"seed": seed, "scale": scale, "size": size, "degrees": degrees.name},
    )


@experiment(
    "abl-sampling",
    title="Sampling budget: search cost vs samples per median",
    tags=("ablation",),
    help={
        "sample_sizes": "samples-per-median budgets swept",
        "n_queries": "queries per measurement (0 = one per live peer)",
    },
)
def run_sampling(
    scale: float = 1.0,
    seed: int = 42,
    sample_sizes: tuple[int, ...] = (2, 4, 8, 16, 32),
    n_queries: int = 0,
) -> ExperimentResult:
    """ABL-S: median-estimation budget vs search cost."""
    size = scaled_sizes((_ABL_SIZE,), scale)[0]
    growth = GrowthConfig(measure_sizes=(size,), n_queries=n_queries, seed=seed)
    keys = GnutellaLikeDistribution()
    degrees = SpikyDegreeDistribution()

    series: dict[str, list[tuple[float, float]]] = {"uniform sampling": []}
    scalars: dict[str, float] = {}
    for s in sample_sizes:
        overlay = make_overlay("oscar", seed=seed, oscar_config=OscarConfig(sample_size=s))
        stats = grow_and_measure(overlay, keys, degrees, growth)[-1].stats_by_kill[0.0]
        series["uniform sampling"].append((float(s), stats.mean_cost))

    oracle = make_overlay(
        "oscar", seed=seed, oscar_config=OscarConfig(sampling_mode=SamplingMode.ORACLE)
    )
    oracle_stats = grow_and_measure(oracle, keys, degrees, growth)[-1].stats_by_kill[0.0]
    series["oracle medians"] = [(float(s), oracle_stats.mean_cost) for s in sample_sizes]
    scalars["oracle_cost"] = oracle_stats.mean_cost
    scalars["cost_at_min_budget"] = series["uniform sampling"][0][1]
    scalars["cost_at_max_budget"] = series["uniform sampling"][-1][1]

    return ExperimentResult(
        experiment_id="abl-sampling",
        title="Sampling budget: search cost vs samples per median",
        series=series,
        scalars=scalars,
        metadata={"seed": seed, "scale": scale, "size": size},
    )


@experiment(
    "abl-partitions",
    title="Partition count: search cost and harmonic divergence",
    tags=("ablation",),
    help={
        "partition_counts": "partition counts swept around log2 N",
        "n_queries": "queries per measurement (0 = one per live peer)",
    },
)
def run_partitions(
    scale: float = 1.0,
    seed: int = 42,
    partition_counts: tuple[int, ...] = (4, 6, 8, 10, 12, 14, 16),
    n_queries: int = 0,
) -> ExperimentResult:
    """ABL-K: deviating from ``log2 N`` partitions."""
    size = scaled_sizes((_ABL_SIZE,), scale)[0]
    growth = GrowthConfig(measure_sizes=(size,), n_queries=n_queries, seed=seed)
    keys = GnutellaLikeDistribution()
    degrees = SpikyDegreeDistribution()

    cost_series: list[tuple[float, float]] = []
    divergence_series: list[tuple[float, float]] = []
    for k in partition_counts:
        overlay = make_overlay("oscar", seed=seed, oscar_config=OscarConfig(n_partitions=k))
        stats = grow_and_measure(overlay, keys, degrees, growth)[-1].stats_by_kill[0.0]
        cost_series.append((float(k), stats.mean_cost))
        state = overlay.state
        links = [
            (int(state.node_id[slot]), target)
            for slot in overlay.ring.slots_array(live_only=True)
            for target in state.out_links[slot, : state.out_count[slot]].tolist()
        ]
        ranks = link_rank_distribution(overlay.ring, links)
        divergence_series.append(
            (float(k), harmonic_divergence(ranks, overlay.ring.live_count))
        )

    return ExperimentResult(
        experiment_id="abl-partitions",
        title="Partition count: search cost and harmonic divergence",
        series={"mean cost": cost_series, "harmonic divergence x10": [
            (k, d * 10.0) for k, d in divergence_series
        ]},
        scalars={
            "best_cost": min(c for __, c in cost_series),
            "auto_k_equivalent": float(
                min(range(len(cost_series)), key=lambda i: cost_series[i][1])
            ),
        },
        metadata={"seed": seed, "scale": scale, "size": size},
    )
