"""The generic sweepable scenario: substrate x workload x churn.

Where the ``fig*``/``ext_*`` modules are fixed paper artifacts, this
spec exposes the whole grow-rewire-measure harness as one declarative
parameter surface — substrate kind, key distribution, degree (cap)
distribution and a churn wave — so new scenarios are sweep declarations
(:class:`~repro.experiments.spec.SweepSpec`) instead of new modules.

The registered ``substrate-churn`` sweep is the worked example: the
full substrate x churn x key-distribution grid in ten lines.
"""

from __future__ import annotations

from .. import degree, workloads
from ..config import ChurnConfig, GrowthConfig
from .base import ExperimentResult, scaled_sizes
from .fig1c import PAPER_SIZES
from .growth import grow_and_measure, make_overlay
from .spec import SweepSpec, experiment, register_sweep

__all__ = ["run"]


@experiment(
    "scenario",
    title="Generic grow-rewire-measure scenario (sweepable)",
    tags=("scenario",),
    help={
        "substrate": "overlay kind: oscar | chord | mercury",
        "keys": "key distribution: uniform | clustered | zipf | gnutella",
        "degrees": "cap distribution: constant | realistic | stepped",
        "kill_fraction": "fraction of peers crashed before measuring (0 = none)",
        "n_queries": "queries per measurement (0 = one per live peer)",
    },
)
def run(
    scale: float = 1.0,
    seed: int = 42,
    substrate: str = "oscar",
    keys: str = "gnutella",
    degrees: str = "constant",
    kill_fraction: float = 0.0,
    n_queries: int = 0,
) -> ExperimentResult:
    """One configurable growth run measured at the paper's sizes."""
    key_distribution = workloads.by_name(keys)
    degree_distribution = degree.by_name(degrees)

    sizes = scaled_sizes(PAPER_SIZES, scale)
    growth = GrowthConfig(measure_sizes=sizes, n_queries=n_queries, seed=seed)
    churn_cases = (ChurnConfig(kill_fraction=kill_fraction, seed=seed),)

    overlay = make_overlay(substrate, seed=seed)  # type: ignore[arg-type]
    measurements = grow_and_measure(
        overlay, key_distribution, degree_distribution, growth, churn_cases=churn_cases
    )

    label = f"{substrate}/{keys}/{degrees}" + (
        f"/{round(kill_fraction * 100)}% crashed" if kill_fraction else ""
    )
    series = {
        label: [
            (float(m.size), m.stats_by_kill[kill_fraction].mean_cost) for m in measurements
        ]
    }
    final = measurements[-1].stats_by_kill[kill_fraction]
    scalars = {
        "final_cost": final.mean_cost,
        "success_rate": final.success_rate,
        "final_volume": measurements[-1].volume,
    }

    return ExperimentResult(
        experiment_id="scenario",
        title="Generic grow-rewire-measure scenario",
        series=series,
        scalars=scalars,
        metadata={
            "seed": seed,
            "scale": scale,
            "sizes": sizes,
            "substrate": substrate,
            "keys": keys,
            "degrees": degrees,
            "kill_fraction": kill_fraction,
        },
    )


# The worked example from docs/experiments.md: a full comparison grid as
# a declaration. `repro sweep substrate-churn --scale 0.02 --jobs 4`.
register_sweep(
    SweepSpec(
        id="substrate-churn",
        spec_id="scenario",
        title="Substrate x churn x key distribution",
        axes=(
            ("substrate", ("oscar", "chord", "mercury")),
            ("kill_fraction", (0.0, 0.10)),
            ("keys", ("uniform", "gnutella")),
        ),
    )
)
