"""Figure 1(a): the synthetic spiky node-degree pdf.

The paper plots the probability density of the "realistic" degree-cap
distribution on log-log axes — degrees 1..~10^2, probabilities
~1e-5..1e-1, a heavy-tailed body with spikes at client defaults.
This experiment materializes the pmf and verifies its two headline
properties (mean = 27, visible spikes).
"""

from __future__ import annotations

import numpy as np

from ..degree import SpikyDegreeDistribution
from ..rng import split
from .base import ExperimentResult
from .spec import experiment

__all__ = ["run"]


@experiment(
    "fig1a",
    title="Synthetic spiky node degree distribution (pdf, log-log)",
    tags=("figure",),
    help={
        "scale": "shrinks the empirical-check sample count only",
        "mean_degree": "target mean of the spiky pmf (paper: 27)",
    },
)
def run(scale: float = 1.0, seed: int = 42, mean_degree: float = 27.0) -> ExperimentResult:
    """Generate the Figure 1(a) pmf.

    ``scale`` shrinks the empirical-check sample count only (the pmf is
    analytic); the curve itself is scale-independent.
    """
    distribution = SpikyDegreeDistribution(mean_degree=mean_degree)
    pmf = distribution.pmf()
    degrees = np.arange(1, pmf.size + 1)

    mask = pmf > 0
    series = {
        "degree pdf": [(float(d), float(p)) for d, p in zip(degrees[mask], pmf[mask])]
    }

    check_n = max(256, int(round(20000 * scale)))
    sample = distribution.sample(split(seed, "fig1a-check"), check_n)

    return ExperimentResult(
        series=series,
        scalars={
            "analytic_mean": distribution.mean(),
            "empirical_mean": float(sample.mean()),
            "spike_fraction": distribution.spike_fraction,
            "max_degree": float(distribution.d_max),
            "body_gamma": distribution.gamma,
        },
        metadata={"spikes": distribution.spikes, "check_samples": check_n},
    )
