"""The grow-and-measure specs: Figures 1(b), 1(c), 2 and their extensions.

The paper's §3 runs one loop for all of them: bootstrap, grow to
2 000 … 10 000 peers, rewire every peer, measure. Each spec here is a
declaration over that loop, :func:`~repro.experiments.growth.measure_runs`:
its runs ``(label, substrate, keys, caps, config)``, its paper sizes
(scaled by ``scale``), its crash fractions and the scalars it reads off
the measurements. The spec layer stamps id, title and parameters.
"""

from __future__ import annotations

from .. import degree, workloads
from ..config import MercuryConfig, OscarConfig, SamplingMode
from ..degree import ConstantDegrees, DegreeDistribution, SpikyDegreeDistribution, SteppedDegrees
from ..metrics import load_curve_points, load_gini
from ..rng import split
from ..smallworld import harmonic_divergence, link_rank_distribution
from ..workloads import ClusteredKeys, GnutellaLikeDistribution, UniformKeys, ZipfKeys
from .base import ExperimentResult, scaled_sizes
from .growth import (
    SizeMeasurement,
    check_inputs,
    cost_curves,
    final_costs,
    grow_and_measure,
    make_overlay,
    measure_runs,
)
from .spec import SweepSpec, experiment, register_sweep

PAPER_SIZES = (2000, 4000, 6000, 8000, 10000)
ABL_SIZE = 4000  # a mid-scale network is enough to separate the knobs
KILL_FRACTIONS = (0.0, 0.10, 0.33)
QUERIES = {"n_queries": "queries per measurement (0 = one per live peer)"}


def _caps() -> tuple[tuple[str, DegreeDistribution], ...]:
    """Figure 1's three cap distributions, all of mean 27."""
    return (
        ("constant", ConstantDegrees()),
        ("realistic", SpikyDegreeDistribution()),
        ("stepped", SteppedDegrees()),
    )


def _last(measured: dict[str, list[SizeMeasurement]]) -> dict[str, SizeMeasurement]:
    """Each run's measurement at its last size."""
    return {label: measurements[-1] for label, measurements in measured.items()}


@experiment(
    "fig1b",
    title="Relative degree load (actual/available in-degree, sorted)",
    tags=("figure",),
    help={"include_mercury": "add the Mercury constant-caps comparison curve"},
)
def run_fig1b(
    scale: float = 1.0,
    seed: int = 42,
    include_mercury: bool = True,
    oscar_config: OscarConfig | None = None,
    mercury_config: MercuryConfig | None = None,
) -> ExperimentResult:
    """Run the Figure 1(b) measurement.

    One growth per cap distribution; the load curve is taken at the
    final (paper: 10,000-peer) network after a global rewiring round.
    The claim: near-identical curves across the cases, and Oscar
    exploiting ≈ 85% of the degree volume where Mercury with constant
    caps reaches ≈ 61%.
    """
    keys = GnutellaLikeDistribution()
    runs = [(label, "oscar", keys, caps, oscar_config) for label, caps in _caps()]
    if include_mercury:
        runs.append(("mercury constant", "mercury", keys, ConstantDegrees(), mercury_config))
    final = _last(measure_runs(runs, (10_000,), scale, seed, 1)).items()
    return ExperimentResult(
        series={label: load_curve_points(m.load_ratios, n_points=200) for label, m in final},
        scalars={f"volume_{label.replace(' ', '_')}": m.volume for label, m in final},
    )


@experiment(
    "fig1c",
    title="Oscar search cost vs network size, three in-degree distributions",
    tags=("figure",),
    help=QUERIES,
)
def run_fig1c(
    scale: float = 1.0,
    seed: int = 42,
    oscar_config: OscarConfig | None = None,
    n_queries: int = 0,
) -> ExperimentResult:
    """Run the Figure 1(c) sweep (``n_queries=0`` → one query per peer).

    "Oscar performed almost identically for all the in-degree
    distribution cases": the claim is the overlap of the three curves
    (Gnutella-like keys) and their slow, logarithmic growth.
    """
    keys = GnutellaLikeDistribution()
    runs = [(label, "oscar", keys, caps, oscar_config) for label, caps in _caps()]
    measured = measure_runs(runs, PAPER_SIZES, scale, seed, n_queries)
    return ExperimentResult(series=cost_curves(measured), scalars=final_costs(measured))


def _fig2(
    caps: DegreeDistribution, scale: float, seed: int, config: OscarConfig | None, n_queries: int
) -> ExperimentResult:
    """One Figure 2 panel: at every size a crash wave kills 0% / 10% /
    33% of the peers, the ring is repaired (self-stabilization is
    assumed), long links stay dangling and queries probe and backtrack.
    The claim: cost ordered 0 < 10% < 33%, every curve shallow."""
    runs = [("panel", "oscar", GnutellaLikeDistribution(), caps, config)]
    measured = measure_runs(runs, PAPER_SIZES, scale, seed, n_queries, KILL_FRACTIONS)
    series: dict[str, list[tuple[float, float]]] = {}
    scalars: dict[str, float] = {}
    for fraction in KILL_FRACTIONS:
        pct = int(fraction * 100)
        label = "no faults" if fraction == 0 else f"{pct}% crashes"
        series[label] = cost_curves(measured, fraction)["panel"]
        final = measured["panel"][-1].stats_by_kill[fraction]
        scalars[f"final_cost_{pct}pct"] = final.mean_cost
        scalars[f"success_{pct}pct"] = final.success_rate
        scalars[f"wasted_{pct}pct"] = final.mean_wasted
    return ExperimentResult(series=series, scalars=scalars)


@experiment(
    "fig2a", title="Churn simulation, constant in-degree caps", tags=("figure",), help=QUERIES
)
def run_fig2a(
    scale: float = 1.0,
    seed: int = 42,
    oscar_config: OscarConfig | None = None,
    n_queries: int = 0,
) -> ExperimentResult:
    """Figure 2(a): crash waves over constant caps."""
    return _fig2(ConstantDegrees(), scale, seed, oscar_config, n_queries)


@experiment(
    "fig2b",
    title="Churn simulation, realistic (spiky) in-degree caps",
    tags=("figure",),
    help=QUERIES,
)
def run_fig2b(
    scale: float = 1.0,
    seed: int = 42,
    oscar_config: OscarConfig | None = None,
    n_queries: int = 0,
) -> ExperimentResult:
    """Figure 2(b): crash waves over the spiky cap distribution."""
    return _fig2(SpikyDegreeDistribution(), scale, seed, oscar_config, n_queries)


@experiment(
    "ext-keydist",
    title="Oscar search cost across key distributions (constant caps)",
    tags=("extension",),
    help=QUERIES,
)
def run_keydist(
    scale: float = 1.0,
    seed: int = 42,
    oscar_config: OscarConfig | None = None,
    n_queries: int = 0,
) -> ExperimentResult:
    """Run the key-distribution sweep.

    The paper skips its homogeneous-peer results because [8] "shows that
    Oscar performs well under different key distributions". This
    regenerates that claim: the cost under uniform, clustered, Zipf and
    Gnutella-like (Gini ≈ 0.9) keys is flat across distributions.
    """
    distributions = (UniformKeys(), ClusteredKeys(), ZipfKeys(), GnutellaLikeDistribution())
    runs = [(keys.name, "oscar", keys, ConstantDegrees(), oscar_config) for keys in distributions]
    measured = measure_runs(runs, PAPER_SIZES, scale, seed, n_queries)
    scalars = final_costs(measured)
    scalars["skew_penalty"] = scalars["final_cost_gnutella"] / scalars["final_cost_uniform"]
    for keys in distributions:
        scalars[f"gini_{keys.name}"] = keys.skew_gini(split(seed, "gini-probe", keys.name))
    return ExperimentResult(series=cost_curves(measured), scalars=scalars)


@experiment(
    "ext-mercury",
    title="Oscar vs Mercury: search cost and exploited degree volume",
    tags=("extension",),
    help={**QUERIES, "include_uniform_control": "add the uniform-keys Mercury control run"},
)
def run_mercury(
    scale: float = 1.0,
    seed: int = 42,
    oscar_config: OscarConfig | None = None,
    mercury_config: MercuryConfig | None = None,
    n_queries: int = 0,
    include_uniform_control: bool = True,
) -> ExperimentResult:
    """Run the Oscar-vs-Mercury comparison sweep.

    The paper quotes Mercury exploiting ~61% of the degree volume where
    Oscar reaches ~85%, and [8]'s finding that Mercury "fails to build
    routing efficient networks given arbitrary distribution functions"
    while Oscar stays flat. Cost curves and volumes on the Gnutella-like
    keys regenerate both; a uniform-keys Mercury control shows its
    histogram works when the keys are homogeneous.
    """
    skewed, caps = GnutellaLikeDistribution(), ConstantDegrees()
    runs = [
        ("oscar (gnutella keys)", "oscar", skewed, caps, oscar_config),
        ("mercury (gnutella keys)", "mercury", skewed, caps, mercury_config),
    ]
    if include_uniform_control:
        runs.append(("mercury (uniform keys)", "mercury", UniformKeys(), caps, mercury_config))
    measured = measure_runs(runs, PAPER_SIZES, scale, seed, n_queries)
    scalars: dict[str, float] = {}
    for label, m in _last(measured).items():
        slug = label.replace(" ", "_").replace("(", "").replace(")", "")
        scalars[f"final_cost_{slug}"] = m.stats_by_kill[0.0].mean_cost
        scalars[f"volume_{slug}"] = m.volume
    oscar, mercury = scalars["volume_oscar_gnutella_keys"], scalars["volume_mercury_gnutella_keys"]
    scalars["volume_advantage"] = oscar / mercury if mercury > 0 else float("inf")
    return ExperimentResult(series=cost_curves(measured), scalars=scalars)


@experiment(
    "abl-power-of-two",
    title="Power of two choices: in-degree balance under spiky caps",
    tags=("ablation",),
    help=QUERIES,
)
def run_power_of_two(scale: float = 1.0, seed: int = 42, n_queries: int = 0) -> ExperimentResult:
    """ABL-P2: choice-of-two vs single choice under spiky caps.

    The paper's §3 "power of two" balancer: in-degree balance and
    exploited volume with two candidates per draw against one.
    """
    keys, caps = GnutellaLikeDistribution(), SpikyDegreeDistribution()
    runs = [
        (label, "oscar", keys, caps, OscarConfig(power_of_two=po2))
        for label, po2 in (("power-of-two", True), ("single-choice", False))
    ]
    series: dict[str, list[tuple[float, float]]] = {}
    scalars: dict[str, float] = {}
    for label, m in _last(measure_runs(runs, (ABL_SIZE,), scale, seed, n_queries)).items():
        ratios = m.load_ratios[:: max(1, m.size // 200)]
        series[label] = [(float(i), float(r)) for i, r in enumerate(ratios)]
        scalars[f"volume_{label}"] = m.volume
        scalars[f"load_gini_{label}"] = load_gini(m.load_ratios)
        scalars[f"cost_{label}"] = m.stats_by_kill[0.0].mean_cost
    return ExperimentResult(series=series, scalars=scalars)


@experiment(
    "abl-sampling",
    title="Sampling budget: search cost vs samples per median",
    tags=("ablation",),
    help={"sample_sizes": "samples-per-median budgets swept", **QUERIES},
)
def run_sampling(
    scale: float = 1.0,
    seed: int = 42,
    sample_sizes: tuple[int, ...] = (2, 4, 8, 16, 32),
    n_queries: int = 0,
) -> ExperimentResult:
    """ABL-S: median-estimation budget vs search cost.

    The paper's §2 reports "very good results ... even with very low
    sample sizes": uniform sampling at each budget against exact medians.
    """
    keys, caps = GnutellaLikeDistribution(), SpikyDegreeDistribution()
    runs = [(str(s), "oscar", keys, caps, OscarConfig(sample_size=s)) for s in sample_sizes]
    runs.append(("oracle", "oscar", keys, caps, OscarConfig(sampling_mode=SamplingMode.ORACLE)))
    final = _last(measure_runs(runs, (ABL_SIZE,), scale, seed, n_queries))
    cost = {label: m.stats_by_kill[0.0].mean_cost for label, m in final.items()}
    uniform = [(float(s), cost[str(s)]) for s in sample_sizes]
    return ExperimentResult(
        series={
            "uniform sampling": uniform,
            "oracle medians": [(float(s), cost["oracle"]) for s in sample_sizes],
        },
        scalars={
            "oracle_cost": cost["oracle"],
            "cost_at_min_budget": uniform[0][1],
            "cost_at_max_budget": uniform[-1][1],
        },
    )


@experiment(
    "abl-partitions",
    title="Partition count: search cost and harmonic divergence",
    tags=("ablation",),
    help={"partition_counts": "partition counts swept around log2 N", **QUERIES},
)
def run_partitions(
    scale: float = 1.0,
    seed: int = 42,
    partition_counts: tuple[int, ...] = (4, 6, 8, 10, 12, 14, 16),
    n_queries: int = 0,
) -> ExperimentResult:
    """ABL-K: deviating from ``log2 N`` partitions.

    Search cost and navigability (harmonic divergence of the link ranks)
    per partition count; the ranks need the grown overlay, so this one
    spec calls the loop's :func:`~repro.experiments.growth.grow_and_measure`
    itself.
    """
    (size,) = scaled_sizes((ABL_SIZE,), scale)
    check_inputs(n_queries)
    keys, caps = GnutellaLikeDistribution(), SpikyDegreeDistribution()
    cost: list[tuple[float, float]] = []
    divergence: list[tuple[float, float]] = []
    for k in partition_counts:
        overlay = make_overlay("oscar", seed, OscarConfig(n_partitions=k))
        (measured,) = grow_and_measure(overlay, keys, caps, (size,), n_queries, seed)
        stats = measured.stats_by_kill[0.0]
        cost.append((float(k), stats.mean_cost))
        state = overlay.state
        links = [
            (int(state.node_id[slot]), target)
            for slot in overlay.ring.slots_array(live_only=True)
            for target in state.out_links[slot, : state.out_count[slot]].tolist()
        ]
        ranks = link_rank_distribution(overlay.ring, links)
        divergence.append((float(k), harmonic_divergence(ranks, overlay.ring.live_count) * 10.0))
    # The cheapest partition count (the first of equals) and its cost.
    best_k, best_cost = min(cost, key=lambda point: point[1])
    return ExperimentResult(
        series={"mean cost": cost, "harmonic divergence x10": divergence},
        scalars={"best_cost": best_cost, "auto_k_equivalent": best_k},
        metadata={"size": size},
    )


@experiment(
    "scenario",
    title="Generic grow-rewire-measure scenario (sweepable)",
    tags=("scenario",),
    help={
        "substrate": "overlay kind: oscar | chord | mercury",
        "keys": "key distribution: uniform | clustered | zipf | gnutella",
        "degrees": "cap distribution: constant | realistic | stepped",
        "kill_fraction": "fraction of peers crashed before measuring (0 = none)",
        **QUERIES,
    },
)
def run_scenario(
    scale: float = 1.0,
    seed: int = 42,
    substrate: str = "oscar",
    keys: str = "gnutella",
    degrees: str = "constant",
    kill_fraction: float = 0.0,
    n_queries: int = 0,
) -> ExperimentResult:
    """One configurable growth run measured at the paper's sizes.

    The whole loop as one parameter surface — substrate, key and cap
    distributions, a crash wave — so a new scenario is a sweep
    declaration (:class:`~repro.experiments.spec.SweepSpec`), not a new
    module.
    """
    label = f"{substrate}/{keys}/{degrees}" + (
        f"/{round(kill_fraction * 100)}% crashed" if kill_fraction else ""
    )
    runs = [(label, substrate, workloads.by_name(keys), degree.by_name(degrees), None)]
    measured = measure_runs(runs, PAPER_SIZES, scale, seed, n_queries, (kill_fraction,))
    final = measured[label][-1]
    stats = final.stats_by_kill[kill_fraction]
    return ExperimentResult(
        series=cost_curves(measured, kill_fraction),
        scalars={
            "final_cost": stats.mean_cost,
            "success_rate": stats.success_rate,
            "final_volume": final.volume,
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
