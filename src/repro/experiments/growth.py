"""The bootstrap-grow-rewire-measure harness (paper §3, first paragraph).

"We base our experiments on a simulation of the bootstrap of the Oscar
network starting from scratch and simulating the network growth until it
reaches 10000 peers. ... During the growth of the networks we were
periodically rewiring long-range links of all the peers and measuring
the performance of a current network."

:func:`grow_and_measure` is that loop, generalized over any
:class:`~repro.core.substrate.Substrate` (Oscar / Mercury / Chord), key
distribution, degree distribution and a set of churn cases evaluated at
every measured size. :func:`measure_runs` runs it once per declared
run, so Figures 1(b), 1(c), 2(a), 2(b), their extensions and the
ablations (:mod:`repro.experiments.grow_measure`) share identical growth
mechanics; queries are evaluated by one
:class:`~repro.engine.BatchQueryEngine` per run, whose topology snapshot
is invalidated by the joins/rewire/churn between rounds and rebuilt once
per measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from ..chord import ChordOverlay
from ..churn import apply_churn, revive_all
from ..config import ChurnConfig, GrowthConfig, MercuryConfig, OscarConfig
from ..core import OscarOverlay
from ..core.substrate import Substrate
from ..degree import DegreeDistribution
from ..engine import BatchQueryEngine
from ..errors import ConfigError
from ..mercury import MercuryOverlay
from ..metrics import measure_search_cost, relative_degree_load, volume_exploitation
from ..routing import RouteStats
from ..rng import split
from ..workloads import KeyDistribution, QueryWorkload
from .base import scaled_sizes

__all__ = [
    "SizeMeasurement",
    "cost_curves",
    "final_costs",
    "grow_and_measure",
    "make_overlay",
    "measure_runs",
]

#: One growth of :func:`measure_runs`: ``(label, substrate, keys, caps,
#: config)``, ``config`` the substrate's (``None`` = its default).
Run = tuple[str, str, KeyDistribution, DegreeDistribution, Any]


@dataclass(frozen=True)
class SizeMeasurement:
    """Everything measured at one network size.

    Attributes:
        size: Live peer count at measurement time.
        stats_by_kill: ``kill_fraction -> RouteStats`` for every churn
            case measured at this size (0.0 = fault-free).
        volume: Exploited in-degree volume after the rewiring round
            (measured fault-free, before any crash wave). ``nan`` for
            substrates without capacity caps (Chord fingers are
            protocol-dictated, so "exploited volume" is undefined).
        load_ratios: Sorted per-peer relative degree load (Figure 1b);
            empty for cap-less substrates.
    """

    size: int
    stats_by_kill: dict[float, RouteStats]
    volume: float
    load_ratios: np.ndarray


def make_overlay(kind: str, seed: int, config: Any = None) -> Substrate:
    """Construct a substrate by kind, with its ``OscarConfig`` /
    ``MercuryConfig`` (``None`` = the default; Chord takes none)."""
    if kind == "oscar":
        return OscarOverlay(config or OscarConfig(), seed=seed)
    if kind == "mercury":
        return MercuryOverlay(config or MercuryConfig(), seed=seed)
    if kind == "chord":
        return ChordOverlay(seed=seed)
    raise ConfigError(f"unknown overlay kind {kind!r}")


def grow_and_measure(
    overlay: Substrate,
    keys: KeyDistribution,
    degrees: DegreeDistribution,
    growth: GrowthConfig,
    churn_cases: Sequence[ChurnConfig] = (ChurnConfig(),),
    workload: QueryWorkload | None = None,
) -> list[SizeMeasurement]:
    """Grow ``overlay`` through ``growth.measure_sizes``, measuring each.

    At each size: join up to the size, rewire every peer, record volume
    and load ratios, then for every churn case crash the victims, route
    ``growth.queries_at(size)`` random queries (fault-aware router as
    soon as the case is faulty), revive and re-repair the ring. All
    query batches run through one :class:`~repro.engine.BatchQueryEngine`
    whose successor cache revalidates automatically as the topology
    changes between rounds.

    Churn cases never leak into one another or into later sizes: victims
    are revived and ring pointers re-stabilized after every case.
    """
    engine = BatchQueryEngine(overlay)
    results: list[SizeMeasurement] = []
    for size in growth.measure_sizes:
        overlay.grow(size, keys, degrees)
        overlay.rewire(split(growth.seed, "rewire-round", size))

        in_caps = overlay.in_cap_array()
        if in_caps.any():
            volume = volume_exploitation(overlay.in_degree_array(), in_caps)
            ratios = relative_degree_load(overlay.in_degree_array(), in_caps)
        else:  # cap-less substrate (Chord): volume is undefined
            volume = float("nan")
            ratios = np.empty(0, dtype=float)

        stats_by_kill: dict[float, RouteStats] = {}
        for case in churn_cases:
            victims = apply_churn(overlay.ring, overlay.pointers, case)
            query_rng = split(
                growth.seed, "queries", size, int(case.kill_fraction * 1_000_000)
            )
            stats_by_kill[case.kill_fraction] = measure_search_cost(
                overlay,
                query_rng,
                n_queries=growth.queries_at(size),
                workload=workload,
                faulty=case.is_faulty,
                engine=engine,
            )
            if victims:
                revive_all(overlay.ring, victims)
                overlay.repair_ring()

        results.append(
            SizeMeasurement(
                size=overlay.ring.live_count,
                stats_by_kill=stats_by_kill,
                volume=volume,
                load_ratios=ratios,
            )
        )
    return results


def measure_runs(
    runs: Sequence[Run],
    sizes: Sequence[int],
    scale: float,
    seed: int,
    n_queries: int,
    kills: Sequence[float] = (0.0,),
) -> dict[str, list[SizeMeasurement]]:
    """Grow one fresh overlay per run through the paper ``sizes`` scaled
    by ``scale``, measuring every size under each crash fraction in
    ``kills``: ``{label: measurements}`` in run order."""
    growth = GrowthConfig(measure_sizes=scaled_sizes(sizes, scale), n_queries=n_queries, seed=seed)
    cases = tuple(ChurnConfig(kill_fraction=f, seed=seed) for f in kills)
    return {
        label: grow_and_measure(make_overlay(substrate, seed, config), keys, caps, growth, cases)
        for label, substrate, keys, caps, config in runs
    }


def cost_curves(
    measured: Mapping[str, list[SizeMeasurement]], kill: float = 0.0
) -> dict[str, list[tuple[float, float]]]:
    """Mean search cost against size under crash fraction ``kill``, one
    curve per run."""
    return {
        label: [(float(m.size), m.stats_by_kill[kill].mean_cost) for m in measurements]
        for label, measurements in measured.items()
    }


def final_costs(measured: Mapping[str, list[SizeMeasurement]]) -> dict[str, float]:
    """Each run's fault-free ``final_cost_<label>`` and ``success_<label>``
    at the last size, and the ``max_curve_gap`` between the final costs."""
    finals = {label: ms[-1].stats_by_kill[0.0] for label, ms in measured.items()}
    costs = [stats.mean_cost for stats in finals.values()]
    return {
        **{f"final_cost_{label}": stats.mean_cost for label, stats in finals.items()},
        **{f"success_{label}": stats.success_rate for label, stats in finals.items()},
        "max_curve_gap": max(costs) - min(costs),
    }
