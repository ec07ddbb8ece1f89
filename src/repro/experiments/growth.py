"""The bootstrap-grow-rewire-measure harness (paper §3, first paragraph).

"We base our experiments on a simulation of the bootstrap of the Oscar
network starting from scratch and simulating the network growth until it
reaches 10000 peers. ... During the growth of the networks we were
periodically rewiring long-range links of all the peers and measuring
the performance of a current network."

:func:`grow_and_measure` is that loop, generalized over any
:class:`~repro.core.substrate.Substrate` (Oscar / Mercury / Chord), key
distribution, degree distribution and a set of crash fractions evaluated
at every measured size. :func:`measure_runs` runs it once per declared
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
from ..config import MercuryConfig, OscarConfig
from ..core import OscarOverlay
from ..core.substrate import Substrate
from ..degree import DegreeDistribution
from ..engine import BatchQueryEngine
from ..errors import ConfigError
from ..membership import OracleView
from ..mercury import MercuryOverlay
from ..metrics import relative_degree_load, volume_exploitation
from ..routing import RouteStats
from ..rng import split
from ..workloads import KeyDistribution
from .base import scaled_sizes

__all__ = [
    "SizeMeasurement",
    "check_inputs",
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
        stats_by_kill: ``kill_fraction -> RouteStats`` for every crash
            fraction measured at this size (0.0 = fault-free).
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


def check_inputs(n_queries: int, kills: Sequence[float] = ()) -> None:
    """Refuse a negative query count or a crash fraction outside [0, 1)
    with a :class:`~repro.errors.ConfigError`, before anything is grown."""
    if n_queries < 0:
        raise ConfigError(f"n_queries must be >= 0, got {n_queries}")
    for kill in kills:
        if not 0.0 <= kill < 1.0:
            raise ConfigError(f"kill_fraction must be in [0, 1), got {kill}")


def grow_and_measure(
    overlay: Substrate,
    keys: KeyDistribution,
    degrees: DegreeDistribution,
    sizes: Sequence[int],
    n_queries: int,
    seed: int,
    kills: Sequence[float] = (0.0,),
) -> list[SizeMeasurement]:
    """Grow ``overlay`` through the ascending ``sizes``, measuring each.

    At each size: join up to the size, rewire every peer, record volume
    and load ratios, then for every crash fraction in ``kills`` crash
    that share of the live peers (ring repaired, long links left
    dangling), route ``n_queries`` random queries (``0`` = one per
    peer; the fault-aware router whenever peers are crashed), revive
    the victims and re-repair the ring. All query batches run through
    one :class:`~repro.engine.BatchQueryEngine` whose topology snapshot
    revalidates automatically as the topology changes between rounds.

    Crash waves never leak into one another or into later sizes: victims
    are revived and ring pointers re-stabilized after every wave. The
    inputs are the caller's to check (:func:`check_inputs`).
    """
    engine = BatchQueryEngine(overlay)
    view = OracleView(overlay.ring)
    results: list[SizeMeasurement] = []
    for size in sizes:
        overlay.grow(size, keys, degrees)
        overlay.rewire(split(seed, "rewire-round", size))

        in_caps = overlay.in_cap_array()
        if in_caps.any():
            volume = volume_exploitation(overlay.in_degree_array(), in_caps)
            ratios = relative_degree_load(overlay.in_degree_array(), in_caps)
        else:  # cap-less substrate (Chord): volume is undefined
            volume = float("nan")
            ratios = np.empty(0, dtype=float)

        stats_by_kill: dict[float, RouteStats] = {}
        for kill in kills:
            label = int(kill * 1_000_000)
            victims = view.crash_fraction(split(seed, "churn-victims", label), kill)
            if victims:
                overlay.repair_ring()
            stats_by_kill[kill] = engine.measure(
                split(seed, "queries", size, label),
                n_queries=size if n_queries == 0 else n_queries,
                faulty=kill > 0,
            )
            if victims:
                view.revive(victims)
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
    scaled = scaled_sizes(sizes, scale)
    check_inputs(n_queries, kills)
    return {
        label: grow_and_measure(
            make_overlay(substrate, seed, config), keys, caps, scaled, n_queries, seed, kills
        )
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
