"""The bootstrap-grow-rewire-measure harness (paper §3, first paragraph).

"We base our experiments on a simulation of the bootstrap of the Oscar
network starting from scratch and simulating the network growth until it
reaches 10000 peers. ... During the growth of the networks we were
periodically rewiring long-range links of all the peers and measuring
the performance of a current network."

:func:`grow_and_measure` is that loop, generalized over any
:class:`~repro.core.substrate.Substrate` (Oscar / Mercury / Chord), key
distribution, degree distribution and a set of churn cases evaluated at
every measured size. One harness feeds Figures 1(b), 1(c), 2(a), 2(b)
and the Mercury comparison, so all of them share identical growth
mechanics; queries are evaluated by one
:class:`~repro.engine.BatchQueryEngine` per run, whose topology snapshot
is invalidated by the joins/rewire/churn between rounds and rebuilt once
per measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .. import degree, workloads
from ..chord import ChordOverlay
from ..churn import SessionTimes, apply_churn, make_sessions, revive_all
from ..config import ChurnConfig, GrowthConfig, MercuryConfig, OscarConfig, RoutingConfig
from ..core import OscarOverlay
from ..core.substrate import Substrate
from ..degree import DegreeDistribution
from ..engine import BatchQueryEngine, SteadyStateChurnEngine
from ..engine.churn import REPAIR_POLICIES
from ..errors import ConfigError
from ..index import ReplicatedStore
from ..membership import MembershipView
from ..mercury import MercuryOverlay
from ..metrics import measure_search_cost, relative_degree_load, volume_exploitation
from ..routing import RouteStats
from ..rng import split
from ..workloads import KeyDistribution, QueryWorkload
from .base import scaled_sizes
from .runner import Stopwatch

__all__ = ["ChurnBed", "SizeMeasurement", "build_churn_bed", "make_overlay", "grow_and_measure"]

OverlayKind = Literal["oscar", "mercury", "chord"]


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


def make_overlay(
    kind: OverlayKind,
    seed: int,
    oscar_config: OscarConfig | None = None,
    mercury_config: MercuryConfig | None = None,
    routing: RoutingConfig | None = None,
) -> Substrate:
    """Construct a substrate by kind (shared by CLI, benches and tests)."""
    if kind == "oscar":
        return OscarOverlay(oscar_config or OscarConfig(), seed=seed, routing=routing)
    if kind == "mercury":
        return MercuryOverlay(mercury_config or MercuryConfig(), seed=seed, routing=routing)
    if kind == "chord":
        return ChordOverlay(seed=seed, routing=routing)
    raise ConfigError(f"unknown overlay kind {kind!r}")


@dataclass(frozen=True)
class ChurnBed:
    """A built overlay plus the churn inputs the epoch engine needs.

    What the ``steady-churn``, ``detector-churn`` and ``serve-churn``
    specs share before they diverge (membership view, replicated store,
    serve engine): see :func:`build_churn_bed`.

    Attributes:
        overlay: The grown and once-rewired substrate.
        keys: Key distribution arrivals draw from.
        degrees: Cap distribution arrivals draw from.
        sessions: Session-time distribution (departures).
        size: Steady-state population target (already scaled).
        seed: Root seed the overlay and the engine derive from.
        build_seconds: Wall time of ``grow_batch`` + ``rewire_batch``.
        metadata: The shared parameters as built (``size`` scaled), for
            the result's metadata block.
        repair: The engine's link-repair policy
            (:data:`~repro.engine.churn.REPAIR_POLICIES`).
    """

    overlay: Substrate
    keys: KeyDistribution
    degrees: DegreeDistribution
    sessions: SessionTimes
    size: int
    seed: int
    build_seconds: float
    metadata: dict[str, object]
    repair: str = "full"

    def engine(
        self,
        *,
        repair_every: int,
        n_probes: int,
        membership: MembershipView | None = None,
        replication: ReplicatedStore | None = None,
    ) -> SteadyStateChurnEngine:
        """The churn engine over this bed, holding the population steady.

        The arrival rate follows Little's law (``N = arrival_rate x mean
        session``), the repair policy is the bed's; the keywords are the
        engine's own.
        """
        return SteadyStateChurnEngine(
            self.overlay,
            self.keys,
            self.degrees,
            self.sessions,
            arrival_rate=self.size / self.sessions.mean,
            repair_every=repair_every,
            n_probes=n_probes,
            seed=self.seed,
            membership=membership,
            replication=replication,
            repair=self.repair,
        )


def build_churn_bed(
    *,
    scale: float,
    seed: int,
    substrate: str,
    size: int,
    epochs: int,
    half_life: float,
    sessions: str,
    keys: str,
    degrees: str,
    repair: str = "full",
) -> ChurnBed:
    """Validate the shared churn-spec parameters and build the overlay.

    Names resolve through the ``workloads`` / ``degree`` / session
    registries and the engine's repair policies, and ``epochs`` must be
    at least 1 (every churn spec averages over its epoch history) — all
    raise :class:`~repro.errors.ConfigError` before anything is built.
    The overlay is then bulk-grown to ``size x scale`` peers and rewired
    once, timed.
    """
    if epochs < 1:
        raise ConfigError(f"epochs must be >= 1, got {epochs}")
    if repair not in REPAIR_POLICIES:
        raise ConfigError(f"unknown repair {repair!r}; known: {list(REPAIR_POLICIES)}")
    key_distribution = workloads.by_name(keys)
    degree_distribution = degree.by_name(degrees)
    session_times = make_sessions(sessions, half_life)
    (target,) = scaled_sizes((size,), scale)
    overlay = make_overlay(substrate, seed=seed)  # type: ignore[arg-type]

    watch = Stopwatch()
    overlay.grow_batch(target, key_distribution, degree_distribution)
    overlay.rewire_batch()
    return ChurnBed(
        overlay=overlay,
        keys=key_distribution,
        degrees=degree_distribution,
        sessions=session_times,
        size=target,
        seed=seed,
        build_seconds=watch.lap(),
        metadata={
            "scale": scale,
            "seed": seed,
            "substrate": substrate,
            "size": target,
            "epochs": epochs,
            "half_life": half_life,
            "sessions": sessions,
            "keys": keys,
            "degrees": degrees,
            "repair": repair,
        },
        repair=repair,
    )


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
