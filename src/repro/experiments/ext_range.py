"""EXT-R: range queries — order-preserving overlay vs hash DHT (§1).

The paper's introduction motivates data-oriented overlays by what
hash-based DHTs cannot do: "support complex non-uniform key
distribution and hence non-exact queries (e.g. range or similarity
queries)". This experiment quantifies that motivation on our substrate:

* **Oscar** answers a range ``[lo, hi]`` with one greedy search plus a
  ring sweep over the owners — ``O(log N + peers_in_range)`` messages,
  and it *discovers* the matching items itself;
* **Chord** (uniform hashing) must issue one point lookup per matching
  item — ``O(matches · log N)`` — and only works when the querier
  already holds an external index of which keys exist.

Both systems index the same items over the same skewed key population;
the sweep varies range selectivity and reports messages per query and
the Chord/Oscar cost ratio, which grows linearly with selectivity.
"""

from __future__ import annotations

import numpy as np

from ..chord import ChordOverlay, scatter_range
from ..config import OscarConfig
from ..core import OscarOverlay
from ..degree import ConstantDegrees
from ..engine import ServeEngine
from ..index import ReplicatedStore
from ..membership import OracleView
from ..rng import split
from ..workloads import GnutellaLikeDistribution
from .base import ExperimentResult, scaled_sizes
from .spec import experiment

__all__ = ["run"]

PAPER_SIZE = 10_000
ITEMS_PER_PEER = 2
SELECTIVITIES = (0.001, 0.003, 0.01, 0.03, 0.1)
DEFAULT_RANGE_QUERIES = 40


@experiment(
    "ext-range",
    title="Range queries: Oscar sweep vs hash-DHT scatter lookups",
    tags=("extension",),
    help={
        "n_queries": f"ranges issued per selectivity point (0 = default {DEFAULT_RANGE_QUERIES})",
        "selectivities": "range widths swept (fraction of keyspace)",
    },
)
def run(
    scale: float = 1.0,
    seed: int = 42,
    oscar_config: OscarConfig | None = None,
    n_queries: int = 40,
    selectivities: tuple[float, ...] = SELECTIVITIES,
) -> ExperimentResult:
    """Run the range-query comparison sweep.

    ``n_queries`` ranges are issued per selectivity; each range is
    anchored at a random stored item so it is never trivially empty.
    ``0`` falls back to the default budget (the CLI's shared ``--queries``
    convention, where 0 means "pick for me").
    """
    if n_queries == 0:
        n_queries = DEFAULT_RANGE_QUERIES
    if n_queries < 0:
        raise ValueError(f"n_queries must be >= 0, got {n_queries}")
    size = scaled_sizes((PAPER_SIZE,), scale)[0]
    keys = GnutellaLikeDistribution()
    caps = ConstantDegrees()

    oscar = OscarOverlay(oscar_config or OscarConfig(), seed=seed)
    oscar.grow(size, keys, caps)
    oscar.rewire(split(seed, "ext-range-rewire"))
    chord = ChordOverlay(seed=seed)
    chord.grow(size, keys)

    # The same item population lives in both systems.
    item_keys = np.unique(keys.sample(split(seed, "ext-range-items"), size * ITEMS_PER_PEER))
    view = OracleView(oscar.ring)
    store = ReplicatedStore(oscar.ring)
    store.seed_items(item_keys, view)
    serve = ServeEngine(oscar, store, view)

    query_rng = split(seed, "ext-range-queries")
    oscar_series: list[tuple[float, float]] = []
    chord_series: list[tuple[float, float]] = []
    ratio_series: list[tuple[float, float]] = []
    scalars: dict[str, float] = {}

    for selectivity in selectivities:
        # One draw order per query (anchor, Oscar source, Chord source);
        # the Oscar side is then answered as one batch.
        lo = np.empty(n_queries)
        sources = np.empty((n_queries, 2), dtype=np.int64)
        for q in range(n_queries):
            lo[q] = item_keys[int(query_rng.integers(0, item_keys.size))]
            sources[q] = oscar.random_live_node(query_rng), chord.random_live_node(query_rng)
        hi = (lo + float(selectivity)) % 1.0
        answer = serve.serve_range(sources[:, 0], lo, hi)
        scattered = np.asarray(
            [
                scatter_range(chord, int(source), item_keys, float(a), float(b))
                for source, a, b in zip(sources[:, 1], lo, hi)
            ]
        )
        recall_ok = int((answer.item_count == scattered[:, 0]).sum())

        oscar_mean = float(np.mean(answer.hops + answer.sweep_hops))
        chord_mean = float(scattered[:, 1].mean())
        oscar_series.append((selectivity, oscar_mean))
        chord_series.append((selectivity, chord_mean))
        ratio_series.append((selectivity, chord_mean / max(oscar_mean, 1e-9)))
        scalars[f"recall_match_{selectivity:g}"] = recall_ok / n_queries

    scalars["ratio_at_min_selectivity"] = ratio_series[0][1]
    scalars["ratio_at_max_selectivity"] = ratio_series[-1][1]
    scalars["oscar_cost_at_max"] = oscar_series[-1][1]
    scalars["chord_cost_at_max"] = chord_series[-1][1]

    return ExperimentResult(
        series={
            "oscar (search + sweep)": oscar_series,
            "chord (per-item lookups)": chord_series,
            "cost ratio chord/oscar": ratio_series,
        },
        scalars=scalars,
        metadata={"size": size, "items": int(item_keys.size), "queries_per_point": n_queries},
    )
