"""Capture the golden serve-churn fixture (tests/data/golden_serve.json).

Pins one fixed-seed data-plane run end to end — a 2k-peer overlay under
probe-view churn with successor-list replication and the cached serve
path — so any later change to the replication targets, the believed
greedy walk, the cache versioning or the workload draw layout that
shifts a single epoch's numbers fails the golden test instead of
silently re-rolling the serving story. Per epoch it records items lost,
the truth-live replica histogram, phantom replicas, cache hits and the
cold-pass serve outcome counts; floats are ratios of recorded integers,
so the comparison is bit-level.

The ProbeView (loss 0.1) is deliberate: the fixture covers the
detection-lag regime where phantom replicas, stale serves and bounded
loss are all non-trivially exercised. Regenerate ONLY when the data
plane's semantics change on purpose::

    PYTHONPATH=src python scripts/make_golden_serve.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.churn.sessions import make_sessions  # noqa: E402
from repro.degree import ConstantDegrees  # noqa: E402
from repro.engine import ServeEngine, SteadyStateChurnEngine  # noqa: E402
from repro.index import ReplicatedStore  # noqa: E402
from repro.membership import DetectorConfig, ProbeView  # noqa: E402
from repro.experiments.growth import make_overlay  # noqa: E402
from repro.rng import split  # noqa: E402
from repro.workloads import (  # noqa: E402
    FlashCrowdSchedule,
    GnutellaLikeDistribution,
    ServingWorkload,
)

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "golden_serve.json"

N_PEERS = 2000
SEED = 1312
EPOCHS = 10
REPLICAS = 3
HALF_LIFE = 16.0
REPAIR_EVERY = 2
LOSS = 0.1
N_QUERIES = 512
EXPONENT = 0.9
FLASH = (4, 7)
CAP = 6


def build():
    """The fixture data plane: overlay + view + store + engines + workload."""
    overlay = make_overlay("oscar", seed=SEED)
    keys = GnutellaLikeDistribution()
    degrees = ConstantDegrees(CAP)
    overlay.grow_batch(N_PEERS, keys, degrees)
    overlay.rewire_batch()
    view = ProbeView(overlay.ring, DetectorConfig(loss=LOSS), seed=SEED)
    store = ReplicatedStore(overlay.ring, k=REPLICAS)
    store.seed_items(split(SEED, "serve-items").random(N_PEERS), view)
    sessions = make_sessions("exponential", HALF_LIFE)
    engine = SteadyStateChurnEngine(
        overlay,
        keys,
        degrees,
        sessions,
        arrival_rate=N_PEERS / sessions.mean,
        repair_every=REPAIR_EVERY,
        n_probes=0,
        seed=SEED,
        membership=view,
        replication=store,
        repair="full",  # the paper's rewire: the fixture predates refill
    )
    serve = ServeEngine(overlay, store, view)
    workload = ServingWorkload(
        exponent=EXPONENT, flash=FlashCrowdSchedule(start=FLASH[0], stop=FLASH[1])
    )
    return overlay, view, store, engine, serve, workload


def capture() -> dict:
    """Run the fixture scenario and return the golden payload."""
    overlay, view, store, engine, serve, workload = build()
    epochs = []
    for __ in range(EPOCHS):
        stats = engine.run_epoch()
        e = stats.epoch
        passes = overlay.state.obs.table("store")
        this_epoch = passes["epoch"] == e
        believed = view.live_ids()
        truth = overlay.ring.ids_array(live_only=True)
        pool = believed[np.isin(believed, truth, assume_unique=True)]
        rng = split(SEED, "serve-queries", e)
        sources, targets = workload.generate_arrays(
            pool, store.item_keys, rng, N_QUERIES, epoch=e
        )
        cold = serve.serve_batch(sources, targets).as_dict()
        warm = serve.serve_batch(sources, targets).as_dict()
        epochs.append(
            {
                "epoch": e,
                "live": stats.live,
                "items": store.item_count,
                "items_lost": int(passes["items_lost"][this_epoch].sum()),
                "phantom": int(passes["phantom_replicas"][this_epoch].sum()),
                "under_k": store.under_replicated(),
                "histogram": list(store.replica_histogram()),
                "cold": cold,
                "warm_cache_hits": warm["cache_hits"],
                "hit_rate": warm["cache_hits"] / max(1, warm["requests"]),
            }
        )
    payload = {
        "schema_version": 1,
        "config": {
            "n_peers": N_PEERS,
            "seed": SEED,
            "epochs": EPOCHS,
            "replicas": REPLICAS,
            "half_life": HALF_LIFE,
            "repair_every": REPAIR_EVERY,
            "loss": LOSS,
            "n_queries": N_QUERIES,
            "exponent": EXPONENT,
            "flash": list(FLASH),
            "cap": CAP,
            "keys": "gnutella",
            "membership": "probe",
        },
        "epochs": epochs,
        "totals": {
            "items_lost": overlay.state.obs.total("store", "items_lost"),
            "stale_serves": serve.stale_serves,
            "cache_hits": serve.result_cache.hits,
            "cache_misses": serve.result_cache.misses,
            "cache_invalidations": serve.result_cache.invalidations,
        },
    }
    return payload


def main() -> int:
    payload = capture()
    OUT.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    totals = payload["totals"]
    print(f"wrote {OUT} ({EPOCHS} epochs, totals={totals})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
