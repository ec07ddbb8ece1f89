"""Measure where splitting the greedy walk across two threads pays.

Builds the serve table of a ``serve-cold``-shaped overlay (Gnutella-like
keys, 27 links a peer, oracle view, one catalog item a peer), then walks
batches of uniform queries of each size twice over, interleaved: once on
the caller's thread, once split in two halves across the walk's worker
thread (:data:`repro.engine.walk.SPLIT_AT` moved below and above the
size). Prints per size the median milliseconds of both and the speed-up;
:data:`~repro.engine.walk.SPLIT_AT` is the smallest size that gains.
Both answers are checked equal on every repeat. On one CPU every walk is
serial, and the script says so and exits 1::

    PYTHONPATH=src python scripts/walk_split.py [--peers 100000] [--repeats 15]
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro import OscarConfig, OscarOverlay  # noqa: E402
from repro.degree import ConstantDegrees  # noqa: E402
from repro.engine import ServeEngine, walk  # noqa: E402
from repro.index import ReplicatedStore  # noqa: E402
from repro.membership import OracleView  # noqa: E402
from repro.rng import split  # noqa: E402
from repro.workloads import GnutellaLikeDistribution  # noqa: E402

SIZES = (1024, 2048, 4096, 6144, 8192, 10240, 12288, 16384, 65536)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--peers", type=int, default=100_000)
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    if walk._cpus() < 2:
        print("[walk-split] one CPU: every walk runs on the caller's thread")
        return 1

    overlay = OscarOverlay(OscarConfig(), seed=args.seed)
    overlay.grow_batch(args.peers, GnutellaLikeDistribution(), ConstantDegrees(27))
    overlay.rewire_batch()
    view = OracleView(overlay.ring)
    store = ReplicatedStore(overlay.ring, k=3)
    store.seed_items(split(args.seed, "walk-split", "items").random(args.peers), view)
    serve = ServeEngine(overlay, store, view, cache_size=0)
    snap = serve.serve_snapshot()
    table, budget = snap.table, serve.routing.budget
    rng = split(args.seed, "walk-split", "queries")

    print(f"[walk-split] {args.peers} peers, table {table.offsets.shape}, {args.repeats} repeats")
    print(f"{'queries':>8} {'serial ms':>10} {'split ms':>9} {'speed-up':>9}")
    keep = walk.SPLIT_AT
    try:
        for size in SIZES:
            sources = rng.integers(0, table.keys.size, size)
            owners, bounds = snap.locate(rng.integers(0, 2**64, size, dtype=np.uint64))
            seconds: dict[str, list[float]] = {"serial": [], "split": []}
            for __ in range(args.repeats):
                answers = []
                for mode, at in (("serial", size + 1), ("split", 2)):
                    walk.SPLIT_AT = at
                    t0 = time.perf_counter()
                    answers.append(walk.greedy_walk(table, sources, owners, bounds, budget))
                    seconds[mode].append(time.perf_counter() - t0)
                assert all(np.array_equal(a, b) for a, b in zip(*answers))
            serial, split_ms = (1e3 * statistics.median(seconds[k]) for k in ("serial", "split"))
            print(f"{size:>8} {serial:>10.2f} {split_ms:>9.2f} {serial / split_ms:>8.2f}x")
    finally:
        walk.SPLIT_AT = keep
    return 0


if __name__ == "__main__":
    sys.exit(main())
