"""A range-queriable media index over skewed keys — the paper's use case.

Run:
    python examples/skewed_media_index.py

Data-oriented overlays exist to index application data whose keys are
*not* uniform: filenames, song titles, attribute values. This example
builds a distributed index over an Oscar overlay where both the peers'
positions and the published items follow the same skewed (Gnutella-like)
distribution — exactly the regime that breaks hash-based DHTs' load
assumptions — then runs point lookups, prefix-style range scans, and
reports the storage balance the paper's design argument predicts.
"""

from __future__ import annotations

import numpy as np

from repro import OscarConfig, OscarOverlay
from repro.degree import ConstantDegrees
from repro.engine import ServeEngine
from repro.index import ReplicatedStore
from repro.membership import OracleView
from repro.ring import in_closed_cw_range
from repro.rng import split
from repro.workloads import GnutellaLikeDistribution

N_PEERS = 400
N_ITEMS = 4000
SEED = 11


def fake_title(index: int) -> str:
    """A stand-in for a filename/title keyed at a cascade position."""
    return f"track-{index:05d}.mp3"


def gini(counts: np.ndarray) -> float:
    """Gini coefficient of per-peer item counts (0 = perfectly even)."""
    counts = np.sort(counts.astype(float))
    n = counts.size
    rank = np.arange(1, n + 1, dtype=float)
    return float(2.0 * (rank * counts).sum() / (n * counts.sum()) - (n + 1.0) / n)


def main() -> None:
    overlay = OscarOverlay(OscarConfig(), seed=SEED)
    keys = GnutellaLikeDistribution()
    overlay.grow(N_PEERS, keys, ConstantDegrees(16))
    overlay.rewire()
    view = OracleView(overlay.ring)
    store = ReplicatedStore(overlay.ring, k=1)
    # The cache is off so every request below shows its message cost.
    serve = ServeEngine(overlay, store, view, cache_size=0)

    # --- publish ------------------------------------------------------
    # Items take keys from the *same* skewed distribution as the peers:
    # an order-preserving mapping of a filename population. The store
    # keeps keys; what a key names lives beside it, indexed by item id.
    item_keys = keys.sample(split(SEED, "items"), N_ITEMS)
    store.seed_items(item_keys, view)
    titles = [fake_title(i) for i in range(store.item_count)]
    # A put travels the route a get takes: the walk to the key's owner.
    publisher = overlay.random_live_node(split(SEED, "publisher"))
    puts = serve.serve_batch(np.full(store.item_count, publisher), store.item_keys)
    assert puts.success.all()
    print(f"published {store.item_count} items "
          f"({puts.hops.sum()} messages, "
          f"{puts.hops.sum() / store.item_count:.1f} per put)")

    # --- point lookups --------------------------------------------------
    reader = overlay.random_live_node(split(SEED, "reader"))
    gets = serve.serve_batch(np.full(200, reader), item_keys[:200])
    print(f"\npoint lookups: {gets.success.sum()}/200 found, "
          f"mean cost {gets.hops.mean():.1f} messages")

    # --- range scans ----------------------------------------------------
    # A range scan resolves every owner whose arc intersects the range,
    # then sweeps ring successors: O(search + peers-in-range).
    print("\nrange scans:")
    bounds = np.array([(0.10, 0.12), (0.40, 0.50), (0.95, 0.05)])
    scans = serve.serve_range(np.full(len(bounds), reader), bounds[:, 0], bounds[:, 1])
    assert not scans.outcome.any()
    for i, (lo, hi) in enumerate(bounds):
        rows = store.slice_rows(scans.item_first[i], scans.item_count[i])
        label = f"[{lo:.2f}, {hi:.2f}]" + (" (wrapped)" if lo > hi else "")
        print(f"  {label:22s} -> {rows.size:4d} items "
              f"from {scans.hops[i] + scans.sweep_hops[i]:3d} messages, "
              f"first {titles[store.item_ids[rows[0]]]}")
        expected = [k for k in store.item_keys if in_closed_cw_range(k, lo, hi)]
        assert sorted(store.item_keys[rows]) == expected, (rows.size, len(expected))

    # --- storage balance -------------------------------------------------
    # Because peers position themselves where the data is, per-peer item
    # counts stay balanced despite the extreme key skew.
    loads = np.bincount(store.holders[:, 0])
    counts = np.sort(loads[loads > 0])
    print("\nstorage balance across storing peers:")
    print(f"  storing peers:   {counts.size} / {N_PEERS}")
    print(f"  items per peer:  min {counts[0]}, "
          f"median {counts[counts.size // 2]}, max {counts[-1]}")
    print(f"  storage gini:    {gini(counts):.2f} "
          f"(0 = perfectly even)")

    assert gini(counts) < 0.8, "skew must not wreck storage balance"


if __name__ == "__main__":
    main()
