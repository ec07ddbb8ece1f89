"""Regenerate the golden route fixture (``tests/data/golden_routes.json``).

The fixture freezes ``route()`` outputs — per-query hop counts, the
responsible peer and the delivery peer — plus range-query owner sweeps
for all three substrates at fixed seeds. ``tests/test_golden_routes.py``
asserts current behavior is bit-identical to the recorded one, which is
how refactors of the geometry core (e.g. the float → uint64 keyspace
migration) prove they did not change a single routing decision.

Only rerun this script when a release *deliberately* changes routing
behavior; commit the regenerated fixture together with the change that
justifies it.

Usage::

    PYTHONPATH=src python scripts/make_golden_routes.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro import MercuryConfig, MercuryOverlay, OscarConfig, OscarOverlay  # noqa: E402
from repro.chord import ChordOverlay  # noqa: E402
from repro.degree import ConstantDegrees  # noqa: E402
from repro.routing.range_query import route_range  # noqa: E402
from repro.rng import split  # noqa: E402
from repro.workloads import GnutellaLikeDistribution, QueryWorkload  # noqa: E402

FIXTURE = REPO / "tests" / "data" / "golden_routes.json"

SEED = 7
N_PEERS = 120
N_QUERIES = 200
N_RANGES = 25


def build(kind: str):
    keys = GnutellaLikeDistribution()
    if kind == "oscar":
        overlay = OscarOverlay(OscarConfig(), seed=SEED)
        overlay.grow(N_PEERS, keys, ConstantDegrees(8))
        overlay.rewire()
    elif kind == "chord":
        overlay = ChordOverlay(seed=SEED)
        overlay.grow(N_PEERS, keys)
        overlay.rewire()
    elif kind == "mercury":
        overlay = MercuryOverlay(MercuryConfig(), seed=SEED)
        overlay.grow(N_PEERS, keys, ConstantDegrees(8))
        overlay.rewire()
    else:  # pragma: no cover - defensive
        raise ValueError(kind)
    return overlay


def capture(kind: str) -> dict:
    overlay = build(kind)
    rng = split(SEED, "golden-routes", kind)
    sources, targets = QueryWorkload().generate_arrays(overlay.ring, rng, N_QUERIES)
    hops, responsible, delivered = [], [], []
    for source, target in zip(sources, targets):
        result = overlay.route(int(source), float(target))
        hops.append(result.hops)
        responsible.append(result.responsible)
        delivered.append(result.delivered_to)

    range_rng = split(SEED, "golden-ranges", kind)
    ranges = []
    for __ in range(N_RANGES):
        source = int(sources[int(range_rng.integers(0, sources.size))])
        lo = float(range_rng.random())
        hi = float(range_rng.random())
        result = route_range(overlay, source, lo, hi)
        ranges.append(
            {
                "source": source,
                "lo": lo.hex(),
                "hi": hi.hex(),
                "owners": list(result.owners),
                "sweep_hops": result.sweep_hops,
                "entry_hops": result.entry_route.hops,
            }
        )

    return {
        "seed": SEED,
        "n_peers": N_PEERS,
        "sources": [int(s) for s in sources],
        "targets": [float(t).hex() for t in targets],
        "hops": hops,
        "responsible": responsible,
        "delivered": delivered,
        "ranges": ranges,
    }


def main() -> int:
    fixture = {kind: capture(kind) for kind in ("oscar", "chord", "mercury")}
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(fixture, indent=1) + "\n")
    total = sum(len(entry["hops"]) for entry in fixture.values())
    print(f"wrote {FIXTURE} ({total} point routes, {N_RANGES * 3} range queries)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
