"""Capture the golden batched-build fixture (tests/data/golden_build.json).

Pins the *complete* output of one fixed-seed batched construction run —
per-peer partition medians, out-links, in-degrees and the
LinkAcquisitionStats — so any later refactor of the construction engine
(kernel reordering, dtype changes, draw-layout edits) that shifts a
single link or border fails the golden test instead of silently
re-rolling the network. Floats are serialized by ``repr`` round-trip
(exact), so the comparison is bit-level.

The fixture build: ``grow`` to 150 peers (one engine cohort), then one
``rewire`` epoch through the vectorized engine on its own stream.
Regenerate ONLY when the engine's semantics change on purpose::

    PYTHONPATH=src python scripts/make_golden_build.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import OscarConfig, OscarOverlay  # noqa: E402
from repro.degree import ConstantDegrees  # noqa: E402
from repro.engine.construct import BatchConstructionEngine  # noqa: E402
from repro.rng import split  # noqa: E402
from repro.workloads import GnutellaLikeDistribution  # noqa: E402

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "golden_build.json"

N_PEERS = 150
SEED = 2024
CAP = 6
REWIRE_SEED = 77


def build() -> OscarOverlay:
    overlay = OscarOverlay(OscarConfig(), seed=SEED)
    overlay.grow(N_PEERS, GnutellaLikeDistribution(), ConstantDegrees(CAP))
    return overlay


def payload() -> str:
    """The fixture's text: the build, one vectorized rewire, and every
    live peer's columns, serialized as the committed file is."""
    overlay = build()
    stats = BatchConstructionEngine(overlay, vectorized=True).rewire(
        split(REWIRE_SEED, "golden-build")
    )
    state = overlay.state
    nodes = []
    for node_id, slot in zip(overlay.live_node_ids(), overlay.ring.slots_array(live_only=True)):
        table = overlay.partition_table(node_id)
        nodes.append(
            {
                "id": node_id,
                "position": float(state.pos[slot]),
                "in_degree": int(state.in_deg[slot]),
                "out_links": state.out_links[slot, : state.out_count[slot]].tolist(),
                "origin": table.origin,
                "far_end": table.far_end,
                "medians": list(table.medians),
            }
        )
    document = {
        "schema_version": 1,
        "builder": {
            "n_peers": N_PEERS,
            "seed": SEED,
            "cap": CAP,
            "rewire_seed": REWIRE_SEED,
            "keys": "gnutella",
        },
        "stats": stats.as_dict(),
        "nodes": nodes,
    }
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


def main() -> int:
    text = payload()
    OUT.write_text(text, encoding="utf-8")
    print(f"wrote {OUT} ({len(json.loads(text)['nodes'])} peers)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
