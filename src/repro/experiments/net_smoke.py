"""Net-smoke spec: the asyncio runtime validated against the engines.

Every other spec in the registry runs Oscar inside a simulator that can
see the whole ring at once. This one runs it as an actual distributed
system — one asyncio task per peer driving the sans-I/O
:mod:`repro.protocol` machines over the deterministic in-memory
transport (:mod:`repro.net`) — and checks the two halves of the
oracle-equivalence contract in ``docs/net.md``:

* **lockstep**: coordinator-dealt RNG tickets must rebuild the exact
  topology :class:`~repro.engine.construct.BatchConstructionEngine`
  builds from the same seed — every link list, in-degree and stats
  counter compared, any mismatch counted in ``lockstep_mismatches``;
* **free**: peers joining concurrently under adversarial (seeded
  random) delivery must still respect every in-cap, route all probes
  to the responsible peer, and end with every peer's directory in
  agreement with the seed's membership view.

Scalars report both, so a single ``repro run net-smoke`` is the
runtime's end-to-end health check (the CI ``net-smoke`` job runs the
TCP flavor separately via ``scripts/launch_network.py``).
"""

from __future__ import annotations

from .. import degree, workloads
from ..config import OscarConfig
from ..core.overlay import OscarOverlay
from ..engine.construct import BatchConstructionEngine, LiveView
from ..net import NetConfig, NetHarness
from .base import ExperimentResult, scaled_sizes
from .runner import Stopwatch
from .spec import experiment

__all__ = ["run"]


def _engine_topology(
    size: int, seed: int, keys, degrees
) -> tuple[dict[int, list[int]], dict[int, int], list[int]]:
    """Build the oracle topology with the batched engine."""
    overlay = OscarOverlay(OscarConfig(), seed=seed)
    engine = BatchConstructionEngine(overlay)
    stats = engine.grow(size, keys, degrees)
    view = LiveView.capture(overlay)
    state = view.state
    links: dict[int, list[int]] = {}
    in_deg: dict[int, int] = {}
    for row in range(view.m):
        slot = int(view.slots[row])
        count = int(state.out_count[slot])
        node_id = int(view.ids[row])
        links[node_id] = [int(x) for x in state.out_links[slot][:count]]
        in_deg[node_id] = int(state.in_deg[slot])
    return links, in_deg, list(stats.as_dict().values())


@experiment(
    "net-smoke",
    title="Asyncio runtime vs the deterministic engines",
    tags=("extension",),
    help={
        "size": "peers in the lockstep oracle build (scaled by --scale)",
        "free_size": "peers in the free-mode build (scaled by --scale)",
        "probes": "route probes per topology",
        "keys": "key distribution: uniform | clustered | zipf | gnutella",
        "degrees": "cap distribution: constant | realistic | stepped",
    },
)
def run(
    scale: float = 1.0,
    seed: int = 42,
    size: int = 500,
    free_size: int = 150,
    probes: int = 200,
    keys: str = "uniform",
    degrees: str = "constant",
) -> ExperimentResult:
    """Lockstep oracle equivalence + free-mode invariants, one record."""
    key_distribution = workloads.by_name(keys)
    degree_distribution = degree.by_name(degrees)
    (lock_size,) = scaled_sizes((size,), scale)
    (open_size,) = scaled_sizes((free_size,), scale)

    # Lockstep half: the net build must equal the engine build exactly.
    oracle_links, oracle_in, oracle_stats = _engine_topology(
        lock_size, seed, key_distribution, degree_distribution
    )
    watch = Stopwatch()
    with NetHarness(NetConfig(seed=seed, delivery="lockstep")) as locked:
        net_stats = locked.build(lock_size, key_distribution, degree_distribution)
        lock_seconds = watch.lap()
        mismatches = sum(
            1
            for node_id, expected in oracle_links.items()
            if locked.out_links().get(node_id) != expected
        )
        mismatches += sum(
            1
            for node_id, expected in oracle_in.items()
            if locked.in_degrees().get(node_id) != expected
        )
        stats_equal = list(net_stats.as_dict().values()) == oracle_stats
        lock_success, lock_hops = locked.route_check(probes)
        lock_summary = locked.summary()

    # Free half: adversarial delivery, invariant-level checks.
    watch = Stopwatch()
    with NetHarness(NetConfig(seed=seed, delivery="random")) as free:
        free.build(open_size, key_distribution, degree_distribution)
        free.rewire()
        free_seconds = watch.lap()
        free_success, free_hops = free.route_check(probes)
        free_summary = free.summary()

    return ExperimentResult(
        series={
            "route success": [
                (float(lock_size), lock_success),
                (float(open_size), free_success),
            ],
            "mean hops": [(float(lock_size), lock_hops), (float(open_size), free_hops)],
        },
        scalars={
            "lockstep_mismatches": float(mismatches),
            "lockstep_stats_equal": float(stats_equal),
            "lockstep_route_success": lock_success,
            "lockstep_mean_hops": lock_hops,
            "lockstep_messages": float(lock_summary.messages),
            "lockstep_seconds": lock_seconds,
            "free_route_success": free_success,
            "free_mean_hops": free_hops,
            "free_cap_violations": float(free_summary.cap_violations),
            "free_directory_mismatches": float(free_summary.directory_mismatches),
            "free_messages": float(free_summary.messages),
            "free_seconds": free_seconds,
        },
        metadata={"size": lock_size, "free_size": open_size},
    )
