"""Net-churn extension: live peers dying mid-run, detected over the wire.

``net-smoke`` validates the asyncio runtime on a *stable* membership;
this spec validates the tentpole's wire half. A free-mode
:class:`~repro.net.harness.NetHarness` is built with
:attr:`~repro.net.config.NetConfig.detector` set, the per-peer failure
detectors are armed, and a cohort of peers is crashed **silently** —
they detach from the transport mid-run, no goodbye. Every surviving
peer must then learn of the deaths the hard way: probe timeouts →
``Suspect`` reports → quorum evictions at the seed → ``Dead``
broadcasts → private directory rebuilds. Three routing phases are
measured separately (diffing the cumulative probe counters):

* **pre-kill** — the stable-network baseline (must be 1.0);
* **lag window** — probes issued right after the crash, before the
  evictions land: routes through a dead peer vanish and time out;
* **post-detection** — after ``await_evictions`` settles: the ISSUE's
  acceptance floor is success >= 0.99 here, with
  ``membership_agreement() == 0`` (every survivor's directory equals
  the authority's).

Detection lag is reported in wall seconds (crash to last eviction) —
the wall-clocked twin of ``detector-churn``'s epoch-counted lag.
``scripts/bench_ci.py`` snapshots both specs into
``BENCH_detector.json``.
"""

from __future__ import annotations

from .. import degree, workloads
from ..config import OscarConfig
from ..membership import DetectorConfig
from ..net import NetConfig, NetHarness
from ..rng import split
from .base import ExperimentResult, scaled_sizes
from .runner import Stopwatch
from .spec import experiment

__all__ = ["run"]


def _phase_success(harness: NetHarness, before, after) -> float:
    """Success over one probe batch from cumulative summary counters."""
    attempted = after.routes_attempted - before.routes_attempted
    delivered = after.routes_delivered - before.routes_delivered
    return delivered / attempted if attempted else 1.0


@experiment(
    "net-churn",
    title="Probe-detected crashes in the asyncio runtime",
    tags=("extension",),
    help={
        "size": "peers in the free-mode build (scaled by --scale)",
        "kills": "peers crashed silently mid-run",
        "probes": "route probes per measured phase",
        "threshold": "consecutive probe failures before suspicion (K)",
        "quorum": "distinct suspecting monitors per eviction",
        "monitors": "clockwise successors probing each peer",
        "loss": "probe-plane loss probability in [0, 1)",
        "ping_interval_s": "seconds between probe rounds",
        "timeout_s": "correlated-PONG deadline in seconds",
        "lag_probe_timeout_s": "per-probe reply deadline in the lag window",
        "keys": "key distribution: uniform | clustered | zipf | gnutella",
        "degrees": "cap distribution: constant | realistic | stepped",
    },
)
def run(
    scale: float = 1.0,
    seed: int = 42,
    size: int = 60,
    kills: int = 3,
    probes: int = 60,
    threshold: int = 2,
    quorum: int = 2,
    monitors: int = 3,
    loss: float = 0.0,
    ping_interval_s: float = 0.03,
    timeout_s: float = 0.06,
    lag_probe_timeout_s: float = 0.25,
    keys: str = "uniform",
    degrees: str = "constant",
) -> ExperimentResult:
    """Crash peers under an armed detector; measure lag and recovery."""
    key_distribution = workloads.by_name(keys)
    degree_distribution = degree.by_name(degrees)
    (n,) = scaled_sizes((size,), scale)
    if not 0 < kills < n - 1:
        raise ValueError(f"kills must leave >= 2 of {n} peers alive, got {kills}")
    detector = DetectorConfig(
        failure_threshold=threshold,
        quorum=quorum,
        n_monitors=monitors,
        loss=loss,
        ping_interval_s=ping_interval_s,
        timeout_s=timeout_s,
    )
    config = NetConfig(overlay=OscarConfig(), seed=seed, detector=detector)
    # Victim choice is seeded but independent of the build/detector
    # streams, so the same seed crashes the same peers every run.
    victims = sorted(
        int(v) for v in split(seed, "net-churn-victims").choice(n, size=kills, replace=False)
    )

    with NetHarness(config) as harness:
        build_watch = Stopwatch()
        stats = harness.build(n, key_distribution, degree_distribution)
        build_seconds = build_watch.lap()

        before = harness.summary()
        harness.route_check(probes)
        after = harness.summary()
        pre_kill_success = _phase_success(harness, before, after)

        harness.start_detector()
        harness.kill(victims)
        kill_watch = Stopwatch()

        # The lag window: dead peers are still in every directory, so
        # some probes route into the void and hit the reply deadline.
        before = harness.summary()
        harness.route_check(probes, timeout_s=lag_probe_timeout_s)
        after = harness.summary()
        lag_window_success = _phase_success(harness, before, after)

        evicted = harness.await_evictions(victims, timeout_s=60.0)
        detection_lag_seconds = kill_watch.lap()

        before = harness.summary()
        harness.route_check(probes)
        after = harness.summary()
        post_detect_success = _phase_success(harness, before, after)

        agreement_mismatches = harness.membership_agreement()
        summary = harness.summary()
        probes_dropped = harness.probes_dropped

    return ExperimentResult(
        experiment_id="net-churn",
        title="Probe-detected crashes in the asyncio runtime",
        series={
            # x = phase index: 0 pre-kill, 1 lag window, 2 post-detection.
            "route success by phase": [
                (0.0, pre_kill_success),
                (1.0, lag_window_success),
                (2.0, post_detect_success),
            ],
        },
        scalars={
            "pre_kill_success": pre_kill_success,
            "lag_window_success": lag_window_success,
            "post_detect_success": post_detect_success,
            "detection_lag_seconds": detection_lag_seconds,
            "evicted": float(len(evicted)),
            "agreement_mismatches": float(agreement_mismatches),
            "probes_dropped": float(probes_dropped),
            "live_after": float(summary.n),
            "cap_violations": float(summary.cap_violations),
            "links_placed": float(stats.links_placed),
            "messages": float(summary.messages),
            "build_seconds": build_seconds,
        },
        metadata={
            "scale": scale,
            "seed": seed,
            "size": n,
            "kills": kills,
            "victims": victims,
            "probes": probes,
            "threshold": threshold,
            "quorum": quorum,
            "monitors": monitors,
            "loss": loss,
            "ping_interval_s": ping_interval_s,
            "timeout_s": timeout_s,
            "lag_probe_timeout_s": lag_probe_timeout_s,
            "keys": keys,
            "degrees": degrees,
        },
    )
