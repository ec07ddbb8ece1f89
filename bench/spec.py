"""Workload definitions and the end-to-end metric policy of the benchmark.

Everything a reader needs to know *what* is measured lives here as
data; ``harness.py`` only knows how to run a :class:`Workload`, and
``compare.py`` only knows how to apply a :class:`Policy`.

Load shape shared by all workloads: closed loop, one client, one
process, numpy thread pools pinned to 1. A *batch* is one
``serve_batch`` call, a *round* a fixed number of consecutive batches;
on churn workloads a *cycle* is ``repair_every`` epochs (the last one
the repair epoch), each followed by one round.

``min_units`` is the measured work every run does whatever
``--seconds`` says (rounds on static workloads, cycles on churn
workloads). Simulated quantities — hops, hit rate, losses, detection
lag — are taken over exactly that much, so they depend on the seed
alone. A static workload then keeps issuing rounds until ``--seconds``
have passed and only the host-time median uses the extra samples; a
churn workload stops there, because its rounds differ by design and
every run has to average over the same ones.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

DEFAULT_SEED = 20070415
"""Seed used when ``--seed`` is omitted (the paper's ICDE 2007 date)."""

RSS_LIMIT_MB = 4096
"""Memory guard: a workload whose RSS passes this is killed and reported
as failed (the probe plane at 100k peers grows past 15 GB)."""


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (see ``README.md`` for why each exists)."""

    name: str
    peers: int
    view: str  # "oracle" | "probe" (DetectorConfig(loss=0.01))
    exponent: float  # Zipf skew of item popularity (0 = uniform)
    cache_size: int
    batch: int  # requests per serve_batch call
    batches_per_round: int
    warmup_units: int  # discarded rounds (static) or epoch + round pairs (churn)
    min_units: int  # measured rounds (static) or cycles (churn)
    churn: bool = False
    half_life: float = 64.0  # median session length, epochs
    repair_every: int = 4
    flash: tuple[int, int] | None = None  # FlashCrowdSchedule(start, stop)
    setup_repeats: int = 1  # set-ups per run; setup_s is their median

    @property
    def requests_per_round(self) -> int:
        return self.batch * self.batches_per_round

    @property
    def planned_requests(self) -> int:
        """Requests of the ``min_units`` every run measures."""
        rounds = self.min_units * (self.repair_every if self.churn else 1)
        return rounds * self.requests_per_round

    def smoke(self) -> "Workload":
        """The same workload shrunk for ``--smoke``: 2k peers, the
        minimum of rounds, two batches per round."""
        return dataclasses.replace(
            self,
            peers=2000,
            batches_per_round=2,
            warmup_units=min(self.warmup_units, 1),
            min_units=1 if self.churn else 2,
            setup_repeats=1,
        )


# Round/epoch counts are cut from the issue's targets (100 / 25 rounds,
# 12 / 20 epochs) to fit the driver's cap of 92 runs in 3420 s even when
# the host runs at half speed; peers and batch sizes are not. See
# README.md, "Run length".
WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="serve-hot",
        peers=100_000,
        view="oracle",
        exponent=1.2,
        cache_size=1 << 20,
        batch=16_384,
        batches_per_round=16,
        warmup_units=2,
        min_units=16,
    ),
    Workload(
        name="serve-cold",
        peers=100_000,
        view="oracle",
        exponent=0.0,
        cache_size=0,
        batch=16_384,
        batches_per_round=16,
        warmup_units=1,
        min_units=4,
    ),
    Workload(
        name="serve-churn",
        peers=100_000,
        view="oracle",
        exponent=0.9,
        cache_size=1 << 14,
        batch=16_384,
        batches_per_round=18,
        # glibc raises its mmap threshold as large arrays are freed; after
        # two epochs a capture reuses heap memory and no longer faults it
        # in (2546, 1257, then 0 minor faults in the first batch).
        warmup_units=2,
        min_units=1,
        churn=True,
        flash=(3, 5),
    ),
    Workload(
        name="detect-churn",
        peers=10_000,
        view="probe",
        exponent=0.9,
        cache_size=1 << 20,
        batch=8_192,
        batches_per_round=8,
        # The first evictions land in epoch 8 (detection lag p50 is 7
        # epochs): two cycles pass before the probe plane is in steady
        # state and epochs cost what they will keep costing.
        warmup_units=8,
        min_units=1,
        churn=True,
        setup_repeats=3,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}

ALL = tuple(w.name for w in WORKLOADS)
CHURN = tuple(w.name for w in WORKLOADS if w.churn)


@dataclass(frozen=True)
class Policy:
    """How ``compare.py`` judges one end-to-end metric.

    ``bound`` is the share of A's value by which B may be worse;
    ``None`` marks a simulated quantity that is identical for a given
    seed, where any difference is a behaviour change.
    """

    name: str
    unit: str
    better: str  # "higher" | "lower"
    bound: float | None
    workloads: tuple[str, ...] = ALL


# The issue's end-to-end metrics, then the three that stand in for them
# in BENCHMARK.json, whose metrics must exist and be non-zero on every
# workload: sustained_rps carries churn_epochs_per_s, miss_rate is
# 1 - hit_rate, success_share is 1 - failed_share. Host-time bounds are
# 0.25, not the issue's 0.10: see README.md, "Host noise".
END_TO_END: tuple[Policy, ...] = (
    Policy("setup_s", "s", "lower", 0.25),
    Policy("serve_rps", "req/s", "higher", 0.25),
    Policy("churn_epochs_per_s", "epochs/s", "higher", 0.25, CHURN),
    Policy("hops_p50", "hops", "lower", None),
    Policy("hops_p99", "hops", "lower", None),
    Policy("hit_rate", "ratio", "higher", None),
    Policy("failed_share", "ratio", "lower", None),
    Policy("items_lost", "items", "lower", None, CHURN),
    Policy("stale_serve_share", "ratio", "lower", None, ("detect-churn",)),
    Policy("detect_lag_p50", "epochs", "lower", None, ("detect-churn",)),
    Policy("detect_lag_p99", "epochs", "lower", None, ("detect-churn",)),
    Policy("peak_rss_mb", "MiB", "lower", 0.25),
    Policy("sustained_rps", "req/s", "higher", 0.25),
    Policy("miss_rate", "ratio", "lower", None),
    Policy("success_share", "ratio", "higher", None),
)
