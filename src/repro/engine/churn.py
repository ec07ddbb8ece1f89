"""Steady-state churn: batched arrivals, departures, repair and probes.

The paper's Figure 2 injects one crash wave into a finished network; a
deployed overlay instead lives under *continuous* membership turnover —
peers arrive, serve a session, and vanish, while maintenance races the
decay. This module simulates that regime at the scales the batched
construction engine builds: :class:`SteadyStateChurnEngine` advances
any :class:`~repro.core.substrate.Substrate` through lock-step
**epochs**, each epoch being

1. **arrivals** — a Poisson cohort joins through the substrate's
   ``grow_batch``, each newcomer drawing a session length from a
   pluggable :class:`~repro.churn.sessions.SessionTimes` distribution
   (exponential, Pareto heavy-tail, or trace-driven from the synthetic
   Gnutella cascade);
2. **departures** — every peer whose session expired crashes in one
   bulk :meth:`Substrate.leave_batch
   <repro.core.substrate.Substrate.leave_batch>` wave — the same code
   for every substrate — and ring pointers re-stabilize immediately
   (the paper's standing self-stabilization assumption) through the
   bulk :func:`~repro.ring.maintenance.repair_all` rebuild, while long
   links keep dangling;
3. **periodic repair** — every ``repair_every`` epochs the accumulated
   damage is actually fixed: long-dead peers are compacted out of the
   ring in one :meth:`Ring.remove_many
   <repro.ring.ring.Ring.remove_many>` pass (keeping long runs
   memory-bounded), then the links are repaired by the engine's
   ``repair`` policy. ``"refill"`` (the default, a deployed overlay's
   maintenance) drops the links that point at departed peers and lets
   the peers left with open slots acquire new ones over the partition
   tables they already store (:meth:`Substrate.refill_batch
   <repro.core.substrate.Substrate.refill_batch>` — Oscar re-estimates
   nothing; Chord and Mercury, with no tables to refill against, rebuild
   in full). ``"full"`` is the paper's procedure: every live peer tears
   its links down, re-estimates its partitions by sampling and
   re-acquires through the batched construction path
   (:meth:`Substrate.rewire_batch
   <repro.core.substrate.Substrate.rewire_batch>`);
4. **probes** — a routed query batch through
   :class:`~repro.engine.batch.BatchQueryEngine` measures what users
   would see *right now*: the fault-aware router (and its probe costs)
   whenever crashed peers are present, the vectorized fault-free walk
   on a freshly repaired overlay.

Per-epoch outcomes land in :class:`ChurnEpochStats` — success rate,
mean cost, stale-link count, population size, and on repair epochs the
repair's acquisition counters and sampling spend — the time series the
``steady-churn`` experiment plots.

Determinism contract
--------------------

Every random decision draws from a labelled stream derived from the
engine's ``seed`` (see :meth:`SteadyStateChurnEngine.run_epoch` for the
exact layout), and the draw layout is state-independent: both execution
paths consume each stream identically. ``vectorized=False`` replaces
every churn-side numpy kernel with its pure-Python twin — expiry
selection by loop, stale-link counting by set membership, scalar ring
repair, the construction engine's sequential reference, scalar probe
routing — and must produce **bit-identical** epoch statistics and final
overlay state; the test suite pins the equivalence property-style.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..churn.sessions import SessionTimes
from ..core.soa import row_blocks
from ..core.substrate import Substrate
from ..degree import DegreeDistribution
from ..errors import ConfigError
from ..membership import MembershipView, OracleView
from ..ring import repair as repair_pointers
from ..routing import RouteStats
from ..rng import split
from ..workloads import KeyDistribution, QueryWorkload
from .batch import BatchQueryEngine
from .construct import LinkAcquisitionStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..index.replication import ReplicatedStore

__all__ = ["ChurnEpochStats", "REPAIR_POLICIES", "SteadyStateChurnEngine"]

#: Repair policy name -> the substrate verb a repair epoch calls.
REPAIR_POLICIES = {"refill": "refill_batch", "full": "rewire_batch"}


@dataclass(frozen=True)
class ChurnEpochStats:
    """Everything observed in one steady-state churn epoch.

    Attributes:
        epoch: 1-based epoch index.
        arrivals: Peers that joined this epoch (the Poisson cohort).
        departures: Peers whose sessions expired and crashed this epoch.
        live: Live population at the end of the epoch.
        pointer_fixes: Ring pointer entries the post-wave stabilization
            had to add, change or drop.
        stale_links: Live-to-dead long links outstanding after the wave
            (before any periodic repair this epoch) — the damage the
            fault-aware router pays probes for.
        link_repair: Whether the periodic repair ran this epoch.
        compacted: Dead peers removed from the ring by that repair
            (0 on non-repair epochs).
        probes: Routed probe-batch statistics
            (:class:`~repro.routing.RouteStats`): success rate and mean
            cost as seen by queries issued at this instant.
        repair: The link repair's acquisition counters
            (:class:`~repro.engine.construct.LinkAcquisitionStats`;
            substrates without an acquisition engine report only
            ``links_placed``), ``None`` off repair epochs.
        repair_samples: Sampling messages the link repair spent (the
            growth of the live peers' ``samples_spent``; 0 for a refill
            and off repair epochs).
    """

    epoch: int
    arrivals: int
    departures: int
    live: int
    pointer_fixes: int
    stale_links: int
    link_repair: bool
    compacted: int
    probes: RouteStats
    repair: LinkAcquisitionStats | None = None
    repair_samples: int = 0

    def as_dict(self) -> dict[str, object]:
        """Flat JSON-ready view (used by benchmarks and the CLI); the
        repair counters are ``repair_*`` keys, 0 off repair epochs."""
        repair = self.repair if self.repair is not None else LinkAcquisitionStats()
        return {
            "epoch": self.epoch,
            "arrivals": self.arrivals,
            "departures": self.departures,
            "live": self.live,
            "pointer_fixes": self.pointer_fixes,
            "stale_links": self.stale_links,
            "link_repair": self.link_repair,
            "compacted": self.compacted,
            "success_rate": self.probes.success_rate,
            "mean_cost": self.probes.mean_cost,
            **{f"repair_{name}": value for name, value in repair.as_dict().items()},
            "repair_samples_spent": self.repair_samples,
        }


class SteadyStateChurnEngine:
    """Vectorized steady-state churn simulation over one substrate.

    Args:
        substrate: Any :class:`~repro.core.substrate.Substrate`
            (Oscar, Chord, Mercury). Must hold
            at least one live peer (the engine assigns the initial
            population its sessions at construction).
        keys: Key distribution for arriving peers.
        degrees: Capacity-cap distribution for arriving peers (ignored
            by cap-less substrates, exactly like ``grow``).
        sessions: Session-time distribution
            (:mod:`repro.churn.sessions`); its median ``half_life``
            decides how fast the population turns over.
        arrival_rate: Expected arrivals per epoch (Poisson). The
            steady-state population is ``arrival_rate * sessions.mean``
            (Little's law); pass
            ``live_count / sessions.mean`` to hold the current size.
        repair_every: Periodic repair cadence in epochs (1 = every
            epoch; damage never accumulates).
        n_probes: Routed probes per epoch (0 = one per live peer, the
            paper's N convention).
        seed: Root of every engine-labelled RNG stream.
        vectorized: ``True`` runs the numpy kernels; ``False`` the
            bit-identical pure-Python reference (see module docstring).
        workload: Probe target selection policy (default: uniform over
            live peers).
        membership: The :class:`~repro.membership.views.MembershipView`
            the engine reads liveness through. Default
            :class:`~repro.membership.views.OracleView` — omniscient,
            zero-lag, byte-for-byte the pre-redesign behavior. Install a
            :class:`~repro.membership.probe.ProbeView` and the engine
            instead *believes* its failure detectors: truth-dead peers
            keep their links counted, dodge compaction and poison
            routes until a probe quorum evicts them. The view must wrap
            this substrate's ring.
        replication: Optional
            :class:`~repro.index.replication.ReplicatedStore` over this
            substrate's ring. When installed, the periodic repair epoch
            also runs the store's re-replication pass against
            ``membership`` — so under a probe view, re-replication is
            driven by *eviction*, not ground truth, and detection lag
            shows up as data risk. The pass consumes no RNG, so
            attaching a store never shifts the engine's epoch
            statistics.
        repair: How a repair epoch fixes long links (see
            :data:`REPAIR_POLICIES`): ``"refill"`` (default) replaces
            only what churn broke over the stored partition tables,
            ``"full"`` rewires every live peer from scratch — the
            paper's procedure, which the paper-reproducing specs keep.

    Attributes:
        history: Every :class:`ChurnEpochStats` recorded so far.
        membership: The installed view (read detector metrics —
            ``detection_lags``, ``false_evictions`` — off it).
        replication: The installed store, or ``None`` (read data-risk
            metrics — ``items_lost_total``, ``history`` — off it).
    """

    def __init__(
        self,
        substrate: Substrate,
        keys: KeyDistribution,
        degrees: DegreeDistribution,
        sessions: SessionTimes,
        arrival_rate: float,
        repair_every: int = 4,
        n_probes: int = 256,
        seed: int = 42,
        vectorized: bool = True,
        workload: QueryWorkload | None = None,
        membership: MembershipView | None = None,
        replication: "ReplicatedStore | None" = None,
        repair: str = "refill",
    ) -> None:
        if repair not in REPAIR_POLICIES:
            raise ConfigError(f"unknown repair {repair!r}; known: {list(REPAIR_POLICIES)}")
        if not (arrival_rate >= 0.0 and np.isfinite(arrival_rate)):
            raise ConfigError(f"arrival_rate must be a finite float >= 0, got {arrival_rate}")
        if repair_every < 1:
            raise ConfigError(f"repair_every must be >= 1, got {repair_every}")
        if n_probes < 0:
            raise ConfigError(f"n_probes must be >= 0 (0 = one per live peer), got {n_probes}")
        # The engine reads the base class's own storage — the link table
        # of `state` for stale-link accounting, the contiguous `_next_id`
        # join counter to identify each epoch's arrival cohort — so a
        # look-alike that is not a Substrate is refused, not tracked
        # silently wrong (stale_links=0 forever).
        if not isinstance(substrate, Substrate):
            raise ConfigError(
                f"{type(substrate).__name__} is not a repro Substrate; "
                "the churn engine cannot track its long links or arrival cohorts"
            )
        if substrate.ring.live_count < 2:
            raise ConfigError("steady-state churn needs an overlay with >= 2 live peers")
        if membership is None:
            membership = OracleView(substrate.ring)
        elif membership.ring is not substrate.ring:
            raise ConfigError(
                "membership view wraps a different ring than the substrate; "
                "construct it over substrate.ring"
            )
        if replication is not None and replication.ring is not substrate.ring:
            raise ConfigError(
                "replicated store wraps a different ring than the substrate; "
                "construct it over substrate.ring"
            )
        self.membership = membership
        self.replication = replication
        self.substrate = substrate
        self.keys = keys
        self.degrees = degrees
        self.sessions = sessions
        self.arrival_rate = float(arrival_rate)
        self.repair_every = int(repair_every)
        self.repair = repair
        self.n_probes = int(n_probes)
        self.seed = int(seed)
        self.vectorized = bool(vectorized)
        self.workload = workload if workload is not None else QueryWorkload()
        self.history: list[ChurnEpochStats] = []
        self._epoch = 0
        self._query_engine = BatchQueryEngine(substrate, vectorized=self.vectorized)
        # The initial population's sessions, clocked from time 0 — one
        # bulk draw on its own labelled stream.
        ids = substrate.ring.ids_array(live_only=True)
        lengths = self.sessions.sample(split(self.seed, "steady-sessions-init"), int(ids.size))
        self._session_ids = ids.astype(np.int64, copy=True)
        self._departs = np.asarray(lengths, dtype=float)

    @property
    def epoch(self) -> int:
        """Number of epochs run so far (the current simulation time)."""
        return self._epoch

    # ------------------------------------------------------------------
    # the epoch loop
    # ------------------------------------------------------------------

    def run(self, epochs: int) -> list[ChurnEpochStats]:
        """Advance ``epochs`` lock-step epochs; returns their statistics.

        Purely cumulative: ``run(3)`` then ``run(2)`` is identical to
        one ``run(5)`` — every epoch draws from streams labelled by its
        absolute index, never from a shared cursor.
        """
        if epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {epochs}")
        return [self.run_epoch() for __ in range(epochs)]

    def run_epoch(self) -> ChurnEpochStats:
        """Advance one epoch: arrivals, departures, repair, probes.

        RNG-stream layout (all derived from the engine ``seed``; ``e``
        is the 1-based epoch index):

        * ``("steady-arrivals", e)`` — one Poisson draw for the cohort
          size;
        * ``("steady-sessions", e)`` — one bulk session-length draw for
          the cohort;
        * ``("steady-detect", e)`` — the membership view's probe and
          gossip rounds (:class:`~repro.membership.probe.ProbeView`
          only; derived from the *view's* seed, and the oracle consumes
          nothing — installing a view never shifts the engine streams);
        * ``("steady-repair", e)`` — rewiring randomness of a periodic
          repair landing on this epoch;
        * ``("steady-probes", e)`` — the probe workload;
        * the substrate's own join stream is consumed by ``grow_batch``
          (state-dependent, but both execution paths consume it
          identically — the construction engine's own contract).

        The layout is state-independent: every stream is consumed the
        same way whatever individual peers decide, which is what keeps
        the vectorized and reference paths bit-identical.
        """
        self._epoch += 1
        e = self._epoch
        arrivals = self._arrive(e)
        departures, pointer_fixes = self._depart(e)
        evicted = self.membership.advance(e)
        if evicted:
            # A false eviction ground-truth kills a session holder; its
            # session must not expire a second time later.
            self._drop_sessions(np.asarray(evicted, dtype=np.int64))
        stale = self._count_stale_links()
        repair_due = (e % self.repair_every) == 0
        compacted, repair, repair_samples = self._repair_links(e) if repair_due else (0, None, 0)
        if repair_due and self.replication is not None:
            # Re-replication rides the repair epoch and acts on the same
            # *believed* membership the link repair just used; it draws
            # no randomness, so the engine's streams are untouched.
            self.replication.rereplicate(self.membership, e)
        probes = self._probe(e)
        stats = ChurnEpochStats(
            epoch=e,
            arrivals=arrivals,
            departures=departures,
            live=self.substrate.ring.live_count,
            pointer_fixes=pointer_fixes,
            stale_links=stale,
            link_repair=repair_due,
            compacted=compacted,
            probes=probes,
            repair=repair,
            repair_samples=repair_samples,
        )
        self.history.append(stats)
        return stats

    # ------------------------------------------------------------------
    # epoch phases
    # ------------------------------------------------------------------

    def _arrive(self, e: int) -> int:
        """Join this epoch's Poisson cohort; returns its size.

        One count draw plus one bulk session draw, both on epoch-``e``
        labelled streams; the join itself goes through the substrate's
        ``grow_batch`` with the engine's execution path threaded in, so
        an Oscar cohort estimates partitions and acquires links as one
        lock-step batch.
        """
        ring = self.substrate.ring
        count = int(split(self.seed, "steady-arrivals", e).poisson(self.arrival_rate))
        lengths = self.sessions.sample(split(self.seed, "steady-sessions", e), count)
        if count == 0:
            return 0
        before = int(self.substrate._next_id)
        self.substrate.grow_batch(
            ring.live_count + count, self.keys, self.degrees, vectorized=self.vectorized
        )
        new_ids = np.arange(before, int(self.substrate._next_id), dtype=np.int64)
        self._session_ids = np.concatenate([self._session_ids, new_ids])
        self._departs = np.concatenate([self._departs, float(e) + np.asarray(lengths, dtype=float)])
        return count

    def _depart(self, e: int) -> tuple[int, int]:
        """Crash every expired session; returns ``(departures, fixes)``.

        Expiry is "session end at or before time ``e``"; a session whose
        peer is no longer live (it left through an external
        ``leave_batch`` or crash) ends without a departure. At least one
        peer always survives (a fully dead overlay has nothing left to
        measure): when every session expired at once, the longest-lived
        peer (ties to the higher id) is reprieved and keeps its slot in
        the table. The wave lands as one bulk ``leave_batch`` (ring
        pointers re-stabilized once, long links left dangling); the
        reference path crashes one peer at a time and runs the scalar
        repair instead — identical end state.
        """
        ring = self.substrate.ring
        if self.vectorized:
            ended = self._session_ids[self._departs <= float(e)]
            slots = ring.state.slots_of(ended)  # -1: compacted (its alive read is masked)
            expired = ended[(slots >= 0) & ring.state.alive[slots]]
        else:
            ended = np.asarray(
                [
                    int(node_id)
                    for node_id, depart in zip(self._session_ids, self._departs)
                    if float(depart) <= float(e)
                ],
                dtype=np.int64,
            )
            expired = np.asarray(
                [node_id for node_id in ended if node_id in ring and ring.is_alive(node_id)],
                dtype=np.int64,
            )
        if expired.size < ended.size:
            # A peer that already left by another door (an external
            # leave_batch or crash wave) just ends its session: nothing
            # departs twice, and a compacted id is never asked to leave.
            self._drop_sessions(ended[~np.isin(ended, expired)])
        if expired.size == 0:
            return 0, 0
        if expired.size >= self.substrate.ring.live_count:
            keep = self._longest_lived(expired)
            expired = expired[expired != keep]
            if expired.size == 0:
                return 0, 0
        if self.vectorized:
            fixes = int(self.substrate.leave_batch(expired, repair=True))
        else:
            for node_id in expired:
                self.substrate.ring.mark_dead(int(node_id))
            # The scalar twin of repair_all, with the link-epoch bump
            # leave_batch's repair makes.
            self.substrate._links_epoch += 1
            fixes = repair_pointers(self.substrate.ring, self.substrate.pointers)
        self._drop_sessions(expired)
        self.membership.record_deaths(expired, e)
        return int(expired.size), fixes

    def _drop_sessions(self, node_ids: np.ndarray) -> None:
        """End the sessions of ``node_ids`` (the table keeps the rest)."""
        gone = np.isin(self._session_ids, node_ids)
        self._session_ids = self._session_ids[~gone]
        self._departs = self._departs[~gone]

    def _longest_lived(self, expired: np.ndarray) -> int:
        """The reprieved peer of a total-expiry wave: maximal
        ``(departure time, id)`` — deterministic on both paths."""
        order = np.isin(self._session_ids, expired)
        ids = self._session_ids[order]
        departs = self._departs[order]
        best = int(np.lexsort((ids, departs))[-1])
        return int(ids[best])

    def _repair_links(self, e: int) -> tuple[int, LinkAcquisitionStats, int]:
        """Periodic repair: compact the dead, repair the living's links.

        Long-dead peers leave the overlay for good in one bulk
        :meth:`~repro.core.substrate.Substrate.retire` (ring slots and
        per-substrate side state), then the live peers' long links are
        repaired by the :attr:`repair` policy's substrate verb on the
        ``("steady-repair", e)`` stream. Returns how many peers were
        compacted away, the repair's acquisition counters and the
        samples it spent.
        """
        ring, state = self.substrate.ring, self.substrate.state
        slots = ring.slots_array(live_only=False)
        believed = np.zeros(state.capacity, dtype=bool)
        believed[self.membership.live_slots()] = True
        dead = np.sort(state.node_id[slots[~believed[slots]]])
        if dead.size:
            # Only *believed*-dead peers are compacted: under a probe
            # view a crashed-but-undetected peer keeps its ring slot
            # (and keeps poisoning routes) until evicted. The view
            # drops what it keys by id (gossip reports in flight) first;
            # what it keys by slot is cleared with the slot.
            self.membership.forget(dead)
            self.substrate.retire(dead)
        slots = ring.slots_array(live_only=True)
        if ring.live_count < 2:
            # A lone survivor has nothing to rewire to; its long links
            # all referenced compacted peers and must still be dropped.
            state.clear_links(slots)
            state.in_deg[slots] = 0
            return int(dead.size), LinkAcquisitionStats(), 0
        spent = int(state.samples_spent[slots].sum())
        verb = getattr(self.substrate, REPAIR_POLICIES[self.repair])
        result = verb(split(self.seed, "steady-repair", e), vectorized=self.vectorized)
        if not isinstance(result, LinkAcquisitionStats):
            # Chord and Mercury rebuild through their scalar rewire,
            # which reports links placed only.
            result = LinkAcquisitionStats(links_placed=int(result))
        return int(dead.size), result, int(state.samples_spent[slots].sum()) - spent

    def _probe(self, e: int) -> RouteStats:
        """Route this epoch's probe batch; returns its statistics.

        Fault-aware routing (scalar by nature — per-probe backtracking
        state) whenever crashed peers are present; the vectorized
        fault-free walk on a clean overlay. Both go through the one
        :class:`~repro.engine.batch.BatchQueryEngine` API on the
        ``("steady-probes", e)`` stream, so the probe count and targets
        are identical across paths. The truth snapshot a fault-free
        batch captures is dropped once the batch is measured: the next
        epoch's arrivals and departures move ``topology_version``, so
        holding it would only keep a table the size of the overlay alive
        until it is replaced.
        """
        ring = self.substrate.ring
        faulty = len(ring) > ring.live_count
        count = None if self.n_probes == 0 else self.n_probes
        stats = self._query_engine.measure(
            split(self.seed, "steady-probes", e),
            n_queries=count,
            workload=self.workload,
            faulty=faulty,
        )
        self._query_engine.invalidate()
        return stats

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def _count_stale_links(self) -> int:
        """Believed-live-to-believed-dead long links outstanding now.

        Long links are the rows of ``state.out_links`` (Oscar / Mercury
        sampled links, Chord fingers); ring pointers never count (they
        are re-stabilized every epoch). Liveness is whatever
        :attr:`membership` believes: under the oracle this is exactly
        the old truth-based count, under a probe view a link to
        a crashed-but-undetected peer is *not* yet stale — the gap
        between this number and the probe failures in :meth:`_probe` is
        the detection lag made visible. The vectorized kernel gathers a
        believed-live flag per link cell from one id-indexed table, one
        row block of the live peers' link rows at a time: the table
        covers every id the link table holds, so a retired id or one
        above every live id reads "not live", and its last cell, onto
        which the padding ``-1`` read as ``uint32`` clips, reads live.
        The reference twin walks a set — identical counts.
        """
        live_ids = self.membership.live_ids()
        if self.vectorized:
            state, slots = self.substrate.state, self.membership.live_slots()
            top = max(int(state.out_links.max(initial=-1)), int(live_ids.max(initial=-1)))
            believed = np.zeros(top + 2, dtype=bool)
            believed[live_ids] = True
            believed[-1] = True
            stale = 0
            for block in row_blocks(slots.size):
                links = state.out_links.take(slots[block], axis=0).view(np.uint32)
                stale += links.size - int(np.count_nonzero(believed.take(links, mode="clip")))
            return stale
        targets = self._long_link_targets()
        live_set = {int(i) for i in live_ids}
        return sum(1 for links in targets for target in links if int(target) not in live_set)

    def _long_link_targets(self) -> list[list[int]]:
        """Per-believed-live-peer long-link target lists, in ring order."""
        state = self.substrate.state
        return [
            state.out_links[slot, : state.out_count[slot]].tolist()
            for slot in self.membership.live_slots()
        ]
