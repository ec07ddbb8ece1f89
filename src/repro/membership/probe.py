"""Probe-derived membership: the :class:`ProbeView` and its two banks.

This is the sim half of the tentpole — a :class:`~repro.membership
.views.MembershipView` whose knowledge comes from failure detectors
and gossip instead of the liveness bitmap. The engine keeps killing
peers through ground truth (``crash`` / session expiry), but everything
the engine *reads* — ``live_ids()``, ``live_slots()``, ``is_live`` —
answers with the **believed** population: truth-dead peers stay
believed-live until a quorum of their probe panels votes them out and
the resulting dead report finishes spreading. The gap between a
recorded death and its eviction is the *detection lag*; evicting a
truth-live peer (possible under probe loss) is a *false eviction* —
both are first-class measurements (``detection_lags`` /
``false_evictions``) the ``detector-grid`` scenario sweeps.

Two interchangeable execution backends advance the same abstract
machine one probe round at a time:

* :class:`ScalarDetectorBank` — one :class:`~repro.membership.detector
  .FailureDetector` per monitor, driven on a synthetic round clock
  (poll at ``now=r``, on-time pongs at ``now=r+0.25``). Slow, obvious,
  the reference.
* :class:`VectorizedDetectorBank` — the numpy kernel
  (:mod:`repro.membership.vectorized`).

Both consume the *same* uniform draw matrix per round (one
``rng.random((T, J_eff))`` from the ``("steady-detect", epoch)``
stream) and are pinned bit-identical on every observable by the
hypothesis differential in ``tests/test_membership.py``. The backend
picks the gossip twin too: the bit-matrix :class:`~repro.membership
.gossip.GossipMembership` with the kernel, the set-per-report
:class:`~repro.membership.gossip.ScalarGossipMembership` with the
scalar bank.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..errors import ConfigError
from ..protocol.messages import Pong
from ..rng import split
from ..types import NodeId
from .config import DetectorConfig
from .detector import FailureDetector
from .gossip import GossipMembership, ScalarGossipMembership
from .vectorized import VectorizedDetectorBank
from .views import MembershipView

if TYPE_CHECKING:  # pragma: no cover - annotation-only
    from ..ring import Ring

__all__ = ["ProbeView", "ScalarDetectorBank"]


class ScalarDetectorBank:
    """The reference bank: real ``FailureDetector`` machines, one per
    monitor, on a synthetic round clock.

    The round clock maps the wall-clock knobs onto integers: probes are
    polled at ``now = r`` with ``ping_interval_s = 1.0`` and
    ``timeout_s = 0.5``, on-time pongs land at ``now = r + 0.25``
    (round trip ``0.25 <= 0.5``), and an unanswered probe from round
    ``r`` times out at the ``r + 1`` poll (``1.0 > 0.5``) — which is
    exactly the vectorized kernel's "failures increment one round
    late" cadence.

    Watches are **rank-keyed** to match the kernel: target row ``i`` is
    watched by believed rows ``i+1 .. i+J_eff``, and whenever the
    monitor occupying a rank changes, the old pair is unwatched and the
    new one watched fresh (counter reset). A truth-dead monitor is
    skipped wholesale — it neither polls nor answers — and its pending
    probes are dropped (an unconscious monitor times nothing out).
    """

    def __init__(self, config: DetectorConfig) -> None:
        self.config = config
        self._round_cfg = dataclasses.replace(
            config, ping_interval_s=1.0, timeout_s=0.5
        )
        self._machines: dict[int, FailureDetector] = {}
        self._prev_panels: dict[int, tuple[int, ...]] = {}
        self._round = 0

    def _sync_watches(self, b: np.ndarray, panel_rows: np.ndarray, j_eff: int) -> None:
        current: dict[int, tuple[int, ...]] = {
            int(b[i]): tuple(int(b[panel_rows[i, j]]) for j in range(j_eff))
            for i in range(int(b.size))
        }
        # Unwatch every pair whose monitor-at-rank changed (or vanished)
        # before establishing the new pairs, so a rank swap between two
        # monitors resets both counters — exactly the kernel's
        # ``changed`` mask.
        for target, prev in list(self._prev_panels.items()):
            cur = current.get(target, ())
            for rank, m_prev in enumerate(prev):
                m_new = cur[rank] if rank < len(cur) else None
                if m_prev != m_new:
                    machine = self._machines.get(m_prev)
                    if machine is not None:
                        machine.unwatch(target)
            if target not in current:
                del self._prev_panels[target]
        for target, cur in current.items():
            prev = self._prev_panels.get(target, ())
            for rank, m_new in enumerate(cur):
                m_prev = prev[rank] if rank < len(prev) else None
                if m_prev != m_new:
                    machine = self._machines.get(m_new)
                    if machine is None:
                        machine = FailureDetector(m_new, self._round_cfg)
                        self._machines[m_new] = machine
                    machine.watch(target)
            self._prev_panels[target] = cur
        for mid in [m for m, mach in self._machines.items() if not mach.targets]:
            del self._machines[mid]

    def round(
        self,
        believed_ids: np.ndarray,
        believed_slots: np.ndarray,
        alive: np.ndarray,
        u: np.ndarray,
    ) -> list[tuple[int, int]]:
        """One probe round; same contract as
        :meth:`VectorizedDetectorBank.round
        <repro.membership.vectorized.VectorizedDetectorBank.round>`."""
        cfg = self.config
        t = int(believed_ids.size)
        j_eff = int(u.shape[1]) if u.ndim == 2 else 0
        if t == 0 or j_eff == 0:
            return []
        b = believed_ids.astype(np.int64, copy=False)
        offsets = np.arange(1, j_eff + 1, dtype=np.int64)
        panel_rows = (np.arange(t, dtype=np.int64)[:, None] + offsets[None, :]) % t
        self._sync_watches(b, panel_rows, j_eff)
        alive_row = alive[believed_slots.astype(np.int64, copy=False)]
        now = float(self._round)
        for i in range(t):
            machine = self._machines.get(int(b[i]))
            if machine is None:
                continue
            if alive_row[i]:
                machine.poll(now)
            else:
                machine.clear_pending()
        for i in range(t):
            if not alive_row[i]:
                continue
            target = int(b[i])
            for j in range(j_eff):
                row = int(panel_rows[i, j])
                if not alive_row[row] or u[i, j] < cfg.loss:
                    continue
                machine = self._machines[int(b[row])]
                seq = machine.pending_seq_of(target)
                if seq is not None:
                    machine.on_pong(target, Pong(seq=seq), now=now + 0.25)
        reports: list[tuple[int, int]] = []
        for i in range(t):
            target = int(b[i])
            voting = [
                int(b[int(panel_rows[i, j])])
                for j in range(j_eff)
                if alive_row[int(panel_rows[i, j])]
                and self._machines[int(b[int(panel_rows[i, j])])].failures_of(target)
                >= cfg.failure_threshold
            ]
            if len(voting) >= cfg.quorum:
                reports.append((target, voting[0]))
        self._round += 1
        return reports

    def forget(self, node_ids: "Iterable[int]") -> None:
        """Drop the pair state of ``node_ids`` *as targets* — exactly the
        rows the vectorized twin resets. A forgotten peer's own machine
        stays: other panels may still list it as a monitor, and the next
        :meth:`_sync_watches` unwatches and reaps it once none does."""
        for nid in node_ids:
            nid = int(nid)
            for m_prev in self._prev_panels.pop(nid, ()):
                machine = self._machines.get(m_prev)
                if machine is not None:
                    machine.unwatch(nid)


class ProbeView(MembershipView):
    """Probe-derived liveness over a :class:`~repro.ring.ring.Ring`.

    Args:
        ring: The substrate ring (ground truth lives in its bitmap).
        config: Detector/gossip knobs.
        seed: Root seed for the detector's private
            ``("steady-detect", epoch)`` streams — independent of every
            engine stream, so installing a ``ProbeView`` consumes zero
            draws from the engine's generators (the oracle path stays
            bit-identical by construction).
        backend: ``"vectorized"`` (default) or ``"scalar"`` — the
            detector bank and the gossip plane switch together.

    Attributes:
        detection_lags: Epoch lag (eviction epoch − recorded death
            epoch) per evicted recorded death.
        false_evictions: Evictions of truth-live peers (the evicted
            peer is then ground-truth killed — the overlay *treats*
            it as dead, so it is).
        evictions: Total peers evicted so far.
    """

    def __init__(
        self,
        ring: "Ring",
        config: DetectorConfig | None = None,
        *,
        seed: int = 0,
        backend: str = "vectorized",
    ) -> None:
        super().__init__(ring)
        self.config = config or DetectorConfig()
        self.seed = int(seed)
        if backend == "vectorized":
            self._bank: ScalarDetectorBank | VectorizedDetectorBank = (
                VectorizedDetectorBank(self.config, ring.state)
            )
            self._gossip: GossipMembership | ScalarGossipMembership = GossipMembership(self.config)
        elif backend == "scalar":
            self._bank = ScalarDetectorBank(self.config)
            self._gossip = ScalarGossipMembership(self.config)
        else:
            raise ConfigError(
                f"backend must be 'vectorized' or 'scalar', got {backend!r}"
            )
        self.backend = backend
        self.detection_lags: list[int] = []
        self.false_evictions = 0
        self.evictions = 0

    # -- believed knowledge --------------------------------------------

    def _believed(self) -> tuple[np.ndarray, np.ndarray]:
        state = self.ring.state
        slots = self.ring.slots_array(live_only=False)
        slots = slots[~state.believed_dead[slots]]
        return state.node_id[slots], slots

    def _slots(self, node_ids: "Iterable[NodeId]") -> np.ndarray:
        """Slots of the ``node_ids`` the ring still knows."""
        slots = self.ring.state.slots_of(np.fromiter(node_ids, dtype=np.int64))
        return slots[slots >= 0]

    def live_ids(self) -> np.ndarray:
        """Believed-live ids, ring order — truth-dead peers linger here
        until evicted; that lingering *is* the detection lag."""
        return self._believed()[0]

    def live_slots(self) -> np.ndarray:
        """Believed-live slots, ring order."""
        return self._believed()[1]

    def is_live(self, node_id: NodeId) -> bool:
        """Believed liveness (may disagree with the bitmap both ways)."""
        slot = self.ring.state.slot_of(node_id)
        return slot >= 0 and not self.ring.state.believed_dead[slot]

    @property
    def live_count(self) -> int:
        """Believed-live population size."""
        return int(self._believed()[1].size)

    # -- failure injection (ground truth) ------------------------------
    # ``crash`` / ``crash_fraction`` are the base's: the view keeps
    # believing the victims alive until their panels vote them out.

    def revive(self, node_ids: "Iterable[NodeId]") -> list[NodeId]:
        """Ground-truth revive; also restores belief (an evicted peer
        that comes back re-enters the believed set with fresh detector
        state and may be reported dead again later)."""
        ids = [int(n) for n in node_ids]
        revived = super().revive(ids)
        state, slots = self.ring.state, self._slots(ids)
        state.believed_dead[slots] = False
        state.died_at[slots] = -1
        self._gossip.forget(ids)
        self._bank.forget(revived)
        return revived

    # -- knowledge acquisition -----------------------------------------

    def advance(self, epoch: int) -> list[NodeId]:
        """Run ``rounds_per_epoch`` probe+gossip rounds for ``epoch``.

        Each round: one shared uniform draw feeds the detector bank,
        quorum votes start dead reports, and the epidemic advances one
        push round — completed reports evict their targets from the
        believed set immediately (the next round's panels already
        exclude them). Returns the newly evicted ids, eviction order.
        """
        rng = split(self.seed, "steady-detect", int(epoch))
        evicted: list[NodeId] = []
        for _ in range(self.config.rounds_per_epoch):
            believed_ids, believed_slots = self._believed()
            t = int(believed_ids.size)
            j_eff = min(self.config.n_monitors, t - 1)
            if j_eff > 0:
                u = rng.random((t, j_eff))
                reports = self._bank.round(
                    believed_ids, believed_slots, self.ring.state.alive, u
                )
                if reports:
                    self._gossip.start_many(*np.array(reports, dtype=np.int64).T)
            for target in self._gossip.spread(believed_ids, rng):
                self._evict(int(target), int(epoch))
                evicted.append(int(target))
        return evicted

    def _evict(self, target: int, epoch: int) -> None:
        self.evictions += 1
        state = self.ring.state
        slot = state.slot_of(target)
        if slot < 0:  # compacted while its report was still spreading
            return
        state.believed_dead[slot] = True
        if state.died_at[slot] >= 0:
            self.detection_lags.append(epoch - int(state.died_at[slot]))
            state.died_at[slot] = -1
        elif state.alive[slot]:
            self.false_evictions += 1
            self.ring.mark_dead(target)

    def record_deaths(self, node_ids: "Iterable[NodeId]", epoch: int) -> None:
        """Stamp environment-caused deaths with their epoch so eviction
        can measure the lag (first stamp wins)."""
        state, slots = self.ring.state, self._slots(node_ids)
        slots = slots[~state.believed_dead[slots] & (state.died_at[slots] < 0)]
        state.died_at[slots] = int(epoch)

    def forget(self, node_ids: "Iterable[NodeId]") -> None:
        """Drop what is keyed by *id* — gossip reports in flight and
        the scalar bank's machines — **before** the ring compacts the
        peers away. What is keyed by slot (belief, death stamps, the
        kernel's probe rows) needs nothing: freeing a slot clears it."""
        ids = [int(n) for n in node_ids]
        self._bank.forget(ids)
        self._gossip.forget(ids)
