"""The membership twins: a scalar detector bank and a per-report gossip plane.

:class:`ScalarProbeView` is a :class:`~repro.membership.probe.ProbeView`
whose ``_bank`` and ``_gossip`` are the reference twins of the numpy
kernels it otherwise runs:

* :class:`ScalarDetectorBank` — one sans-I/O
  :class:`~repro.membership.detector.FailureDetector` per monitor,
  driven on a synthetic round clock (poll at ``now=r``, on-time pongs at
  ``now=r+0.25``): the protocol core's one statement of the K-failures /
  quorum rule, against :class:`~repro.membership.vectorized
  .VectorizedDetectorBank`;
* :class:`ScalarGossipMembership` — dicts, one scalar ``rng.binomial``
  per report, against the count plane
  :class:`~repro.membership.gossip.GossipMembership`.

Both consume the same draws as the kernels and must agree with them on
every observable.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.membership import DetectorConfig, FailureDetector, ProbeView
from repro.protocol.messages import Pong
from repro.types import NodeId

if TYPE_CHECKING:  # pragma: no cover - annotation-only
    from repro.ring import Ring

__all__ = ["ScalarDetectorBank", "ScalarGossipMembership", "ScalarProbeView"]


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
    ) -> tuple[np.ndarray, np.ndarray]:
        """One probe round; same contract as
        :meth:`repro.membership.vectorized.VectorizedDetectorBank.round`."""
        cfg = self.config
        t = int(believed_ids.size)
        j_eff = int(u.shape[1]) if u.ndim == 2 else 0
        b = believed_ids.astype(np.int64, copy=False)
        if t == 0 or j_eff == 0:
            return b[:0], b[:0]
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
        targets, origins = np.array(reports, dtype=np.int64).reshape(-1, 2).T
        return targets, origins

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


class ScalarGossipMembership:
    """:class:`GossipMembership`'s twin: dicts, one scalar draw a report."""

    def __init__(self, config: DetectorConfig | None = None) -> None:
        self.config = config or DetectorConfig()
        self.completed: set[int] = set()
        self._count: dict[int, int] = {}
        self._age: dict[int, int] = {}

    @property
    def active(self) -> list[int]:
        return sorted(self._count)

    def informed_count(self, target: NodeId) -> int:
        return self._count.get(int(target), 0)

    def start(self, target: NodeId, origin: NodeId) -> bool:
        target = int(target)
        if target in self._count or target in self.completed:
            return False
        self._count[target], self._age[target] = 1, 0
        return True

    def start_many(self, targets: "Iterable[NodeId]", origins: "Iterable[NodeId]") -> int:
        return sum(self.start(t, o) for t, o in zip(targets, origins))

    def cancel(self, target: NodeId) -> None:
        self._count.pop(int(target), None)
        self._age.pop(int(target), None)

    def forget(self, targets: "Iterable[NodeId]") -> None:
        for target in targets:
            self.cancel(target)
            self.completed.discard(int(target))

    def spread(self, live_ids: np.ndarray, rng: np.random.Generator) -> list[int]:
        n = int(np.asarray(live_ids).size)
        bound = self.config.staleness_bound(max(n, 2))
        done: list[int] = []
        for target in self.active:
            self._age[target] += 1
            if n > 0:
                k = min(self._count[target], n)
                miss, base, e = 1.0, 1.0 - 1.0 / n, k * self.config.gossip_fanout
                while e:
                    miss, base, e = miss * base if e & 1 else miss, base * base, e >> 1
                self._count[target] = k + int(rng.binomial(n - k, 1.0 - miss))
            if self._count[target] >= n or self._age[target] >= bound:
                done.append(target)
        self.forget(done)
        self.completed.update(done)
        return done


class ScalarProbeView(ProbeView):
    """:class:`~repro.membership.probe.ProbeView` on the scalar bank and
    the per-report gossip plane. The kernel bank the base constructor
    builds is replaced at once; the ``probe_*`` columns it widened stay
    at their fill, which is why the differentials skip them."""

    def __init__(
        self, ring: "Ring", config: DetectorConfig | None = None, *, seed: int = 0
    ) -> None:
        super().__init__(ring, config, seed=seed)
        self._bank = ScalarDetectorBank(self.config)
        self._gossip = ScalarGossipMembership(self.config)
