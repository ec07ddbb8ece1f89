"""The numpy twin of the scalar detector bank — one round, no loops.

The sim probes every believed-live peer every round: at 50k+ peers the
scalar machines would burn hundreds of thousands of Python dict
operations per round, so the hot path runs over struct-of-arrays
state instead — the ``probe_fails`` / ``probe_pending`` /
``probe_monitor`` matrix columns of the ring's
:class:`~repro.core.soa.SubstrateState` (one row per target slot, one
column per monitor rank), one boolean-mask update per round. They are
columns like any other: a compacted peer's row is cleared with its
slot, so the next peer to get the slot starts a fresh schedule.

Pinned semantics (the hypothesis differential in
``tests/test_membership.py`` holds the two banks bit-identical on
every observable):

* the probe **panel** is rank-keyed: target at believed-ring row ``i``
  is watched by the believed peers at rows ``i+1 .. i+J`` (clockwise
  successors), and a pair's failure counter resets whenever the
  monitor occupying that rank changes — a panel reshuffle restarts the
  probe schedule, exactly like the scalar bank's unwatch/rewatch;
* failures increment one round late (a probe sent in round ``r`` times
  out at the start of round ``r+1``), mirroring the scalar machine's
  poll-then-answer cadence;
* a truth-dead monitor probes nothing, counts nothing and votes
  nothing (dead peers don't run detectors), but keeps *being* probed
  until its own eviction completes;
* a vote is a pair with ``failures >= K`` after this round's on-time
  answers reset their counters — quorum is counted over distinct
  monitors, which rank-keying guarantees structurally.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..core.soa import SubstrateState
from .config import DetectorConfig

__all__ = ["VectorizedDetectorBank"]


class VectorizedDetectorBank:
    """The probe columns of ``state`` advancing one round at a time."""

    _COLUMNS = ("probe_fails", "probe_pending", "probe_monitor")

    def __init__(self, config: DetectorConfig, state: SubstrateState) -> None:
        self.config = config
        self.state = state
        for name in self._COLUMNS:
            state.ensure_width(name, config.n_monitors)

    def forget(self, node_ids: "Iterable[int]") -> None:
        """Restart the probe schedule of ``node_ids`` as targets (a
        revived peer re-enters with clean counters). Compaction needs no
        call: freeing a slot clears its row."""
        slots = self.state.slots_of(np.fromiter(node_ids, dtype=np.int64))
        slots = slots[slots >= 0]
        for name in self._COLUMNS:
            getattr(self.state, name)[slots] = self.state.COLUMNS[name].fill

    def round(
        self,
        believed_ids: np.ndarray,
        believed_slots: np.ndarray,
        alive: np.ndarray,
        u: np.ndarray,
    ) -> list[tuple[int, int]]:
        """Advance one probe round over the believed-live population.

        Args:
            believed_ids: Believed-live ids, ring order (``T``).
            believed_slots: Their physical slots, aligned.
            alive: The full ground-truth liveness column (indexed by
                slot) — who actually answers probes.
            u: The round's ``(T, J_eff)`` uniform matrix (shared with
                the scalar bank — one draw, two consumers).

        Returns ``(target_id, origin_monitor_id)`` pairs that reached
        the suspicion quorum this round, in believed-ring order, origin
        being the lowest-rank voting monitor.
        """
        cfg = self.config
        t = int(believed_ids.size)
        j_eff = int(u.shape[1]) if u.ndim == 2 else 0
        if t == 0 or j_eff == 0:
            return []
        state = self.state
        b = believed_ids.astype(np.int64, copy=False)
        s = believed_slots.astype(np.int64, copy=False)
        # Rank-keyed panels: rows i+1..i+J_eff (mod T) monitor row i.
        offsets = np.arange(1, j_eff + 1, dtype=np.int64)
        panel_rows = (np.arange(t, dtype=np.int64)[:, None] + offsets[None, :]) % t
        monitor_ids = b[panel_rows]
        monitor_slots = s[panel_rows]

        snap = state.probe_fails[s]
        counts = snap[:, :j_eff]
        pend_snap = state.probe_pending[s]
        pending = pend_snap[:, :j_eff]
        mon_snap = state.probe_monitor[s]
        prev_monitors = mon_snap[:, :j_eff]

        changed = prev_monitors != monitor_ids
        counts[changed] = 0
        pending[changed] = False

        monitor_alive = alive[monitor_slots]
        target_alive = alive[s][:, None]
        # Last round's unanswered probes time out now — but only where
        # the monitor still runs (dead peers poll nothing).
        counts += (pending & monitor_alive).astype(np.int64)
        ok = monitor_alive & target_alive & (u >= cfg.loss)
        counts[ok] = 0
        votes = monitor_alive & (counts >= cfg.failure_threshold)
        fail = monitor_alive & ~ok

        reports: list[tuple[int, int]] = []
        tallies = votes.sum(axis=1)
        for i in np.nonzero(tallies >= cfg.quorum)[0]:
            j0 = int(np.nonzero(votes[int(i)])[0][0])
            reports.append((int(b[int(i)]), int(monitor_ids[int(i), j0])))

        snap[:, :j_eff] = counts
        snap[:, j_eff:] = 0
        pend_snap[:, :j_eff] = fail
        pend_snap[:, j_eff:] = False
        mon_snap[:, :j_eff] = monitor_ids
        mon_snap[:, j_eff:] = -1
        state.probe_fails[s] = snap
        state.probe_pending[s] = pend_snap
        state.probe_monitor[s] = mon_snap
        return reports
