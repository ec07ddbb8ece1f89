"""The detector bank as numpy — one round, no loops.

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
``tests/test_membership.py`` holds this bank and the scalar bank of
``tests/twins/`` bit-identical on every observable):

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
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance one probe round over the believed-live population.

        Args:
            believed_ids: Believed-live ids, ring order (``T``).
            believed_slots: Their physical slots, aligned.
            alive: The full ground-truth liveness column (indexed by
                slot) — who actually answers probes.
            u: The round's ``(T, J_eff)`` uniform matrix (shared with
                the scalar bank — one draw, two consumers).

        Returns the ids of the targets that reached the suspicion
        quorum this round, in believed-ring order, and aligned with
        them each one's origin: its lowest-rank voting monitor.
        """
        cfg = self.config
        t = int(believed_ids.size)
        j_eff = int(u.shape[1]) if u.ndim == 2 else 0
        b = believed_ids.astype(np.int64, copy=False)
        if t == 0 or j_eff == 0:
            return b[:0], b[:0]
        state = self.state
        s = believed_slots.astype(np.int64, copy=False)
        # Rank-keyed panels: rows i+1..i+J_eff (mod T) monitor row i, a
        # window sliding over the ring order wrapped by its first J_eff rows.
        window = np.lib.stride_tricks.sliding_window_view
        target_alive = alive.take(s)
        monitor_ids = window(np.concatenate([b, b[:j_eff]]), j_eff)[1:]
        monitor_alive = window(np.concatenate([target_alive, target_alive[:j_eff]]), j_eff)[1:]

        fails = state.probe_fails.take(s, axis=0)
        pend = state.probe_pending.take(s, axis=0)
        monitors = state.probe_monitor.take(s, axis=0)
        kept = monitors[:, :j_eff] == monitor_ids

        # A changed monitor restarts the pair at zero; last round's
        # unanswered probes time out now — but only where the monitor still
        # runs (dead peers poll nothing); an on-time answer resets the count.
        ok = monitor_alive & target_alive[:, None] & (u >= cfg.loss)
        counts = (fails[:, :j_eff] + (pend[:, :j_eff] & monitor_alive)) * (kept & ~ok)
        votes = monitor_alive & (counts >= cfg.failure_threshold)
        fail = monitor_alive & ~ok

        # The quorum rows, and in each the first voting rank. The tally sums
        # the contiguous transpose: a reduction along the short J_eff axis
        # costs several times more.
        hit = np.flatnonzero(np.ascontiguousarray(votes.T).sum(axis=0) >= cfg.quorum)
        origins = monitor_ids[hit, votes[hit].argmax(axis=1)]

        # Write back only the rows this round changed; ranks past J_eff clear.
        moved = ~kept | (fails[:, :j_eff] != counts) | (pend[:, :j_eff] != fail)
        dirty = np.ascontiguousarray(moved.T).any(axis=0)
        if j_eff < fails.shape[1]:  # a believed ring too small for every rank
            dirty |= fails[:, j_eff:].any(axis=1) | pend[:, j_eff:].any(axis=1)
            dirty |= (monitors[:, j_eff:] != -1).any(axis=1)
        rows = np.flatnonzero(dirty)
        at = s[rows]
        for name, cols in zip(self._COLUMNS, (counts, fail, monitor_ids)):
            column = getattr(state, name)
            column[at, :j_eff] = cols[rows]
            column[at, j_eff:] = state.COLUMNS[name].fill
        return b[hit], origins
