"""Probe-derived membership: the :class:`ProbeView`.

This is the sim half of the tentpole — a :class:`~repro.membership
.views.MembershipView` whose knowledge comes from failure detectors
and gossip instead of the liveness bitmap. The engine keeps killing
peers through ground truth (``crash`` / session expiry), but everything
the engine *reads* — ``live_ids()``, ``live_slots()``, ``is_live`` —
answers with the **believed** population: truth-dead peers stay
believed-live until a quorum of their probe panels votes them out and
the resulting dead report finishes spreading. The gap between a
recorded death and its eviction is the *detection lag*; evicting a
truth-live peer (possible under probe loss) is a *false eviction*,
handed back for the caller to kill — both are first-class measurements
(registry rows, :mod:`repro.obs`) the ``detector-grid`` scenario sweeps.

A probe round is the numpy kernel :class:`~repro.membership.vectorized
.VectorizedDetectorBank`, fed one uniform draw matrix per round (one
``rng.random((T, J_eff))`` from the ``("steady-detect", epoch)``
stream); dead reports spread through the count plane
:class:`~repro.membership.gossip.GossipMembership`. Their reference
twins — a bank of :class:`~repro.membership.detector.FailureDetector`
machines on a synthetic round clock, and a per-report gossip plane —
live in ``tests/twins/``, installed as a ``ProbeView`` subclass's
``_bank`` and ``_gossip``, and the hypothesis differential in
``tests/test_membership.py`` pins them bit-identical on every
observable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..rng import split
from ..types import NodeId
from .config import DetectorConfig
from .gossip import GossipMembership
from .vectorized import VectorizedDetectorBank
from .views import MembershipView

if TYPE_CHECKING:  # pragma: no cover - annotation-only
    from ..ring import Ring

__all__ = ["ProbeView"]


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

    Each :meth:`advance` writes a ``membership`` row (``evictions ==
    lagged + false_evictions + moot``) into the ring's registry, and each
    lagged eviction a ``detection`` row (``docs/observability.md``).
    """

    def __init__(
        self,
        ring: "Ring",
        config: DetectorConfig | None = None,
        *,
        seed: int = 0,
    ) -> None:
        super().__init__(ring)
        self.config = config or DetectorConfig()
        self.seed = int(seed)
        self._bank = VectorizedDetectorBank(self.config, ring.state)
        self._gossip = GossipMembership(self.config)

    # Views over the registry for ``bench/harness.py`` (``evictions`` is
    # also the serve engine's belief version); they go once the bench
    # reads ``table``.

    @property
    def evictions(self) -> int:
        """Peers evicted so far."""
        return self.ring.state.obs.total("membership", "evictions")

    @property
    def false_evictions(self) -> int:
        """Truth-live peers evicted so far."""
        return self.ring.state.obs.total("membership", "false_evictions")

    @property
    def detection_lags(self) -> list[int]:
        """Epoch lag of every evicted recorded death, eviction order."""
        return self.ring.state.obs.table("detection").get("lag", np.zeros(0, int)).tolist()

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
        """Ground-truth revive; also restores belief (an evicted or
        reprieved peer re-enters the believed set with fresh detector
        state and may be reported dead again later)."""
        ids = [int(n) for n in node_ids]
        revived = super().revive(ids)
        state, slots = self.ring.state, self._slots(ids)
        state.believed_dead[slots] = False
        state.died_at[slots] = -1
        self._gossip.forget(ids)
        self._bank.forget(ids)
        return revived

    # -- knowledge acquisition -----------------------------------------

    def advance(self, epoch: int) -> list[NodeId]:
        """Run ``rounds_per_epoch`` probe+gossip rounds for ``epoch``.

        Each round: one shared uniform draw feeds the detector bank,
        quorum votes start dead reports, and the epidemic advances one
        push round — completed reports evict their targets from the
        believed set immediately (the next round's panels already
        exclude them). Records the epoch's ``membership`` row; returns
        the truth-live peers it evicted, eviction order (the churn
        engine sends them through its departure door).
        """
        rng = split(self.seed, "steady-detect", int(epoch))
        false_evicted: list[NodeId] = []
        outcomes = dict.fromkeys(("lagged", "false_evictions", "moot"), 0)
        for _ in range(self.config.rounds_per_epoch):
            believed_ids, believed_slots = self._believed()
            t = int(believed_ids.size)
            j_eff = min(self.config.n_monitors, t - 1)
            if j_eff > 0:
                u = rng.random((t, j_eff))
                targets, origins = self._bank.round(
                    believed_ids, believed_slots, self.ring.state.alive, u
                )
                if targets.size:
                    self._gossip.start_many(targets, origins)
            for target in self._gossip.spread(believed_ids, rng):
                outcome = self._evict(int(target), int(epoch))
                outcomes[outcome] += 1
                if outcome == "false_evictions":
                    false_evicted.append(int(target))
        self.ring.state.obs.record(
            "membership", epoch, evictions=sum(outcomes.values()), **outcomes
        )
        return false_evicted

    def _evict(self, target: int, epoch: int) -> str:
        """Believe ``target`` dead; returns the outcome's ``membership`` column."""
        state = self.ring.state
        slot = state.slot_of(target)
        if slot < 0:  # compacted while its report was still spreading
            return "moot"
        state.believed_dead[slot] = True
        if state.died_at[slot] >= 0:
            state.obs.record("detection", epoch, lag=epoch - int(state.died_at[slot]))
            state.died_at[slot] = -1
            return "lagged"
        if state.alive[slot]:
            return "false_evictions"
        return "moot"

    def record_deaths(self, node_ids: "Iterable[NodeId]", epoch: int) -> None:
        """Stamp environment-caused deaths with their epoch so eviction
        can measure the lag (first stamp wins)."""
        state, slots = self.ring.state, self._slots(node_ids)
        slots = slots[~state.believed_dead[slots] & (state.died_at[slots] < 0)]
        state.died_at[slots] = int(epoch)

    def forget(self, node_ids: "Iterable[NodeId]") -> None:
        """Drop what is keyed by *id* — gossip reports in flight, and
        the machines of a bank that keys them by id — **before** the ring
        compacts the peers away. What is keyed by slot (belief, death
        stamps, the kernel's probe rows) needs nothing: freeing a slot
        clears it."""
        ids = [int(n) for n in node_ids]
        self._bank.forget(ids)
        self._gossip.forget(ids)
