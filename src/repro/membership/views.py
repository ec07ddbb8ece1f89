"""The unified liveness surface: ``MembershipView``.

Before this package, "who is alive" leaked through three unrelated
surfaces: the churn engine read the liveness bitmap directly, the crash
experiments called free-floating helper functions on the ring, and the
net runtime trusted a seed-dealt directory. :class:`MembershipView` is
the one base class that replaced all of them — engines and drivers ask
the *view* who is alive, and inject failures through the view's
``crash()`` / ``revive()`` methods (ground truth, written once in the
base).

Two implementations ship:

* :class:`OracleView` — knowledge **is** ground truth: ``live_ids()``
  delegates straight to the ring's liveness bitmap, detection lag is
  zero by construction, and every read is byte-for-byte the call the
  pre-redesign engine made — which is what keeps the default
  ``steady-churn`` behavior bit-identical across the redesign.
* :class:`~repro.membership.probe.ProbeView` — knowledge is
  *probe-derived*: peers learn about deaths only through failure
  detectors and gossip, so believed-live lags truth by the detection
  lag, and lossy probes can evict the living (both measured).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from ..errors import EmptyPopulationError
from ..types import NodeId

if TYPE_CHECKING:  # pragma: no cover - annotation-only
    from ..ring import Ring

__all__ = ["MembershipView", "OracleView"]


class MembershipView(ABC):
    """What every liveness consumer is allowed to ask, and nothing more.

    ``live_ids()`` / ``live_slots()`` answer in ring (position) order —
    the exact shape :meth:`Ring.ids_array
    <repro.ring.ring.Ring.ids_array>` returns, so the engines' kernels
    consume either implementation unchanged; each subclass defines the
    four reads in its own class body. The mutation half (``crash`` /
    ``revive`` / ``crash_fraction``) is the supported failure-injection
    API and acts on ground truth, so it lives here: idempotent per
    peer, changed ids returned in input order, and ``crash_fraction``
    never kills the entire population. ``advance`` / ``record_deaths``
    / ``forget`` are the engine-facing knowledge hooks — no-ops here,
    because a view whose knowledge *is* truth has nothing to learn.

    Attributes:
        ring: The substrate ring (ground truth lives in its bitmap).
        evictions: Peers this view has evicted so far (never any,
            unless a subclass detects deaths itself).
    """

    evictions = 0

    def __init__(self, ring: "Ring") -> None:
        self.ring = ring

    # -- knowledge (each view's own) -----------------------------------

    @abstractmethod
    def live_ids(self) -> np.ndarray:
        """Believed-live peer ids, ring order."""

    @abstractmethod
    def live_slots(self) -> np.ndarray:
        """Believed-live physical slots, ring order."""

    @abstractmethod
    def is_live(self, node_id: NodeId) -> bool:
        """Whether this view believes ``node_id`` is alive."""

    @property
    @abstractmethod
    def live_count(self) -> int:
        """Believed-live population size."""

    # -- failure injection (ground truth) ------------------------------

    def crash(self, node_ids: "Iterable[NodeId]") -> list[NodeId]:
        """Ground-truth kill in one masked write (idempotent per peer);
        returns the ids that changed state, in input order. An unknown
        id raises before anyone dies."""
        return self._write(node_ids, self.ring.mark_dead_slots)

    def revive(self, node_ids: "Iterable[NodeId]") -> list[NodeId]:
        """Ground-truth revive: :meth:`crash`'s mirror."""
        return self._write(node_ids, self.ring.mark_alive_slots)

    def _write(
        self, node_ids: "Iterable[NodeId]", write: Callable[[np.ndarray], None]
    ) -> list[NodeId]:
        ids = np.fromiter(node_ids, dtype=np.int64)
        slots = self.ring.known_slots(ids)
        first = np.sort(np.unique(slots, return_index=True)[1])
        before = self.ring.state.alive[slots[first]]
        write(slots)
        return ids[first[self.ring.state.alive[slots[first]] != before]].tolist()

    def crash_fraction(self, rng: np.random.Generator, fraction: float) -> list[NodeId]:
        """Crash ``fraction`` of the truth-live population, chosen uniformly.

        ``floor(fraction * live_count)`` victims, but never the entire
        population (at least one peer survives); victims are drawn from
        the truth-live peers only (one ``rng.choice`` without
        replacement). Returns the victims' ids.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        live = self.ring.ids_array(live_only=True)
        if live.size == 0:
            raise EmptyPopulationError("no live peers to crash")
        n_victims = min(int(fraction * live.size), live.size - 1)
        if n_victims <= 0:
            return []
        victims = rng.choice(live, size=n_victims, replace=False)
        return self.crash(victims)

    # -- engine hooks (knowledge == truth: nothing to do) --------------

    def advance(self, epoch: int) -> list[NodeId]:
        """Run one epoch of knowledge acquisition; returns the truth-live
        peers it evicted, for the caller to kill (none here)."""
        return []

    def record_deaths(self, node_ids: "Iterable[NodeId]", epoch: int) -> None:
        """Note ground-truth deaths the environment caused (session
        expiry), so detection lag has a reference point."""

    def forget(self, node_ids: "Iterable[NodeId]") -> None:
        """Drop what the view keys by node id ahead of compaction (what
        is keyed by slot is cleared with the slot)."""


class OracleView(MembershipView):
    """Omniscient liveness: the ring's bitmap, verbatim.

    The reference/default implementation — every accessor delegates to
    the exact :class:`~repro.ring.ring.Ring` call the pre-redesign code
    made, so installing an ``OracleView`` changes *nothing* observable
    (the bit-identity half of the acceptance criteria).
    """

    def live_ids(self) -> np.ndarray:
        """Live ids straight off the bitmap, ring order."""
        return self.ring.ids_array(live_only=True)

    def live_slots(self) -> np.ndarray:
        """Live slots straight off the bitmap, ring order."""
        return self.ring.slots_array(live_only=True)

    def is_live(self, node_id: NodeId) -> bool:
        """Ground truth, no lag."""
        return self.ring.is_alive(node_id)

    @property
    def live_count(self) -> int:
        """Ground-truth live population."""
        return self.ring.live_count
