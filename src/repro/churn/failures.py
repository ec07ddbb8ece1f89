"""Static failure injection: the paper's crash experiments.

The churn evaluation (paper §3, Figure 2) crashes a fixed fraction of
the population at once — 10% and 33% — assumes ring self-stabilization
repairs successor/predecessor pointers among survivors, leaves
long-range links dangling, and then measures query cost with the
fault-aware router.

Liveness itself is mutated through the membership API —
:meth:`OracleView.crash <repro.membership.views.OracleView.crash>` /
``revive`` / ``crash_fraction``. :func:`apply_churn` and
:func:`revive_all` are *procedures* (the paper's exact experiment
steps) that route through that view.
"""

from __future__ import annotations

from ..config import ChurnConfig
from ..membership import OracleView
from ..ring import Ring, RingPointers, repair_all
from ..rng import split
from ..types import NodeId

__all__ = ["revive_all", "apply_churn"]


def revive_all(ring: Ring, victims: "list[NodeId]") -> None:
    """Undo a crash wave (lets one built network serve several churn
    cases without rebuilding)."""
    OracleView(ring).revive(victims)


def apply_churn(ring: Ring, pointers: RingPointers, config: ChurnConfig) -> list[NodeId]:
    """Run one churn case: crash victims, then (optionally) repair the ring.

    Victim selection uses a stream derived from ``config.seed`` so the
    same network can be measured under different kill fractions with
    non-overlapping victim randomness. The kill itself goes through the
    membership API (:meth:`OracleView.crash_fraction
    <repro.membership.views.OracleView.crash_fraction>`).

    Returns the victims so the caller can :func:`revive_all` afterwards.
    """
    if not config.is_faulty:
        return []
    rng = split(config.seed, "churn-victims", int(config.kill_fraction * 1_000_000))
    victims = OracleView(ring).crash_fraction(rng, config.kill_fraction)
    if config.repair_ring:
        repair_all(ring, pointers)
    return victims
