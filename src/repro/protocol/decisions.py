"""The atomic protocol decisions, stated once for every execution path.

Each function here is a *local* rule a peer applies to information it
can legitimately hold — its own counters plus what arrived in messages.
The construction engine's sequential reference and the
:mod:`repro.net` runtime (its per-hop
:class:`~repro.protocol.routing.GreedyRouter` included) call these same
functions, which is what pins the paths to one protocol:

* a candidate acknowledges a link request iff :func:`accepts_link`;
* among acknowledging candidates the requester links the
  :func:`link_winner_key` minimum (the paper's power-of-two choice);
* a restricted walker moves iff :func:`mh_accepts` (the
  Metropolis–Hastings degree correction);
* partition estimation stops at a border iff :func:`border_is_terminal`;
* a greedy router forwards to :func:`closest_preceding`.

Functions taking an ``rng`` consume the passed labelled stream exactly
as the historical inline code did — same call order, same conditional
draws — so extracting them here cannot shift any RNG stream layout.
"""

from __future__ import annotations

from typing import Iterable, Sequence, TypeVar

import numpy as np

from ..ring.identifiers import in_cw_interval
from ..types import NodeId

__all__ = [
    "accepts_link",
    "border_is_terminal",
    "closest_preceding",
    "cw_closer",
    "link_winner_key",
    "mh_accepts",
    "propose_neighbor",
]

T = TypeVar("T")


def accepts_link(in_degree: int, rho_max_in: int) -> bool:
    """Whether a peer acknowledges one more incoming long link.

    The hard-cap rule of paper §2: a peer contributes at most the
    in-capacity it volunteered, so it acknowledges while strictly below
    ``rho_max_in`` and refuses at the cap.
    """
    return in_degree < rho_max_in


def link_winner_key(in_degree: int, rho_max_in: int, node_id: NodeId) -> tuple[int, int, int]:
    """Sort key selecting the power-of-two winner among acknowledgers.

    Lowest current in-degree wins; ties break toward more spare
    capacity (``in_degree - rho_max_in`` is ``-spare`` for any
    acknowledging candidate, which is the only kind this key ranks),
    then toward the smaller id for determinism. The requester computes
    this from fields the candidates reported — no global state needed.
    """
    return (int(in_degree), int(in_degree) - int(rho_max_in), int(node_id))


def mh_accepts(deg_here: int, deg_there: int, rng: np.random.Generator) -> bool:
    """Metropolis–Hastings acceptance for a walk move ``here -> there``.

    Accept with probability ``min(1, deg_here / deg_there)`` (degrees
    counted within the restricted subgraph), which makes the walk's
    stationary distribution uniform regardless of heterogeneous degree
    caps. Consumes one ``rng.random()`` draw *only* when
    ``deg_there > deg_here`` — the certain-accept case draws nothing,
    and every caller depends on that conditional-draw layout.
    """
    return deg_there <= deg_here or rng.random() < deg_here / deg_there


def propose_neighbor(neighbors: Sequence[T], rng: np.random.Generator) -> T:
    """Uniform walk proposal among the restricted neighbors (one draw)."""
    return neighbors[int(rng.integers(0, len(neighbors)))]


def border_is_terminal(border: float, origin: float, previous_end: float) -> bool:
    """Whether an estimated ``border`` ends the recursive-median descent.

    The border must land strictly inside ``(origin, previous_end)`` — at
    the arc end the next arc would be degenerate, so estimation stops.
    Decided with the same comparison-exact interval predicate
    :class:`~repro.core.partitions.PartitionTable` validates with, so an
    estimator can never hand the table a border the table would reject.
    Shared by the construction engine (:mod:`repro.engine.construct`) —
    whose vectorized kernel must agree with this predicate bit-for-bit —
    and, through :func:`~repro.protocol.estimation.select_border`, the
    live runtime's join machine.
    """
    return border == previous_end or not in_cw_interval(border, origin, previous_end)


def cw_closer(origin: float, a: float, b: float) -> bool:
    """Exact "is ``a`` strictly closer clockwise from ``origin`` than
    ``b``" — pure comparisons, no subtraction, no rounding.

    Clockwise from ``origin``, positions at or after it (``>= origin``)
    come first in plain float order, then the wrapped positions
    (``< origin``) in plain float order; ``origin`` itself is distance
    zero.
    """
    if a == b:
        return False
    after_a = a >= origin
    after_b = b >= origin
    if after_a != after_b:
        return after_a
    return a < b


def closest_preceding(
    current: NodeId,
    current_pos: float,
    target_key: float,
    fallback: NodeId,
    fallback_pos: float,
    candidates: Iterable[tuple[NodeId, float]],
) -> tuple[NodeId, float]:
    """The neighbor making maximal clockwise progress without passing the key.

    Chord's *closest preceding node* rule over ``(id, position)``
    candidate pairs, with the ring successor as the always-valid
    fallback (it cannot pass the key — the caller already handled the
    final interval). First-listed wins ties (exact comparisons can only
    tie on equal positions, which the ring forbids). The zero-span guard
    matters: with ``target_key == current_pos`` the interval
    ``(current, current]`` would read as the whole circle, so only the
    fallback is legal there.
    """
    best = fallback
    best_pos = fallback_pos
    if target_key != current_pos:
        for candidate, candidate_pos in candidates:
            if candidate == current:
                continue
            # "(current, key]" guard: skip neighbors past the key. The
            # interval predicate is comparison-based, so "past" cannot
            # be blurred by rounding.
            if not in_cw_interval(candidate_pos, current_pos, target_key):
                continue
            if cw_closer(current_pos, best_pos, candidate_pos):
                best = candidate
                best_pos = candidate_pos
    return best, best_pos
