"""Lock-step restricted random walks over a shared neighbor snapshot.

Oscar estimates each partition border as the median of a *uniform*
sample of a clockwise arc of the population; the paper adopts Mercury's
random-walk sampler, restricted so walkers "do not visit nodes with
identifiers that do not belong to the current population". A full
rewiring round runs ``k - 1`` such walks for *every* peer, so
:class:`BatchRestrictedWalker` advances all walkers simultaneously: one
padded neighbor-row matrix is shared by all of them (captured once per
estimation pass), and each step is a handful of array gathers over every
active walker at once.

The Metropolis–Hastings correction (accept a move ``u -> v`` with
probability ``min(1, deg_R(u) / deg_R(v))``, degrees counted within the
arc-restricted subgraph) removes the degree bias of a plain walk, so the
stationary distribution is uniform over the arc regardless of the
heterogeneous degree caps. Connectivity inside an arc is guaranteed by
the mandatory ring links: the peers of any clockwise arc form a ring
path, so a restricted walker can always move.

Draw convention
---------------

The batched walker consumes exactly two uniforms per walker per step —
one proposal draw, one acceptance draw — *unconditionally*, even when a
walker is stuck (restricted degree 0) or the acceptance test is decided
without randomness. A fixed, state-independent draw layout is what lets
the vectorized construction engine and its sequential reference path
(:mod:`repro.engine.construct`) consume one RNG stream identically, so
their outputs can be compared bit-for-bit; :meth:`walk_reference
<BatchRestrictedWalker.walk_reference>` is this walker's sequential twin
on the same draws.

A proposal leaving the arc, hitting a dead peer or failing the
``min(1, deg_here / deg_there)`` acceptance test leaves the walker in
place for that step (lazy chain — staying put is what preserves
uniformity).
"""

from __future__ import annotations

import numpy as np

from ..errors import SamplingError

__all__ = ["BatchRestrictedWalker", "in_cw_arc"]


def in_cw_arc(
    positions: np.ndarray, start: np.ndarray, end: np.ndarray
) -> np.ndarray:
    """Vectorized float twin of :func:`repro.ring.in_cw_interval`.

    Membership of ``positions`` in clockwise ``(start, end]`` decided
    with comparisons only (broadcasting; ``start == end`` denotes the
    whole circle) — the same exact predicate
    :func:`~repro.protocol.decisions.border_is_terminal` clamps with, so
    the kernels and the protocol core agree on level termination.
    """
    p = np.asarray(positions, dtype=float)
    s = np.asarray(start, dtype=float)
    e = np.asarray(end, dtype=float)
    forward = (s < p) & (p <= e)
    wrapped = (p > s) | (p <= e)
    return np.where(s == e, True, np.where(s < e, forward, wrapped))


class BatchRestrictedWalker:
    """Many Metropolis–Hastings walkers advancing in lock-step.

    Args:
        positions: Position per row of the shared topology snapshot
            (live peers, ring order).
        neighbor_rows: Padded neighbor matrix: row ``i`` holds the rows
            of peer ``i``'s outgoing neighbors (ring pointers + long
            links, dead targets already dropped), padded with ``-1``.
    """

    def __init__(self, positions: np.ndarray, neighbor_rows: np.ndarray) -> None:
        self._pos = np.asarray(positions, dtype=float)
        self._nbr = np.asarray(neighbor_rows, dtype=np.int64)
        if self._nbr.ndim != 2 or self._nbr.shape[0] != self._pos.size:
            raise SamplingError("neighbor_rows must be (n_rows, width) aligned with positions")

    def _restricted_valid(
        self, rows: np.ndarray, arc_start: np.ndarray, arc_end: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(candidate rows, validity mask) of each walker's current peer."""
        cand = self._nbr[rows]
        valid = cand >= 0
        valid &= cand != rows[:, None]
        cand_pos = self._pos[np.where(valid, cand, 0)]
        valid &= in_cw_arc(cand_pos, arc_start[:, None], arc_end[:, None])
        return cand, valid

    def walk(
        self,
        rng: np.random.Generator,
        start_rows: np.ndarray,
        arc_start: np.ndarray,
        arc_end: np.ndarray,
        n_samples: int,
        hops_per_sample: int = 8,
        burn_in: int | None = None,
    ) -> np.ndarray:
        """Collect ``n_samples`` peer rows per walker, all in lock-step.

        Walker ``w`` starts at ``start_rows[w]`` (must lie inside its arc
        ``(arc_start[w], arc_end[w]]`` — callers filter) and records its
        position every ``hops_per_sample`` steps after ``burn_in`` mixing
        steps (default ``2 * hops_per_sample``). Returns an
        ``(n_walkers, n_samples)`` int64 matrix of rows.
        """
        if n_samples < 1:
            raise SamplingError(f"n_samples must be >= 1, got {n_samples}")
        if hops_per_sample < 1:
            raise SamplingError(f"hops_per_sample must be >= 1, got {hops_per_sample}")
        starts = np.asarray(start_rows, dtype=np.int64)
        a_start = np.asarray(arc_start, dtype=float)
        a_end = np.asarray(arc_end, dtype=float)
        n = int(starts.size)
        if burn_in is None:
            burn_in = 2 * hops_per_sample

        current = starts.copy()
        collected = np.empty((n, n_samples), dtype=np.int64)
        steps_until_sample = burn_in if burn_in > 0 else hops_per_sample
        taken = 0
        take = np.arange(n)
        while True:
            u_move, u_accept = self.step_draws(rng, n)
            cand, valid = self._restricted_valid(current, a_start, a_end)
            deg_here = valid.sum(axis=1)
            movable = deg_here > 0
            # Pick the floor(u * deg)-th valid neighbor: first column
            # whose running count of valid entries reaches the draw.
            pick_rank = (u_move * deg_here).astype(np.int64) + 1
            running = np.cumsum(valid, axis=1)
            col = ((running == pick_rank[:, None]) & valid).argmax(axis=1)
            proposal = cand[take, col]
            __, valid_there = self._restricted_valid(
                np.where(movable, proposal, 0), a_start, a_end
            )
            deg_there = np.maximum(1, valid_there.sum(axis=1))
            accept = movable & (
                (deg_there <= deg_here) | (u_accept < deg_here / deg_there)
            )
            current = np.where(accept, proposal, current)
            steps_until_sample -= 1
            if steps_until_sample == 0:
                collected[:, taken] = current
                taken += 1
                if taken == n_samples:
                    return collected
                steps_until_sample = hops_per_sample

    @staticmethod
    def step_draws(rng: np.random.Generator, n_walkers: int) -> tuple[np.ndarray, np.ndarray]:
        """The per-step RNG layout: ``(proposal, acceptance)`` uniforms.

        Exposed (and shared with :meth:`walk_reference`) so vectorized
        and sequential execution consume one RNG stream identically —
        the bit-equivalence contract of the module docstring.
        """
        return rng.random(n_walkers), rng.random(n_walkers)

    def walk_reference(
        self,
        rng: np.random.Generator,
        start_rows: np.ndarray,
        arc_start: np.ndarray,
        arc_end: np.ndarray,
        n_samples: int,
        hops_per_sample: int = 8,
        burn_in: int | None = None,
    ) -> np.ndarray:
        """Sequential twin of :meth:`walk`: same draws, per-walker Python.

        Steps every walker with plain per-walker logic (list scans, float
        comparisons) against the identical :meth:`step_draws` stream.
        This is the reference the construction engine's equivalence
        tests pin :meth:`walk`'s array kernels to.
        """
        starts = np.asarray(start_rows, dtype=np.int64)
        a_start = np.asarray(arc_start, dtype=float)
        a_end = np.asarray(arc_end, dtype=float)
        n = int(starts.size)
        if burn_in is None:
            burn_in = 2 * hops_per_sample

        def in_arc(row: int, w: int) -> bool:
            p = float(self._pos[row])
            s, e = float(a_start[w]), float(a_end[w])
            if s == e:
                return True
            if s < e:
                return s < p <= e
            return p > s or p <= e

        def restricted(row: int, w: int) -> list[int]:
            return [
                int(v)
                for v in self._nbr[row]
                if v >= 0 and v != row and in_arc(int(v), w)
            ]

        current = [int(r) for r in starts]
        collected = np.empty((n, n_samples), dtype=np.int64)
        steps_until_sample = burn_in if burn_in > 0 else hops_per_sample
        taken = 0
        while True:
            u_move, u_accept = self.step_draws(rng, n)
            for w in range(n):
                here = restricted(current[w], w)
                if not here:
                    continue
                proposal = here[int(u_move[w] * len(here))]
                deg_here = len(here)
                deg_there = max(1, len(restricted(proposal, w)))
                if deg_there <= deg_here or u_accept[w] < deg_here / deg_there:
                    current[w] = proposal
            steps_until_sample -= 1
            if steps_until_sample == 0:
                collected[:, taken] = current
                taken += 1
                if taken == n_samples:
                    return collected
                steps_until_sample = hops_per_sample
