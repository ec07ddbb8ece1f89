"""The greedy clockwise walk — one lock-step kernel, one reference twin.

Every routed operation in the repo is this loop: ``BatchQueryEngine
.route_batch`` runs it over ground-truth topology, ``ServeEngine
.serve_batch`` over believed-live peers. The two differ only in the
arrays they hand the kernel — which peers are rows, the successor
column, the candidate columns — never in code.

Per hop, a query at row ``v`` with successor ``s = succ_row[v]``:
deliver to ``s`` when the key falls in ``(v, s]``; otherwise forward to
the candidate in ``nbr_rows[v]`` with maximal clockwise progress not
passing the key (first-listed wins ties), falling back to ``s`` when no
candidate beats it — the scalar greedy router's closest-preceding-node
rule, final-interval delivery check and first-wins tie-breaking, as
**exact fixed-point keyspace kernels** (:mod:`repro.ring.keyspace`):
every per-hop distance is a wrapping ``uint64`` subtraction. The scalar
router decides the identical questions with comparison-exact predicates
at full float resolution; the two agree bit-for-bit whenever peer
positions occupy distinct ``2**-64`` key cells, which real workloads
always do (a million uniform draws share a cell with probability below
``10**-7``; sub-resolution fixtures are an adversarial-test-only
construct).

Both functions take the same arguments:

* ``keys`` — ``uint64`` key per row;
* ``succ_row`` — ring-successor row per row (``-1``: no pointer);
* ``nbr_rows`` — padded candidate-row matrix (``-1`` entries ignored,
  anywhere in a row);
* ``ids`` — node id per row (error messages only);
* ``source_rows`` / ``owner_rows`` — start and destination row per query;
* ``targets`` — ``uint64`` target key per query;
* ``budget`` — maximum hops per query;

return the ``int64`` hop count per query, and raise
:class:`~repro.errors.RoutingError` when a query exceeds ``budget``,
stands on a row without a successor pointer, or cannot move (its best
next hop is itself).
"""

from __future__ import annotations

import numpy as np

from ..errors import RoutingError
from ..ring import keyspace

__all__ = ["greedy_walk", "greedy_walk_reference"]

_KEY_MASK = (1 << 64) - 1


def greedy_walk(
    keys: np.ndarray,
    succ_row: np.ndarray,
    nbr_rows: np.ndarray,
    ids: np.ndarray,
    source_rows: np.ndarray,
    owner_rows: np.ndarray,
    targets: np.ndarray,
    budget: int,
) -> np.ndarray:
    """Lock-step numpy walk: every still-active query advances one hop
    per iteration (see the module docstring for arguments and errors)."""
    current = source_rows.copy()
    hops = np.zeros(current.size, dtype=np.int64)
    active = current != owner_rows
    while np.any(active):
        rows = np.nonzero(active)[0]
        if int(hops[rows].max(initial=0)) >= budget:
            raise RoutingError(f"greedy walk exceeded budget {budget}")
        cur = current[rows]
        tgt = targets[rows]
        cur_key = keys[cur]
        succ = succ_row[cur]
        if int(succ.min()) < 0:
            bad = int(ids[cur[succ < 0][0]])
            raise RoutingError(f"node {bad} has no ring successor pointer")
        succ_key = keys[succ]

        deliver = keyspace.in_cw_intervals(tgt, cur_key, succ_key)
        nxt = succ.copy()

        forward = ~deliver
        if nbr_rows.shape[1] and np.any(forward):
            f_key = cur_key[forward]
            span = tgt[forward] - f_key  # wrapping uint64 cw distances
            succ_progress = succ_key[forward] - f_key

            cand = nbr_rows[cur[forward]]  # (k, width)
            valid = cand >= 0
            progress = keys[np.where(valid, cand, 0)] - f_key[:, None]
            # Candidates past the key (or padding) never win: zero
            # progress never beats the >= 1 ring-successor fallback
            # (zero-progress real candidates are the peer itself,
            # which the scalar scan skips for the same reason).
            progress = np.where(valid & (progress <= span[:, None]), progress, np.uint64(0))

            best_col = progress.argmax(axis=1)  # first max == scalar first-wins
            take = np.arange(best_col.size)
            improved = progress[take, best_col] > succ_progress
            nxt[forward] = np.where(improved, cand[take, best_col], succ[forward])

        if np.any(nxt == cur):
            stuck = int(ids[cur[nxt == cur][0]])
            raise RoutingError(f"node {stuck} has no progressing neighbor")
        current[rows] = nxt
        hops[rows] += 1
        active[rows] = nxt != owner_rows[rows]
    return hops


def greedy_walk_reference(
    keys: np.ndarray,
    succ_row: np.ndarray,
    nbr_rows: np.ndarray,
    ids: np.ndarray,
    source_rows: np.ndarray,
    owner_rows: np.ndarray,
    targets: np.ndarray,
    budget: int,
) -> np.ndarray:
    """Pure-Python twin of :func:`greedy_walk` — one query at a time,
    exact integer geometry, identical hop counts and error conditions."""
    keys_int = [int(k) for k in keys]
    succs = [int(s) for s in succ_row]
    nbrs = [[int(c) for c in row if c >= 0] for row in nbr_rows]
    hops = np.zeros(int(source_rows.size), dtype=np.int64)
    for q in range(int(source_rows.size)):
        cur = int(source_rows[q])
        owner = int(owner_rows[q])
        tgt = int(targets[q])
        count = 0
        while cur != owner:
            if count >= budget:
                raise RoutingError(f"greedy walk exceeded budget {budget}")
            succ = succs[cur]
            if succ < 0:
                raise RoutingError(f"node {int(ids[cur])} has no ring successor pointer")
            cur_key = keys_int[cur]
            span = (tgt - cur_key) & _KEY_MASK
            succ_progress = (keys_int[succ] - cur_key) & _KEY_MASK
            nxt = succ
            if succ_progress != 0 and not 0 < span <= succ_progress:
                best_progress = succ_progress
                for cand in nbrs[cur]:
                    progress = (keys_int[cand] - cur_key) & _KEY_MASK
                    if progress <= span and progress > best_progress:
                        nxt, best_progress = cand, progress
            if nxt == cur:
                raise RoutingError(f"node {int(ids[cur])} has no progressing neighbor")
            cur = nxt
            count += 1
        hops[q] = count
    return hops
