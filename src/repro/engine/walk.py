"""The greedy clockwise walk — one lock-step kernel, one reference twin.

Every routed operation in the repo is this loop: ``BatchQueryEngine
.route_batch`` runs it over ground-truth topology, ``ServeEngine
.serve_batch`` over believed-live peers. The two differ only in the
:class:`WalkTable` they hand the kernel — which peers are rows, the
successor column, the candidates — never in code.

Per hop, a query at row ``v`` with successor ``s = succ_row[v]``:
deliver to ``s`` when the key falls in ``(v, s]``; otherwise forward to
the candidate of ``v`` with maximal clockwise progress not passing the
key, falling back to ``s`` when no candidate beats it — the scalar
greedy router's closest-preceding-node rule and final-interval delivery
check, as **exact fixed-point keyspace kernels**
(:mod:`repro.ring.keyspace`): every distance is a wrapping ``uint64``
subtraction. The scalar router decides the identical questions with
comparison-exact predicates at full float resolution; the two agree
bit-for-bit whenever peer positions occupy distinct ``2**-64`` key
cells, which real workloads always do (a million uniform draws share a
cell with probability below ``10**-7``; sub-resolution fixtures are an
adversarial-test-only construct). Distinct cells also mean no two
candidates of a row tie on progress, so which of them is listed first
never matters (a link that duplicates the successor resolves to the
same row either way).

How far clockwise each candidate is from its own row does not depend on
the query, so the :class:`WalkTable` holds that answer per snapshot:
every row's candidates sorted by progress. A hop is then one row
gather, one ``progress <= span`` compare and one row sum — the count of
candidates not passing the key is the column of the best one.

Both functions take the same arguments:

* ``table`` — the :class:`WalkTable` of the snapshot walked on;
* ``source_rows`` / ``owner_rows`` — start and destination row per query;
* ``targets`` — ``uint64`` target key per query;
* ``budget`` — maximum hops per query;

and return ``(hops, code, stopped)`` per query: the ``int64`` hops
taken, a :class:`WalkCode` (``uint8``) and the row the query stands on
when it stops (its owner row when ``OK``). A failed query stops where
it failed; the rest of the batch finishes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..ring.keyspace import KEY_MASK

__all__ = ["WalkCode", "WalkTable", "greedy_walk", "greedy_walk_reference"]


class WalkCode(enum.IntEnum):
    """How one query's walk ended."""

    OK = 0
    """Arrived at its owner row."""
    BUDGET = 1
    """Still short of the owner after ``budget`` hops."""
    NO_SUCCESSOR = 2
    """Stands on a row without a ring successor pointer."""
    STUCK = 3
    """Cannot move: its best next hop is the row it stands on."""


@dataclass(frozen=True)
class WalkTable:
    """What the walk reads, computed once per snapshot.

    Attributes:
        keys: ``uint64`` key per row, non-decreasing (rows in ring order).
        succ_row: Ring-successor row per row (``-1``: no pointer).
        succ_progress: ``keys[succ_row] - keys`` (wrapping); 0 where
            there is no pointer.
        progress: ``(m, width)`` clockwise distance from each row to its
            candidates, every row ascending. Padding (absent and dropped
            links) has progress 0 and sorts first; columns that are
            padding in every row are not stored.
        cand_rows: The candidate row behind each ``progress`` entry
            (``int32``); where ``progress`` is 0 the entry is padding
            and names a row of the same key cell.
    """

    keys: np.ndarray
    succ_row: np.ndarray
    succ_progress: np.ndarray
    progress: np.ndarray
    cand_rows: np.ndarray

    @classmethod
    def build(cls, keys: np.ndarray, succ_row: np.ndarray, nbr_rows: np.ndarray) -> "WalkTable":
        """Sort each row of the padded candidate matrix ``nbr_rows``
        (``-1`` entries, anywhere in a row, are padding) by clockwise
        progress from its own row.

        Rows are in key order, so progress order is the order of the
        candidate's row offset from the first row of this row's key
        cell, wrapping past row 0: a sort of small integers instead of
        an ``argsort`` of keys with two permutations behind it. Read as
        ``uint32`` the wrapped (negative) offsets already rank after the
        others, and adding the base back undoes the subtraction exactly.
        """
        m = int(keys.size)
        cell_start = np.arange(m, dtype=np.int32)
        if m > 1:
            cell_start[1:] *= keys[1:] != keys[:-1]
            np.maximum.accumulate(cell_start, out=cell_start)
        base = cell_start[:, None]
        offset = nbr_rows.astype(np.int32)
        padding = offset < 0
        offset -= base
        np.copyto(offset, 0, where=padding)
        rank = offset.view(np.uint32)
        rank.sort(axis=1)
        lead = int((rank.max(axis=0, initial=0) == 0).sum())
        cand_rows = offset[:, lead:] + base
        progress = keys[cand_rows]
        progress -= keys[:, None]
        return cls(
            keys=keys,
            succ_row=succ_row,
            succ_progress=np.where(succ_row >= 0, keys[succ_row] - keys, np.uint64(0)),
            progress=progress,
            cand_rows=cand_rows,
        )


def greedy_walk(
    table: WalkTable,
    source_rows: np.ndarray,
    owner_rows: np.ndarray,
    targets: np.ndarray,
    budget: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lock-step numpy walk: every still-active query advances one hop
    per iteration (see the module docstring for arguments and result)."""
    keys, width = table.keys, table.progress.shape[1]
    flat_progress, flat_cand = table.progress.reshape(-1), table.cand_rows.reshape(-1)
    current = source_rows.copy()
    hops = np.zeros(current.size, dtype=np.int64)
    code = np.zeros(current.size, dtype=np.uint8)
    rows = np.flatnonzero(current != owner_rows)
    taken = 0  # in lock-step every active query has taken the same hops
    while rows.size:
        if taken >= budget:
            code[rows] = WalkCode.BUDGET
            break
        cur = current[rows]
        span = targets[rows] - keys[cur]  # wrapping uint64 cw distances
        succ_progress = table.succ_progress[cur]
        nxt = table.succ_row[cur]

        # Deliver to the successor when the key falls in (cur, succ]
        # (succ_progress 0: the whole circle, or no pointer at all).
        forward = np.flatnonzero((succ_progress != 0) & ((span == 0) | (span > succ_progress)))
        if width and forward.size:
            f_cur = cur[forward]
            # Progress ascends along a row, so the candidates not
            # passing the key are a prefix and the best is its last.
            reach = (table.progress.take(f_cur, axis=0) <= span[forward][:, None]).sum(axis=1)
            best = f_cur * width + reach - 1
            improved = (reach > 0) & (flat_progress[best] > succ_progress[forward])
            nxt[forward] = np.where(improved, flat_cand[best], nxt[forward])

        failed = (nxt < 0) | (nxt == cur)
        if failed.any():
            code[rows[failed]] = np.where(nxt[failed] < 0, WalkCode.NO_SUCCESSOR, WalkCode.STUCK)
            rows, nxt = rows[~failed], nxt[~failed]
        taken += 1
        current[rows] = nxt
        hops[rows] = taken
        rows = rows[nxt != owner_rows[rows]]
    return hops, code, current


def greedy_walk_reference(
    table: WalkTable,
    source_rows: np.ndarray,
    owner_rows: np.ndarray,
    targets: np.ndarray,
    budget: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pure-Python twin of :func:`greedy_walk` — one query at a time,
    exact integer geometry, identical results. It scans a row's
    candidates for the maximum, recomputing each progress from ``keys``:
    neither the precomputed distances nor their order are trusted."""
    keys_int = [int(k) for k in table.keys]
    succs = [int(s) for s in table.succ_row]
    nbrs = table.cand_rows.tolist()
    n = int(source_rows.size)
    hops = np.zeros(n, dtype=np.int64)
    code = np.zeros(n, dtype=np.uint8)
    stopped = np.asarray(source_rows).copy()
    for q in range(n):
        cur = int(source_rows[q])
        owner = int(owner_rows[q])
        tgt = int(targets[q])
        count = 0
        while cur != owner:
            if count >= budget:
                code[q] = WalkCode.BUDGET
                break
            succ = succs[cur]
            if succ < 0:
                code[q] = WalkCode.NO_SUCCESSOR
                break
            cur_key = keys_int[cur]
            span = (tgt - cur_key) & KEY_MASK
            succ_progress = (keys_int[succ] - cur_key) & KEY_MASK
            nxt = succ
            if succ_progress != 0 and not 0 < span <= succ_progress:
                best_progress = succ_progress
                for cand in nbrs[cur]:
                    progress = (keys_int[cand] - cur_key) & KEY_MASK
                    if progress <= span and progress > best_progress:
                        nxt, best_progress = cand, progress
            if nxt == cur:
                code[q] = WalkCode.STUCK
                break
            cur = nxt
            count += 1
        hops[q] = count
        stopped[q] = cur
    return hops, code, stopped
