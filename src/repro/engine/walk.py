"""The greedy clockwise walk — one lock-step kernel, one reference twin.

Every routed operation in the repo is this loop: ``BatchQueryEngine
.route_batch`` (and ``Substrate.route``, one query at a time) runs it
over ground-truth topology, ``ServeEngine.serve_batch`` over
believed-live peers. The two differ only in the
:class:`WalkTable` they hand the kernel — which peers are rows, the
successor column, the candidates — never in code.

Per hop, a query at row ``v`` with successor ``s = succ_row[v]``:
deliver to ``s`` when the key falls in ``(v, s]``; otherwise forward to
the candidate of ``v`` with maximal clockwise progress not passing the
key, falling back to ``s`` when no candidate beats it — Chord's
final-interval check and closest-preceding-node rule over exact
fixed-point keys (:mod:`repro.ring.keyspace`): progress is a wrapping
``uint64`` subtraction, and a row without a successor, or whose
successor is itself, stops. :func:`greedy_walk_reference` states that
rule one query at a time.

**The kernel walks in rank space.** Rows are in key order and their
keys are distinct — the ring admits one peer per ``2**-64`` key cell —
so row ``c`` sits ``(c - v) mod m`` rows clockwise of ``v`` (its
*offset*), and progress strictly grows with the offset. So
:func:`greedy_walk` asks every question about offsets, never about
distances:

* once per query, its *bound* ``hi``: the row keyed exactly at the
  target when there is one — the owner, on a table of live rows — else
  the last row keyed below the target (``-1`` when there is none):
  :func:`walk_bounds`, from the owner search
  ``searchsorted(keys, t, "left")``. The caller hands it in: a key the
  caller has already searched for (the serve path's catalog items carry
  theirs per snapshot) is not searched again;
* per hop, ``lim = (hi - v) mod m``: a row's offset is ``<= lim`` ⇔ its
  progress is ``<=`` the target's.

:meth:`WalkTable.build` therefore keeps, per row, only the candidates
past the successor — the ones that can beat it — ascending, behind the
successor's own offset: row ``v`` of ``offsets`` reads
``[(s - v) mod m, c_1 <= c_2 <= ..., m, ...]``. A hop is one row
gather, one compare of the whole row against ``lim`` and one
``argmin``. The entries ``<= lim`` are a prefix of the row: empty when
``lim`` is short of the successor — then no candidate qualifies either
— else the successor and the ``c`` candidates not passing the key
(every row ends in an ``m``, which is ``<=`` no ``lim``, so the
``argmin`` always finds a ``False``). With ``c = max(prefix - 1, 0)``
the next row is ``(v + offsets[v, c]) mod m`` — the successor when
``c`` is 0, else the last candidate that qualifies. The delivery check
needs no code of its own: a key in ``(v, s]``, or whose bound is ``v``
itself (``lim`` 0), leaves every kept candidate out of reach, and the
rule sends it to ``s``. A row without a successor pointer, or whose
successor is itself, keeps offset 0 and no candidates: the hop lands on
``v`` and the query stops with the code ``succ_row`` names.

Both functions take the same arguments but one:

* ``table`` — the :class:`WalkTable` of the snapshot walked on;
* ``source_rows`` / ``owner_rows`` — start and destination row per query;
* :func:`greedy_walk`: ``bounds`` — the bound row per query
  (:meth:`WalkTable.bounds` of the targets); :func:`greedy_walk_reference`:
  ``targets`` — the ``uint64`` target key per query, from which it
  derives everything itself;
* ``budget`` — maximum hops per query;

and return ``(hops, code, stopped)`` per query: the ``int64`` hops
taken, a :class:`WalkCode` (``uint8``) and the row the query stands on
when it stops (``int32``; its owner row when ``OK``). A failed query
stops where it failed; the rest of the batch finishes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.soa import row_blocks
from ..ring.keyspace import KEY_MASK, search_sorted

__all__ = ["WalkCode", "WalkTable", "greedy_walk", "greedy_walk_reference", "walk_bounds"]


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


def _wrap(values: np.ndarray, m: int) -> np.ndarray:
    """``values mod m`` in place, for ``int32`` values in ``[-m, m)``."""
    values += (values >> 31) & m
    return values


@dataclass(frozen=True)
class WalkTable:
    """What the walk reads, computed once per snapshot.

    Attributes:
        keys: ``uint64`` key per row, strictly increasing (rows in ring
            order).
        succ_row: Ring-successor row per row (``-1``: no pointer).
        offsets: ``(m, w + 2)`` ``int32``. Column 0 is the successor's
            offset ``(succ_row - row) mod m`` (0 where there is no
            pointer); columns ``1 .. w`` are the offsets of the
            candidates past the successor, ascending, padded with ``m``
            (none are kept where the successor is missing or the row
            itself); the last column is ``m`` in every row. ``w`` is the
            most candidates any row keeps.
    """

    keys: np.ndarray
    succ_row: np.ndarray
    offsets: np.ndarray

    @classmethod
    def build(
        cls,
        keys: np.ndarray,
        succ_row: np.ndarray,
        nbr_rows: np.ndarray | Callable[[slice], np.ndarray],
    ) -> "WalkTable":
        """Offset table of the padded candidate matrix ``nbr_rows``
        (``-1`` entries, anywhere in a row, are padding; self links,
        duplicates and the successor itself may appear).

        ``nbr_rows`` is the matrix, or a function that returns its rows
        ``block`` (a :func:`~repro.core.soa.row_blocks` slice) — a
        capture translates its link table one row block at a time, so
        no candidate matrix the size of the overlay is ever built.
        Offsets are a sort of small integers per row: no key is
        gathered, only checked to strictly increase. Each block is
        sorted straight into ``offsets``, sized first for a row that
        keeps every candidate; when no row does, the rows are moved left
        in place, block by block, to the widest row's width.

        Raises:
            ValueError: The keys do not strictly increase, or the table
                would not fit ``int32`` offsets.
        """
        read = nbr_rows if callable(nbr_rows) else nbr_rows.__getitem__
        m = int(keys.size)
        if not bool((keys[1:] > keys[:-1]).all()):
            raise ValueError("walk table keys must strictly increase (one row per key cell)")
        rows = np.arange(m, dtype=np.int32)
        # A missing successor points at the row itself: offset 0, past
        # which no candidate is kept.
        succ_off = _wrap(np.where(succ_row >= 0, succ_row, rows).astype(np.int32) - rows, m)
        succ_lim = np.where(succ_off > 0, succ_off, m)
        offsets = np.empty((m, 2), dtype=np.int32)
        width = 0
        for block in row_blocks(m):
            nbr = read(block)
            if block.start == 0:
                if m * (nbr.shape[1] + 2) >= 2**31:
                    raise ValueError(
                        f"an int32 walk table indexes fewer than 2**31 cells, got {m} rows"
                    )
                offsets = np.empty((m, nbr.shape[1] + 2), dtype=np.int32)
            cands = _wrap(np.subtract(nbr, rows[block, None], dtype=np.int32), m)
            np.copyto(cands, m, where=(nbr < 0) | (cands <= succ_lim[block, None]))
            cands.sort(axis=1)
            offsets[block, 1:-1] = cands
            width = max(width, int((cands.min(axis=0, initial=m) < m).sum()))
        offsets[:, 0] = succ_off
        offsets[:, -1] = m
        if width + 2 < offsets.shape[1]:
            # Row v moves from v * W to v * (width + 2): never past a row
            # still unread, and each block is read before it is written.
            flat = offsets.reshape(-1)
            for block in row_blocks(m):
                lo, hi = block.start * (width + 2), block.stop * (width + 2)
                flat[lo:hi] = offsets[block, : width + 2].reshape(-1)
            offsets = flat[: m * (width + 2)].reshape(m, width + 2)
        return cls(keys=keys, succ_row=succ_row, offsets=offsets)

    def bounds(self, targets: np.ndarray) -> np.ndarray:
        """The walk bound per ``uint64`` target key (:func:`walk_bounds`)."""
        return walk_bounds(self.keys, targets, search_sorted(self.keys, targets))


def walk_bounds(keys: np.ndarray, targets: np.ndarray, first: np.ndarray) -> np.ndarray:
    """The walk bound per ``uint64`` target key over the sorted ``keys``,
    from ``first = searchsorted(keys, targets, "left")``: ``first``
    itself when that row is keyed exactly at the target, else
    ``first - 1``, the last row keyed below the target (``-1`` when
    there is none); ``int32``."""
    if keys.size == 0:
        return np.full(np.shape(targets), -1, dtype=np.int32)
    at_target = keys.take(first, mode="clip") == targets
    return np.subtract(first, ~at_target).astype(np.int32)


def greedy_walk(
    table: WalkTable,
    source_rows: np.ndarray,
    owner_rows: np.ndarray,
    bounds: np.ndarray,
    budget: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lock-step numpy walk: every still-active query advances one hop
    per iteration (see the module docstring for arguments and result)."""
    offsets = table.offsets
    m, width = offsets.shape
    flat = offsets.reshape(-1)
    hi = np.asarray(bounds, dtype=np.int32)
    owners = owner_rows.astype(np.int32)
    current = source_rows.astype(np.int32)
    hops = np.zeros(current.size, dtype=np.int64)
    code = np.zeros(current.size, dtype=np.uint8)
    rows = np.flatnonzero(current != owners)
    taken = 0  # in lock-step every active query has taken the same hops
    while rows.size:
        if taken >= budget:
            code[rows] = WalkCode.BUDGET
            break
        cur = current[rows]
        lim = _wrap(hi[rows] - cur, m)
        # Offsets ascend along a row, so those not passing the key are a
        # prefix; its length less one is the column of the next hop. The
        # whole row is compared: a contiguous compare is the cheaper one.
        column = (offsets.take(cur, axis=0) <= lim[:, None]).argmin(axis=1)
        column -= column > 0
        nxt = _wrap(flat[cur * width + column] + cur - m, m)
        stuck = nxt == cur
        if stuck.any():
            code[rows[stuck]] = np.where(
                table.succ_row[cur[stuck]] < 0, WalkCode.NO_SUCCESSOR, WalkCode.STUCK
            )
            rows, nxt = rows[~stuck], nxt[~stuck]
        taken += 1
        current[rows] = nxt
        hops[rows] = taken
        rows = rows[nxt != owners[rows]]
    return hops, code, current


def greedy_walk_reference(
    table: WalkTable,
    source_rows: np.ndarray,
    owner_rows: np.ndarray,
    targets: np.ndarray,
    budget: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pure-Python twin of :func:`greedy_walk` — one query at a time,
    exact integer geometry, identical results. It takes the target keys,
    not their bounds, and reads the rows behind
    ``offsets`` — ``(row + offset) mod m``: the successor, the kept
    candidates, and the row itself for padding — and scans them for the
    most progress, recomputing each progress from ``keys``: neither the
    offsets' order nor their arithmetic is trusted."""
    keys_int = [int(k) for k in table.keys]
    succs = [int(s) for s in table.succ_row]
    m = len(keys_int)
    nbrs = ((np.arange(m)[:, None] + table.offsets) % max(m, 1)).tolist()
    n = int(source_rows.size)
    hops = np.zeros(n, dtype=np.int64)
    code = np.zeros(n, dtype=np.uint8)
    stopped = np.asarray(source_rows).astype(np.int32)
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
            best = (succ_progress, succ)
            if succ_progress != 0 and not 0 < span <= succ_progress:
                for cand in nbrs[cur]:
                    progress = (keys_int[cand] - cur_key) & KEY_MASK
                    if succ_progress < progress <= span:
                        best = max(best, (progress, cand))
            nxt = best[1]
            if nxt == cur:
                code[q] = WalkCode.STUCK
                break
            cur = nxt
            count += 1
        hops[q] = count
        stopped[q] = cur
    return hops, code, stopped
