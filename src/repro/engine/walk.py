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

**A large batch walks on two threads.** Each query's walk reads only
the table and that query, so a batch of at least :data:`SPLIT_AT`
queries over a table built whole, on a process that may run on two
CPUs, walks its second half on one worker thread while the caller walks
the first, and the halves are joined in query order: the answer is the
unsplit one, bit for bit. numpy drops the GIL inside a hop's gather,
compare and ``argmin``, so the halves run side by side. A
:meth:`WalkTable.deferred` table always walks on the caller's thread:
:meth:`WalkTable.visit` writes the table.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from ..core.soa import row_blocks
from ..ring.keyspace import KEY_MASK, search_sorted

if TYPE_CHECKING:  # pragma: no cover - imported where the pool starts
    from concurrent.futures import ThreadPoolExecutor

__all__ = [
    "NO_ROW",
    "WalkCode",
    "WalkTable",
    "greedy_walk",
    "greedy_walk_reference",
    "walk_bounds",
]


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


#: What a capture's candidate reader returns for padding and for an id
#: that is no row. Below ``-m`` for every table that fits ``int32``
#: offsets (``m < 2**30``), so ``NO_ROW + m - v`` stays negative for
#: every row ``v``: read as ``uint32`` it lies past every offset, and
#: the row builder drops it with the candidates the successor beats.
NO_ROW = -(1 << 30)

#: A capture's candidate reader: the candidate rows of a row block (a
#: slice) or of any array of rows, one row each, padded with ``NO_ROW`` —
#: as one block, or as a ``(column, block)`` pair: one candidate per row
#: kept apart from the block (the truth capture's predecessor), which the
#: row builder writes into the same block as its first arithmetic, with
#: no copy to join them.
Candidates = Callable[[Any], np.ndarray | tuple[np.ndarray, np.ndarray]]


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
            most candidates any row keeps (:meth:`build`), or any row
            can keep (:meth:`deferred`).
        built: ``None`` when every row is built; else which rows are
            (a row not built yet reads all zeros: a walk standing on it
            is ``STUCK``).
        candidates: The candidate reader a :meth:`deferred` table builds
            its rows from (``None`` once built whole).
    """

    keys: np.ndarray
    succ_row: np.ndarray
    offsets: np.ndarray
    built: np.ndarray | None = None
    candidates: Candidates | None = None

    @classmethod
    def build(
        cls,
        keys: np.ndarray,
        succ_row: np.ndarray,
        candidates: np.ndarray | Candidates,
    ) -> "WalkTable":
        """Offset table of every row, from the padded candidate matrix
        ``candidates`` (negative entries are padding) or a reader: a
        function that returns the candidate rows of a
        :func:`~repro.core.soa.row_blocks` slice, padded with
        :data:`NO_ROW`. Padding may sit anywhere in a row; self links,
        duplicates and the successor itself may appear. A capture
        translates its link table one row block at a time, so no
        candidate matrix the size of the overlay is ever built.

        Each block is sorted straight into ``offsets``, sized first for
        a row that keeps every candidate (:func:`_offset_rows`); when no
        row does, the rows are moved left in place, block by block, to
        the widest row's width, read off the sorted columns.

        Raises:
            ValueError: The keys do not strictly increase, or the table
                would not fit ``int32`` offsets.
        """
        read = (
            candidates
            if callable(candidates)
            else np.where(candidates < 0, NO_ROW, candidates).__getitem__
        )
        m = _rows(keys)
        rows = np.arange(m, dtype=np.int32)
        succ_off, lim = _successor(succ_row, rows, m)
        # One limit for every row (a believed ring's) is one scalar.
        scalar = lim[0] if lim.size and (lim == lim[0]).all() else None
        offsets = np.empty((m, 2), dtype=np.int32)
        width = 0
        for block in row_blocks(m):
            nbr = read(block)
            if block.start == 0:
                offsets = np.empty((m, _width(m, _columns(nbr))), dtype=np.int32)
            out = offsets[block]
            limit = lim[block] if scalar is None else scalar
            _offset_rows(out, rows[block], succ_off[block], limit, nbr, m)
            width = _kept_width(out[:, 1:-1], width, m)
        if width + 2 < offsets.shape[1]:
            # Row v moves from v * W to v * (width + 2): never past a row
            # still unread, and each block is read before it is written.
            flat = offsets.reshape(-1)
            for block in row_blocks(m):
                lo, hi = block.start * (width + 2), block.stop * (width + 2)
                flat[lo:hi] = offsets[block, : width + 2].reshape(-1)
            offsets = flat[: m * (width + 2)].reshape(m, width + 2)
        return cls(keys=keys, succ_row=succ_row, offsets=offsets)

    @classmethod
    def deferred(
        cls,
        keys: np.ndarray,
        succ_row: np.ndarray,
        candidates: Candidates,
        width: int,
    ) -> "WalkTable":
        """The table :meth:`build` would hold, with no row built yet:
        :meth:`visit` builds a row the first time a walk is about to
        stand on it. ``candidates`` returns the ``width`` candidate
        columns of any array of rows, as :meth:`build`'s reader does of
        a block; the rows keep every column (``w`` is ``width``), since
        the widest row is not known until every row is built.

        Raises:
            ValueError: As :meth:`build`.
        """
        m = _rows(keys)
        return cls(
            keys=keys,
            succ_row=succ_row,
            offsets=np.zeros((m, _width(m, width)), dtype=np.int32),
            built=np.zeros(m, dtype=bool),
            candidates=candidates,
        )

    def visit(self, rows: np.ndarray) -> None:
        """Build every row of ``rows`` not built yet, a row repeated in
        ``rows`` once per repeat (cheaper than finding the repeats);
        nothing to do on a table built whole.

        A visit that finds an eighth of the table unbuilt builds every
        row left, in row order: a batch that stands on that many rows
        at one hop crosses most of the table, and rows gathered in
        order cost less than rows gathered where walks stand."""
        if self.built is None:
            return
        todo = rows[~self.built[rows]]
        if 8 * todo.size >= self.built.size:
            todo = np.flatnonzero(~self.built).astype(np.int32)
        m = int(self.keys.size)
        assert self.candidates is not None
        for part in row_blocks(todo.size):
            at = todo[part]
            succ_off, lim = _successor(self.succ_row[at], at, m)
            out = np.empty((at.size, self.offsets.shape[1]), dtype=np.int32)
            _offset_rows(out, at, succ_off, lim, self.candidates(at), m)
            self.offsets[at] = out
        self.built[todo] = True

    def whole(self) -> "WalkTable":
        """This table with every row built — itself, or for a
        :meth:`deferred` table the one :meth:`build` makes from the same
        reader (the rows it visited are left as they are)."""
        if self.built is None:
            return self
        assert self.candidates is not None
        return WalkTable.build(self.keys, self.succ_row, self.candidates)

    def bounds(self, targets: np.ndarray) -> np.ndarray:
        """The walk bound per ``uint64`` target key (:func:`walk_bounds`)."""
        return walk_bounds(self.keys, targets, search_sorted(self.keys, targets))


def _rows(keys: np.ndarray) -> int:
    """Row count of a table over ``keys``, checked to strictly increase."""
    if not bool((keys[1:] > keys[:-1]).all()):
        raise ValueError("walk table keys must strictly increase (one row per key cell)")
    return int(keys.size)


def _width(m: int, candidates: int) -> int:
    """Columns of an ``m``-row offset matrix with room for ``candidates``
    per row, checked to fit ``int32`` offsets."""
    if m * (candidates + 2) >= 2**31:
        raise ValueError(f"an int32 walk table indexes fewer than 2**31 cells, got {m} rows")
    return candidates + 2


def _successor(succ_row: np.ndarray, rows: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the successor's offset — a missing successor points at
    the row itself, offset 0 — and the *limit*, the largest offset a
    kept candidate must pass: the successor's, or ``m - 1`` (none is
    kept) when that is 0."""
    succ_off = _wrap(np.where(succ_row >= 0, succ_row, rows).astype(np.int32) - rows, m)
    return succ_off, np.where(succ_off > 0, succ_off, m - 1)


def _columns(nbr: np.ndarray | tuple[np.ndarray, np.ndarray]) -> int:
    """Candidates per row of a reader's block (:data:`Candidates`)."""
    return nbr[1].shape[1] + 1 if isinstance(nbr, tuple) else nbr.shape[1]


def _offset_rows(
    out: np.ndarray,
    rows: np.ndarray,
    succ_off: np.ndarray,
    lim: int | np.ndarray,
    nbr: np.ndarray | tuple[np.ndarray, np.ndarray],
    m: int,
) -> None:
    """Write the offset rows of ``rows`` into ``out`` (``len(rows)`` by
    ``_columns(nbr) + 2``) — the one row builder of both captures.

    ``nbr`` holds the rows' candidate rows (:data:`NO_ROW` for none; a
    ``(column, block)`` pair is read as the column before the block) and
    ``lim`` their limits (:func:`_successor`), or one for all. The work is
    ``uint32`` arithmetic on one contiguous block, with no mask:

    * row ``c`` sits ``t mod m`` rows past ``v``, ``t = c + m - v`` in
      ``[1, 2m)``, and ``t mod m`` is ``min(t, t - m)`` (``t - m``
      wraps past ``2**32`` when ``t < m``); :data:`NO_ROW` stays past
      ``2**31``;
    * shifted down by ``lim + 1``, every offset at or below the limit —
      the row itself, each one the successor beats — wraps past
      ``2**32`` too, and one ``minimum`` turns it and :data:`NO_ROW`
      into ``m`` once shifted back.
    """
    ahead = m - rows
    if isinstance(nbr, tuple):
        lead, block = nbr
        cands = np.empty((rows.size, block.shape[1] + 1), dtype=np.int32)
        np.add(lead, ahead, out=cands[:, 0])
        np.add(block, ahead[:, None], out=cands[:, 1:])
    else:
        cands = np.add(nbr, ahead[:, None], dtype=np.int32)
    cands = cands.view(np.uint32)
    np.minimum(cands, cands - np.uint32(m), out=cands)
    shift = np.asarray(lim, dtype=np.uint32)[..., None] + np.uint32(1)
    cands -= shift
    np.minimum(cands, np.uint32(m) - shift, out=cands)
    cands += shift
    cands.sort(axis=1)
    out[:, 1:-1] = cands
    out[:, 0] = succ_off
    out[:, -1] = m


def _kept_width(cands: np.ndarray, width: int, m: int) -> int:
    """The kept width of sorted candidate rows, at least ``width``: one
    past the last column holding an offset below ``m`` in some row,
    checked from the right (kept offsets are a prefix of every row)."""
    for column in range(cands.shape[1] - 1, width - 1, -1):
        if cands[:, column].min() < m:
            return column + 1
    return width


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


#: The fewest queries :func:`greedy_walk` splits across two threads.
#: ``scripts/walk_split.py`` measures the crossover on a 100k-peer serve
#: table (docs/serving.md has the table): halves of ~1 000 queries walk
#: at half the speed of one walk of ~2 000, ~5 000 queries break even,
#: 16 384 walk 1.2-1.6x faster.
SPLIT_AT = 10240

#: ``mallopt``'s parameter number for the cap on glibc malloc arenas.
_M_ARENA_MAX = -8

_pool: tuple[int, ThreadPoolExecutor] | None = None


def greedy_walk(
    table: WalkTable,
    source_rows: np.ndarray,
    owner_rows: np.ndarray,
    bounds: np.ndarray,
    budget: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lock-step numpy walk: every still-active query advances one hop
    per iteration (see the module docstring for arguments and result).
    Each hop first builds the rows it is about to read
    (:meth:`WalkTable.visit`; nothing to do on a table built whole).
    A batch of :data:`SPLIT_AT` or more queries over a table built whole
    walks its second half on the worker thread when the process may run
    on two CPUs; the result is the same either way."""
    hi = np.asarray(bounds, dtype=np.int32)
    n = int(source_rows.size)
    if n < SPLIT_AT or table.built is not None or _cpus() < 2:
        return _walk(table, source_rows, owner_rows, hi, budget)
    half = n // 2
    tail = _worker().submit(_walk, table, source_rows[half:], owner_rows[half:], hi[half:], budget)
    head = _walk(table, source_rows[:half], owner_rows[:half], hi[:half], budget)
    hops, code, stopped = (np.concatenate(halves) for halves in zip(head, tail.result()))
    return hops, code, stopped


def _cpus() -> int:
    """The CPUs this process may run on (its affinity, where the
    platform has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker() -> ThreadPoolExecutor:
    """The walk's one worker thread, started on first use in each
    process. A fork-started child inherits its parent's executor but not
    its thread (a task submitted there would never run), so a new process
    id starts a new pool.

    Starting it caps glibc's malloc at one arena first: a thread of its
    own would get an arena of its own, whose pages it hands back and
    faults in again batch after batch (a slower ``serve-churn``, a higher
    peak RSS). Elsewhere the cap is skipped.

    The pool's modules are imported here, not with this module: they
    bring in :mod:`logging`, ~1.2 MiB more peak RSS in a process that
    never splits a walk."""
    import ctypes
    from concurrent.futures import ThreadPoolExecutor

    global _pool
    pid = os.getpid()
    if _pool is None or _pool[0] != pid:
        try:
            ctypes.CDLL(None).mallopt(_M_ARENA_MAX, 1)
        except (AttributeError, OSError, TypeError):  # not glibc
            pass
        _pool = (pid, ThreadPoolExecutor(max_workers=1, thread_name_prefix="greedy-walk"))
    return _pool[1]


def _walk(
    table: WalkTable,
    source_rows: np.ndarray,
    owner_rows: np.ndarray,
    hi: np.ndarray,
    budget: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`greedy_walk` on the calling thread, ``hi`` the ``int32``
    bounds."""
    offsets = table.offsets
    m, width = offsets.shape
    flat = offsets.reshape(-1)
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
        table.visit(cur)
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
    offsets' order nor their arithmetic is trusted. A deferred table is
    read built whole (:meth:`WalkTable.whole`)."""
    table = table.whole()
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
