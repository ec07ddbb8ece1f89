"""Overlay construction and maintenance — Oscar's one builder.

:class:`BatchConstructionEngine` runs the paper's construction procedure
— estimate the partitions by sampling, acquire capacity-respecting
links with two choices, rewire periodically — as lock-step numpy rounds
over every peer at once. Every Oscar build goes through it: a bulk
``grow``, a single ``join`` (a one-row cohort) and a full ``rewire``.

* **partition estimation** runs for all peers simultaneously — one
  ``(peers, samples)`` draw per recursion level, medians selected by
  exact ``uint64`` clockwise rank on the fixed-point keyspace, level
  termination decided by the comparison-exact border clamp the protocol
  core defines (:func:`repro.protocol.decisions.border_is_terminal`).
  In ``UNIFORM`` mode the kernel does not build the samples it ranks:
  rows are in key order, so the sample median is the offset of an order
  statistic of the uniform draw (one in-place ``partition``), unless an
  arc is the full circle. Every border
  keeps the ring rank it was picked at, so no arc window is searched
  twice — only the few percent of borders whose float reconstruction
  misses their sample's position by an ulp are searched at all.
  ``WALK`` mode advances every peer's restricted Metropolis–Hastings
  walker in lock-step over one shared padded neighbor matrix
  (:class:`repro.sampling.BatchRestrictedWalker`);
* **link acquisition** proceeds in vectorized rounds: every unfinished
  peer draws a partition and candidate peers, refusals and the
  power-of-two in-degree tiebreak are evaluated against a round-start
  snapshot, and acknowledgments are committed by counting each
  candidate's demand — where it is within the candidate's ``spare``
  every requester wins, and only over-subscribed candidates order their
  requests by priority and take the first ``spare``, which is
  *bit-identical* to replaying the round one request at a time in
  priority order. A round costs what it touches: in-degree and
  capacity are gathered at the candidates, never read or written over
  the whole population. A round builds no side table: the population is
  fixed for the whole acquisition, so every arc's candidate window is
  closed once when the tables are packed (a round gathers it), and
  "already my target?" is a compare against the requester's own link
  row — held, for the vectorized rounds, in a requester-ordered
  column-major copy that is written back to ``state.out_links`` once
  when the loop ends;
* **refill** is the cheap periodic repair: every live peer drops its
  links to peers that are gone, in-degrees are recounted from the
  surviving links, and the peers left with open slots acquire over the
  partition tables they already store — no teardown, no re-estimation,
  no samples spent.

Determinism contract
--------------------

The engine's RNG draw layout is fixed and state-independent — every
round draws the same array shapes regardless of what individual peers
decide — so the vectorized kernels and the pure-Python sequential
reference (``vectorized=False``) consume one stream identically and must
produce bit-identical link sets, partition tables and
:class:`LinkAcquisitionStats`. That reference is the only twin of the
kernels; the live runtime's :mod:`repro.protocol` machines are the one
message-passing realisation, held to this engine by a lockstep
differential. The test suite pins the equivalence property-style and
via a golden build fixture.

Typical use goes through the substrate surface::

    overlay = OscarOverlay(OscarConfig(), seed=42)
    overlay.grow(100_000, GnutellaLikeDistribution(), ConstantDegrees(12))
    stats = overlay.rewire()
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..config import SamplingMode
from ..core.soa import row_blocks, row_table
from ..degree import DegreeDistribution, assign_caps
from ..errors import SamplingError
from ..protocol.decisions import accepts_link, link_winner_key
from ..protocol.estimation import cw_arc_slice, select_border
from ..ring import keyspace, repair_all
from ..sampling.batch_walk import BatchRestrictedWalker, in_cw_arc
from ..workloads import KeyDistribution

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.soa import SubstrateState
    from ..core.overlay import OscarOverlay

__all__ = ["BatchConstructionEngine", "LinkAcquisitionStats", "LiveView", "draw_positions"]


@dataclass(slots=True)
class LinkAcquisitionStats:
    """Counters describing one acquisition run (diagnostics/ablations).

    ``conflicts`` counts requests that were acknowledged but lost the
    commit race for a candidate's last free slot within one acquisition
    round (an earlier-priority requester of the same round took it).
    """

    links_placed: int = 0
    slots_given_up: int = 0
    draws: int = 0
    refusals: int = 0
    empty_partition_draws: int = 0
    conflicts: int = 0

    def merge(self, other: object) -> None:
        """Accumulate another run's counters into this one (``other``
        is anything carrying the six fields, e.g. a live peer's
        :class:`~repro.protocol.join.JoinProtocol`)."""
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view (stable key order) for artifacts and tests."""
        return {name: int(getattr(self, name)) for name in self.__slots__}


class LiveView:
    """Array view of the live population at one instant (ring order).

    Attributes:
        ids: Node id per row, sorted by position.
        pos: Float position per row (sorted — the ``searchsorted`` base
            for arc counting, exactly the ring's own lookup array).
        keys: Exact ``uint64`` keyspace twin of ``pos`` (strictly increasing).
        row_of: ``node id -> row`` translation (-1 for unknown/dead).
        slots: Row-aligned physical slots into ``state`` — the bridge
            the array kernels use to read/write per-peer columns.
        state: The overlay's shared struct-of-arrays substrate state.
    """

    __slots__ = ("ids", "pos", "keys", "row_of", "slots", "state")

    def __init__(
        self,
        ids: np.ndarray,
        pos: np.ndarray,
        keys: np.ndarray,
        row_of: np.ndarray,
        slots: np.ndarray,
        state: "SubstrateState",
    ) -> None:
        self.ids = ids
        self.pos = pos
        self.keys = keys
        self.row_of = row_of
        self.slots = slots
        self.state = state

    @property
    def m(self) -> int:
        """Live peer count."""
        return int(self.ids.size)

    @classmethod
    def capture(cls, overlay: "OscarOverlay") -> "LiveView":
        """Materialize the overlay's current live population."""
        ring = overlay.ring
        ids = ring.ids_array(live_only=True)
        pos = ring.positions_array(live_only=True)
        keys = ring.keys_array(live_only=True)
        return cls(ids, pos, keys, row_table(ids), ring.slots_array(live_only=True), overlay.state)


@dataclass(frozen=True)
class _ArcTables:
    """Partition arcs of the requesting rows as padded matrices.

    Row ``i`` describes requester ``rows[i]``'s table: ``k_count[i]`` is
    its number of partitions, and ``lo`` / ``count`` (``int32``) are
    every arc's :func:`~repro.protocol.estimation.cw_arc_slice` window
    over the view's positions (``count`` 0 for a degenerate, provably
    empty arc), closed once when the table is packed — the population
    is fixed for the whole acquisition, so a round only gathers them.

    The float borders are kept for the sequential twin alone, which
    searches them per request (``None`` on the vectorized path):
    partition ``p`` (0-indexed) is the clockwise arc
    ``(starts[i, p], ends[i, p]]`` and ``valid[i, p]`` masks the
    degenerate ones.
    """

    k_count: np.ndarray
    lo: np.ndarray
    count: np.ndarray
    starts: np.ndarray | None = None
    ends: np.ndarray | None = None
    valid: np.ndarray | None = None


def _window_counts(
    m: int, start: np.ndarray, end: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Member counts of the clockwise arcs ``(start, end]`` whose borders
    rank at ``lo`` / ``hi`` among ``m`` sorted positions — the vectorized
    :func:`~repro.protocol.estimation.cw_arc_slice` with both searches
    already done (``start == end`` reads as the full circle)."""
    span = hi - lo
    return np.where(start < end, span, np.where(start == end, m, m + span))


def stored_border_ranks(
    view: LiveView, slots: np.ndarray, counts: np.ndarray, width: int
) -> Callable[[slice], np.ndarray]:
    """The current ring rank ``searchsorted(view.pos, border, "right")``
    of the first ``width`` stored borders of ``slots``, as a function of
    a slice of ``slots`` (``int32``; 0 past a row's ``counts``).

    A border picked on a peer (its ``median_ids`` entry) still equals
    that peer's position and positions are distinct, so while the peer
    is live its rank is its row + 1 — one gather through the view's
    ``id -> row`` table, read as ``uint32`` so that ``-1`` and every id
    without a row clip onto one appended ``-1``. Only the borders whose
    peer has left or crashed, or that sit on no peer, are searched
    (asked in key order: the borders of ring-ordered rows are not)."""
    table = np.append(view.row_of, -1).astype(np.int32)
    cell = np.arange(width)

    def ranks(block: slice) -> np.ndarray:
        """The current ranks of a block's stored borders."""
        ids = view.state.median_ids[slots[block], :width]
        rank = table.take(ids.view(np.uint32), mode="clip")
        rank += 1
        row, col = np.nonzero((rank == 0) & (cell < counts[block, None]))
        borders = view.state.medians[slots[block][row], col]
        rank[row, col] = keyspace.search_sorted(view.pos, borders, side="right")
        return rank

    return ranks


def draw_positions(
    rng: np.random.Generator, keys: KeyDistribution, count: int, occupied: np.ndarray
) -> np.ndarray:
    """``count`` positions from the key sampler, each in its own
    ``2**-64`` key cell and none in a cell of ``occupied`` (a ring's
    sorted ``uint64`` keys, its dead peers' included).

    A draw whose cell is occupied, or taken earlier in the batch, is
    redrawn (first occurrences are kept); collisions have probability
    ~0, so the expected number of redraw passes is 1. RNG: one
    ``keys.sample(rng, missing)`` per pass — the layout the engine's
    join stream and the live runtime's share.
    """
    taken = np.asarray(occupied, dtype=np.uint64)
    accepted = np.empty(0, dtype=float)
    while accepted.size < count:
        draw = np.asarray(keys.sample(rng, count - accepted.size), dtype=float)
        if taken.size:
            cells = keyspace.from_units(draw)
            draw = draw[taken.take(keyspace.search_sorted(taken, cells), mode="clip") != cells]
        pool = np.concatenate([accepted, draw])
        # First occurrences per cell, in draw order (earlier passes first).
        first = np.unique(keyspace.from_units(pool), return_index=True)[1]
        accepted = pool[np.sort(first)]
    return accepted


class BatchConstructionEngine:
    """Vectorized construction/maintenance for one
    :class:`~repro.core.overlay.OscarOverlay`.

    Args:
        overlay: The Oscar overlay to build/maintain.
        vectorized: ``True`` (default) runs the numpy lock-step kernels;
            ``False`` runs the sequential reference — same RNG stream,
            same round semantics, pure-Python decisions — whose output
            the vectorized path must match bit-for-bit. The reference
            exists for equivalence testing and as the executable
            specification of the round semantics.
    """

    def __init__(self, overlay: "OscarOverlay", vectorized: bool = True) -> None:
        self.overlay = overlay
        self.vectorized = bool(vectorized)

    # ------------------------------------------------------------------
    # public entry points
    # ------------------------------------------------------------------

    def rewire(self, rng: np.random.Generator) -> LinkAcquisitionStats:
        """One global rewiring round (the paper's periodic rewiring).

        Teardown of every long link, partition re-estimation for all
        peers against the current population, then link re-acquisition
        under a random peer priority so no cohort systematically wins
        the race for scarce in-capacity.

        RNG-stream contract: all randomness comes from the passed
        ``rng`` in a fixed, state-independent draw layout (one
        estimation draw per level for every active peer, one priority
        shuffle, one partition + candidate draw per acquisition round)
        — both execution paths consume the stream identically, which is
        what makes ``vectorized=False`` bit-identical.
        """
        view = LiveView.capture(self.overlay)
        if view.m < 2:
            raise SamplingError("cannot rewire an overlay with fewer than 2 live peers")
        view.state.clear_links(view.slots)
        view.state.in_deg[view.slots] = 0
        rows = np.arange(view.m, dtype=np.int64)
        arcs = self._estimate(rng, view, rows, track_spend=True)
        priority_of = self._draw_priority(rng, view, rows)
        return self._acquire(rng, view, rows, arcs, priority_of)

    def refill(self, rng: np.random.Generator) -> LinkAcquisitionStats:
        """Repair what churn broke, keep what it did not.

        Every live peer drops its links to peers outside the live view
        (its row compacted in order, ``-1`` past the new count), every
        live peer's in-degree is recounted from the surviving links, and
        each peer left with open slots acquires links over the partition
        table it *stores* — its borders kept as they are, only their
        ring ranks searched over the current population. Nothing is
        re-estimated and no samples are spent.

        RNG-stream contract: one priority shuffle over the under-filled
        rows, then the acquisition rounds — the draw layout of
        :meth:`rewire` after its estimation, consumed identically by
        both execution paths.
        """
        view = LiveView.capture(self.overlay)
        if view.m < 2:
            raise SamplingError("cannot refill an overlay with fewer than 2 live peers")
        if self.vectorized:
            self._drop_dead_links(view)
        else:
            self._drop_dead_links_reference(view)
        state = view.state
        rows = np.flatnonzero(state.out_count[view.slots] < state.cap_out[view.slots])
        arcs = self._stored_arcs(view, rows)
        priority_of = self._draw_priority(rng, view, rows)
        return self._acquire(rng, view, rows, arcs, priority_of)

    def grow(
        self,
        target_size: int,
        keys: KeyDistribution,
        degrees: DegreeDistribution,
    ) -> LinkAcquisitionStats:
        """Grow to ``target_size`` live peers in one bulk step.

        Keys and caps are drawn in bulk (collisions redrawn), all
        newcomers are spliced into the ring with one sorted merge
        (:meth:`Ring.insert_many <repro.ring.ring.Ring.insert_many>`),
        ring pointers are rebuilt once, and the newcomers then join as
        one :meth:`join_cohort`.

        RNG-stream contract: consumes the overlay's join stream
        (``_join_rng``) — state-dependent on the overlay's history, but
        with the same fixed draw layout as :meth:`rewire`, so for a
        given overlay state both execution paths consume it identically
        and grow bit-identical cohorts.
        """
        overlay = self.overlay
        missing = int(target_size) - overlay.ring.live_count
        if missing <= 0:
            return LinkAcquisitionStats()
        rng = overlay._join_rng
        caps_in, caps_out = assign_caps(degrees, rng, missing)
        positions = draw_positions(rng, keys, missing, overlay.ring.keys_array(live_only=False))
        new_ids = np.arange(overlay._next_id, overlay._next_id + missing, dtype=np.int64)
        overlay._next_id += missing
        overlay.ring.insert_many(new_ids, positions)
        new_slots = overlay.state.slots_of(new_ids)
        overlay.state.cap_in[new_slots] = np.asarray(caps_in, dtype=np.int64)
        overlay.state.cap_out[new_slots] = np.asarray(caps_out, dtype=np.int64)
        repair_all(overlay.ring, overlay.pointers)
        return self.join_cohort(new_ids)

    def join_cohort(self, new_ids: np.ndarray) -> LinkAcquisitionStats:
        """Link up peers already spliced into the ring.

        The newcomers ``new_ids`` estimate partitions against the full
        live population and acquire links as one batched cohort on the
        overlay's join stream; existing peers keep their links. Nothing
        happens below two live peers (a lone peer has no one to link to).
        """
        overlay = self.overlay
        if overlay.ring.live_count < 2:
            return LinkAcquisitionStats()
        rng = overlay._join_rng
        view = LiveView.capture(overlay)
        rows = np.sort(view.row_of[new_ids])
        arcs = self._estimate(rng, view, rows, track_spend=False)
        priority_of = self._draw_priority(rng, view, rows)
        return self._acquire(rng, view, rows, arcs, priority_of)

    # ------------------------------------------------------------------
    # bulk membership helpers
    # ------------------------------------------------------------------

    def _draw_priority(
        self, rng: np.random.Generator, view: LiveView, rows: np.ndarray
    ) -> np.ndarray:
        """Random acquisition priority over the requesting rows.

        Returns a length-``m`` array mapping a row to its rank in the
        shuffled order (-1 for non-requesters); ascending rank is the
        fixed sequential order conflict resolution replays.
        """
        order = rows.copy()
        rng.shuffle(order)
        priority_of = np.full(view.m, -1, dtype=np.int64)
        priority_of[order] = np.arange(order.size, dtype=np.int64)
        return priority_of

    # ------------------------------------------------------------------
    # partition estimation (all peers in lock-step)
    # ------------------------------------------------------------------

    def _estimate(
        self,
        rng: np.random.Generator,
        view: LiveView,
        rows: np.ndarray,
        track_spend: bool,
    ) -> _ArcTables:
        """(Re-)estimate partition tables for ``rows``; returns their arcs.

        Writes the partition columns of the substrate state (what
        :meth:`~repro.core.overlay.OscarOverlay.partition_table` reads
        back) and returns the same tables as padded arc matrices for the
        acquisition rounds. ``track_spend`` mirrors the rewiring path's
        ``samples_spent`` cost accounting.

        Every border is carried with its *ring rank* —
        ``searchsorted(pos, border, side="right")``, known when the
        border is picked — in a local matrix next to ``medians``, so
        packing the arcs searches nothing. The peer at ``rank - 1`` is
        stored as the border's ``median_ids`` entry where its position
        is the border, so a later refill reads the rank off that peer's
        row.
        """
        config = self.overlay.config
        m = view.m
        if m < 2:
            raise SamplingError("partition estimation needs at least 2 live peers")
        assert m < 2**31, "ring ranks are carried as int32"
        k = config.partitions_for(max(1, m))
        n = int(rows.size)
        origin = view.pos[rows]
        # The predecessor's rank is its row + 1: positions are distinct.
        far_rank = np.where(rows == 0, m, rows).astype(np.int32)
        far_end = view.pos[far_rank - 1]
        levels = max(0, k - 1)
        medians = np.zeros((n, max(1, levels)), dtype=float)
        ranks = np.zeros((n, max(1, levels)), dtype=np.int32)
        counts = np.zeros(n, dtype=np.int64)
        if levels:
            if config.sampling_mode is SamplingMode.ORACLE:
                self._oracle_levels(view, rows, medians, ranks, counts, levels)
            else:
                self._sampled_levels(rng, view, rows, medians, ranks, counts, levels)
        state = view.state
        est_slots = view.slots[rows]
        state.part_origin[est_slots] = origin
        state.part_far_end[est_slots] = far_end
        width = medians.shape[1]
        state.ensure_width("medians", width)
        state.ensure_width("median_ids", width)
        state.medians[est_slots, width:] = 0.0
        state.median_ids[est_slots, width:] = -1
        state.medians[est_slots, :width] = medians
        # A padding cell (border 0.0, rank 0) reads the last row, whose
        # position is above 0.0, so only a border on its peer names one.
        ids = view.ids.astype(np.int32)
        for block in row_blocks(n):
            at = ranks[block] - 1
            on_peer = view.pos.take(at) == medians[block]
            state.median_ids[est_slots[block], :width] = np.where(on_peer, ids.take(at), -1)
        state.n_medians[est_slots] = counts
        if track_spend:
            state.samples_spent[est_slots] += config.sample_size * counts
        origin_rank = (rows + 1).astype(np.int32)
        return self._arc_tables(
            m, origin, far_end, counts, origin_rank, far_rank, lambda b: (medians[b], ranks[b])
        )

    def _oracle_levels(
        self,
        view: LiveView,
        rows: np.ndarray,
        medians: np.ndarray,
        ranks: np.ndarray,
        counts: np.ndarray,
        levels: int,
    ) -> None:
        """Exact recursive medians straight from the ring order.

        The peer at clockwise rank ``remaining // 2`` splits each level's
        remaining near-side population — pure index arithmetic shared by
        both execution paths (no randomness, no per-peer divergence).
        """
        m = view.m
        remaining = m - 1
        level = 0
        while level < levels:
            half = remaining // 2
            if half < 1:
                break
            at = rows + half
            at[at >= m] -= m
            medians[:, level] = view.pos[at]
            ranks[:, level] = at + 1
            remaining = half
            level += 1
        counts[:] = level

    def _sampled_levels(
        self,
        rng: np.random.Generator,
        view: LiveView,
        rows: np.ndarray,
        medians: np.ndarray,
        ranks: np.ndarray,
        counts: np.ndarray,
        levels: int,
    ) -> None:
        """Sampled recursive medians (``UNIFORM`` or ``WALK``), lock-step.

        Per level every still-active peer draws ``sample_size`` arc
        members (one shared RNG call), takes the exact-rank clockwise
        sample median, and stops when its arc runs empty or the border
        clamp fires — the lock-step form of the estimation level
        :class:`repro.protocol.join.JoinProtocol` runs per peer.

        In ``UNIFORM`` mode the vectorized kernel never builds the
        samples: rows are in strictly increasing key order and an arc
        starts right after its origin, so clockwise distance is strictly
        increasing in the drawn offset ``floor(u * count)``, which is
        monotone in ``u`` — the rank-th sample *is* the offset of the
        rank-th smallest uniform (:meth:`_median_offsets`). A full-circle
        arc ends on the origin itself (distance 0, the *largest* offset),
        which sends the whole level through the materialised samples.
        """
        config = self.overlay.config
        m = view.m
        sample_size = config.sample_size
        origin = view.pos[rows]
        okey = view.keys[rows]
        prev_rank = np.where(rows == 0, m, rows)
        prev = view.pos[prev_rank - 1]
        active = np.ones(int(rows.size), dtype=bool)
        walk = config.sampling_mode is SamplingMode.WALK
        if walk:
            walker = BatchRestrictedWalker(view.pos, self._neighbor_matrix(view))
            start_rows = (rows + 1) % m
        for level in range(levels):
            level_rows = np.nonzero(active)[0]
            if level_rows.size == 0:
                break
            # The vectorized UNIFORM level is drawn and resolved one row
            # block at a time: a row's border depends on its own draws
            # alone, and one draw per block consumes the stream exactly
            # as one draw for the level does.
            parts = [slice(None)] if walk or not self.vectorized else row_blocks(level_rows.size)
            for part in parts:
                act = level_rows[part]
                selected = None
                if walk:
                    started = in_cw_arc(view.pos[start_rows[act]], origin[act], prev[act])
                    # A walker whose ring successor fell outside the shrunken
                    # arc sees an arc empty of other live peers: stop, as an
                    # empty sample stops the level machine.
                    active[act[~started]] = False
                    act = act[started]
                    if act.size == 0:
                        continue
                    walk_fn = walker.walk if self.vectorized else walker.walk_reference
                    samples = walk_fn(
                        rng,
                        start_rows[act],
                        origin[act],
                        prev[act],
                        sample_size,
                        config.walk_hops,
                    )
                else:
                    # Drawn for *every* active peer — one whose arc holds no
                    # peers discards its row — so the draw layout is
                    # state-independent and both paths consume it identically.
                    u = rng.random((int(act.size), sample_size))
                    lo = rows[act] + 1  # positions are distinct: right of the origin's own slot
                    count = _window_counts(m, origin[act], prev[act], lo, prev_rank[act])
                    drew = count > 0
                    if not drew.all():
                        active[act[~drew]] = False
                        act, u, lo, count = act[drew], u[drew], lo[drew], count[drew]
                        if act.size == 0:
                            continue
                    # count == m: the full circle, ending on the origin itself.
                    if self.vectorized and (count < m).all():
                        selected = self._median_offsets(u, count) + lo
                        selected[selected >= m] -= m
                    else:
                        samples = self._uniform_samples(m, u, lo, count)
                if not self.vectorized:
                    border, stop = self._select_borders_reference(
                        view, okey[act], origin[act], prev[act], samples
                    )
                    rank = np.searchsorted(view.pos, border, side="right")
                elif selected is None:
                    border, stop, rank = self._select_borders(
                        view, okey[act], origin[act], prev[act], samples
                    )
                else:
                    border, stop, rank = self._clamp_borders(view, origin[act], prev[act], selected)
                active[act[stop]] = False
                keep = act[~stop]
                medians[keep, level] = border[~stop]
                ranks[keep, level] = rank[~stop]
                counts[keep] += 1
                prev[keep] = border[~stop]
                prev_rank[keep] = rank[~stop]

    @staticmethod
    def _median_offsets(u: np.ndarray, count: np.ndarray) -> np.ndarray:
        """Offset ``floor(u * count)`` of each row's rank-``(s - 1) // 2``
        uniform — an order statistic of the draw (partitions ``u`` in
        place)."""
        rank = (u.shape[1] - 1) // 2
        u.partition(rank, axis=1)
        return (u[:, rank] * count).astype(np.int64)

    def _uniform_samples(
        self, m: int, u: np.ndarray, lo: np.ndarray, count: np.ndarray
    ) -> np.ndarray:
        """The ``(active peers, sample_size)`` sample rows one uniform
        draw ``u`` selects from the windows ``(lo, count)``."""
        if self.vectorized:
            return (lo[:, None] + (u * count[:, None]).astype(np.int64)) % m
        samples = np.zeros(u.shape, dtype=np.int64)
        for i in range(u.shape[0]):
            for j in range(u.shape[1]):
                samples[i, j] = (int(lo[i]) + int(u[i, j] * int(count[i]))) % m
        return samples

    def _select_borders(
        self,
        view: LiveView,
        okey: np.ndarray,
        origin: np.ndarray,
        prev: np.ndarray,
        samples: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized clockwise sample medians of materialised samples,
        then :meth:`_clamp_borders`.

        Samples are ranked by exact wrapping ``uint64`` distance from
        each origin. Rows hold distinct keys, so equal distances are one
        row drawn twice — any rank-th pick is the twin's.
        """
        n, sample_size = samples.shape
        distance = view.keys[samples] - okey[:, None]  # wrapping uint64
        rank = (sample_size - 1) // 2
        pick = np.argpartition(distance, rank, axis=1)[:, rank]
        return self._clamp_borders(view, origin, prev, samples[np.arange(n), pick])

    @staticmethod
    def _clamp_borders(
        view: LiveView, origin: np.ndarray, prev: np.ndarray, selected: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Border, clamp and ring rank of each peer's selected sample row.

        The border is the float reconstruction
        ``normalize(origin + cw_distance)`` of the selected sample — the
        historical output format — and ``stop`` marks borders the clamp
        rejects. Where the reconstruction lands back on the sample's own
        position (all but an ulp-off few percent) its rank is the row
        after it; only the rest are searched.
        """
        at = view.pos[selected]
        border = np.remainder(origin + np.remainder(at - origin, 1.0), 1.0)
        border = np.where(border >= 1.0, 0.0, border)
        stop = (border == prev) | ~in_cw_arc(border, origin, prev)
        rank = selected + 1
        inexact = np.nonzero(at != border)[0]
        rank[inexact] = np.searchsorted(view.pos, border[inexact], side="right")
        return border, stop, rank

    def _select_borders_reference(
        self,
        view: LiveView,
        okey: np.ndarray,
        origin: np.ndarray,
        prev: np.ndarray,
        samples: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sequential twin of :meth:`_select_borders` (scalar keyspace ops).

        The per-row body is the shared protocol kernel
        :func:`repro.protocol.estimation.select_border` — the same exact
        rank-median-and-clamp every live peer's
        :class:`~repro.protocol.join.JoinProtocol` computes over its
        directory snapshot.
        """
        n, __ = samples.shape
        border = np.zeros(n, dtype=float)
        stop = np.zeros(n, dtype=bool)
        for i in range(n):
            rows = [int(s) for s in samples[i]]
            border[i], stop[i] = select_border(
                int(okey[i]),
                float(origin[i]),
                float(prev[i]),
                [int(view.keys[s]) for s in rows],
                [float(view.pos[s]) for s in rows],
            )
        return border, stop

    def _neighbor_matrix(self, view: LiveView) -> np.ndarray:
        """Shared padded neighbor-row matrix for the batched walkers.

        Row ``i``: geometric ring successor and predecessor (the
        pointers' steady state) followed by the peer's long links, dead
        targets dropped (a restricted walker refuses them anyway), in
        provider order — the overlay's ``neighbors_of`` adjacency.
        """
        m = view.m
        row_idx = np.arange(m, dtype=np.int64)
        succ = (row_idx + 1) % m
        pred = (row_idx - 1) % m
        succ_col = np.where(succ != row_idx, succ, -1)
        pred_col = np.where((pred != row_idx) & (pred != succ), pred, -1)
        full = np.concatenate(
            [succ_col[:, None], pred_col[:, None], view.state.link_rows(view.slots, view.row_of)],
            axis=1,
        )
        # Stable left-compaction: valid entries keep provider order, the
        # -1 holes (self, dead targets) are pushed off the right edge.
        order = np.argsort(full < 0, axis=1, kind="stable")
        matrix = np.take_along_axis(full, order, axis=1)
        keep = max(1, int((full >= 0).sum(axis=1).max(initial=0)))
        return matrix[:, :keep]

    def _arc_tables(
        self,
        m: int,
        origin: np.ndarray,
        far_end: np.ndarray,
        counts: np.ndarray,
        origin_rank: np.ndarray,
        far_rank: np.ndarray,
        borders: Callable[[slice], tuple[np.ndarray, np.ndarray]],
    ) -> _ArcTables:
        """Pack per-peer partition arcs into padded matrices.

        Matches :meth:`PartitionTable.arc
        <repro.core.partitions.PartitionTable.arc>` exactly: partition
        ``p`` (0-indexed) ends at ``far_end`` (``p == 0``) or median
        ``p - 1``, starts at median ``p`` or the origin, and a
        non-outermost arc whose borders coincide is degenerate. The
        candidate windows over the ``m`` ring positions are closed here,
        once, and without a search: ``origin_rank`` / ``far_rank`` /
        every border's rank are ``searchsorted(pos, border,
        side="right")``, and arc ``p`` ends where arc ``p - 1`` starts.
        ``borders(block)`` returns the medians of a row block and their
        ranks; the tables are packed one row block at a time, straight
        into their requester-major rows.
        """
        n = int(origin.size)
        kmax = int(counts.max(initial=0)) + 1
        lo = np.zeros((n, kmax), dtype=np.int32)
        count = np.zeros((n, kmax), dtype=np.int32)
        if not self.vectorized:
            starts = np.zeros((n, kmax), dtype=float)
            ends = np.zeros((n, kmax), dtype=float)
            valid = np.zeros((n, kmax), dtype=bool)
        for block in row_blocks(n):
            medians, ranks = borders(block)
            start, low, block_counts = origin[block], origin_rank[block], counts[block]
            end_col, hi = far_end[block], far_rank[block]
            for p in range(kmax):
                has = block_counts >= p
                if p < medians.shape[1]:
                    inner = block_counts > p
                    start_col = np.where(inner, medians[:, p], start)
                    lo_col = np.where(inner, ranks[:, p], low)
                else:
                    start_col, lo_col = start, low
                window = _window_counts(m, start_col, end_col, lo_col, hi)
                ok = has & ~((start_col == end_col) & (p > 0))
                lo[block, p] = np.where(has, lo_col, 0)
                count[block, p] = np.where(ok, window, 0)
                if not self.vectorized:
                    starts[block, p] = np.where(has, start_col, 0.0)
                    ends[block, p] = np.where(has, end_col, 0.0)
                    valid[block, p] = ok
                end_col, hi = start_col, lo_col
        if self.vectorized:
            return _ArcTables(k_count=counts + 1, lo=lo, count=count)
        return _ArcTables(
            k_count=counts + 1, lo=lo, count=count, starts=starts, ends=ends, valid=valid
        )

    # ------------------------------------------------------------------
    # refill (repair over the stored tables)
    # ------------------------------------------------------------------

    @staticmethod
    def _drop_dead_links(view: LiveView) -> None:
        """Drop every link whose target is not in ``view``; recount
        in-degree from the links that survive.

        One row block of the live rows at a time
        (:func:`~repro.core.soa.row_blocks`), column by column over a
        column-major ``int32`` copy of the block: a link survives when
        its target has a row, and is written to the next free cell of
        its row, so each row keeps its survivors in order with ``-1``
        past the new ``out_count``; a dropped link is written to one sink
        cell instead. In-degree is one ``bincount`` of the block's target
        rows. Every temporary is one block long.
        """
        state, m = view.state, view.m
        width = int(state.out_count[view.slots].max(initial=0))
        # id -> row; the padding, dead and retired ids all read row m.
        table = np.append(view.row_of, m).astype(np.int32)
        table[table < 0] = m
        in_deg = np.zeros(m + 1, dtype=np.int64)
        for block in row_blocks(m):
            slots = view.slots[block]
            links = np.ascontiguousarray(state.out_links[slots, :width].T)
            target = table.take(links.view(np.uint32), mode="clip")
            in_deg += np.bincount(target.reshape(-1), minlength=m + 1)
            sink = links.size
            kept = np.full(sink + 1, -1, dtype=links.dtype)  # column-major cells + the sink
            cell = np.arange(slots.size, dtype=np.int64)  # each row's next free cell
            for column, rows in zip(links, target):
                live = rows < m
                kept[np.where(live, cell, sink)] = column
                cell += live * slots.size
            state.out_links[slots, :width] = kept[:sink].reshape(width, slots.size).T
            state.out_count[slots] = cell // slots.size
        state.in_deg[view.slots] = in_deg[:m]

    @staticmethod
    def _drop_dead_links_reference(view: LiveView) -> None:
        """Sequential twin of :meth:`_drop_dead_links`, one peer's link
        row at a time."""
        state = view.state
        live = {int(node_id) for node_id in view.ids}
        in_deg = dict.fromkeys(live, 0)
        for slot in view.slots:
            held = state.out_links[slot, : state.out_count[slot]].tolist()
            kept = [target for target in held if target in live]
            state.set_links(slot, kept)
            for target in kept:
                in_deg[target] += 1
        for node_id, slot in zip(view.ids.tolist(), view.slots):
            state.in_deg[slot] = in_deg[node_id]

    def _stored_arcs(self, view: LiveView, rows: np.ndarray) -> _ArcTables:
        """The partition tables ``rows`` store, packed as arcs.

        Borders are read back as the last estimation left them; their
        ring ranks, which churn has moved since, are
        :func:`stored_border_ranks`. A peer that never estimated (it
        joined a one-peer ring) holds one partition: the whole ring up
        to its current predecessor.
        """
        state, m = view.state, view.m
        slots = view.slots[rows]
        n_medians = state.n_medians[slots].astype(np.int64)
        counts = np.maximum(n_medians, 0)
        origin = view.pos[rows]
        pred = view.pos[np.where(rows == 0, m, rows) - 1]
        far_end = np.where(n_medians < 0, pred, state.part_far_end[slots])
        width = max(1, int(counts.max(initial=0)))

        ranks = stored_border_ranks(view, slots, counts, width)
        # far_end follows the rows' ring order already: searched as it stands.
        far_rank = np.searchsorted(view.pos, far_end, side="right").astype(np.int32)
        origin_rank = (rows + 1).astype(np.int32)
        return self._arc_tables(
            m,
            origin,
            far_end,
            counts,
            origin_rank,
            far_rank,
            lambda b: (state.medians[slots[b], :width], ranks(b)),
        )

    # ------------------------------------------------------------------
    # link acquisition (vectorized rounds)
    # ------------------------------------------------------------------

    def _acquire(
        self,
        rng: np.random.Generator,
        view: LiveView,
        rows: np.ndarray,
        arcs: _ArcTables,
        priority_of: np.ndarray,
    ) -> LinkAcquisitionStats:
        """Fill the outgoing slots of ``rows`` in vectorized rounds.

        Round semantics (identical in both execution paths): every peer
        with open slots and attempt budget issues one request — draw a
        partition, draw candidates, evaluate refusals and the
        power-of-two tiebreak against the round-*start* in-degree
        snapshot — and acknowledged requests commit in ascending
        priority, the first ``spare`` per candidate winning (argsort
        ranks in the vectorized path, an explicit priority-ordered loop
        in the reference). A failed attempt consumes one of the slot's
        ``link_retries + 1`` tries; exhausting them gives the peer's
        remaining slots up.

        The requesters still at work are carried as a compacted index
        list ``act`` into ``rows``, aligned with their tries at the
        current slot and their open slots, so a round touches only them.
        The vectorized rounds read and write the requesters' link rows
        through ``links_t`` — a requester-ordered, column-major copy
        taken once here (row ``c`` is link column ``c`` of every
        requester, contiguous) and written back to ``state.out_links``
        / ``out_count`` once when the loop ends; the twin rewrites each
        winner's own ``out_links`` row as it commits.
        """
        config = self.overlay.config
        stats = LinkAcquisitionStats()
        m = view.m
        n = int(rows.size)
        if n == 0 or m < 2:
            return stats
        assert m * m < 2**63, "conflict resolution packs (candidate, priority) into one int64"
        state = view.state
        req_slots = view.slots[rows]
        rho_in = state.cap_in[view.slots].astype(np.int64)
        in_deg = state.in_deg[view.slots].astype(np.int64)
        target = state.cap_out[req_slots].astype(np.int64)
        out_count = state.out_count[req_slots].astype(np.int64)
        n_cand = 2 if config.power_of_two else 1
        run_round = self._round_vectorized if self.vectorized else self._round_reference
        act = np.flatnonzero(out_count < target)
        tries = np.zeros(act.size, dtype=np.int64)
        left = target.take(act) - out_count.take(act)
        links_t = None
        if self.vectorized:
            # Wide enough for a row already past its cap: ids are compared,
            # so stale or retired targets in a prefilled row keep working.
            held = int(out_count.max())
            links_t = np.full((max(int(target.max()), held), n), -1, dtype=state.out_links.dtype)
            for block in row_blocks(n):
                links_t[:held, block] = state.out_links[req_slots[block], :held].T

        while act.size:
            u_part = rng.random(act.size)
            u_cand = rng.random((act.size, n_cand))
            stats.draws += int(act.size)
            success = run_round(
                view,
                rows,
                arcs,
                priority_of,
                act,
                u_part,
                u_cand,
                rho_in,
                in_deg,
                out_count,
                links_t,
                stats,
            )
            # A placed link restarts the next slot's tries; a failure
            # spends one, and the last one gives the open slots up.
            tries = np.where(success, 0, tries + 1)
            left -= success
            gave = tries > config.link_retries
            stats.slots_given_up += int(np.count_nonzero(gave))
            keep = (left > 0) & ~gave
            if not keep.all():
                act, tries, left = act[keep], tries[keep], left[keep]

        if links_t is not None:
            held = int(out_count.max())
            state.ensure_width("out_links", held)
            state.out_links[req_slots, :held] = links_t[:held].T
            state.out_count[req_slots] = out_count
        state.in_deg[view.slots] = in_deg
        return stats

    def _round_vectorized(
        self,
        view: LiveView,
        rows: np.ndarray,
        arcs: _ArcTables,
        priority_of: np.ndarray,
        act: np.ndarray,
        u_part: np.ndarray,
        u_cand: np.ndarray,
        rho_in: np.ndarray,
        in_deg: np.ndarray,
        out_count: np.ndarray,
        links_t: np.ndarray,
        stats: LinkAcquisitionStats,
    ) -> np.ndarray:
        """One acquisition round as array kernels; returns the success
        mask over ``act``.

        The candidates are one ``(n_cand, a)`` block, a row per choice,
        so every per-candidate quantity is one ``take`` and the chosen
        candidate of request ``r`` sits at flat index ``pick * a + r``.
        """
        m, a = view.m, act.size
        everyone = a == rows.size
        act_rows = rows if everyone else rows.take(act)
        success = np.zeros(a, dtype=bool)

        arc = (u_part * arcs.k_count.take(act)).astype(np.int64)
        arc += act * arcs.lo.shape[1]
        lo = arcs.lo.take(arc)
        count = arcs.count.take(arc)
        drew = count > 0
        stats.empty_partition_draws += a - int(np.count_nonzero(drew))

        cand = np.multiply(u_cand.T, count, order="C").astype(np.int64)
        cand += lo
        np.subtract(cand, m, out=cand, where=cand >= m)
        cand_ids = view.ids.take(cand).astype(links_t.dtype)
        eligible = cand != act_rows
        eligible &= drew
        if u_cand.shape[1] == 2:
            eligible[1] &= cand[1] != cand[0]
        # "Already my target?" is a compare against the requester's own
        # link columns: ids are never reused, so a dead or retired target
        # cannot alias a live candidate, and padding is -1. One row block
        # of the requesters at a time, both candidates in one test.
        held = int(out_count.take(act).max())
        for block in row_blocks(a) if held else ():
            own = links_t[:held, block] if everyone else links_t[:held].take(act[block], axis=1)
            eligible[:, block] &= (own[:, None, :] != cand_ids[:, block]).all(axis=0)
        # Round-start in-degree and spare in-capacity, gathered at the
        # candidates: they serve the refusal test, the tiebreak and the
        # commit.
        deg = in_deg.take(cand)
        spare = rho_in.take(cand) - deg
        ack = eligible & (spare > 0)
        stats.refusals += int(np.count_nonzero(eligible) - np.count_nonzero(ack))

        if u_cand.shape[1] == 2:
            (d0, d1), (s0, s1), (i0, i1) = deg, spare, cand_ids
            # Lexicographic (in-degree, -spare, id) — the link_winner_key order.
            roomier1 = (s1 > s0) | ((s1 == s0) & (i1 < i0))
            better1 = (d1 < d0) | ((d1 == d0) & roomier1)
            use1 = ack[1] & (~ack[0] | better1)
            req = (ack[0] | use1).nonzero()[0]
            pick = use1.take(req) * a + req
        else:
            req = pick = ack[0].nonzero()[0]
        if req.size == 0:
            return success
        req_cand = cand.take(pick)
        req_spare = spare.take(pick)
        demand = self._demand(req_cand, m)
        # A candidate asked at most `spare` times takes every request;
        # only the over-subscribed ones need the priority order, in which
        # their first `spare` requesters win.
        win = demand <= req_spare
        winners, chosen = req, pick
        if not win.all():
            over = np.flatnonzero(~win)
            over_cand = req_cand[over]
            # (candidate, priority) as one key: priorities are unique, so
            # the keys are and any sort yields the lexicographic order.
            order = np.argsort(over_cand * m + priority_of[act_rows[req[over]]])
            sorted_cand = over_cand[order]
            # A request's rank in its candidate's group: its distance from the group's head.
            rank = np.arange(order.size) - sorted_cand.searchsorted(sorted_cand)
            ranked = over[order]
            win[ranked[rank < req_spare[ranked]]] = True
            winners, chosen = req[win], pick[win]
        stats.conflicts += int(req.size - winners.size)
        # A candidate takes min(demand, spare) links, so every request of
        # it writes the same committed in-degree.
        in_deg[req_cand] = deg.take(pick) + np.minimum(demand, req_spare)
        # Scatter commit: requester rows are unique within a round, so the
        # write column is just each winner's current count.
        won = act.take(winners)
        write_col = out_count.take(won)
        links_t[write_col, won] = cand_ids.take(chosen)
        out_count[won] = write_col + 1
        stats.links_placed += int(winners.size)
        success[winners] = True
        return success

    @staticmethod
    def _demand(cand: np.ndarray, m: int) -> np.ndarray:
        """How many of a round's requests name each request's candidate
        (one ``bincount`` when the requests are a fair share of the
        ``m`` rows, a sort of the requests alone when they are few)."""
        if cand.size * 16 >= m:
            return np.bincount(cand).take(cand)
        ranked = np.sort(cand)
        return ranked.searchsorted(cand, "right") - ranked.searchsorted(cand, "left")

    def _round_reference(
        self,
        view: LiveView,
        rows: np.ndarray,
        arcs: _ArcTables,
        priority_of: np.ndarray,
        act: np.ndarray,
        u_part: np.ndarray,
        u_cand: np.ndarray,
        rho_in: np.ndarray,
        in_deg: np.ndarray,
        out_count: np.ndarray,
        links_t: None,
        stats: LinkAcquisitionStats,
    ) -> np.ndarray:
        """One acquisition round replayed one request at a time.

        Identical semantics to :meth:`_round_vectorized` by explicit
        sequential execution: requests are processed in ascending
        priority; acknowledgment and the choice-of-two tiebreak read the
        round-start snapshot, the commit capacity check reads the live
        in-degree (so a candidate filled earlier in the round loses the
        race — a ``conflicts`` event).
        """
        m = view.m
        pos = view.pos
        ids = view.ids
        state = view.state
        snapshot = in_deg.copy()
        success = np.zeros(act.size, dtype=bool)
        for a_i in np.argsort(priority_of[rows[act]], kind="stable"):
            r_row = int(rows[act[a_i]])
            r_slot = int(view.slots[r_row])
            held = state.out_links[r_slot, : state.out_count[r_slot]].tolist()
            k_count = int(arcs.k_count[act[a_i]])
            p = int(u_part[a_i] * k_count)
            if not arcs.valid[act[a_i], p]:
                stats.empty_partition_draws += 1
                continue
            start = float(arcs.starts[act[a_i], p])
            end = float(arcs.ends[act[a_i], p])
            lo, __, count = cw_arc_slice(pos, start, end)
            if count == 0:
                stats.empty_partition_draws += 1
                continue
            candidates: list[int] = []
            for u in u_cand[a_i]:
                c = (lo + int(u * count)) % m
                if c not in candidates:
                    candidates.append(c)
            accepting: list[int] = []
            for c in candidates:
                if c == r_row or int(ids[c]) in held:
                    continue
                if accepts_link(int(snapshot[c]), int(rho_in[c])):
                    accepting.append(c)
                else:
                    stats.refusals += 1
            if not accepting:
                continue
            # Acknowledgment ranks on the round-start snapshot via the
            # shared protocol winner key; the commit below re-checks the
            # live in-degree (losing that race is a ``conflicts`` event).
            chosen = min(
                accepting,
                key=lambda c: link_winner_key(int(snapshot[c]), int(rho_in[c]), int(ids[c])),
            )
            if accepts_link(int(in_deg[chosen]), int(rho_in[chosen])):
                in_deg[chosen] += 1
                out_count[act[a_i]] += 1
                state.set_links(r_slot, [*held, int(ids[chosen])])
                stats.links_placed += 1
                success[a_i] = True
            else:
                stats.conflicts += 1
        return success
