"""Shared fixtures: small deterministic rings and overlays.

Expensive overlays are session-scoped and treated as read-only by the
tests that share them; tests that mutate topology build their own via
the ``build_overlay`` helper.

Hypothesis runs under the pinned ``deterministic`` profile below
(derandomized, database off) unless ``HYPOTHESIS_PROFILE`` selects
another: boundary regressions — the float-rounding bug class this suite
hunts with denormal-laden strategies — must fail *reproducibly* on every
run and every machine, not flake in and out with the random seed.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from contextlib import contextmanager

import pytest
from hypothesis import settings

settings.register_profile(
    "deterministic",
    derandomize=True,  # examples are a pure function of the test, seed-free
    database=None,  # no cross-run example reuse: run N == run N+1
    print_blob=True,
)
settings.register_profile("random", print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "deterministic"))

import numpy as np

from repro import MercuryConfig, MercuryOverlay, OscarConfig, OscarOverlay, Substrate
from repro.config import RoutingConfig
from repro.core import soa
from repro.core.soa import row_table, rows_of
from repro.degree import ConstantDegrees
from repro.engine.walk import WalkTable
from repro.protocol import Deliver, GreedyRouter
from repro.membership import OracleView
from repro.ring import Ring, build_pointers, keyspace
from repro.ring.keyspace import KEY_MASK
from repro.rng import split
from repro.routing import RouteResult
from repro.workloads import GnutellaLikeDistribution, UniformKeys


def build_overlay(
    n: int = 100,
    seed: int = 42,
    cap: int = 8,
    skewed: bool = True,
    rewire: bool = True,
    **config_kwargs: object,
) -> OscarOverlay:
    """A small Oscar network for tests (fresh instance every call)."""
    overlay = OscarOverlay(OscarConfig(**config_kwargs), seed=seed)
    keys = GnutellaLikeDistribution() if skewed else UniformKeys()
    overlay.grow(n, keys, ConstantDegrees(cap))
    if rewire:
        overlay.rewire()
    return overlay


def build_mercury(
    n: int = 100,
    seed: int = 42,
    cap: int = 8,
    skewed: bool = True,
    rewire: bool = True,
    **config_kwargs: object,
) -> MercuryOverlay:
    """A small Mercury network for tests (fresh instance every call)."""
    overlay = MercuryOverlay(MercuryConfig(**config_kwargs), seed=seed)
    keys = GnutellaLikeDistribution() if skewed else UniformKeys()
    overlay.grow(n, keys, ConstantDegrees(cap))
    if rewire:
        overlay.rewire()
    return overlay


def hand_built(
    positions, links: dict[int, list[int]] | None = None, budget: int | None = None
) -> Substrate:
    """A bare :class:`Substrate` for hand-built routing cases: peer ``i``
    spliced in at ``positions[i]`` (``_splice`` keeps the ring pointers),
    then ``links[i]`` written as its long-link row. Build it whole
    before routing: a link row written later does not move the
    topology version."""
    substrate = Substrate(routing=None if budget is None else RoutingConfig(budget=budget))
    for position in positions:
        substrate._splice(position)
    for node_id, targets in (links or {}).items():
        substrate.state.set_links(substrate.state.slot_of(node_id), targets)
    return substrate


def greedy_hop(overlay, node_id: int, target: float):
    """:meth:`GreedyRouter.decide <repro.protocol.routing.GreedyRouter.decide>`
    at ``node_id``, handed what that peer holds: its position, its ring
    neighbours' and every ``neighbors_of`` entry with its position."""
    ring = overlay.ring
    successor = ring.successor(node_id)
    return GreedyRouter.decide(
        target,
        me=node_id,
        my_position=ring.position(node_id),
        predecessor_position=ring.position(ring.predecessor(node_id)),
        successor=successor,
        successor_position=ring.position(successor),
        neighbors=[(peer, ring.position(peer)) for peer in overlay.neighbors_of(node_id)],
    )


def greedy_oracle(overlay, source: int, target: float) -> RouteResult:
    """One lookup driven hop by hop through :func:`greedy_hop` — the live
    runtime's per-hop rule, stated over float positions. It is the
    independent reference the walk kernel is held to; it routes a
    repaired ring (it reads the ring's own successor, not the pointer)."""
    path = [int(source)]
    while not isinstance(decision := greedy_hop(overlay, path[-1], target), Deliver):
        path.append(decision.to)
        assert len(path) <= overlay.ring.live_count + 1, "per-hop router failed to converge"
    return RouteResult(
        source=int(source),
        target_key=target,
        responsible=path[-1],
        delivered_to=path[-1],
        success=True,
        hops=len(path) - 1,
        path=tuple(path),
    )


def links_of(overlay, live_only: bool = True) -> dict[int, list[int]]:
    """``{peer id: long-link targets}`` read from the ``out_links`` /
    ``out_count`` columns, peers in ring order (dead ones too with
    ``live_only=False``)."""
    state = overlay.state
    return {
        int(state.node_id[slot]): state.out_links[slot, : state.out_count[slot]].tolist()
        for slot in overlay.ring.slots_array(live_only=live_only)
    }


def decided(overlay) -> dict[int, tuple]:
    """Everything an Oscar build decides, keyed by live node id: the
    link row, the in-degree and the partition table."""
    in_deg = overlay.in_degree_array().tolist()
    return {
        node_id: (links, degree, overlay.partition_table(node_id))
        for (node_id, links), degree in zip(links_of(overlay).items(), in_deg)
    }


def crash_victims(ring, fraction: float, seed: int = 7) -> list[int]:
    """Crash ``fraction`` of the ring's live peers on the
    ``("churn-victims", fraction)`` stream of ``seed``, as the
    grow-and-measure loop draws them; returns the victims."""
    rng = split(seed, "churn-victims", int(fraction * 1_000_000))
    return OracleView(ring).crash_fraction(rng, fraction)


def crash_wave(overlay, fraction: float = 0.33, seed: int = 7) -> list[int]:
    """Figure 2's crash wave: :func:`crash_victims`, then ring repair
    (``OracleView(overlay.ring).revive`` undoes it)."""
    victims = crash_victims(overlay.ring, fraction, seed)
    overlay.repair_ring()
    return victims


def ids_in_cw_range(ring, start: float, end: float, live_only: bool = True) -> list[int]:
    """Peers keyed in the clockwise arc ``(start, end]`` (the whole
    circle when both ends share a key cell), clockwise from ``start``:
    a brute-force oracle over the ring's exact keys."""
    lo, hi = keyspace.from_unit(start), keyspace.from_unit(end)
    span = (hi - lo) & KEY_MASK or KEY_MASK + 1
    # Clockwise offset past `start`, in (0, 2**64]: a peer keyed at
    # `start` itself comes last, and only the whole circle holds it.
    offset = {
        int(node_id): ((int(key) - lo - 1) & KEY_MASK) + 1
        for node_id, key in zip(ring.ids_array(live_only), ring.keys_array(live_only))
    }
    return sorted((i for i, d in offset.items() if d <= span), key=offset.__getitem__)


def draw_in_arc(pos, ids, rng, start: float, end: float, size: int) -> np.ndarray:
    """``size`` ids drawn uniformly from clockwise ``(start, end]`` over
    sorted positions ``pos`` (ids ``ids``) the way the construction
    engine draws samples and link candidates: the arc's window of the
    rows, ``lo + floor(u * count)`` per draw — on the kernel and on its
    twin, checked identical. Empty when the arc holds no row."""
    from repro.engine.construct import BatchConstructionEngine
    from repro.protocol.estimation import cw_arc_slice

    lo, __, count = cw_arc_slice(pos, start, end)
    if count == 0:
        return np.empty(0, dtype=np.int64)
    u, window = rng.random((1, size)), (np.asarray([lo]), np.asarray([count]))
    kernel, twin = (
        BatchConstructionEngine(OscarOverlay(), vectorized=v)._uniform_samples(pos.size, u, *window)
        for v in (True, False)
    )
    assert np.array_equal(kernel, twin)
    return ids[kernel[0]]


def assert_walk_table(table, candidates) -> None:
    """``table`` (a ``WalkTable``) holds what its keys and successor
    column say it must, recomputed from scratch row by row: column 0 is
    the successor's row offset ``(s - v) mod m`` (0 without a pointer);
    then, ascending, the offsets of the candidates of ``candidates[v]``
    (``-1`` is padding) that make more clockwise progress than the
    successor — none when the successor makes none; then ``m`` to the
    width of the fullest row, and one more ``m``. The keys strictly
    increase, so progress does too along the kept candidates."""
    keys = [int(k) for k in table.keys]
    assert keys == sorted(set(keys))
    m = len(keys)
    expected = []
    for v, cands in enumerate(candidates):
        key, succ = keys[v], int(table.succ_row[v])
        succ_progress = (keys[succ] - key) & KEY_MASK if succ >= 0 else 0
        kept = sorted(
            (c - v) % m
            for c in (int(c) for c in cands)
            if c >= 0 and succ_progress and (keys[c] - key) & KEY_MASK > succ_progress
        )
        progress = [(keys[(v + off) % m] - key) & KEY_MASK for off in kept]
        assert progress == sorted(progress) and all(p > succ_progress for p in progress)
        expected.append(((succ - v) % m if succ >= 0 else 0, kept))
    width = max((len(kept) for __, kept in expected), default=0)
    assert table.offsets.dtype == np.int32 and table.offsets.shape == (m, width + 2)
    assert table.offsets.tolist() == [
        [first] + kept + [m] * (width + 1 - len(kept)) for first, kept in expected
    ]


@contextmanager
def row_block(rows: int):
    """Run the row-block kernels (``repro.core.soa.row_blocks``) in
    blocks of ``rows`` rows, the module constant restored after."""
    saved = soa.ROW_BLOCK
    soa.ROW_BLOCK = rows
    try:
        yield
    finally:
        soa.ROW_BLOCK = saved


def whole_matrix_table(keys, succ_row, nbr_rows) -> WalkTable:
    """``WalkTable.build`` as one pass over the whole candidate matrix —
    the build before it worked in row blocks, kept as its reference."""
    m = int(keys.size)
    rows = np.arange(m, dtype=np.int32)
    succ_off = np.where(succ_row >= 0, succ_row, rows).astype(np.int32) - rows
    succ_off = np.where(succ_off < 0, succ_off + m, succ_off).astype(np.int32)
    succ_lim = np.where(succ_off > 0, succ_off, m)
    cands = np.subtract(nbr_rows, rows[:, None], dtype=np.int32)
    cands = np.where(cands < 0, cands + m, cands).astype(np.int32)
    np.copyto(cands, m, where=(nbr_rows < 0) | (cands <= succ_lim[:, None]))
    cands.sort(axis=1)
    width = int((cands.min(axis=0, initial=m) < m).sum())
    offsets = np.empty((m, width + 2), dtype=np.int32)
    offsets[:, 0] = succ_off
    offsets[:, 1:-1] = cands[:, :width]
    offsets[:, -1] = m
    return WalkTable(keys=keys, succ_row=succ_row, offsets=offsets)


def assert_same_table(table: WalkTable, reference: WalkTable) -> None:
    """Two walk tables are equal: keys, successor rows and offsets, the
    offsets' shape and dtype included."""
    assert table.offsets.dtype == reference.offsets.dtype == np.int32
    assert table.offsets.shape == reference.offsets.shape
    assert np.array_equal(table.offsets, reference.offsets)
    assert np.array_equal(table.keys, reference.keys)
    assert np.array_equal(table.succ_row, reference.succ_row)


def _whole_link_rows(state, slots: np.ndarray, row_of: np.ndarray) -> np.ndarray:
    """Every link row of ``slots`` as rows of ``row_of``, in one gather."""
    table = np.append(row_of, -1).astype(np.int32)
    return table.take(state.out_links[slots].view(np.uint32), mode="clip")


def reference_truth_table(substrate) -> WalkTable:
    """The ``TopologySnapshot`` table from whole matrices: predecessor
    and link rows of every peer, dead ones included."""
    ring, state = substrate.ring, substrate.state
    row_of = row_table(ring.ids_array(live_only=False))
    slots = ring.slots_array(live_only=False)
    pred_row = rows_of(row_of, state.pred[slots])
    nbr_rows = np.concatenate(
        [pred_row[:, None], _whole_link_rows(state, slots, row_of)], axis=1, dtype=np.int32
    )
    return whole_matrix_table(
        ring.keys_array(live_only=False), rows_of(row_of, state.succ[slots]), nbr_rows
    )


def reference_serve_table(substrate, view) -> WalkTable:
    """The ``ServeSnapshot`` table from whole matrices: the believed-live
    rows, their believed successors and their believed-row links."""
    state, slots = substrate.state, view.live_slots()
    m = int(slots.size)
    top = int(substrate.ring.ids_array(live_only=False).max())
    row_of = row_table(state.node_id[slots], top + 2)
    return whole_matrix_table(
        state.key[slots], (np.arange(m) + 1) % m, _whole_link_rows(state, slots, row_of)
    )


class LruModel:
    """The ``OrderedDict`` LRU the array cache replaced, verbatim: lazy
    invalidation, one ``get``/``put`` per request."""

    def __init__(self, capacity: int) -> None:
        self.capacity, self.entries = capacity, OrderedDict()
        self.hits = self.misses = 0

    def get(self, key, version):
        entry = self.entries.get(key)
        if entry is not None and entry[0] == version:
            self.entries.move_to_end(key)
            self.hits += 1
            return entry[1]
        self.entries.pop(key, None)
        self.misses += 1
        return None

    def put(self, key, version, payload):
        if self.capacity == 0:
            return
        self.entries[key] = (version, payload)
        self.entries.move_to_end(key)
        while len(self.entries) > self.capacity:
            self.entries.popitem(last=False)

    def live_keys(self, version):
        return {key for key, entry in self.entries.items() if entry[0] == version}


@pytest.fixture
def five_ring() -> tuple[Ring, list[int]]:
    """A five-peer ring at known positions 0.1 .. 0.9."""
    ring = Ring()
    positions = [0.1, 0.3, 0.5, 0.7, 0.9]
    for node_id, pos in enumerate(positions):
        ring.insert(node_id, pos)
    return ring, list(range(len(positions)))


@pytest.fixture
def five_ring_with_pointers(five_ring):
    """Five-peer ring plus correct pointers."""
    ring, ids = five_ring
    return ring, ids, build_pointers(ring)


@pytest.fixture(scope="session")
def shared_overlay() -> OscarOverlay:
    """A 300-peer Oscar network shared by read-only tests."""
    return build_overlay(n=300, seed=7, cap=10)


@pytest.fixture(scope="session")
def shared_mercury() -> MercuryOverlay:
    """A 300-peer Mercury network shared by read-only tests."""
    return build_mercury(n=300, seed=7, cap=10)
