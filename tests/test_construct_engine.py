"""Tests for the batched construction engine (repro.engine.construct).

The load-bearing property: the vectorized lock-step kernels and the
sequential reference path consume one RNG stream identically and produce
bit-identical partition tables, link sets and
:class:`LinkAcquisitionStats` — across sampling modes, heterogeneous cap
distributions, all-refusal and give-up paths. A golden fixture
additionally pins the batched build output across refactors.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import OscarConfig, OscarOverlay
from repro.config import SamplingMode
from repro.core.substrate import Substrate
from repro.degree import ConstantDegrees
from repro.engine import BatchQueryEngine
from repro.engine.construct import (
    BatchConstructionEngine,
    LinkAcquisitionStats,
    LiveView,
    _window_counts,
    draw_positions,
)
from repro.errors import DuplicateNodeError, SamplingError
from repro.experiments import make_overlay
from repro.protocol.estimation import cw_arc_slice, select_border
from repro.ring import Ring, keyspace, normalize
from repro.rng import make_rng, split
from repro.sampling import BatchRestrictedWalker
from repro.workloads import GnutellaLikeDistribution, KeyDistribution, UniformKeys

from conftest import build_mercury, build_overlay, decided, links_of

FIXTURE = Path(__file__).parent / "data" / "golden_build.json"


def paired_overlays(n=120, seed=3, cap=6, caps=None, **config_kwargs):
    """Two identical overlays (same seed) for path-equivalence runs."""
    out = []
    for __ in range(2):
        overlay = build_overlay(n=n, seed=seed, cap=cap, rewire=False, **config_kwargs)
        if caps is not None:
            slots, pairs = overlay.ring.slots_array(live_only=True), np.asarray(caps)
            overlay.state.cap_in[slots], overlay.state.cap_out[slots] = pairs[:, 0], pairs[:, 1]
        out.append(overlay)
    return out


class TestPathEquivalence:
    @pytest.mark.parametrize(
        "mode", [SamplingMode.UNIFORM, SamplingMode.WALK, SamplingMode.ORACLE]
    )
    def test_rewire_bit_identical_across_modes(self, mode):
        a, b = paired_overlays(n=90, seed=5, cap=5, sampling_mode=mode)
        stats_a = BatchConstructionEngine(a, vectorized=True).rewire(split(11, "rw"))
        stats_b = BatchConstructionEngine(b, vectorized=False).rewire(split(11, "rw"))
        assert decided(a) == decided(b)
        assert stats_a == stats_b

    def test_grow_bit_identical(self):
        a = OscarOverlay(OscarConfig(), seed=9)
        b = OscarOverlay(OscarConfig(), seed=9)
        keys, degrees = GnutellaLikeDistribution(), ConstantDegrees(7)
        stats_a = BatchConstructionEngine(a, vectorized=True).grow(250, keys, degrees)
        stats_b = BatchConstructionEngine(b, vectorized=False).grow(250, keys, degrees)
        assert a.size == b.size == 250
        assert decided(a) == decided(b)
        assert stats_a == stats_b

    def test_power_of_two_off_single_candidate(self):
        a, b = paired_overlays(n=80, seed=6, cap=5, power_of_two=False)
        stats_a = BatchConstructionEngine(a, vectorized=True).rewire(split(2, "rw"))
        stats_b = BatchConstructionEngine(b, vectorized=False).rewire(split(2, "rw"))
        assert decided(a) == decided(b)
        assert stats_a == stats_b

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=48),
        seed=st.integers(min_value=0, max_value=2**31),
        caps_seed=st.integers(min_value=0, max_value=2**31),
        cap_hi=st.integers(min_value=1, max_value=12),
        zero_fraction=st.floats(min_value=0.0, max_value=1.0),
        retries=st.integers(min_value=0, max_value=4),
        mode=st.sampled_from([SamplingMode.UNIFORM, SamplingMode.ORACLE, SamplingMode.WALK]),
        power_of_two=st.booleans(),
    )
    def test_property_heterogeneous_caps(
        self, n, seed, caps_seed, cap_hi, zero_fraction, retries, mode, power_of_two
    ):
        """Batched == sequential link sets + stats for arbitrary cap mixes.

        ``zero_fraction`` drives a share of in-caps to 0 so the
        all-refusal and give-up branches (everyone refuses, retry budget
        exhausted, slots abandoned) are exercised, not just the happy
        path.
        """
        caps_rng = make_rng(caps_seed)
        rho_in = caps_rng.integers(0, cap_hi + 1, size=n)
        rho_in[caps_rng.random(n) < zero_fraction] = 0
        rho_out = caps_rng.integers(0, cap_hi + 1, size=n)
        caps = list(zip(rho_in, rho_out))
        a, b = paired_overlays(
            n=n,
            seed=seed % 10_000,
            cap=4,
            caps=caps,
            sampling_mode=mode,
            power_of_two=power_of_two,
            link_retries=retries,
        )
        stats_a = BatchConstructionEngine(a, vectorized=True).rewire(split(seed, "p"))
        stats_b = BatchConstructionEngine(b, vectorized=False).rewire(split(seed, "p"))
        assert decided(a) == decided(b)
        assert stats_a.as_dict() == stats_b.as_dict()

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=24),
        seed=st.integers(min_value=0, max_value=9_999),
        positions=st.lists(
            st.one_of(
                st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                # Distinct floats below 2**-64 share key cell 0; the
                # multiples of 2**-64 are the cells above it.
                st.integers(min_value=1, max_value=8).map(lambda j: j * 2.0**-70),
                st.integers(min_value=1, max_value=8).map(lambda j: j * 2.0**-64),
            ),
            min_size=1,
            max_size=5,
        ),
        caps=st.tuples(st.integers(0, 6), st.integers(0, 6)),
        mode=st.sampled_from([SamplingMode.UNIFORM, SamplingMode.ORACLE, SamplingMode.WALK]),
    )
    @example(
        n=1, seed=3, positions=[2.0**-70, 3 * 2.0**-70, 0.5], caps=(3, 3), mode=SamplingMode.UNIFORM
    )
    @example(n=0, seed=4, positions=[0.25, 2.0**-69, 2.0**-70], caps=(2, 4), mode=SamplingMode.WALK)
    def test_join_matches_the_twin(self, n, seed, positions, caps, mode):
        """``OscarOverlay.join`` — a splice plus the kernels' one-row
        cohort — equals the splice plus the twin's cohort, join after
        join: into an empty ring, a one-peer ring (``n`` 0 and 1), into
        adjacent ``2**-64`` key cells, and into a taken cell, which both
        refuse."""
        kernel, twin = (OscarOverlay(OscarConfig(sampling_mode=mode), seed=seed) for __ in "ab")
        for overlay, vectorized in ((kernel, True), (twin, False)):
            overlay.grow_batch(n, UniformKeys(), ConstantDegrees(4), vectorized=vectorized)
        for position in positions:
            try:
                node_id = kernel.join(position, *caps)
            except DuplicateNodeError:
                with pytest.raises(DuplicateNodeError):
                    twin._splice(position, *caps)
                continue
            assert twin._splice(position, *caps) == node_id
            BatchConstructionEngine(twin, vectorized=False).join_cohort(np.asarray([node_id]))
            assert decided(kernel) == decided(twin)
            assert kernel.partition_table(node_id) is not None or kernel.size == 1

    def test_all_refusal_gives_up_every_slot(self):
        a, b = paired_overlays(n=20, seed=8, cap=3, caps=[(0, 3)] * 20)
        stats_a = BatchConstructionEngine(a, vectorized=True).rewire(split(4, "x"))
        stats_b = BatchConstructionEngine(b, vectorized=False).rewire(split(4, "x"))
        assert stats_a == stats_b
        assert stats_a.links_placed == 0
        assert stats_a.slots_given_up == 20
        assert stats_a.refusals > 0
        assert not a.out_degree_array().any()


def prefilled_pair(n, seed, extra, power_of_two):
    """Two identical overlays whose rows already hold links when a new
    acquisition starts: every peer keeps the links growth gave it
    (live targets), the first half additionally points at a peer that
    then crashes and at one that is then retired, and everyone's caps
    are raised by ``extra`` so slots are open again."""
    pair = paired_overlays(n=n, seed=seed, cap=3, power_of_two=power_of_two)
    for overlay in pair:
        state = overlay.state
        ids = [int(i) for i in overlay.ring.ids_array(live_only=True)]
        crashed, retired = ids[1], ids[-2]
        slots = overlay.ring.slots_array(live_only=True)
        state.cap_in[slots] += extra
        state.cap_out[slots] += extra + 2
        for node_id, links in links_of(overlay).items():
            if node_id in ids[: n // 2] and node_id not in (crashed, retired):
                extra_links = [t for t in (crashed, retired) if t not in links]
                state.set_links(state.slot_of(node_id), links + extra_links)
        overlay.leave_batch([crashed, retired])
        overlay.retire([retired])
    return pair


def acquire_cohort(overlay, vectorized, seed):
    """Estimate + acquire for every live row, straight through the
    engine's kernels (no teardown: existing links stay)."""
    engine = BatchConstructionEngine(overlay, vectorized=vectorized)
    rng = split(seed, "prefilled")
    view = LiveView.capture(overlay)
    rows = np.arange(view.m, dtype=np.int64)
    arcs = engine._estimate(rng, view, rows, track_spend=False)
    priority_of = engine._draw_priority(rng, view, rows)
    return engine._acquire(rng, view, rows, arcs, priority_of)


class TestAcquireOverExistingLinks:
    """The dedupe-against-existing branch: both twins answer "already my
    target?" from the requester's own ``out_links`` row."""

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=6, max_value=30),
        seed=st.integers(min_value=0, max_value=9_999),
        extra=st.integers(min_value=1, max_value=6),
        power_of_two=st.booleans(),
    )
    def test_vectorized_matches_reference(self, n, seed, extra, power_of_two):
        a, b = prefilled_pair(n, seed, extra, power_of_two)
        before = links_of(a)
        stats_a = acquire_cohort(a, True, seed)
        stats_b = acquire_cohort(b, False, seed)
        assert decided(a) == decided(b)
        assert stats_a == stats_b
        for node_id, links in links_of(a).items():
            assert links[: len(before[node_id])] == before[node_id]
            assert len(set(links)) == len(links) and node_id not in links
        assert_padding(a)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=6, max_value=30),
        seed=st.integers(min_value=0, max_value=9_999),
        extra=st.integers(min_value=0, max_value=6),
        power_of_two=st.booleans(),
    )
    def test_refill_matches_the_twin(self, n, seed, extra, power_of_two):
        """Refill drops the links to the crashed and the retired peer
        (rows compacted in order), recounts in-degree and fills the open
        slots over the stored tables — kernels and twin alike."""
        a, b = prefilled_pair(n, seed, extra, power_of_two)
        live = {int(i) for i in a.ring.ids_array(live_only=True)}
        kept = {i: [t for t in links if t in live] for i, links in links_of(a).items()}
        stats_a = a.refill_batch(split(seed, "refill"))
        stats_b = b.refill_batch(split(seed, "refill"), vectorized=False)
        assert decided(a) == decided(b)
        assert stats_a == stats_b
        in_links = dict.fromkeys(live, 0)
        for node_id, links in links_of(a).items():
            assert links[: len(kept[node_id])] == kept[node_id]
            assert set(links) <= live and len(set(links)) == len(links)
            assert node_id not in links
            for target in links:
                in_links[target] += 1
        assert dict(zip(a.live_node_ids(), a.in_degree_array().tolist())) == in_links
        assert_padding(a)

    def test_refill_of_a_peer_that_never_estimated(self):
        """The first peer of a ring joined alone and holds no table: a
        refill draws its links over the whole ring, on both paths."""
        pair = [OscarOverlay(OscarConfig(), seed=2) for __ in "ab"]
        for overlay in pair:
            for position in (0.5, 0.1, 0.3, 0.7, 0.9):
                overlay.join(position, 3, 3)
        assert pair[0].partition_table(0) is None and links_of(pair[0])[0] == []
        stats = pair[0].refill_batch(split(2, "refill"))
        assert stats == pair[1].refill_batch(split(2, "refill"), vectorized=False)
        assert decided(pair[0]) == decided(pair[1])
        assert len(links_of(pair[0])[0]) > 0 and pair[0].partition_table(0) is None

    @pytest.mark.parametrize("substrate", ["chord", "mercury"])
    def test_refill_without_tables_is_the_rewire(self, substrate):
        """Chord fingers and Mercury histograms hold no table to refill
        against: their refill is the full rebuild, on either path."""
        refill, rewire, twin = (make_overlay(substrate, seed=4) for __ in range(3))
        for overlay in (refill, rewire, twin):
            overlay.grow_batch(40, GnutellaLikeDistribution(), ConstantDegrees(5))
            overlay.leave_batch([int(i) for i in overlay.ring.ids_array(live_only=True)[::7]])
        results = (
            refill.refill_batch(split(4, "r")),
            rewire.rewire_batch(split(4, "r")),
            twin.refill_batch(split(4, "r"), vectorized=False),
        )
        assert results[0] == results[1] == results[2]
        for other in (rewire, twin):
            for column in ("out_links", "out_count", "in_deg"):
                assert np.array_equal(getattr(refill.state, column), getattr(other.state, column))

    def test_small_population_must_dedupe_to_fill(self):
        """10 peers wanting 8 targets each out of 9 possible: without the
        row compare duplicates would be certain."""
        a, b = prefilled_pair(12, 5, 5, True)
        stats = acquire_cohort(a, True, 7)
        assert stats == acquire_cohort(b, False, 7)
        assert stats.links_placed > 0
        assert decided(a) == decided(b)
        assert all(len(set(links)) == len(links) for links in links_of(a).values())


    def test_row_already_past_its_cap_sets_the_table_width(self):
        """One requester holds 8 links under a cap of 2 (caps shrank
        since it acquired them) while every cap is at most 5: the link
        table's width has to come from ``out_count``, not the caps."""
        pair = paired_overlays(n=24, seed=4, cap=3)
        for overlay in pair:
            state, slots = overlay.state, overlay.ring.slots_array(live_only=True)
            state.cap_in[slots] += 4
            state.cap_out[slots] = 5
            hoarder, ids = int(slots[0]), overlay.live_node_ids()
            held = links_of(overlay)[ids[0]]
            fresh = [i for i in ids[1:] if i not in held]
            state.set_links(hoarder, held + fresh[: 8 - len(held)])
            state.cap_out[hoarder] = 2
        held = next(iter(links_of(pair[0]).values()))
        assert len(held) == 8
        stats = acquire_cohort(pair[0], True, 3)
        assert stats == acquire_cohort(pair[1], False, 3)
        assert stats.links_placed > 0
        assert decided(pair[0]) == decided(pair[1])
        assert next(iter(links_of(pair[0]).values())) == held
        assert_padding(pair[0])

    def test_growing_cohort_is_a_strict_subset_of_the_rows(self):
        """``grow`` over an existing population: only the newcomers
        request, so every round gathers its columns of the link table
        (and the write-back must leave everyone else's row alone)."""
        pair = paired_overlays(n=60, seed=11, cap=4)
        before = links_of(pair[0])
        keys, degrees = GnutellaLikeDistribution(), ConstantDegrees(6)
        stats = BatchConstructionEngine(pair[0], vectorized=True).grow(100, keys, degrees)
        assert stats == BatchConstructionEngine(pair[1], vectorized=False).grow(100, keys, degrees)
        assert stats.links_placed > 0
        assert decided(pair[0]) == decided(pair[1])
        after = links_of(pair[0])
        assert len(after) == 100 and all(after[nid] == links for nid, links in before.items())
        assert_padding(pair[0])


def assert_padding(overlay):
    """The padding invariant: ``-1`` past ``out_count`` in every row."""
    state = overlay.state
    slots = overlay.ring.slots_array(live_only=False)
    links = state.out_links[slots]
    padding = np.arange(links.shape[1])[None, :] >= state.out_count[slots][:, None]
    assert (links[padding] == -1).all() and (links[~padding] >= 0).all()


class TestArcTables:
    @settings(max_examples=60, deadline=None)
    @given(
        pos=st.lists(
            st.floats(min_value=0.0, max_value=1.0, exclude_max=True), min_size=2, max_size=12,
            unique=True,
        ),
        data=st.data(),
    )
    def test_packed_windows_equal_per_round_search(self, pos, data):
        """``lo`` / ``count`` of every ``(row, partition)``, closed from
        the borders' ring ranks without a search, are exactly the
        ``cw_arc_slice`` the reference twin searches per round —
        wrapped, degenerate and ``start == end`` arcs included."""
        pos = np.sort(np.asarray(pos, dtype=float))
        border = st.one_of(st.sampled_from(list(pos)), st.floats(0.0, 1.0, exclude_max=True))
        n = data.draw(st.integers(min_value=1, max_value=5), label="rows")
        levels = data.draw(st.integers(min_value=1, max_value=4), label="levels")
        origin = np.asarray(data.draw(st.lists(border, min_size=n, max_size=n)), dtype=float)
        far_end = np.asarray(data.draw(st.lists(border, min_size=n, max_size=n)), dtype=float)
        medians = np.asarray(
            data.draw(st.lists(st.lists(border, min_size=levels, max_size=levels), min_size=n,
                               max_size=n)),
            dtype=float,
        )
        counts = np.asarray(
            data.draw(st.lists(st.integers(0, levels), min_size=n, max_size=n)), dtype=np.int64
        )
        if data.draw(st.booleans(), label="repeat a border"):
            medians[:, -1] = medians[:, 0]  # coinciding borders: degenerate arcs
            far_end[0] = origin[0]  # the outermost arc may be the full circle
        # The twin's engine: it alone keeps the float borders it searches.
        engine = BatchConstructionEngine(OscarOverlay(OscarConfig(), seed=0), vectorized=False)

        def rank(border):
            return np.searchsorted(pos, border, side="right").astype(np.int32)

        def borders(block):
            return medians[block], rank(medians[block])

        packing = (pos.size, origin, far_end, counts, rank(origin), rank(far_end), borders)
        arcs = engine._arc_tables(*packing)
        assert arcs.lo.shape == arcs.count.shape == arcs.starts.shape
        assert arcs.lo.dtype == arcs.count.dtype == np.int32
        packed = BatchConstructionEngine(engine.overlay)._arc_tables(*packing)
        assert packed.starts is None and packed.ends is None and packed.valid is None
        assert np.array_equal(packed.lo, arcs.lo) and np.array_equal(packed.count, arcs.count)
        for i in range(n):
            for p in range(arcs.starts.shape[1]):
                if p >= arcs.k_count[i] or not arcs.valid[i, p]:
                    assert arcs.count[i, p] == 0
                    continue
                lo, __, count = cw_arc_slice(pos, arcs.starts[i, p], arcs.ends[i, p])
                assert (int(arcs.lo[i, p]), int(arcs.count[i, p])) == (lo, count)


class TestSelectBorders:
    @settings(max_examples=60, deadline=None)
    @given(
        tiny=st.integers(min_value=0, max_value=4),
        regular=st.integers(min_value=3, max_value=10),
        sample_size=st.integers(min_value=1, max_value=9),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_colliding_keys_keep_the_draw_order_tiebreak(self, tiny, regular, sample_size, seed):
        """Distinct positions below ``2**-64`` share key 0. No ring holds
        two of them, but ``select_border`` — the protocol's estimation
        level, which the engine's twin runs per row — is handed raw
        samples: different samples then tie on key distance and the
        draw-order one is the median (a numpy stable sort says which).
        Over the ring's rows, which never tie, the kernel picks the
        twin's median."""
        positions = [(j + 1) * 2.0**-70 for j in range(tiny)]
        positions += [(j + 1) / (regular + 1) for j in range(regular)]
        cells = keyspace.from_units(positions)
        rng = make_rng(seed)
        for origin in positions:
            drawn = rng.integers(0, len(positions), size=sample_size)
            distance = cells[drawn] - np.uint64(keyspace.from_unit(origin))
            pick = drawn[np.argsort(distance, kind="stable")[(sample_size - 1) // 2]]
            sample_keys, sample_positions = cells[drawn].tolist(), [positions[d] for d in drawn]
            border, __ = select_border(
                keyspace.from_unit(origin), origin, origin, sample_keys, sample_positions
            )
            assert border == normalize(origin + (positions[pick] - origin) % 1.0)

        overlay = OscarOverlay(OscarConfig(sample_size=sample_size), seed=1)
        for position in positions:
            try:
                overlay.join(position, 3, 3)
            except DuplicateNodeError:
                assert keyspace.from_unit(position) == 0  # only the cell-0 floats collide
        view = LiveView.capture(overlay)
        assert view.m == regular + min(tiny, 1)
        rows = np.arange(view.m, dtype=np.int64)
        samples = rng.integers(0, view.m, size=(view.m, sample_size))
        args = (view, view.keys[rows], view.pos[rows], view.pos[(rows - 1) % view.m], samples)
        engine = BatchConstructionEngine(overlay)
        border, stop, rank = engine._select_borders(*args)
        border_ref, stop_ref = engine._select_borders_reference(*args)
        assert np.array_equal(border, border_ref) and np.array_equal(stop, stop_ref)
        assert np.array_equal(rank, np.searchsorted(view.pos, border, side="right"))


def ring_view(positions):
    overlay = OscarOverlay(OscarConfig(), seed=1)
    for position in positions:
        overlay.join(float(position), 3, 3)
    return overlay, LiveView.capture(overlay)


class TestOrderStatisticMedian:
    """The ``UNIFORM`` shortcut: the sample median picked as an order
    statistic of the uniform draw, its two guards, the carried rank."""

    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(min_value=2, max_value=24),
        sample_size=st.integers(min_value=1, max_value=9),
        seed=st.integers(min_value=0, max_value=2**31),
        data=st.data(),
    )
    def test_pick_equals_the_materialised_median(self, m, sample_size, seed, data):
        """For one drawn ``u``, ``lo + floor(u_(rank) * count)`` is the
        row the materialised samples' stable distance sort selects —
        wrapped arcs, one-member arcs and arcs ending at the origin's
        predecessor included (never the full circle: that is guarded)."""
        rng = make_rng(seed)
        engine, view = ring_view(np.unique(rng.random(m)))
        engine = BatchConstructionEngine(engine)
        m = view.m
        rows = np.arange(m, dtype=np.int64)
        reach = st.one_of(st.just(1), st.just(m - 1), st.integers(1, m - 1))
        count = np.asarray(data.draw(st.lists(reach, min_size=m, max_size=m)), dtype=np.int64)
        end_rows = (rows + count) % m
        origin, prev = view.pos[rows], view.pos[end_rows]
        lo = rows + 1
        assert np.array_equal(_window_counts(m, origin, prev, lo, end_rows + 1), count)
        for i in range(m):
            assert cw_arc_slice(view.pos, origin[i], prev[i])[::2] == (lo[i], count[i])
        u = rng.random((m, sample_size))
        if data.draw(st.booleans(), label="ties and zeros in u"):
            u[:, 0] = 0.0
            u[:, -1] = u[:, sample_size // 2]
        samples = engine._uniform_samples(m, u, lo, count)
        distance = view.keys[samples] - view.keys[rows][:, None]
        pick = np.argsort(distance, axis=1, kind="stable")[:, (sample_size - 1) // 2]
        selected = (engine._median_offsets(u.copy(), count) + lo) % m
        assert np.array_equal(selected, samples[rows, pick])
        args = (view, view.keys[rows], origin, prev)
        shortcut = engine._clamp_borders(view, origin, prev, selected)
        for got, want in zip(shortcut, engine._select_borders(*args, samples)):
            assert np.array_equal(got, want)
        for got, want in zip(shortcut, engine._select_borders_reference(*args, samples)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(4))
    def test_colliding_keys_route_to_the_stable_sort(self, seed):
        """Positions ``j * 2**-70`` share key 0: the ring takes the first
        and refuses the rest, so sample keys collide only where one row
        is drawn twice. Twelve peers in adjacent cells ``j * 2**-64``
        (floats finer than the grid) then go through the order
        statistic, level by level equal to the twin's stable sort."""
        overlay, __ = ring_view([2.0**-70])
        for j in range(2, 13):
            with pytest.raises(DuplicateNodeError):
                overlay.join(j * 2.0**-70, 3, 3)
        positions = [j * 2.0**-64 for j in range(12)] + [(j + 1) / 9 for j in range(8)]
        tables = []
        for vectorized in (True, False):
            overlay, view = ring_view(positions)
            assert view.keys.tolist()[:12] == list(range(12))
            engine = BatchConstructionEngine(overlay, vectorized=vectorized)
            rows = np.arange(view.m, dtype=np.int64)
            arcs = engine._estimate(split(seed, "collide"), view, rows, track_spend=True)
            state = overlay.state
            tables.append(
                (
                    state.medians[view.slots].tolist(),
                    state.n_medians[view.slots].tolist(),
                    state.samples_spent[view.slots].tolist(),
                    arcs.lo.tolist(),
                    arcs.count.tolist(),
                )
            )
        assert tables[0] == tables[1]
        assert max(tables[0][1]) >= 2

    def test_carried_rank_is_the_searched_rank(self):
        """Every stored median's carried rank equals its
        ``searchsorted(pos, median, "right")`` — including the borders
        whose float reconstruction misses the sample's own position by
        an ulp, which this build must contain (they alone are searched)."""
        overlay = OscarOverlay(OscarConfig(), seed=5)
        overlay.grow_batch(3000, GnutellaLikeDistribution(), ConstantDegrees(4))
        view = LiveView.capture(overlay)
        rows = np.arange(view.m, dtype=np.int64)
        levels = overlay.config.partitions_for(view.m) - 1
        medians = np.zeros((view.m, levels))
        ranks = np.zeros((view.m, levels), dtype=np.int32)
        counts = np.zeros(view.m, dtype=np.int64)
        BatchConstructionEngine(overlay)._sampled_levels(
            split(5, "ranks"), view, rows, medians, ranks, counts, levels
        )
        stored = np.arange(levels)[None, :] < counts[:, None]
        assert stored.sum() > 10 * view.m
        searched = np.searchsorted(view.pos, medians, side="right")
        assert np.array_equal(ranks[stored], searched[stored])
        inexact = view.pos[ranks[stored] - 1] != medians[stored]
        assert 0 < inexact.sum() < 0.2 * stored.sum()


class _Scripted(KeyDistribution):
    """Hands out a fixed value list, ``size`` at a time."""

    def __init__(self, values):
        self.values, self.calls = list(values), []

    def sample(self, rng, size):
        self.calls.append(size)
        out, self.values = self.values[:size], self.values[size:]
        return np.asarray(out, dtype=float)


def test_draw_positions_keeps_first_occurrences_and_redraws_the_rest():
    overlay = OscarOverlay(OscarConfig(), seed=1)
    overlay.join(0.25, 3, 3)
    overlay.join(0.5, 3, 3)
    overlay.leave(overlay.ring.node_ids()[1])  # dead positions stay occupied
    # 2**-70 falls in -0.0's key cell 0; 2**-64 is cell 1.
    script = _Scripted(
        [0.7, 0.25, 0.1, 0.7, 0.5, 0.1, 0.9, 0.7, -0.0, 2.0**-70, 0.3, 0.9, 2.0**-64, 0.6]
    )
    occupied = overlay.ring.keys_array(live_only=False)
    drawn = draw_positions(make_rng(0), script, 7, occupied)
    assert drawn.tolist() == [0.7, 0.1, 0.9, -0.0, 0.3, 2.0**-64, 0.6]
    assert script.calls == [7, 4, 2, 1]


class TestConstructionInvariants:
    @pytest.fixture(scope="class")
    def built(self) -> OscarOverlay:
        overlay = OscarOverlay(OscarConfig(), seed=21)
        overlay.grow_batch(600, GnutellaLikeDistribution(), ConstantDegrees(8))
        overlay.rewire_batch()
        return overlay

    def test_caps_and_bookkeeping(self, built):
        links = links_of(built)
        counted = dict.fromkeys(links, 0)
        for node_id, targets in links.items():
            assert len(set(targets)) == len(targets) and node_id not in targets
            for target in targets:
                counted[target] += 1
        assert (built.out_degree_array() <= built.out_cap_array()).all()
        assert built.in_degree_array().tolist() == list(counted.values())
        assert (built.in_degree_array() <= built.in_cap_array()).all()

    def test_links_land_in_own_partitions(self, built):
        for node_id, targets in list(links_of(built).items())[:50]:
            table = built.partition_table(node_id)
            for target in targets:
                assert table.partition_of(built.ring.position(target)) >= 1

    def test_overlay_routes_after_batched_build(self, built):
        stats = BatchQueryEngine(built).measure(split(1, "q"), n_queries=500)
        assert stats.success_rate == 1.0
        assert stats.mean_cost < 20

    def test_batched_build_is_seeded_and_reproducible(self):
        def build():
            overlay = OscarOverlay(OscarConfig(), seed=33)
            overlay.grow_batch(200, GnutellaLikeDistribution(), ConstantDegrees(6))
            overlay.rewire_batch()
            return overlay

        assert decided(build()) == decided(build())

    def test_rewire_batch_tracks_sampling_spend(self):
        overlay = OscarOverlay(OscarConfig(), seed=12)
        overlay.grow_batch(80, GnutellaLikeDistribution(), ConstantDegrees(5))
        overlay.rewire_batch()
        assert (overlay.state.samples_spent[overlay.ring.slots_array(live_only=True)] > 0).all()

    def test_rewire_batch_rejects_tiny_populations(self):
        overlay = OscarOverlay(OscarConfig(), seed=1)
        overlay.join(0.5, 4, 4)
        with pytest.raises(SamplingError):
            overlay.rewire_batch()

    def test_grow_batch_keeps_existing_links(self):
        overlay = build_overlay(n=100, seed=14, cap=5)
        before = links_of(overlay)
        overlay.grow_batch(180, GnutellaLikeDistribution(), ConstantDegrees(5))
        after = links_of(overlay)
        assert all(after[nid] == links for nid, links in before.items())
        assert overlay.size == 180

    def test_grow_batch_noop_when_at_size(self):
        overlay = build_overlay(n=50, seed=15, cap=5)
        stats = overlay.grow_batch(40, GnutellaLikeDistribution(), ConstantDegrees(5))
        assert isinstance(stats, LinkAcquisitionStats)
        assert stats.links_placed == 0
        assert overlay.size == 50


class TestGoldenBuild:
    @pytest.fixture(scope="class")
    def fixture(self) -> dict:
        return json.loads(FIXTURE.read_text())

    @pytest.fixture(scope="class")
    def rebuilt(self, fixture) -> tuple[OscarOverlay, LinkAcquisitionStats]:
        from scripts.make_golden_build import build  # type: ignore[import-not-found]

        overlay = build()
        stats = BatchConstructionEngine(overlay, vectorized=True).rewire(
            split(fixture["builder"]["rewire_seed"], "golden-build")
        )
        return overlay, stats

    def test_stats_bit_identical(self, fixture, rebuilt):
        assert rebuilt[1].as_dict() == fixture["stats"]

    def test_state_arrays_bit_identical(self, fixture, rebuilt):
        """Every live peer of the golden build, read through the raw
        struct-of-arrays columns — pins the storage itself, and the
        padding invariant with it."""
        state = rebuilt[0].state
        assert set(rebuilt[0].live_node_ids()) == {entry["id"] for entry in fixture["nodes"]}
        for entry in fixture["nodes"]:
            slot = state.slot_of(entry["id"])
            assert slot >= 0 and bool(state.alive[slot])
            assert float(state.pos[slot]) == entry["position"]
            assert int(state.in_deg[slot]) == entry["in_degree"]
            count = int(state.out_count[slot])
            assert [int(t) for t in state.out_links[slot, :count]] == entry["out_links"]
            assert bool((state.out_links[slot, count:] == -1).all())
            assert float(state.part_origin[slot]) == entry["origin"]
            assert float(state.part_far_end[slot]) == entry["far_end"]
            n_med = int(state.n_medians[slot])
            assert [float(x) for x in state.medians[slot, :n_med]] == entry["medians"]


class TestBatchWalker:
    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=40),
        seed=st.integers(min_value=0, max_value=2**31),
        n_walkers=st.integers(min_value=1, max_value=8),
        hops=st.integers(min_value=1, max_value=4),
    )
    def test_walk_matches_reference(self, n, seed, n_walkers, hops):
        rng = make_rng(seed)
        positions = np.sort(rng.random(n))
        if np.unique(positions).size < n:
            return  # astronomically unlikely; keeps the strategy total
        width = 4
        nbr = np.full((n, width), -1, dtype=np.int64)
        for row in range(n):
            nbr[row, 0] = (row + 1) % n
            nbr[row, 1] = (row - 1) % n
            extra = int(rng.integers(0, n))
            if extra != row:
                nbr[row, 2] = extra
        walker = BatchRestrictedWalker(positions, nbr)
        starts = rng.integers(0, n, size=n_walkers)
        arc_start = positions[(starts - 1) % n]
        arc_end = positions[(starts + n // 2) % n]
        a = walker.walk(make_rng(seed + 1), starts, arc_start, arc_end, 5, hops)
        b = walker.walk_reference(make_rng(seed + 1), starts, arc_start, arc_end, 5, hops)
        assert np.array_equal(a, b)


class TestRingInsertMany:
    def test_matches_sequential_inserts(self):
        rng = make_rng(0)
        positions = rng.random(200)
        one = Ring()
        for node_id, position in enumerate(positions):
            one.insert(node_id, float(position))
        bulk = Ring()
        bulk.insert_many(enumerate(float(p) for p in positions))
        assert one.node_ids() == bulk.node_ids()
        assert np.array_equal(one.positions_array(), bulk.positions_array())
        assert np.array_equal(one.keys_array(), bulk.keys_array())
        assert all(one.key_of(i) == bulk.key_of(i) for i in range(len(positions)))

    def test_rejects_duplicate_position_in_batch(self):
        ring = Ring()
        with pytest.raises(DuplicateNodeError):
            ring.insert_many([(0, 0.25), (1, 0.25)])
        assert len(ring) == 0  # validation precedes mutation

    def test_rejects_occupied_position(self):
        ring = Ring()
        ring.insert(0, 0.5)
        with pytest.raises(DuplicateNodeError):
            ring.insert_many([(1, 0.1), (2, 0.5)])
        assert len(ring) == 1

    def test_rejects_duplicate_id(self):
        ring = Ring()
        ring.insert(7, 0.5)
        with pytest.raises(DuplicateNodeError):
            ring.insert_many([(7, 0.1)])


class TestSubstrateSurface:
    def test_all_substrates_satisfy_protocol(self):
        from repro.experiments import make_overlay

        for kind in ("oscar", "chord", "mercury"):
            overlay = make_overlay(kind, seed=1)
            assert isinstance(overlay, Substrate)
            assert hasattr(overlay, "grow_batch") and hasattr(overlay, "rewire_batch")

    def test_chord_fallback_matches_scalar_grow(self):
        from repro.chord import ChordOverlay

        a, b = ChordOverlay(seed=4), ChordOverlay(seed=4)
        a.grow(120, UniformKeys())
        b.grow_batch(120, UniformKeys())
        assert a.ring.node_ids() == b.ring.node_ids()
        assert a.rewire() == b.rewire_batch()
        assert links_of(a) == links_of(b)

    def test_mercury_fallback_matches_scalar_grow(self):
        a = build_mercury(n=80, seed=4, cap=6, rewire=False)
        b_overlay = build_mercury(n=1, seed=4, cap=6, rewire=False)
        # build_mercury grew b to 1; regrow through the batch surface.
        b_overlay.grow_batch(80, GnutellaLikeDistribution(), ConstantDegrees(6))
        assert a.ring.node_ids() == b_overlay.ring.node_ids()


class TestLiveView:
    def test_rows_are_ring_ordered_and_aligned(self):
        overlay = build_overlay(n=60, seed=2, cap=5)
        view = LiveView.capture(overlay)
        assert view.m == 60
        assert np.all(np.diff(view.pos) > 0)
        for row in range(view.m):
            assert int(view.state.node_id[view.slots[row]]) == int(view.ids[row])
            assert view.row_of[int(view.ids[row])] == row

    def test_dead_peers_excluded(self):
        overlay = build_overlay(n=40, seed=2, cap=5)
        victim = overlay.random_live_node()
        overlay.leave(victim)
        view = LiveView.capture(overlay)
        assert view.m == 39
        assert int(view.row_of[victim]) == -1 or victim not in view.ids
