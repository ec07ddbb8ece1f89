"""Oscar link acquisition and rewiring, through the one builder.

Every property is asserted on both execution paths of
:class:`~repro.engine.construct.BatchConstructionEngine` — the numpy
kernels and their pure-Python twin (``vectorized=False``) — and the two
builds are checked bit-identical on the way.
"""

from __future__ import annotations

import numpy as np

from repro import OscarConfig, OscarOverlay
from repro.config import SamplingMode
from repro.degree import ConstantDegrees, SpikyDegreeDistribution
from repro.engine.construct import BatchConstructionEngine, LinkAcquisitionStats
from repro.rng import make_rng
from repro.workloads import GnutellaLikeDistribution

from conftest import decided, links_of

PATHS = (True, False)  # the kernels, then the twin


def population(
    n: int,
    cap: int = 8,
    members: int | None = None,
    seed: int = 0,
    cap_in: int | None = None,
    **config: object,
) -> list[tuple[OscarOverlay, LinkAcquisitionStats]]:
    """``n`` link-less peers at ``i / n`` with caps ``cap`` (in-cap
    ``cap_in`` if given), then one engine cohort: the first ``members``
    peers (default: all) estimate their (oracle) tables and fill their
    slots against everyone. Returns the kernels' and the twin's build,
    checked identical."""
    builds = []
    for vectorized in PATHS:
        overlay = OscarOverlay(
            OscarConfig(sampling_mode=SamplingMode.ORACLE, **config), seed=seed
        )
        in_cap = cap if cap_in is None else cap_in
        ids = [overlay._splice(i / n, in_cap, cap) for i in range(n)]
        cohort = np.asarray(ids[: n if members is None else members], dtype=np.int64)
        stats = BatchConstructionEngine(overlay, vectorized=vectorized).join_cohort(cohort)
        builds.append((overlay, stats))
    (kernel, kernel_stats), (twin, twin_stats) = builds
    assert decided(kernel) == decided(twin) and kernel_stats == twin_stats
    return builds


def built(
    n: int, seed: int, cap: int, rewire: bool = True, **config: object
) -> list[OscarOverlay]:
    """A grown (and by default rewired) overlay per path, checked identical."""
    builds = []
    for vectorized in PATHS:
        overlay = OscarOverlay(OscarConfig(**config), seed=seed)
        overlay.grow_batch(n, GnutellaLikeDistribution(), ConstantDegrees(cap), vectorized)
        if rewire:
            overlay.rewire_batch(vectorized=vectorized)
        builds.append(overlay)
    assert decided(builds[0]) == decided(builds[1])
    return builds


def assert_bookkeeping(overlay: OscarOverlay) -> None:
    """Every out link counted exactly once at its target, caps held."""
    links = links_of(overlay)
    counted = dict.fromkeys(links, 0)
    for targets in links.values():
        for target in targets:
            counted[target] += 1
    assert overlay.in_degree_array().tolist() == list(counted.values())
    assert (overlay.in_degree_array() <= overlay.in_cap_array()).all()
    assert (overlay.out_degree_array() <= overlay.out_cap_array()).all()


class TestAcquireLinks:
    def test_fills_all_slots_when_capacity_abounds(self):
        for overlay, stats in population(64, cap=6, members=1):
            assert len(links_of(overlay)[0]) == 6
            assert stats.links_placed == 6
            assert stats.slots_given_up == 0

    def test_no_self_links(self):
        for overlay, __ in population(32):
            for node_id, links in links_of(overlay).items():
                assert node_id not in links

    def test_no_duplicate_links(self):
        for overlay, __ in population(32):
            for links in links_of(overlay).values():
                assert len(links) == len(set(links))

    def test_in_degree_bookkeeping_consistent(self):
        for overlay, stats in population(48, seed=1):
            assert_bookkeeping(overlay)
            assert stats.links_placed == sum(overlay.in_degree_array())

    def test_in_caps_never_exceeded(self):
        for overlay, stats in population(24, cap=2, seed=2, link_retries=20):
            assert (overlay.in_degree_array() <= overlay.in_cap_array()).all()
            assert stats.refusals + stats.conflicts > 0  # the caps did bind

    def test_out_caps_respected(self):
        for overlay, __ in population(24, cap=3, seed=3):
            assert (overlay.out_degree_array() <= overlay.out_cap_array()).all()

    def test_targets_drawn_from_own_partitions(self):
        for overlay, __ in population(64, members=1, seed=4):
            links, table = links_of(overlay)[0], overlay.partition_table(0)
            assert links
            for target in links:
                # partition_of raises if the target were out of range.
                assert table.partition_of(overlay.ring.position(target)) >= 1

    def test_gives_up_when_population_saturated(self):
        # Two peers with in-cap 1 and out-cap 3: each can hold one link.
        for overlay, stats in population(2, cap=3, cap_in=1, seed=5, link_retries=3):
            assert stats.slots_given_up == 2
            assert stats.links_placed == 2
            assert overlay.out_degree_array().tolist() == [1, 1]

    def test_keeps_existing_links(self):
        # Raise one peer's caps and run it through a one-row cohort again:
        # old links stay in place, the new ones append.
        results = []
        for (overlay, __), vectorized in zip(population(32, seed=6), PATHS):
            state = overlay.state
            before = links_of(overlay)[0]
            state.cap_in[overlay.ring.slots_array(live_only=True)] += 2
            state.cap_out[state.slot_of(0)] += 2
            engine = BatchConstructionEngine(overlay, vectorized=vectorized)
            stats = engine.join_cohort(np.asarray([0], dtype=np.int64))
            after = links_of(overlay)[0]
            assert after[: len(before)] == before
            assert len(after) == len(before) + 2 == len(set(after))
            assert_bookkeeping(overlay)
            results.append((decided(overlay), stats))
        assert results[0] == results[1]

    def test_stats_merge(self):
        a = LinkAcquisitionStats()
        a.links_placed, a.draws = 2, 5
        b = LinkAcquisitionStats()
        b.links_placed, b.refusals = 3, 1
        a.merge(b)
        assert a.links_placed == 5
        assert a.draws == 5
        assert a.refusals == 1
        assert "placed=5" in repr(a)


class TestPowerOfTwoChoices:
    def test_balances_in_degree_better_than_single_choice(self):
        for balanced, single in zip(
            built(400, seed=11, cap=8, power_of_two=True),
            built(400, seed=11, cap=8, power_of_two=False),
        ):
            # Choice-of-two must reduce in-degree spread (classic balls-in-bins).
            assert balanced.in_degree_array().std() < single.in_degree_array().std()

    def test_single_choice_draws_one_candidate(self):
        for overlay, stats in population(64, members=1, seed=7, power_of_two=False):
            assert stats.links_placed == len(links_of(overlay)[0]) > 0
            # One candidate per draw: at most one refusal or one link each.
            assert stats.links_placed + stats.refusals <= stats.draws


class TestRewireAll:
    def test_out_links_fully_rebuilt(self):
        for overlay, vectorized in zip(built(120, seed=8, cap=6, rewire=False), PATHS):
            grown = decided(overlay)
            stats = overlay.rewire_batch(make_rng(8), vectorized=vectorized)
            assert stats.links_placed == sum(overlay.out_degree_array()) > 0
            assert decided(overlay) != grown
            assert_bookkeeping(overlay)

    def test_bookkeeping_consistent_after_rewire(self):
        for overlay in built(150, seed=9, cap=6):
            assert_bookkeeping(overlay)

    def test_rewire_refreshes_partitions(self):
        for overlay, vectorized in zip(built(60, seed=10, cap=6, rewire=False), PATHS):
            stale = {i: overlay.partition_table(i) for i in overlay.live_node_ids()}
            overlay.grow_batch(120, GnutellaLikeDistribution(), ConstantDegrees(6), vectorized)
            overlay.rewire_batch(vectorized=vectorized)
            ring = overlay.ring
            for node_id in overlay.live_node_ids():
                # Every table was re-estimated against the current population.
                table = overlay.partition_table(node_id)
                assert table.far_end == ring.position(ring.predecessor(node_id))
            refreshed = sum(
                overlay.partition_table(node_id) != table for node_id, table in stale.items()
            )
            assert refreshed == 60  # every original peer re-estimated

    def test_rewire_is_seeded_and_reproducible(self):
        first, second = built(100, seed=12, cap=6), built(100, seed=12, cap=6)
        for a, b in zip(first, second):
            assert decided(a) == decided(b)

    def test_rewire_tracks_sampling_spend(self):
        for overlay in built(80, seed=13, cap=6):
            assert (overlay.state.samples_spent[overlay.ring.slots_array(True)] > 0).all()

    def test_oracle_mode_spends_no_uniform_samples_difference(self):
        # Oracle overlays also track spend (the counter is mode-agnostic);
        # here we just confirm rewiring works under ORACLE sampling.
        for overlay in built(80, seed=14, cap=6, sampling_mode=SamplingMode.ORACLE):
            assert sum(overlay.out_degree_array()) > 0
            assert (overlay.state.samples_spent[overlay.ring.slots_array(True)] > 0).all()


class TestHeterogeneousCaps:
    def test_spiky_caps_fill_proportionally(self):
        caps = SpikyDegreeDistribution(
            mean_degree=8.0, spike_fraction=0.5, d_max=40, spikes=(4, 8, 16)
        ).sample(make_rng(16), 300)
        rewired = []
        for overlay, vectorized in zip(built(300, seed=15, cap=8), PATHS):
            # Replace caps mid-flight with a spiky draw, then rewire.
            slots = overlay.ring.slots_array(live_only=True)
            overlay.state.cap_in[slots] = caps
            overlay.state.cap_out[slots] = caps
            overlay.rewire_batch(vectorized=vectorized)
            degrees = overlay.in_degree_array()
            limits = overlay.in_cap_array()
            assert np.all(degrees <= limits)
            # High-cap peers must absorb more links than low-cap peers on average.
            high = degrees[limits >= np.percentile(limits, 80)].mean()
            low = degrees[limits <= np.percentile(limits, 20)].mean()
            assert high > low
            rewired.append(decided(overlay))
        assert rewired[0] == rewired[1]
