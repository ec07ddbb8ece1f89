"""Tests for failure injection: the crash/revive liveness mutations of
:class:`repro.membership.OracleView` and Figure 2's crash wave built on
them (``crash_fraction`` on the ``("churn-victims", fraction)`` stream,
then ring repair; ``revive`` undoes it), as the grow-and-measure loop
calls them.
"""

from __future__ import annotations

import pytest

from repro.errors import EmptyPopulationError
from repro.membership import OracleView
from repro.ring import Ring, build_pointers, repair_all, verify
from repro.rng import make_rng

from conftest import build_overlay, crash_victims, crash_wave


def ring_of(n: int) -> Ring:
    ring = Ring()
    for node_id in range(n):
        ring.insert(node_id, node_id / n)
    return ring


class TestCrashFraction:
    def test_kills_requested_share(self):
        ring = ring_of(100)
        victims = OracleView(ring).crash_fraction(make_rng(0), 0.33)
        assert len(victims) == 33
        assert ring.live_count == 67

    def test_victims_are_actually_dead(self):
        ring = ring_of(50)
        victims = OracleView(ring).crash_fraction(make_rng(1), 0.2)
        for victim in victims:
            assert not ring.is_alive(victim)

    def test_zero_fraction_kills_nobody(self):
        ring = ring_of(10)
        assert OracleView(ring).crash_fraction(make_rng(2), 0.0) == []
        assert ring.live_count == 10

    def test_never_kills_everyone(self):
        ring = ring_of(3)
        victims = OracleView(ring).crash_fraction(make_rng(3), 0.99)
        assert ring.live_count >= 1
        assert len(victims) <= 2

    def test_full_fraction_spares_exactly_one(self):
        ring = ring_of(5)
        victims = OracleView(ring).crash_fraction(make_rng(4), 1.0)
        assert len(victims) == 4
        assert ring.live_count == 1

    def test_rejects_fraction_above_one(self):
        with pytest.raises(ValueError):
            OracleView(ring_of(5)).crash_fraction(make_rng(4), 1.0000001)

    def test_rejects_negative_fraction(self):
        with pytest.raises(ValueError):
            OracleView(ring_of(5)).crash_fraction(make_rng(4), -0.1)

    def test_single_peer_ring_loses_nobody(self):
        ring = ring_of(1)
        assert OracleView(ring).crash_fraction(make_rng(4), 1.0) == []
        assert ring.live_count == 1

    def test_already_dead_victims_excluded_from_base(self):
        # 10 peers, 4 already dead: fraction 0.5 counts over the 6 live
        # peers only (3 victims) and never re-selects a dead one.
        ring = ring_of(10)
        first = OracleView(ring).crash_fraction(make_rng(11), 0.4)
        assert len(first) == 4
        second = OracleView(ring).crash_fraction(make_rng(12), 0.5)
        assert len(second) == 3
        assert not set(first) & set(second)
        assert ring.live_count == 3

    def test_rejects_empty_ring(self):
        with pytest.raises(EmptyPopulationError):
            OracleView(Ring()).crash_fraction(make_rng(5), 0.1)

    def test_victims_unique(self):
        ring = ring_of(60)
        victims = OracleView(ring).crash_fraction(make_rng(6), 0.5)
        assert len(victims) == len(set(victims))

    def test_repeated_waves_compound(self):
        ring = ring_of(100)
        OracleView(ring).crash_fraction(make_rng(7), 0.5)
        OracleView(ring).crash_fraction(make_rng(8), 0.5)
        assert ring.live_count == 25


class TestBulkPrimitives:
    def test_crash_many_flips_and_reports(self):
        ring = ring_of(10)
        assert OracleView(ring).crash([1, 3, 5]) == [1, 3, 5]
        assert ring.live_count == 7

    def test_crash_many_skips_already_dead(self):
        ring = ring_of(10)
        OracleView(ring).crash([1, 3])
        # Re-crashing dead peers is a no-op, reported as unchanged.
        assert OracleView(ring).crash([1, 3, 5]) == [5]
        assert ring.live_count == 7

    def test_revive_many_mirrors_crash_many(self):
        ring = ring_of(10)
        OracleView(ring).crash([2, 4, 6])
        assert OracleView(ring).revive([2, 6, 8]) == [2, 6]  # 8 was never dead
        assert ring.live_count == 9
        assert not ring.is_alive(4)

    def test_bulk_round_trip_restores_everything(self):
        ring = ring_of(25)
        dead = OracleView(ring).crash(range(0, 25, 2))
        assert OracleView(ring).revive(dead) == dead
        assert ring.live_count == 25


class TestReviveAll:
    def test_round_trip(self):
        ring = ring_of(40)
        victims = OracleView(ring).crash_fraction(make_rng(9), 0.25)
        OracleView(ring).revive(victims)
        assert ring.live_count == 40

    def test_revive_empty_list_noop(self):
        ring = ring_of(5)
        assert OracleView(ring).revive([]) == []
        assert ring.live_count == 5


class TestApplyChurn:
    """The crash wave: victims on a labelled stream, then ring repair."""

    def test_faultless_config_is_noop(self):
        ring = ring_of(20)
        assert crash_victims(ring, 0.0) == []
        assert ring.live_count == 20

    def test_kill_and_repair(self):
        ring = ring_of(60)
        pointers = build_pointers(ring)
        victims = crash_victims(ring, 0.33)
        repair_all(ring, pointers)
        assert len(victims) == 19
        verify(ring, pointers)  # the paper's assumed self-stabilization

    def test_repair_can_be_disabled(self):
        # The crash alone leaves the pointers to dead peers: the repair
        # step is what restores the ring.
        from repro.errors import RingInvariantError

        ring = ring_of(60)
        pointers = build_pointers(ring)
        crash_victims(ring, 0.33)
        with pytest.raises(RingInvariantError):
            verify(ring, pointers)

    def test_victim_choice_is_seeded(self):
        first, second = (crash_victims(ring_of(50), 0.2, seed=5) for __ in range(2))
        assert first == second

    def test_different_fractions_use_disjoint_streams(self):
        low, high = (crash_victims(ring_of(50), f, seed=5) for f in (0.2, 0.4))
        assert set(low) != set(high)


class TestChurnOnOverlay:
    def test_overlay_survives_wave_and_revival(self):
        overlay = build_overlay(n=150, seed=40, cap=8)
        victims = crash_wave(overlay)
        rng = make_rng(41)
        for __ in range(40):
            source = overlay.random_live_node(rng)
            assert overlay.route(source, float(rng.random())).success
        OracleView(overlay.ring).revive(victims)
        overlay.repair_ring()
        verify(overlay.ring, overlay.pointers)
        for __ in range(20):
            source = overlay.random_live_node(rng)
            assert overlay.route(source, float(rng.random())).success


class TestDeprecationShims:
    """The deprecated free-function shims are removed; the crash wave's
    membership calls are supported API and must never warn."""

    @pytest.mark.filterwarnings("error::DeprecationWarning")
    def test_supported_procedures_do_not_warn(self):
        ring = ring_of(20)
        OracleView(ring).revive(crash_victims(ring, 0.2))
