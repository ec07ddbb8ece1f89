"""Tests for the hash-DHT control overlay (repro.chord)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.chord import ChordOverlay, hash_key, scatter_range
from repro.chord.hashing import hash_key_exact, hash_str, hash_str_exact
from repro.ring import keyspace
from repro.degree import ConstantDegrees
from repro.errors import EmptyPopulationError, UnknownNodeError
from repro.membership import OracleView
from repro.ring import verify
from repro.rng import make_rng
from repro.workloads import GnutellaLikeDistribution, UniformKeys

from conftest import links_of


def build_chord(n: int = 150, seed: int = 1, skewed: bool = True) -> ChordOverlay:
    overlay = ChordOverlay(seed=seed)
    keys = GnutellaLikeDistribution() if skewed else UniformKeys()
    overlay.grow(n, keys)
    return overlay


class TestHashing:
    def test_hash_in_unit_interval(self):
        rng = make_rng(0)
        for key in rng.random(200):
            assert 0.0 <= hash_key(float(key)) < 1.0

    def test_hash_is_deterministic(self):
        assert hash_key(0.123) == hash_key(0.123)
        assert hash_str("abc") == hash_str("abc")

    def test_distinct_keys_hash_apart(self):
        assert hash_key(0.123) != hash_key(0.1230000001)

    def test_hash_destroys_order(self):
        # Adjacent application keys land at unrelated positions: the
        # mean displacement of consecutive hashed keys is ~1/3 (random),
        # not ~0 (order-preserving).
        keys = np.sort(make_rng(1).random(500))
        hashed = np.array([hash_key(float(k)) for k in keys])
        gaps = np.abs(np.diff(hashed))
        circular = np.minimum(gaps, 1.0 - gaps)
        assert circular.mean() > 0.15

    def test_hash_is_uniform_under_skew(self):
        # The DHT's one genuine strength: skewed inputs hash uniform.
        skewed = GnutellaLikeDistribution().sample(make_rng(2), 20_000)
        hashed = np.array([hash_key(float(k)) for k in skewed[:5000]])
        counts, __ = np.histogram(hashed, bins=10, range=(0, 1))
        assert counts.min() > 500 - 5 * np.sqrt(500)


class TestOverlayLifecycle:
    def test_grow_reaches_size(self):
        overlay = build_chord(n=100)
        assert len(overlay) == 100

    def test_ring_pointers_valid(self):
        overlay = build_chord(n=80)
        verify(overlay.ring, overlay.pointers)

    def test_positions_uniform_despite_skewed_keys(self):
        overlay = build_chord(n=400, skewed=True)
        positions = overlay.ring.positions_array(live_only=True)
        counts, __ = np.histogram(positions, bins=4, range=(0, 1))
        assert counts.min() > 50  # no quarter of the circle is starved

    def test_application_keys_remembered(self):
        overlay = ChordOverlay(seed=3)
        node = overlay.join(0.42)
        assert overlay.application_key[node] == 0.42
        assert overlay.ring.position(node) == hash_key(0.42)

    def test_degree_arrays(self):
        overlay = build_chord(n=120)
        out_degrees = overlay.out_degree_array()
        in_degrees = overlay.in_degree_array()
        assert out_degrees.shape == in_degrees.shape == (120,)
        # Protocol-dictated fingers: ~log2(N) per peer, no caps.
        assert out_degrees.mean() == pytest.approx(np.log2(120), rel=0.4)
        assert in_degrees.sum() == out_degrees.sum()

    def test_unknown_node_rejected(self):
        overlay = build_chord(n=10)
        with pytest.raises(UnknownNodeError):
            overlay.neighbors_of(10_000)

    def test_empty_overlay_rejected(self):
        with pytest.raises(EmptyPopulationError):
            ChordOverlay().random_live_node()

    def test_degrees_argument_ignored(self):
        # Chord cannot honour per-peer budgets; grow() accepts and
        # ignores the distribution so the harness surface matches.
        overlay = ChordOverlay(seed=4)
        overlay.grow(50, UniformKeys(), ConstantDegrees(3))
        assert overlay.out_degree_array().mean() > 3  # caps were ignored

    def test_repr(self):
        assert "ChordOverlay" in repr(build_chord(n=5))


class TestRouting:
    def test_lookup_reaches_hashed_owner(self):
        overlay = build_chord(n=200)
        rng = make_rng(5)
        for __ in range(50):
            source = overlay.random_live_node(rng)
            app_key = float(rng.random())
            result = overlay.lookup(source, app_key)
            assert result.success
            assert result.delivered_to == overlay.ring.successor_of_key(hash_key(app_key))

    def test_lookup_cost_logarithmic(self):
        overlay = build_chord(n=400)
        rng = make_rng(6)
        costs = []
        for __ in range(150):
            source = overlay.random_live_node(rng)
            costs.append(overlay.lookup(source, float(rng.random())).cost)
        assert np.mean(costs) <= np.log2(400)

    def test_rewire_rebuilds_fingers_after_growth(self):
        overlay = build_chord(n=50)
        before = links_of(overlay)
        overlay.grow(200, GnutellaLikeDistribution())
        placed = overlay.rewire()
        assert placed > 0
        after = links_of(overlay)
        changed = sum(1 for nid in before if after[nid] != before[nid])
        assert changed > 25  # most early fingers re-point

    def test_faulty_routing_after_churn(self):
        overlay = build_chord(n=150)
        rng = make_rng(7)
        victims = rng.choice(overlay.live_node_ids(), size=50, replace=False)
        OracleView(overlay.ring).crash(victims)
        overlay.repair_ring()
        for __ in range(30):
            source = overlay.random_live_node(rng)
            result = overlay.lookup(source, float(rng.random()))
            assert result.success


class TestScatterRange:
    def test_counts_and_messages(self):
        overlay = build_chord(n=100)
        item_keys = [i / 50 for i in range(50)]
        source = overlay.random_live_node(make_rng(8))
        matches, messages = scatter_range(overlay, source, item_keys, 0.2, 0.4)
        expected = sum(1 for k in item_keys if 0.2 <= k <= 0.4)
        assert matches == expected
        assert messages >= 0  # every lookup may cost 0 if source owns it

    def test_wrapped_range(self):
        overlay = build_chord(n=100)
        item_keys = [i / 50 for i in range(50)]
        source = overlay.random_live_node(make_rng(9))
        matches, __ = scatter_range(overlay, source, item_keys, 0.9, 0.1)
        # Closed at both ends even when wrapped, matching the index.
        expected = sum(1 for k in item_keys if k >= 0.9 or k <= 0.1)
        assert matches == expected

    def test_empty_range_costs_nothing(self):
        overlay = build_chord(n=50)
        source = overlay.random_live_node(make_rng(10))
        matches, messages = scatter_range(overlay, source, [], 0.1, 0.9)
        assert matches == 0 and messages == 0

    def test_cost_scales_with_matches(self):
        overlay = build_chord(n=200)
        item_keys = [i / 400 for i in range(400)]
        source = overlay.random_live_node(make_rng(11))
        __, narrow = scatter_range(overlay, source, item_keys, 0.10, 0.12)
        __, wide = scatter_range(overlay, source, item_keys, 0.10, 0.50)
        assert wide > narrow


class TestExtRangeExperiment:
    def test_structure_and_motivation_claim(self):
        from repro.experiments import get_spec

        result = get_spec("ext-range").run(scale=0.02, n_queries=8)
        assert set(result.series) == {
            "oscar (search + sweep)",
            "chord (per-item lookups)",
            "cost ratio chord/oscar",
        }
        # Oscar's sweep must return exactly the hash DHT's match count
        # (recall parity), while costing less at high selectivity.
        for key, value in result.scalars.items():
            if key.startswith("recall_match_"):
                assert value == 1.0
        assert result.scalars["ratio_at_max_selectivity"] > 1.5
        # The scatter penalty grows with selectivity.
        ratios = [y for __, y in result.series["cost ratio chord/oscar"]]
        assert ratios[-1] >= ratios[0] * 0.8


class TestExactHashAdapters:
    """hash_*_exact must be definitionally consistent with the float
    hashes: same placement, fixed-point representation."""

    @given(st.text(max_size=40))
    def test_hash_str_exact_matches_float_hash(self, value):
        assert hash_str_exact(value) == keyspace.from_unit(hash_str(value))

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_hash_key_exact_matches_float_hash(self, key):
        assert hash_key_exact(key) == keyspace.from_unit(hash_key(key))

    @given(st.text(max_size=40))
    def test_hash_keys_round_trip_losslessly(self, value):
        # Hash floats are v / 2**53, so their keys are v * 2**11 —
        # always in the adapters' lossless regime.
        exact = hash_str_exact(value)
        assert keyspace.from_unit(keyspace.to_unit(exact)) == exact
        assert keyspace.to_unit(exact) == hash_str(value)
