"""Sampling a clockwise arc: the construction engine's uniform draw and
the restricted walk (:class:`repro.sampling.BatchRestrictedWalker`).

Every property is asserted on both execution paths — the engine's numpy
draw and its twin's per-sample loop, ``walk`` and ``walk_reference`` —
and the two checked identical on the same draws.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import OscarConfig, OscarOverlay
from repro.engine.construct import LiveView, _window_counts
from repro.errors import ConfigError, SamplingError
from repro.ring import in_cw_interval
from repro.rng import make_rng
from repro.sampling import BatchRestrictedWalker

from conftest import draw_in_arc


def ring_of(n: int) -> LiveView:
    """The live view of ``n`` link-less peers at ``i / n`` (id ``i``)."""
    overlay = OscarOverlay(OscarConfig(), seed=0)
    for i in range(n):
        overlay._splice(i / n)
    return LiveView.capture(overlay)


def draw_arc(view: LiveView, rng, start: float, end: float, size: int) -> np.ndarray:
    """The engine's uniform draw of ``size`` peers over the view's rows."""
    return draw_in_arc(view.pos, view.ids, rng, start, end, size)


class TestSampleArcUniform:
    def test_samples_stay_in_arc(self):
        view = ring_of(64)
        ids = draw_arc(view, make_rng(0), 0.25, 0.75, size=200)
        assert ids.size == 200
        for node_id in ids:
            assert in_cw_interval(int(node_id) / 64, 0.25, 0.75)

    def test_wrapped_arc(self):
        view = ring_of(64)
        ids = draw_arc(view, make_rng(0), 0.75, 0.25, size=200)
        assert ids.size == 200
        for node_id in ids:
            assert in_cw_interval(int(node_id) / 64, 0.75, 0.25)

    def test_empty_arc_returns_empty(self):
        view = ring_of(4)  # positions 0, .25, .5, .75
        assert draw_arc(view, make_rng(0), 0.26, 0.49, size=10).size == 0
        # The engine's packed window agrees: nothing to draw from, so the
        # level's row is dropped before the draw is read.
        lo = np.searchsorted(view.pos, [0.26, 0.49], side="right")
        assert _window_counts(4, np.asarray(0.26), np.asarray(0.49), lo[0], lo[1]) == 0

    def test_approximately_uniform(self):
        view = ring_of(16)
        ids = draw_arc(view, make_rng(1), 0.0, 0.5, size=8000)
        # Arc (0, 0.5] holds nodes 1..8 -> 8 candidates, expect ~1000 each.
        counts = np.bincount(ids, minlength=16)
        in_arc = counts[1:9]
        assert counts[0] == 0 and counts[9:].sum() == 0
        assert np.all(np.abs(in_arc - 1000) < 4 * np.sqrt(1000))

    def test_excludes_dead_peers_by_default(self):
        overlay = OscarOverlay(OscarConfig(), seed=0)
        for i in range(8):
            overlay._splice(i / 8)
        overlay.ring.mark_dead(2)
        view = LiveView.capture(overlay)  # the engine samples live rows only
        ids = draw_arc(view, make_rng(2), 0.0, 0.99, size=500)
        assert 2 not in set(int(i) for i in ids)
        assert set(int(i) for i in ids) == {1, 3, 4, 5, 6, 7}

    def test_rejects_zero_size(self):
        with pytest.raises(ConfigError):
            OscarConfig(sample_size=0)


def ring_rows(n: int, extra: dict[int, list[int]] | None = None) -> np.ndarray:
    """Neighbor rows of ``n`` peers linked by their ring successor and
    predecessor, plus ``extra[i]``'s rows, padded with ``-1``."""
    extra = extra or {}
    width = 2 + max((len(v) for v in extra.values()), default=0)
    nbr = np.full((n, width), -1, dtype=np.int64)
    for row in range(n):
        links = [(row + 1) % n, (row - 1) % n, *extra.get(row, [])]
        nbr[row, : len(links)] = links
    return nbr


def ring_walker(n: int, extra: dict[int, list[int]] | None = None) -> BatchRestrictedWalker:
    """A walker over ``ring_rows(n, extra)`` with peer ``i`` at ``i / n``."""
    return BatchRestrictedWalker(np.arange(n) / n, ring_rows(n, extra))


def walk_both(walker: BatchRestrictedWalker, seed: int, start_rows, arc_start, arc_end, *args):
    """``walk`` and ``walk_reference`` on one seed — checked identical."""
    arcs = (np.asarray(start_rows), np.asarray(arc_start, float), np.asarray(arc_end, float))
    kernel = walker.walk(make_rng(seed), *arcs, *args)
    twin = walker.walk_reference(make_rng(seed), *arcs, *args)
    assert np.array_equal(kernel, twin)
    return kernel


class TestRestrictedWalker:
    def test_walk_never_leaves_arc(self):
        samples = walk_both(ring_walker(32), 3, [10], [0.25], [0.75], 100, 4)
        for row in samples[0]:
            assert in_cw_interval(int(row) / 32, 0.25, 0.75)

    def test_collects_requested_count(self):
        samples = walk_both(ring_walker(32), 4, [5, 9], [0.0, 0.0], [0.99, 0.99], 17)
        assert samples.shape == (2, 17)

    def test_rejects_bad_parameters(self):
        walker = ring_walker(8)
        with pytest.raises(SamplingError):
            walker.walk(make_rng(0), [1], [0.0], [0.99], n_samples=0)
        with pytest.raises(SamplingError):
            walker.walk(make_rng(0), [1], [0.0], [0.99], n_samples=1, hops_per_sample=0)
        with pytest.raises(SamplingError):
            BatchRestrictedWalker(np.arange(4) / 4, np.zeros((3, 2), dtype=np.int64))

    def test_skips_dead_peers(self):
        # The engine hands the walker live rows only: a dead peer is not a
        # row, so a ring of 16 with peer 5 dead is a 15-row ring whose
        # rows 0..4 / 5..14 are peers 0..4 / 6..15, dead links dropped.
        ids = np.asarray([i for i in range(16) if i != 5])
        walker = BatchRestrictedWalker(ids / 16, ring_rows(15))
        samples = walk_both(walker, 5, [1], [0.0], [0.99], 200, 2)
        assert 5 not in set(int(s) for s in ids[samples[0]])

    def test_mh_walk_is_close_to_uniform_on_heterogeneous_degrees(self):
        # A topology where node 0 has many links and others few: an
        # uncorrected walk oversamples node 0; the MH correction fixes it.
        n = 12
        walker = ring_walker(n, {0: list(range(2, n - 1)), **{i: [0] for i in range(2, n - 1)}})
        # Arc covering everything: positions in (0.99, 0.98] wraps over all.
        samples = walk_both(walker, 6, [3], [0.99], [0.98], 6000, 6)
        counts = np.bincount(samples[0], minlength=n)
        freq = counts / counts.sum()
        # Perfect uniformity would be 1/12 = 0.083; the hub must not be
        # grossly oversampled (an uncorrected walk gives it several x).
        assert freq[0] < 2.0 / n
        assert freq.min() > 0.25 / n

    def test_walk_distribution_matches_uniform_sampling(self):
        # WALK mode must agree statistically with UNIFORM mode: compare
        # arc-membership histograms via total variation distance.
        n = 24
        walk_samples = walk_both(ring_walker(n), 7, [3], [0.0], [0.5], 4000, 8)[0]
        uniform_samples = draw_arc(ring_of(n), make_rng(8), 0.0, 0.5, size=4000)
        bins = np.arange(n + 1)
        walk_hist = np.histogram(walk_samples, bins=bins)[0] / 4000
        uni_hist = np.histogram(uniform_samples, bins=bins)[0] / 4000
        tv = 0.5 * np.abs(walk_hist - uni_hist).sum()
        assert tv < 0.08
