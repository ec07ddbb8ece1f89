"""The per-peer push epidemic as a distributional oracle for the count plane.

:class:`SetGossip` is the model ``GossipMembership`` used to carry: one
Python ``set`` of informed ids per report, each informed member pushing
``fanout`` uniform draws per round. The count plane replaces the set
with its size and the round's pushes with one binomial draw, so the two
cannot agree draw for draw; they must agree in law. Each cell starts
``REPORTS`` reports at once over ``n`` live peers, spreads both planes
to completion on fixed seeds, and compares the histograms of the round
each report completed in (coverage or the staleness bound): their total
variation distance stays within :data:`TV_BOUND`.

The binomial treats each uninformed peer's miss as independent; under
the exact occupancy law the misses are negatively correlated, so the
count grows with more spread: more reports cover a round early, and more
lag to the bound. Where coverage races the bound the two laws differ
measurably: at 20 000 reports a side, the distance is 0.16 at ``n`` 24
and 100 with fanout 2, 0.13-0.14 with fanout 4 up to ``n = 1 000``, at
most 0.05 with fanout 1, and 0 wherever every report retires at the
bound (``n = 1 000`` with fanout 1; ``n = 10 000`` with fanout 1 and 2,
0.07 with fanout 4, at 2 000 a side). :data:`TV_BOUND` adds room for
the sampling noise of ``REPORTS`` a side; a plane that pushes once per
informed peer instead of ``fanout`` times, or completes only past
coverage, is off by 0.9 or more at ``n = 24``, fanout 4.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

import numpy as np
import pytest

from repro.membership import DetectorConfig, GossipMembership
from repro.rng import split

REPORTS = 2_000
TV_BOUND = 0.2


class SetGossip:
    """Push gossip over explicit informed sets (``start_many`` /
    ``spread`` of the count plane's surface, nothing else)."""

    def __init__(self, config: DetectorConfig) -> None:
        self.config = config
        self._informed: dict[int, set[int]] = {}
        self._age: dict[int, int] = {}

    def start_many(self, targets: Iterable[int], origins: Iterable[int]) -> None:
        for target, origin in zip(targets, origins):
            self._informed[int(target)] = {int(origin)}
            self._age[int(target)] = 0

    def spread(self, live_ids: np.ndarray, rng: np.random.Generator) -> list[int]:
        n = int(live_ids.size)
        bound = self.config.staleness_bound(max(n, 2))
        everyone = set(live_ids.tolist())
        done: list[int] = []
        for target in sorted(self._informed):
            informed = self._informed[target]
            self._age[target] += 1
            draws = rng.integers(0, n, size=len(informed) * self.config.gossip_fanout)
            informed.update(live_ids[draws].tolist())
            if self._age[target] >= bound or informed >= everyone:
                done.append(target)
        for target in done:
            del self._informed[target], self._age[target]
        return done


def completion_rounds(plane, n: int, seed: int) -> Counter:
    """How many of :data:`REPORTS` reports over ``n`` live peers (every
    origin live) completed in each round."""
    live = np.arange(n, dtype=np.int64)
    rng = split(seed, "gossip-oracle", n)
    plane.start_many(range(n, n + REPORTS), split(seed, "origins").integers(0, n, REPORTS))
    rounds: Counter = Counter()
    for age in range(1, plane.config.staleness_bound(n) + 1):
        rounds[age] += len(plane.spread(live, rng))
    assert sum(rounds.values()) == REPORTS  # the bound retires every report
    return rounds


def total_variation(a: Counter, b: Counter) -> float:
    return sum(abs(a[r] - b[r]) for r in a.keys() | b.keys()) / (2 * REPORTS)


@pytest.mark.parametrize("fanout", [1, 2, 4])
@pytest.mark.parametrize(
    "n", [24, 100, 1_000, pytest.param(10_000, marks=pytest.mark.slow)]
)
def test_completion_rounds_agree_in_law(n: int, fanout: int) -> None:
    config = DetectorConfig(gossip_fanout=fanout)
    counts = completion_rounds(GossipMembership(config), n, seed=fanout)
    sets = completion_rounds(SetGossip(config), n, seed=fanout)
    assert total_variation(counts, sets) <= TV_BOUND, (sorted(counts.items()), sorted(sets.items()))
