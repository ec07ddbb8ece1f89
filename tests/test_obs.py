"""The registry (``repro.obs``) and the rows the churn cycle writes into it.

* :class:`~repro.obs.Registry` on its own: columns per layer, the epoch
  stamp, a row that changes a layer's columns refused, empty layers;
* the ``membership`` rows: every eviction lands in exactly one of
  ``lagged``, ``false_evictions`` and ``moot``, and each lagged one
  writes a ``detection`` row with its lag;
* the ``store`` rows: a phantom replica is never counted as placed;
* ``churn_loop``: its table is the registry's, joined per epoch, plus
  the wall columns, and one seed gives byte-identical registries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.churn import churn_loop
from repro.index import ReplicatedStore
from repro.membership import DetectorConfig, OracleView, ProbeView
from repro.obs import Registry
from repro.ring import Ring
from repro.rng import split


def fresh_ring(n: int) -> Ring:
    """A live ring of ``n`` peers at evenly spaced positions."""
    ring = Ring()
    ring.insert_many((i, (i + 0.5) / n) for i in range(n))
    return ring


class TestRegistry:
    def test_rows_become_columns_stamped_with_their_epoch(self):
        obs = Registry()
        row = obs.record("churn", 1, live=10, success_rate=1.0, link_repair=False)
        assert (row.epoch, row.live, row.link_repair) == (1, 10, False)
        obs.record("churn", 2, live=12, success_rate=0.5, link_repair=True)
        t = obs.table("churn")
        assert list(t) == ["epoch", "live", "success_rate", "link_repair"]
        assert t["epoch"].tolist() == [1, 2] and t["live"].dtype == np.int64
        assert t["link_repair"].dtype == bool and t["success_rate"].tolist() == [1.0, 0.5]
        assert [vars(r) for r in obs.rows("churn")] == [
            {"epoch": 1, "live": 10, "success_rate": 1.0, "link_repair": False},
            {"epoch": 2, "live": 12, "success_rate": 0.5, "link_repair": True},
        ]
        assert obs.total("churn", "live") == 22

    def test_a_tuple_column_reads_back_as_a_matrix(self):
        obs = Registry()
        obs.record("store", 0, histogram=(0, 1, 2))
        obs.record("store", 3, histogram=(1, 1, 1))
        assert obs.table("store")["histogram"].tolist() == [[0, 1, 2], [1, 1, 1]]

    def test_a_layer_keeps_the_columns_of_its_first_row(self):
        obs = Registry()
        obs.record("churn", 1, live=3, stale_links=0)
        for bad in ({"live": 3}, {"live": 3, "stale_links": 0, "x": 1}, {"stale": 0, "live": 1}):
            with pytest.raises(ValueError, match="churn"):
                obs.record("churn", 2, **bad)
        assert obs.table("churn")["epoch"].tolist() == [1]
        obs.record("other", 1, extra=1)  # another layer has its own columns

    def test_an_empty_layer_reads_empty(self):
        obs = Registry()
        assert obs.table("churn") == {} and obs.rows("churn") == []
        assert obs.total("churn", "live") == 0


class TestMembershipRows:
    def test_every_eviction_has_exactly_one_outcome(self):
        """A recorded death is ``lagged`` (with its ``detection`` row), a
        crash nobody recorded is ``moot``, and so is a report completing
        for a peer compacted away."""
        ring = fresh_ring(16)
        view = ProbeView(ring, DetectorConfig(), seed=4)
        view.crash([3, 9])
        view.record_deaths([3], epoch=1)
        epoch = 0
        while view.evictions < 2:
            epoch += 1
            view.advance(epoch)
            assert epoch < 30
        m = ring.state.obs.table("membership")
        assert m["epoch"].tolist() == list(range(1, epoch + 1))
        assert (m["evictions"] == m["lagged"] + m["false_evictions"] + m["moot"]).all()
        assert (m["lagged"].sum(), m["false_evictions"].sum(), m["moot"].sum()) == (1, 0, 1)
        detection = ring.state.obs.table("detection")
        assert detection["lag"].tolist() == view.detection_lags
        assert detection["lag"].tolist() == [int(detection["epoch"][0]) - 1]
        assert view._evict(999, epoch) == "moot"

    def test_false_evictions_are_counted_and_leave_truth_alone(self):
        """Under heavy probe loss on a ring nobody crashed, every
        eviction is false: the view stops believing in each such peer
        and hands it back from ``advance``, and nobody dies (a bare view
        has no departure door; the churn engine's is tested in
        ``tests/test_steady_churn.py::TestFalseEvictions``)."""
        ring = fresh_ring(16)
        config = DetectorConfig(loss=0.6, failure_threshold=1, quorum=1)
        view = ProbeView(ring, config, seed=2)
        handed: list[int] = []
        for epoch in range(1, 6):
            handed += view.advance(epoch)
        m = ring.state.obs.table("membership")
        assert (m["evictions"] == m["lagged"] + m["false_evictions"] + m["moot"]).all()
        assert m["false_evictions"].sum() > 0
        assert m["false_evictions"].sum() == len(handed) == 16 - view.live_count
        assert view.false_evictions == len(handed) == len(set(handed))
        assert sorted(handed) == sorted(set(ring.node_ids()) - set(view.live_ids().tolist()))
        assert ring.live_count == 16
        assert m["lagged"].sum() == 0 and ring.state.obs.table("detection") == {}


class TestStoreRows:
    def test_a_phantom_replica_is_not_placed(self):
        """Targets a probe view still believes live but that crashed
        count as phantoms, and only truth-live targets as placed."""
        ring = fresh_ring(24)
        view = ProbeView(ring, DetectorConfig(), seed=3)
        store = ReplicatedStore(ring, k=3)
        store.seed_items(split(2, "seed").random(16), view)
        view.crash([int(store.holders[0, 0]), int(store.holders[4, 0])])
        row = store.rereplicate(view, epoch=1)
        assert row.phantom_replicas > 0
        assert row.placed == int((store.holders >= 0).sum())
        assert row.placed + row.phantom_replicas == 3 * store.item_count
        t = ring.state.obs.table("store")
        assert t["epoch"].tolist() == [0, 1]
        assert (t["histogram"].sum(axis=1) == t["items"]).all()
        assert (t["histogram"][:, :3].sum(axis=1) == t["under_k"]).all()

    def test_the_oracle_places_every_copy(self):
        ring = fresh_ring(12)
        view = OracleView(ring)
        store = ReplicatedStore(ring, k=2)
        store.seed_items([0.1, 0.5], view)
        view.crash([int(store.holders[1, 0])])
        row = store.rereplicate(view, epoch=2)
        assert (row.placed, row.phantom_replicas, row.under_k) == (4, 0, 0)


LOOP = dict(
    scale=0.01,
    seed=5,
    substrate="oscar",
    size=4000,
    epochs=4,
    half_life=4.0,
    sessions="exponential",
    keys="gnutella",
    degrees="constant",
    repair_every=2,
    repair="refill",
    n_queries=32,
)


class TestChurnLoopTable:
    def test_the_table_is_the_registry_joined_per_epoch_plus_wall_columns(self):
        run = churn_loop(**LOOP, detector=DetectorConfig(loss=0.05))
        churn, membership = run.obs.table("churn"), run.obs.table("membership")
        assert set(run.table) == {*churn, *membership, "seconds"}
        for name, column in {**churn, **membership}.items():
            assert np.array_equal(run.table[name], column), name
        assert run.table["epoch"].tolist() == [1, 2, 3, 4]
        assert run.table["seconds"].size == 4 and (run.table["seconds"] >= 0).all()

    def test_serving_adds_a_serve_row_per_epoch_and_wall_qps_outside_the_registry(self):
        from repro.workloads import ServingWorkload

        run = churn_loop(**LOOP, serving=ServingWorkload(), items=64)
        serve = run.obs.table("serve")
        assert serve["epoch"].tolist() == [1, 2, 3, 4]
        assert "qps_cold" in run.table and "qps_cold" not in serve
        assert run.obs.table("store")["epoch"].tolist() == [0, 2, 4]  # seeding, then each repair

    def test_one_seed_one_registry(self):
        a, b = (churn_loop(**LOOP, detector=DetectorConfig(loss=0.05)).obs for __ in range(2))
        for layer in ("churn", "membership", "detection"):
            ta, tb = a.table(layer), b.table(layer)
            assert ta.keys() == tb.keys()
            for name in ta:
                assert ta[name].tobytes() == tb[name].tobytes(), (layer, name)
