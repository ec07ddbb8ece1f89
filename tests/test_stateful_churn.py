"""Whole-stack stateful testing: churn, repair and serving under one machine.

:class:`ChurnProgram` drives an overlay (Oscar, Mercury or Chord), a
:class:`~repro.engine.churn.SteadyStateChurnEngine` (either repair
policy), a :class:`~repro.index.replication.ReplicatedStore` and a
:class:`~repro.engine.serve.ServeEngine` through nine verbs — an epoch,
an external ``leave_batch`` wave, a ``leave_batch`` wave it must refuse,
a direct repair (the policy's substrate verb, with no compaction first),
a serve batch with unknown sources and duplicate keys, a route batch on
the truth snapshot, a join into a taken ``2**-64`` key cell, Figure 2's
crash wave and its undoing, a re-replication pass between epochs — on
the vectorized kernels and, in lock-step, on the pure-Python twins (the
construction engine's ``vectorized=False`` path and the reference
classes of ``tests/twins/``; Mercury and Chord build through one scalar
path, so for them the construction twin check is a determinism check),
and checks after every step:

* ``Ring.verify`` and the ring pointers;
* one peer per key cell: the ring's keys strictly increase, and every
  peer's ``state.key`` is ``from_unit`` of its ``state.pos``;
* a join into a taken cell — ``Substrate._splice`` (``Ring.insert``)
  or a ``Ring.insert_many`` batch holding it among free positions —
  raises ``DuplicateNodeError`` and leaves the state byte-identical;
* a refused ``leave_batch`` — one id no peer holds among live ones, or
  every live peer — raises ``UnknownNodeError`` or
  ``EmptyPopulationError`` on both twins and leaves each
  byte-identical;
* no self or duplicate link in any row, ``-1`` past ``out_count``;
* ``out_count <= cap_out`` and ``in_deg <= cap_in``;
* right after a repair, no live peer's row names a peer outside the
  live ring, and (except on Chord, which keeps no ``in_deg``) after an
  epoch's repair every live ``in_deg`` is the count of live in-links;
* the twin's state, epoch statistics and serve outcomes are equal —
  with every ``greedy_walk`` of two or more queries over a table built
  whole split across the walk's worker thread (``walk.SPLIT_AT`` is 2
  for the whole module), so every serve batch holds the split walk to
  ``greedy_walk_reference``, and every route batch's rows equal the
  split walk over the truth table built whole;
* cache-on ≡ cache-off: after every serve batch, a cache-less engine on
  the same system serves the same owners and verdicts on every row
  both served, and the same outcome on every row the cache missed;
* the cache against its reference twin: after every serve batch, the
  cached engine's ``ResultCache`` and the ``OrderedDict`` LRU model
  (``tests/conftest.py::LruModel``), driven in lock-step across
  versions, agree on the hit mask, the hit payloads and ``len``, and
  ``hits + misses`` counts every request that reached the cache — with
  ``cache_size=32``, so evictions leave tombstones in probe chains;
* one fault-free routing rule: after every route batch,
  ``BatchQueryEngine.route`` raises ``RoutingError`` exactly on the
  rows ``route_batch`` gives a non-``OK`` code (with that code's
  message), and otherwise answers the row's hops and responsible peer —
  with a recorded path too, whose length is ``hops + 1`` and whose last
  peer is the one delivered to; with no dead peer in the ring, every
  row is ``OK``, ``Substrate.route`` answers as
  ``BatchQueryEngine.route`` does, and the fault-aware ``route_faulty``
  answers it too, at the same hops, without a wasted probe;
* the ring's dead peers choose the router: with a dead peer in the
  ring (at a route batch or in a crash wave), ``Substrate.route`` is
  ``route_faulty`` and ``BatchQueryEngine.measure``, on either path, is
  the fold of ``route_faulty`` over the queries it draws;
* the crash wave as the grow-and-measure loop runs it: after
  ``OracleView.crash_fraction(f)`` and ``repair_ring()`` the victims
  are ``min(floor(f * live), live - 1)`` distinct truth-live peers, an
  unflagged route delivers to the key's live successor at ``cost ==
  hops + wasted_probes + backtracks``, and after ``revive`` and
  ``repair_ring()`` every ``SubstrateState`` column and the ring's
  order are byte-identical to before the wave (no residue);
* every truth and serve capture's ``WalkTable`` passes
  ``tests/conftest.py::assert_walk_table``, and a capture made in blocks
  of three rows equals the whole-matrix reference capture
  (``reference_truth_table`` / ``reference_serve_table``);
* after every epoch the churn engine's probe engine holds no truth
  snapshot (the probe drops it once measured);
* the hashed catalog index: the store's ``lookup_rows`` reads each
  catalog key's own row and ``-1`` for each one-ulp neighbour of one;
* conservation: an epoch's ``live`` is the live count it started from
  (after any wave) plus its arrivals minus its departures, and equals
  the ring's; the catalog holds the seeded items minus those lost;
* under gentle churn (``repair_every=1``, half-life 64, no external
  waves, and at probe loss 0.8 no false evictions) no item is ever lost;
* under a probe view (``view="probe"``: a ``ProbeView`` with probe loss
  ``loss``, the reference twin's on the scalar detector bank and the
  per-report scalar gossip twin of ``tests/twins/``) the twins agree on evictions, false
  evictions, detection lags, the believed-live ids and the gossip
  plane's reports in flight and informed counts (the vectorized bank's
  ``probe_*`` columns are not compared: the scalar bank keeps detector
  objects instead); a false eviction leaves through the engine's
  departure door in its own epoch (all but the longest-lived peer when
  it would leave none), so an epoch's conservation counts it as a death;
  and after every step no truth-live peer is believed-dead, the reports
  in flight are in strictly ascending target order and none of them has
  completed, and every report in flight counts at least its origin and
  has neither reached the staleness bound nor covered the population its
  last push round ran over. The other checks read the truth-live ring,
  which the believed-live set contains;
* the registry (``state.obs``) reconciles with ground truth: both twins'
  tables are byte-equal, an epoch's ``churn`` row carries the ring's
  live count and the view's believed-live count, every ``membership``
  row splits its evictions into ``lagged + false_evictions + moot`` and
  its epoch holds one ``detection`` row per lagged eviction, every
  ``store`` row's histogram sums to its ``items`` and its first ``k``
  bins to its ``under_k``, every acquisition of an epoch places exactly
  the links its peers' ``out_count`` gains, draws at least once per
  link placed, commit lost and empty partition, and at least
  ``link_retries + 1`` unplaced draws per slot given up, and a repair
  row's ``repair_links_placed`` is the repair's gain; a serve batch grows
  the cache's ``hits + misses`` by its size and ``hits`` by its hits;
* after every repair epoch, each holder of the store is believed-live,
  the pass's ``placed`` counts every holder, and the empty holder cells
  are the pass's phantoms plus the cells a believed-live ring shorter
  than ``k`` leaves empty;
* after every re-replication pass between epochs, on both twins, the
  catalog is a brute-force recomputation from the state before it: the
  items with no truth-live holder are gone and counted lost, and every
  other item's holders are the first ``k`` believed-live successors of
  its exact key, a truth-dead one ``-1``.

:class:`ChurnMachine` lets hypothesis choose the programs; every program
it once shrank to a failure is committed under ``tests/data/programs/``
and replayed by :func:`test_committed_program` without hypothesis.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from conftest import (
    LruModel,
    assert_border_ids,
    assert_built_rows,
    assert_same_table,
    assert_walk_table,
    reference_serve_table,
    reference_truth_table,
    row_block,
)
from repro import Substrate
from repro.churn import ExponentialSessions
from repro.core.soa import SubstrateState
from repro.degree import ConstantDegrees
from repro.engine import (
    BatchQueryEngine,
    Outcome,
    ServeEngine,
    ServeSnapshot,
    SteadyStateChurnEngine,
    TopologySnapshot,
)
from repro.engine.churn import REPAIR_POLICIES
from repro.engine.construct import BatchConstructionEngine, LinkAcquisitionStats
from repro.engine.walk import WalkCode, greedy_walk
from repro.errors import (
    DuplicateNodeError,
    EmptyPopulationError,
    RoutingError,
    UnknownNodeError,
)
from repro.experiments import make_overlay
from repro.index import ReplicatedStore
from repro.membership import DetectorConfig, OracleView, ProbeView
from repro.ring import keyspace, verify
from repro.rng import split
from repro.routing import route_faulty, summarize_routes
from repro.workloads import GnutellaLikeDistribution, QueryWorkload
from twins import ReferenceChurnEngine, ReferenceQueryEngine, ReferenceStore, ScalarProbeView

pytestmark = pytest.mark.usefixtures("split_walk")

PROGRAMS = Path(__file__).parent / "data" / "programs"
REPLICAS = 3
#: Rows per block the machine's captures run in: a program's overlay of
#: 12-60 peers is cut into several blocks.
CAPTURE_BLOCK = 3
#: A peer in key cell 0, below ``2**-11`` where floats are finer than the
#: ``2**-64`` grid, so other floats fall in its cell; joined when a
#: program asks for ``low_peer``.
LOW_PEER = 2.0**-70
#: Queries a ``measure`` on a ring with dead peers draws.
MEASURED = 8
#: What ``BatchQueryEngine.route`` says where ``route_batch`` reports a code.
WALK_ERRORS = {
    WalkCode.BUDGET: "exceeded budget",
    WalkCode.NO_SUCCESSOR: "no ring successor pointer",
    WalkCode.STUCK: "no progressing neighbor",
}


class ChurnProgram:
    """One composed system and its twin, advanced verb by verb.

    ``params``: ``substrate`` (``oscar`` when absent), ``n`` (initial
    peers), ``seed``, ``cap`` (link caps), ``repair`` (policy),
    ``gentle`` (half-life 64 and a repair every epoch, else
    ``half_life`` / ``repair_every`` as given), ``low_peer`` (when true,
    one more peer joined at :data:`LOW_PEER` after the build; Chord's is
    spliced, its positions being hashes), ``view`` (``oracle`` when
    absent; ``probe``: a :class:`ProbeView` with probe loss ``loss``,
    the reference twin's a :class:`~twins.ScalarProbeView`).
    """

    def __init__(self, params: dict) -> None:
        self.params = params
        self.substrate = params.get("substrate", "oscar")
        self.probe = params.get("view", "oracle") == "probe"
        self.gentle = bool(params["gentle"])
        self.waves = 0
        self.repairs = 0
        self.crashes = 0
        self.twins = [self._build(vectorized) for vectorized in (True, False)]
        serve = self.twins[0]["serve"]
        self.uncached = ServeEngine(serve.substrate, serve.store, serve.membership, cache_size=0)
        self.model = LruModel(serve.result_cache.capacity)
        self.requests = 0
        self.seeded = self.twins[0]["store"].item_count
        self.spread_over = 0  # peers the last push round ran over (check_gossip_bound)
        self.check()

    def _build(self, vectorized: bool) -> dict:
        p = self.params
        keys, degrees = GnutellaLikeDistribution(), ConstantDegrees(p["cap"])
        overlay = make_overlay(self.substrate, seed=p["seed"])
        overlay.grow_batch(p["n"], keys, degrees, vectorized=vectorized)
        overlay.rewire_batch(vectorized=vectorized)
        if p.get("low_peer") and self.substrate == "chord":
            overlay._splice(LOW_PEER)
        elif p.get("low_peer"):
            overlay.join(LOW_PEER, p["cap"], p["cap"])
        if self.probe:
            config = DetectorConfig(loss=p["loss"])
            probe_view = ProbeView if vectorized else ScalarProbeView
            view = probe_view(overlay.ring, config, seed=p["seed"])
        else:
            view = OracleView(overlay.ring)
        store = (ReplicatedStore if vectorized else ReferenceStore)(overlay.ring, k=REPLICAS)
        store.seed_items(split(p["seed"], "program-items").random(p["n"]), view)
        sessions = ExponentialSessions(64.0 if self.gentle else p["half_life"])
        engine = (SteadyStateChurnEngine if vectorized else ReferenceChurnEngine)(
            overlay,
            keys,
            degrees,
            sessions,
            arrival_rate=p["n"] / sessions.mean,
            repair_every=1 if self.gentle else p["repair_every"],
            n_probes=4,
            seed=p["seed"],
            membership=view,
            replication=store,
            repair=p["repair"],
        )
        serve = ServeEngine(overlay, store, view, cache_size=32, vectorized=vectorized)
        return {
            "overlay": overlay,
            "store": store,
            "engine": engine,
            "serve": serve,
            "view": view,
            "vectorized": vectorized,
        }

    @property
    def overlay(self) -> Substrate:
        return self.twins[0]["overlay"]

    # -- verbs ---------------------------------------------------------

    def run_epoch(self) -> None:
        live_before = self.overlay.ring.live_count
        rows = []
        for twin in self.twins:
            with acquisitions() as placed:
                rows.append(twin["engine"].run_epoch())
            self.check_acquisitions(twin["overlay"], rows[-1], placed)
        assert rows[0] == rows[1]
        for twin in self.twins:  # the probe's truth snapshot is not held
            assert twin["engine"]._query_engine.cached_snapshot is None
        epoch = rows[0]
        # A false eviction (probe loss) leaves like an expired session;
        # an eviction wave that would leave no peer reprieves one.
        membership = self.overlay.state.obs.rows("membership")[-1] if self.probe else None
        live_after = live_before + epoch.arrivals - epoch.departures
        if membership is not None:
            live_after -= min(membership.false_evictions, live_after - 1)
        assert epoch.live == live_after == self.overlay.ring.live_count
        assert epoch.believed == self.twins[0]["view"].live_count
        if membership is not None:
            assert membership.epoch == epoch.epoch
            self.spread_over = self.twins[0]["view"].live_count + membership.evictions
        if epoch.link_repair:
            self.check_repaired()
            self.check_holders(epoch.epoch)
            if self.substrate != "chord":
                self.check_in_degrees()

    def repair(self) -> None:
        """Run the repair policy's substrate verb straight away: no
        compaction first, so dead peers (a wave's) are still in the
        ring and a repair must route around them."""
        if self.overlay.ring.live_count < 2:
            return
        self.repairs += 1
        rng_key = (self.params["seed"], "program-repair", self.repairs)
        for twin in self.twins:
            verb = getattr(twin["overlay"], REPAIR_POLICIES[self.params["repair"]])
            verb(split(*rng_key), vectorized=twin["vectorized"])
        self.check_repaired()

    def rereplicate(self) -> None:
        """Run the store's re-replication pass between epochs, at the
        epoch the engine stands at, and hold each twin's catalog to
        :meth:`brute_pass` of the state before it."""
        for twin in self.twins:
            store, view = twin["store"], twin["view"]
            ids, holders, lost = self.brute_pass(twin["overlay"], store, view)
            lost_before = store.items_lost_total
            row = store.rereplicate(view, twin["engine"].epoch)
            assert row.items_lost == lost == store.items_lost_total - lost_before
            assert store.item_ids.tolist() == ids, "the pass kept or lost the wrong items"
            assert store.holders.tolist() == holders, "holders that are not the successors"

    @staticmethod
    def brute_pass(
        overlay: Substrate, store: ReplicatedStore, view
    ) -> tuple[list[int], list[list[int]], int]:
        """What a pass must leave, one item at a time: the ids of the
        items with a truth-live holder, each one's holders — the first
        ``k`` believed-live successors of its exact key (``-1`` past a
        believed ring shorter than ``k``), a truth-dead one ``-1`` — and
        how many items are lost."""
        ring = overlay.ring

        def live(node_id: int) -> bool:
            return node_id >= 0 and node_id in ring and ring.is_alive(node_id)

        believed = sorted((ring.key_of(i), i) for i in view.live_ids().tolist())
        ids, rows, lost = [], [], 0
        for item, key, held in zip(
            store.item_ids.tolist(), store.item_keys.tolist(), store.holders.tolist()
        ):
            if not any(live(h) for h in held):
                lost += 1
                continue
            exact = keyspace.from_unit(key)
            start = next((r for r, (k, __) in enumerate(believed) if k >= exact), 0)
            width = min(store.k, len(believed))
            row = [believed[(start + c) % len(believed)][1] for c in range(width)]
            row += [-1] * (store.k - width)
            ids.append(item)
            rows.append([t if live(t) else -1 for t in row])
        return ids, rows, lost

    def leave_wave(self, picks: list[int]) -> None:
        """``leave_batch`` the live peers at ring ranks ``picks`` (mod
        the live count), keeping at least two alive."""
        live = self.overlay.ring.ids_array(live_only=True)
        ids = sorted({int(live[i % live.size]) for i in picks})[: max(0, live.size - 2)]
        for twin in self.twins:
            twin["overlay"].leave_batch(ids)
        self.waves += 1

    def leave_refused(self, picks: list[int], unknown: bool) -> None:
        """A ``leave_batch`` wave that must be refused before anyone is
        marked dead: the live peers at ranks ``picks`` with one id no
        peer holds among them (``unknown``), or every live peer plus the
        peers, dead ones too, at ring ranks ``picks``."""
        ring = self.overlay.ring
        live = ring.ids_array(live_only=True).tolist()
        if unknown:
            ids = [live[i % len(live)] for i in picks]
            ids.insert(picks[0] % (len(ids) + 1), int(self.overlay._next_id) + 7)
        else:
            every = ring.ids_array().tolist()
            ids = live + [every[i % len(every)] for i in picks]
        for twin in self.twins:
            before = self.fingerprint(twin["overlay"])
            with pytest.raises(UnknownNodeError if unknown else EmptyPopulationError):
                twin["overlay"].leave_batch(ids)
            assert self.fingerprint(twin["overlay"]) == before

    def serve(self, picks: list[int], unknown: int, repeat: int) -> None:
        """One batch: sources at live ranks ``picks`` plus ``unknown``
        ids no peer holds, keys drawn from the catalog and, from the same
        sources again, keys one ulp below or above them, with every key
        asked ``repeat`` times."""
        live = self.overlay.ring.ids_array(live_only=True)
        top = int(self.overlay._next_id)
        asked = [int(live[i % live.size]) for i in picks]
        sources = asked + asked + [top + 7 * j for j in range(unknown)]
        catalog = self.twins[0]["store"].item_keys
        if catalog.size:  # the catalog empties when every replica of every item died
            keys = catalog[np.asarray(picks, dtype=np.int64) % catalog.size]
        else:
            keys = np.full(len(picks), 0.5)
        near = np.nextafter(keys, np.arange(keys.size) % 2.0)
        keys = np.concatenate([keys, np.minimum(near, np.nextafter(1.0, 0.0))])
        keys = np.concatenate([np.repeat(keys, repeat), np.full(unknown * repeat, 0.25)])
        sources = np.repeat(np.asarray(sources, dtype=np.int64), repeat)
        version = self.twins[0]["serve"].serve_version
        cache = self.twins[0]["serve"].result_cache
        hits, misses = cache.hits, cache.misses
        results = [twin["serve"].serve_batch(sources, keys) for twin in self.twins]
        assert cache.hits + cache.misses == hits + misses + keys.size
        assert cache.hits == hits + int(results[0].hit.sum())
        for name in ("owners", "outcome", "hit", "found", "success", "stale", "hops"):
            assert np.array_equal(getattr(results[0], name), getattr(results[1], name)), name
        if unknown:
            assert (results[0].outcome[-unknown * repeat :] == Outcome.BAD_SOURCE).all()
        self.check_cache_transparent(results[0], self.uncached.serve_batch(sources, keys))
        self.check_cache_model(results[0], keys, version)

    def route(self, queries: list) -> None:
        """Route ``(source, kind, u)`` queries on the truth snapshot
        through ``route_batch`` and one at a time through
        ``BatchQueryEngine.route``, then through ``Substrate.route``. The
        source is the live peer at rank ``source`` (mod the live count);
        the key is ``u`` itself (``free``), the exact position of the peer
        at ring rank ``u * len(ring)``, dead ones too (``peer``), or the
        highest float in that peer's ``2**-64`` key cell (``cell``)."""
        overlay = self.overlay
        live = overlay.ring.ids_array(live_only=True)
        sources = np.asarray([int(live[source % live.size]) for source, __, __ in queries])
        keys = np.asarray([self._route_key(kind, u) for __, kind, u in queries])
        batches = [
            BatchQueryEngine(twin["overlay"]).route_batch(sources, keys) for twin in self.twins
        ]
        for name in ("responsible", "hops", "code"):
            assert np.array_equal(getattr(batches[0], name), getattr(batches[1], name)), name
        batch = batches[0]
        snap = BatchQueryEngine(overlay).snapshot()
        whole, targets = snap.table.whole(), keyspace.from_units(keys)
        split = greedy_walk(
            whole,
            snap.row_of[sources],
            snap.responsible_rows(targets),
            whole.bounds(targets),
            overlay.routing.budget,
        )
        assert np.array_equal(split[0], batch.hops) and np.array_equal(split[1], batch.code)
        dead = overlay.ring.has_dead
        if dead:
            self.check_dead_routing(overlay, sources.tolist(), keys.tolist())
        else:  # a live, verified ring
            assert (batch.code == WalkCode.OK).all(), batch.code
            for source, key, hops, owner in zip(
                sources.tolist(), keys.tolist(), batch.hops, batch.responsible
            ):
                faulty = route_faulty(overlay.ring, overlay.pointers, overlay, source, key)
                assert (faulty.hops, faulty.responsible, faulty.delivered_to, faulty.wasted) == (
                    hops,
                    owner,
                    owner,
                    0,
                )
        engine = BatchQueryEngine(overlay)
        for source, key, hops, owner, code in zip(
            sources.tolist(), keys.tolist(), batch.hops, batch.responsible, batch.code
        ):
            for record_path in (False, True):
                if code != WalkCode.OK:
                    with pytest.raises(RoutingError, match=WALK_ERRORS[WalkCode(code)]):
                        engine.route(source, key, record_path=record_path)
                    continue
                result = engine.route(source, key, record_path=record_path)
                assert (result.hops, result.responsible, result.delivered_to) == (
                    hops,
                    owner,
                    owner,
                )
                if record_path:
                    assert len(result.path) == hops + 1 and result.path[-1] == owner
                if not dead:
                    assert overlay.route(source, key, record_path=record_path) == result

    def crash_revive(self, fraction: float) -> None:
        """Crash ``fraction`` of the truth-live peers with
        ``OracleView.crash_fraction`` on a stream labelled by the
        program, ``repair_ring()``, route four keys with no flag (the
        dead victims choose the fault-aware router), then ``revive`` the
        victims and ``repair_ring()`` again: the grow-and-measure loop's
        wave, which must leave no residue."""
        self.crashes += 1
        stream = (self.params["seed"], "program-crash", self.crashes)
        for twin in self.twins:
            overlay = twin["overlay"]
            ring, view = overlay.ring, OracleView(overlay.ring)
            before = self.fingerprint(overlay)
            live = ring.ids_array(live_only=True).tolist()
            victims = view.crash_fraction(split(*stream), fraction)
            expected = min(int(fraction * len(live)), len(live) - 1)
            assert len(set(victims)) == len(victims) == expected
            assert set(victims) <= set(live), "a victim that was not truth-live"
            overlay.repair_ring()
            survivors = ring.ids_array(live_only=True)
            rng = split(*stream, "routes")
            sources, keys = rng.choice(survivors, 4).tolist(), rng.random(4).tolist()
            for source, key in zip(sources, keys):
                result = overlay.route(source, key)
                assert result.success and result.delivered_to == ring.successor_of_key(key)
                assert result.cost == result.hops + result.wasted_probes + result.backtracks
            if ring.has_dead:
                self.check_dead_routing(overlay, sources, keys)
            assert view.revive(victims) == victims
            overlay.repair_ring()
            assert self.fingerprint(overlay)[1:] == before[1:], "the wave left a residue"

    def join_taken(self, u: float, kind: str, at: int) -> None:
        """Join into the key cell of the peer at ring rank
        ``u * len(ring)`` (dead ones too), at the key ``_route_key``
        names for ``kind``: through ``Substrate._splice``, then as item
        ``at`` (mod its length) of a ``Ring.insert_many`` batch of free
        positions. Both must raise ``DuplicateNodeError`` and change
        nothing."""
        overlay = self.overlay
        ring = overlay.ring
        position = self._route_key(kind, u)
        before = self.fingerprint(overlay)
        with pytest.raises(DuplicateNodeError):
            overlay._splice(position)
        assert self.fingerprint(overlay) == before
        taken = set(ring.keys_array().tolist())
        free = [x for x in (0.1, 0.3, 0.7, 0.9) if keyspace.from_unit(x) not in taken]
        free.insert(at % (len(free) + 1), position)
        ids = np.arange(overlay._next_id, overlay._next_id + len(free))
        with pytest.raises(DuplicateNodeError):
            ring.insert_many(ids, np.asarray(free))
        assert self.fingerprint(overlay) == before

    def check_dead_routing(self, overlay: Substrate, sources: list, keys: list) -> None:
        """With a dead peer in the ring, ``Substrate.route`` is
        ``route_faulty``, and ``measure`` on either path is the fold of
        ``route_faulty`` over the queries it draws."""
        ring, pointers, routing = overlay.ring, overlay.pointers, overlay.routing

        def faulty(source: int, key: float, record_path: bool = False):
            return route_faulty(ring, pointers, overlay, source, key, routing, record_path)

        for source, key in zip(sources, keys):
            for record_path in (False, True):
                assert overlay.route(source, key, record_path) == faulty(source, key, record_path)
        stream = (self.params["seed"], "program-measure")
        drawn = QueryWorkload().generate(ring, split(*stream), MEASURED)
        folded = summarize_routes(faulty(q.source, q.target_key) for q in drawn)
        for engine in (BatchQueryEngine(overlay), ReferenceQueryEngine(overlay)):
            assert engine.measure(split(*stream), n_queries=MEASURED) == folded

    @staticmethod
    def fingerprint(overlay: Substrate) -> tuple:
        """The ring's version, then every byte of the substrate state
        and the ring's order."""
        state, ring = overlay.state, overlay.ring
        columns = tuple(getattr(state, name).tobytes() for name in SubstrateState.COLUMNS)
        order = (ring.slots_array().tobytes(), ring.keys_array().tobytes())
        return ring.version, columns, order, overlay._next_id, state.n_slots, tuple(state._free)

    def _route_key(self, kind: str, u: float) -> float:
        if kind == "free":
            return u
        ring = self.overlay.ring
        peer = int(ring.ids_array()[int(u * len(ring))])
        position = ring.position(peer)
        if kind == "cell":
            top = float(np.nextafter(keyspace.to_unit(ring.key_of(peer) + 1), 0.0))
            if keyspace.from_unit(top) == ring.key_of(peer):
                return top
        return position

    # -- invariants ----------------------------------------------------

    def check(self) -> None:
        if self.probe:
            self.check_gossip_bound()
            self.check_belief()
        for twin in self.twins:
            overlay = twin["overlay"]
            overlay.ring.verify()
            verify(overlay.ring, overlay.pointers)
            self.check_keys(overlay)
            self.check_links(overlay, capped=self.substrate != "chord")
            self.check_border_ids(overlay)
        self.check_twins()
        self.check_walk_tables()
        for twin in self.twins:
            store = twin["store"]
            assert store.item_count == self.seeded - store.items_lost_total
        self.check_catalog_index(self.twins[0]["store"])
        # At probe loss 0.8 a false eviction is a death gentle churn does
        # not pace, as a wave is: it can take every replica holder at once.
        lossiest = self.probe and self.params["loss"] >= 0.8
        false_evictions = self.overlay.state.obs.total("membership", "false_evictions")
        if self.gentle and not self.waves and not (lossiest and false_evictions):
            assert self.twins[0]["store"].items_lost_total == 0
        self.check_registry()

    def check_registry(self) -> None:
        """The counters add up: per ``membership`` row its evictions'
        three outcomes, and one ``detection`` row per lagged eviction;
        per ``store`` row its histogram, its ``items`` and ``under_k``."""
        obs = self.overlay.state.obs
        m = obs.table("membership")
        if m:
            assert (m["evictions"] == m["lagged"] + m["false_evictions"] + m["moot"]).all()
            lags = obs.table("detection").get("epoch", np.zeros(0, dtype=np.int64))
            assert np.bincount(lags, minlength=m["epoch"].max() + 1)[m["epoch"]].tolist() == (
                m["lagged"].tolist()
            )
        passes = obs.table("store")
        histogram = passes["histogram"]
        assert histogram.shape == (passes["epoch"].size, REPLICAS + 1)
        assert (histogram.sum(axis=1) == passes["items"]).all()
        assert (histogram[:, :REPLICAS].sum(axis=1) == passes["under_k"]).all()

    def check_acquisitions(self, overlay: Substrate, row, placed: list) -> None:
        """Every acquisition placed what its peers' ``out_count`` gained,
        and its counters reconcile: a draw places a link, loses a
        commit race, draws an empty partition or fails on its
        candidates, and each slot given up ends a streak of
        ``link_retries + 1`` failed draws. A repair row's
        ``repair_links_placed`` is the repair's gain — Oscar's last
        acquisition of the epoch, or Chord's and Mercury's rebuild of
        every live row."""
        for stats, gained, retries in placed:
            assert stats.links_placed == gained, stats
            assert stats.draws >= (
                stats.links_placed + stats.conflicts + stats.empty_partition_draws
            ), stats
            assert stats.draws - stats.links_placed >= stats.slots_given_up * (retries + 1), stats
        if not row.link_repair:
            assert row.repair_links_placed == 0
        elif overlay.ring.live_count < 2:  # a lone survivor only drops its links
            assert row.repair_links_placed == 0
        elif self.substrate == "oscar":
            assert row.repair_links_placed == placed[-1][1]
        else:
            live = overlay.ring.slots_array(live_only=True)
            assert row.repair_links_placed == int(overlay.state.out_count[live].sum())

    def check_holders(self, epoch: int) -> None:
        """After a repair epoch's pass: every holder is believed-live, and
        the empty holder cells are the pass's phantom replicas plus the
        cells a believed-live ring shorter than ``k`` leaves empty."""
        for twin in self.twins:
            store, view = twin["store"], twin["view"]
            row = twin["overlay"].state.obs.rows("store")[-1]
            assert row.epoch == epoch
            held = store.holders[store.holders >= 0]
            assert np.isin(held, view.live_ids()).all(), "a holder that is not believed-live"
            assert row.placed == held.size  # the pass re-placed every copy
            short = store.k - min(store.k, view.live_count)
            assert (store.holders < 0).sum() == row.phantom_replicas + store.item_count * short

    @staticmethod
    def check_catalog_index(store: ReplicatedStore) -> None:
        """The hashed catalog index holds the catalog as it stands: each
        key reads its own row, and each one-ulp neighbour of a key that
        is not itself a key reads ``-1``."""
        keys = store.item_keys
        assert store.lookup_rows(keys).tolist() == list(range(keys.size))
        near = np.nextafter(np.concatenate([keys, keys]), np.repeat([0.0, 1.0], keys.size))
        near = near[(near < 1.0) & ~np.isin(near, keys)]
        assert (store.lookup_rows(near) == -1).all()

    @staticmethod
    def check_border_ids(overlay: Substrate) -> None:
        """Each stored border id names the peer on its border while that
        peer holds a slot, and the ranks read through the ids are the
        searched ranks (``assert_border_ids``)."""
        assert_border_ids(overlay)

    @staticmethod
    def check_keys(overlay: Substrate) -> None:
        """One peer per key cell: keys strictly increase around the
        ring, and each is the exact key of its peer's position."""
        state, ring = overlay.state, overlay.ring
        keys = ring.keys_array().tolist()
        assert all(a < b for a, b in zip(keys, keys[1:])), "two peers in one key cell"
        slots = ring.slots_array().tolist()
        assert [int(state.key[s]) for s in slots] == [
            keyspace.from_unit(float(state.pos[s])) for s in slots
        ]

    @staticmethod
    def check_links(overlay: Substrate, capped: bool = True) -> None:
        state = overlay.state
        slots = overlay.ring.slots_array(live_only=False)
        links = state.out_links[slots]
        count = state.out_count[slots]
        padding = np.arange(links.shape[1])[None, :] >= count[:, None]
        assert (links[padding] == -1).all() and (links[~padding] >= 0).all()
        for slot, row in zip(slots, links):
            held = row[row >= 0].tolist()
            assert len(set(held)) == len(held), "duplicate link"
            assert int(state.node_id[slot]) not in held, "self link"
        live = overlay.ring.slots_array(live_only=True)
        if capped:  # Chord's fingers have no caps
            assert (state.out_count[live] <= state.cap_out[live]).all()
            assert (state.in_deg[live] <= state.cap_in[live]).all()

    def check_repaired(self) -> None:
        """No live peer's row names a peer outside the live ring."""
        for twin in self.twins:
            state, ring = twin["overlay"].state, twin["overlay"].ring
            links = state.out_links[ring.slots_array(live_only=True)]
            held = links[links >= 0]
            outside = held[~np.isin(held, ring.ids_array(live_only=True))]
            assert outside.size == 0, f"links to non-live peers {sorted(set(outside.tolist()))}"

    def check_in_degrees(self) -> None:
        for twin in self.twins:
            state, ring = twin["overlay"].state, twin["overlay"].ring
            live_ids = ring.ids_array(live_only=True)
            links = state.out_links[ring.slots_array(live_only=True)]
            targets = links[np.isin(links, live_ids)]
            recount = {int(i): 0 for i in live_ids}
            for target in targets.tolist():
                recount[target] += 1
            held = {int(i): int(state.in_deg[state.slot_of(int(i))]) for i in live_ids}
            assert held == recount

    @staticmethod
    def check_cache_transparent(cached, uncached) -> None:
        """A cache hit answers what the routed request answers (a hit
        never consults its source, so only rows both served compare)."""
        both = (cached.outcome == Outcome.SERVED) & (uncached.outcome == Outcome.SERVED)
        for name in ("owners", "found", "success", "stale"):
            a, b = getattr(cached, name), getattr(uncached, name)
            assert np.array_equal(a[both], b[both]), f"cache-on {name} differ from cache-off"
        missed = ~cached.hit
        assert np.array_equal(cached.outcome[missed], uncached.outcome[missed])

    def check_cache_model(self, result, keys: np.ndarray, version: tuple) -> None:
        """The cached engine's ``ResultCache`` in lock-step with the
        ``OrderedDict`` LRU: the model gets every key of the batch, then
        puts every miss the engine served, in request order. Hit masks,
        hit payloads and ``len`` agree, and ``hits + misses`` counts
        every request that reached the cache (all of them: the probe
        precedes the source check)."""
        model, cache = self.model, self.twins[0]["serve"].result_cache
        columns = (result.owners, result.found, result.success, result.stale)
        payloads = list(zip(*(column.tolist() for column in columns)))
        served = [model.get(key, version) for key in keys.tolist()]
        for key, payload, inserted in zip(
            keys.tolist(), payloads, ~result.hit & (result.outcome == Outcome.SERVED)
        ):
            if inserted:
                model.put(key, version, payload)
        assert result.hit.tolist() == [entry is not None for entry in served]
        assert [payloads[i] for i in np.flatnonzero(result.hit)] == [
            entry for entry in served if entry is not None
        ]
        assert len(cache) == len(model.live_keys(version))
        self.requests += keys.size
        assert cache.hits + cache.misses == self.requests == model.hits + model.misses

    def check_walk_tables(self) -> None:
        """The truth and serve captures hold the tables their candidate
        lists say they must (``assert_walk_table``), and, captured in
        blocks of :data:`CAPTURE_BLOCK` rows, the tables the whole-matrix
        reference captures build — the truth table built whole; the
        rows the overlay's own router has built so far, as they stand."""
        for twin in self.twins:
            overlay, serve = twin["overlay"], twin["serve"]
            with row_block(CAPTURE_BLOCK):
                truth = TopologySnapshot.capture(overlay)
                fresh = ServeSnapshot.capture(
                    overlay, serve.membership, serve.serve_version, serve.store
                )
            reference, whole = reference_truth_table(overlay), truth.table.whole()
            assert_same_table(whole, reference)
            assert_same_table(fresh.table, reference_serve_table(overlay, serve.membership))
            routed = overlay._queries.cached_snapshot if overlay._queries else None
            if routed is not None and routed.version == overlay.topology_version:
                assert_built_rows(routed.table, reference)
            assert_walk_table(
                whole,
                [
                    [_row(truth.row_of, nbr) for nbr in overlay.neighbors_of(node_id)]
                    for node_id in truth.all_ids.tolist()
                ],
            )
            belief, state = serve.serve_snapshot(), overlay.state
            assert_walk_table(
                belief.table,
                [
                    [_row(belief.row_of, link) for link in state.out_links[slot] if link >= 0]
                    for slot in serve.membership.live_slots().tolist()
                ],
            )

    def check_belief(self) -> None:
        """No truth-live peer is believed-dead: an evicted peer has left."""
        for twin in self.twins:
            state, slots = twin["overlay"].state, twin["overlay"].ring.slots_array()
            wrongly = slots[state.alive[slots] & state.believed_dead[slots]]
            assert wrongly.size == 0, f"believed-dead live peers {state.node_id[wrongly].tolist()}"

    def check_gossip_bound(self) -> None:
        """The reports in flight are in strictly ascending target order,
        none of them completed; none has reached the staleness bound or
        is already covered, and each has informed at least its origin. The
        last push round (the last epoch's) ran over at most
        :attr:`spread_over` peers — that epoch's believed-live peers at
        its end plus those it evicted — and the bound only grows with
        the population, so that population's bound caps the ages; a
        report counts at most that population and completes once it
        counts all of it, so it counts fewer. Only a push round starts
        or grows a report, so this holds after every step."""
        population = self.spread_over
        for twin in self.twins:
            gossip = twin["view"]._gossip
            in_flight = gossip.active
            assert all(a < b for a, b in zip(in_flight, in_flight[1:])), in_flight
            assert not gossip.completed.intersection(in_flight), in_flight
            bound = gossip.config.staleness_bound(max(population, 2))
            ages = gossip._age.values() if isinstance(gossip._age, dict) else gossip._age
            assert all(age < bound for age in ages)
            for target in gossip.active:
                count = gossip.informed_count(target)
                assert 1 <= count <= max(population, 1), (target, count, population)
                assert count < population, (target, count, population)  # else covered

    def check_twins(self) -> None:
        states = [twin["overlay"].state for twin in self.twins]
        for name, column in SubstrateState.COLUMNS.items():
            if self.probe and name.startswith("probe_"):
                continue  # the vectorized bank's; the scalar one keeps detector objects
            a, b = (getattr(state, name) for state in states)
            if column.matrix:
                width = max(_used_width(a, column.fill), _used_width(b, column.fill))
                a, b = a[:, :width], b[:, :width]
            assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), name
        stores = [twin["store"] for twin in self.twins]
        assert np.array_equal(stores[0].holders, stores[1].holders)
        for layer in ("churn", "membership", "detection", "store"):
            a, b = (state.obs.table(layer) for state in states)
            assert a.keys() == b.keys(), layer
            for name, column in a.items():
                assert column.dtype == b[name].dtype, (layer, name)
                assert column.tobytes() == b[name].tobytes(), (layer, name)
        if self.probe:
            views = [twin["view"] for twin in self.twins]
            assert np.array_equal(views[0].live_ids(), views[1].live_ids())
            matrix, reference = (view._gossip for view in views)
            assert matrix.active == reference.active
            for target in reference.active:
                assert matrix.informed_count(target) == reference.informed_count(target)


@contextmanager
def acquisitions() -> Iterator[list[tuple[LinkAcquisitionStats, int, int]]]:
    """``(stats, out_count gained, link_retries)`` of every
    ``BatchConstructionEngine`` acquisition run while open, the gain
    summed over the acquiring view's peers."""
    placed: list[tuple[LinkAcquisitionStats, int, int]] = []
    acquire = BatchConstructionEngine._acquire

    def counted(engine, rng, view, *args):
        before = int(view.state.out_count[view.slots].sum())
        stats = acquire(engine, rng, view, *args)
        gained = int(view.state.out_count[view.slots].sum()) - before
        placed.append((stats, gained, engine.overlay.config.link_retries))
        return stats

    BatchConstructionEngine._acquire = counted  # type: ignore[method-assign]
    try:
        yield placed
    finally:
        BatchConstructionEngine._acquire = acquire  # type: ignore[method-assign]


def _row(row_of: np.ndarray, node_id: int) -> int:
    """``row_of[node_id]``, ``-1`` for an id past the table (compacted)."""
    return int(row_of[node_id]) if node_id < row_of.size else -1


def _used_width(matrix: np.ndarray, fill: object) -> int:
    """Columns up to the last one any row holds a non-``fill`` value in
    (the two twins grow their padded tables to different widths)."""
    held = ~np.isnan(matrix) if matrix.dtype.kind == "f" and np.isnan(fill) else matrix != fill
    used = np.flatnonzero(held.any(axis=0))
    return int(used[-1]) + 1 if used.size else 0


def replay(program: dict) -> ChurnProgram:
    """Run a committed program step by step (invariants after each)."""
    system = ChurnProgram(program["params"])
    for step in program["steps"]:
        verb = step["verb"]
        if verb == "epoch":
            system.run_epoch()
        elif verb == "wave":
            system.leave_wave(step["picks"])
        elif verb == "leave_refused":
            system.leave_refused(step["picks"], step["unknown"])
        elif verb == "repair":
            system.repair()
        elif verb == "route":
            system.route(step["queries"])
        elif verb == "join_taken":
            system.join_taken(step["u"], step["kind"], step["at"])
        elif verb == "crash_revive":
            system.crash_revive(step["fraction"])
        elif verb == "rereplicate":
            system.rereplicate()
        else:
            system.serve(step["picks"], step["unknown"], step["repeat"])
        system.check()
    return system


class ChurnMachine(RuleBasedStateMachine):
    """Hypothesis over :class:`ChurnProgram`'s verbs."""

    system: ChurnProgram

    @initialize(
        substrate=st.sampled_from(["chord", "mercury", "oscar"]),
        n=st.integers(min_value=12, max_value=48),
        view=st.sampled_from(["oracle", "probe"]),
        loss=st.sampled_from([0.0, 0.05, 0.3, 0.8]),
        seed=st.integers(min_value=0, max_value=2**16),
        cap=st.integers(min_value=2, max_value=6),
        repair=st.sampled_from(["refill", "full"]),
        gentle=st.booleans(),
        half_life=st.sampled_from([1.0, 4.0, 16.0]),
        repair_every=st.integers(min_value=1, max_value=3),
        low_peer=st.booleans(),
    )
    def build(self, **params) -> None:
        self.system = ChurnProgram(params)

    @rule()
    def epoch(self) -> None:
        self.system.run_epoch()

    @precondition(lambda self: not self.system.gentle)
    @rule(picks=st.lists(st.integers(0, 1000), min_size=1, max_size=6))
    def wave(self, picks) -> None:
        self.system.leave_wave(picks)

    @rule(picks=st.lists(st.integers(0, 1000), min_size=1, max_size=6), unknown=st.booleans())
    def leave_refused(self, picks, unknown) -> None:
        self.system.leave_refused(picks, unknown)

    @rule()
    def repair(self) -> None:
        self.system.repair()

    @rule()
    def rereplicate(self) -> None:
        self.system.rereplicate()

    @rule(
        picks=st.lists(st.integers(0, 1000), min_size=1, max_size=8),
        unknown=st.integers(0, 2),
        repeat=st.integers(1, 3),
    )
    def serve(self, picks, unknown, repeat) -> None:
        self.system.serve(picks, unknown, repeat)

    @rule(
        queries=st.lists(
            st.tuples(
                st.integers(0, 1000),
                st.sampled_from(["free", "peer", "cell"]),
                st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def route(self, queries) -> None:
        self.system.route(queries)

    @rule(
        u=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        kind=st.sampled_from(["peer", "cell"]),
        at=st.integers(0, 4),
    )
    def join_taken(self, u, kind, at) -> None:
        self.system.join_taken(u, kind, at)

    @rule(fraction=st.floats(min_value=0.0, max_value=1.0))
    def crash_revive(self, fraction) -> None:
        self.system.crash_revive(fraction)

    @invariant()
    def holds(self) -> None:
        self.system.check()


ChurnMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=8, deadline=None
)
TestChurnStateful = ChurnMachine.TestCase


class DeepChurnMachine(ChurnMachine):
    """The same machine with longer programs (CI's ``slow`` job)."""


DeepChurnMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=20, deadline=None
)
TestChurnStatefulDeep = pytest.mark.slow(DeepChurnMachine.TestCase)


@pytest.mark.parametrize("path", sorted(PROGRAMS.glob("*.json")), ids=lambda p: p.stem)
def test_committed_program(path):
    replay(json.loads(path.read_text()))
