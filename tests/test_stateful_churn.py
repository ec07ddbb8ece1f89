"""Whole-stack stateful testing: churn, repair and serving under one machine.

:class:`ChurnProgram` drives an overlay (Oscar, Mercury or Chord), a
:class:`~repro.engine.churn.SteadyStateChurnEngine` (either repair
policy), a :class:`~repro.index.replication.ReplicatedStore` and a
:class:`~repro.engine.serve.ServeEngine` through eight verbs — an epoch,
an external ``leave_batch`` wave, a ``leave_batch`` wave it must refuse,
a direct repair (the policy's substrate verb, with no compaction first),
a serve batch with unknown sources and duplicate keys, a route batch on
the truth snapshot, a join into a taken ``2**-64`` key cell, Figure 2's
crash wave and its undoing — on the
vectorized kernels and, in
lock-step, on the pure-Python twins (Mercury and Chord build through
one scalar path, so for them the twin check is a determinism check),
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
* the twin's state, epoch statistics and serve outcomes are equal;
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
  ``Substrate.route`` raises ``RoutingError`` exactly on the rows
  ``route_batch`` gives a non-``OK`` code (with that code's message),
  and otherwise answers the row's hops and responsible peer — with a
  recorded path too, whose length is ``hops + 1`` and whose last peer
  is the one delivered to; with no dead peer in the ring, every row
  is ``OK`` and the fault-aware ``Substrate.route(faulty=True)``
  answers it too, at the same hops, without a wasted probe;
* the crash wave as the grow-and-measure loop runs it: after
  ``OracleView.crash_fraction(f)`` and ``repair_ring()`` the victims
  are ``min(floor(f * live), live - 1)`` distinct truth-live peers, a
  fault-aware route delivers to the key's live successor at ``cost ==
  hops + wasted_probes + backtracks``, and after ``revive`` and
  ``repair_ring()`` every ``SubstrateState`` column and the ring's
  order are byte-identical to before the wave (no residue);
* every truth and serve capture's ``WalkTable`` passes
  ``tests/conftest.py::assert_walk_table``, and a capture made in blocks
  of three rows equals the whole-matrix reference capture
  (``reference_truth_table`` / ``reference_serve_table``);
* after every epoch the churn engine's probe engine holds no truth
  snapshot (the probe drops it once measured);
* conservation: an epoch's ``live`` is the live count it started from
  (after any wave) plus its arrivals minus its departures, and equals
  the ring's; the catalog holds the seeded items minus those lost;
* under gentle churn (``repair_every=1``, half-life 64, no external
  waves) no item is ever lost;
* under a probe view (``view="probe"``: a ``ProbeView`` with probe loss
  ``loss``, the reference twin's on the scalar detector bank and the
  set-per-report gossip twin) the twins agree on evictions, false
  evictions, detection lags, the believed-live ids and the gossip
  plane's reports in flight and informed counts (the vectorized bank's
  ``probe_*`` columns are not compared: the scalar bank keeps detector
  objects instead), an epoch's conservation counts its false evictions
  as deaths, and after every epoch no report in flight has reached the
  staleness bound. The other checks read the truth-live ring, which
  the believed-live set contains: a false eviction kills its peer.

:class:`ChurnMachine` lets hypothesis choose the programs; every program
it once shrank to a failure is committed under ``tests/data/programs/``
and replayed by :func:`test_committed_program` without hypothesis.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from conftest import (
    LruModel,
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
from repro.engine.walk import WalkCode
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
from repro.workloads import GnutellaLikeDistribution

PROGRAMS = Path(__file__).parent / "data" / "programs"
REPLICAS = 3
#: Rows per block the machine's captures run in: a program's overlay of
#: 12-60 peers is cut into several blocks.
CAPTURE_BLOCK = 3
#: A peer in key cell 0, below ``2**-11`` where floats are finer than the
#: ``2**-64`` grid, so other floats fall in its cell; joined when a
#: program asks for ``low_peer``.
LOW_PEER = 2.0**-70
#: What ``Substrate.route`` says where ``route_batch`` reports a code.
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
    the reference twin's on the scalar backend).
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
            backend = "vectorized" if vectorized else "scalar"
            view = ProbeView(overlay.ring, config, seed=p["seed"], backend=backend)
        else:
            view = OracleView(overlay.ring)
        store = ReplicatedStore(overlay.ring, k=REPLICAS, vectorized=vectorized)
        store.seed_items(split(p["seed"], "program-items").random(p["n"]), view)
        sessions = ExponentialSessions(64.0 if self.gentle else p["half_life"])
        engine = SteadyStateChurnEngine(
            overlay,
            keys,
            degrees,
            sessions,
            arrival_rate=p["n"] / sessions.mean,
            repair_every=1 if self.gentle else p["repair_every"],
            n_probes=4,
            seed=p["seed"],
            vectorized=vectorized,
            membership=view,
            replication=store,
            repair=p["repair"],
        )
        serve = ServeEngine(overlay, store, view, cache_size=32, vectorized=vectorized)
        return {"overlay": overlay, "store": store, "engine": engine, "serve": serve, "view": view}

    @property
    def overlay(self) -> Substrate:
        return self.twins[0]["overlay"]

    # -- verbs ---------------------------------------------------------

    def run_epoch(self) -> None:
        live_before = self.overlay.ring.live_count
        view = self.twins[0]["view"]
        evictions, false_evictions = view.evictions, getattr(view, "false_evictions", 0)
        stats = [twin["engine"].run_epoch() for twin in self.twins]
        assert stats[0] == stats[1]
        for twin in self.twins:  # the probe's truth snapshot is not held
            assert twin["engine"]._query_engine.cached_snapshot is None
        epoch = stats[0]
        # A false eviction (probe loss) ground-truth kills a live peer.
        killed = getattr(view, "false_evictions", 0) - false_evictions
        live_after = live_before + epoch.arrivals - epoch.departures - killed
        assert epoch.live == live_after == self.overlay.ring.live_count
        if self.probe:
            self.check_gossip_bound(view.evictions - evictions)
        if stats[0].link_repair:
            self.check_repaired()
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
            verb(split(*rng_key), vectorized=twin["engine"].vectorized)
        self.check_repaired()

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
        ids no peer holds, keys drawn from the catalog with every key
        asked ``repeat`` times."""
        live = self.overlay.ring.ids_array(live_only=True)
        top = int(self.overlay._next_id)
        sources = [int(live[i % live.size]) for i in picks] + [top + 7 * j for j in range(unknown)]
        catalog = self.twins[0]["store"].item_keys
        if catalog.size:  # the catalog empties when every replica of every item died
            keys = catalog[np.asarray(picks, dtype=np.int64) % catalog.size]
        else:
            keys = np.full(len(picks), 0.5)
        keys = np.concatenate([np.repeat(keys, repeat), np.full(unknown * repeat, 0.25)])
        sources = np.repeat(np.asarray(sources, dtype=np.int64), repeat)
        version = self.twins[0]["serve"].serve_version
        results = [twin["serve"].serve_batch(sources, keys) for twin in self.twins]
        for name in ("owners", "outcome", "hit", "found", "success", "stale", "hops"):
            assert np.array_equal(getattr(results[0], name), getattr(results[1], name)), name
        if unknown:
            assert (results[0].outcome[-unknown * repeat :] == Outcome.BAD_SOURCE).all()
        self.check_cache_transparent(results[0], self.uncached.serve_batch(sources, keys))
        self.check_cache_model(results[0], keys, version)

    def route(self, queries: list) -> None:
        """Route ``(source, kind, u)`` queries on the truth snapshot
        through ``route_batch`` and one at a time through
        ``Substrate.route``. The source is the live peer at rank
        ``source`` (mod the live count); the key is ``u`` itself
        (``free``), the exact position of the peer at ring rank
        ``u * len(ring)``, dead ones too (``peer``), or the highest float
        in that peer's ``2**-64`` key cell (``cell``)."""
        live = self.overlay.ring.ids_array(live_only=True)
        sources = np.asarray([int(live[source % live.size]) for source, __, __ in queries])
        keys = np.asarray([self._route_key(kind, u) for __, kind, u in queries])
        batches = [
            BatchQueryEngine(twin["overlay"]).route_batch(sources, keys) for twin in self.twins
        ]
        for name in ("responsible", "hops", "code"):
            assert np.array_equal(getattr(batches[0], name), getattr(batches[1], name)), name
        batch = batches[0]
        if self.overlay.ring.live_count == len(self.overlay.ring):  # a live, verified ring
            assert (batch.code == WalkCode.OK).all(), batch.code
            for source, key, hops, owner in zip(
                sources.tolist(), keys.tolist(), batch.hops, batch.responsible
            ):
                faulty = self.overlay.route(source, key, faulty=True)
                assert (faulty.hops, faulty.responsible, faulty.delivered_to, faulty.wasted) == (
                    hops,
                    owner,
                    owner,
                    0,
                )
        for source, key, hops, owner, code in zip(
            sources.tolist(), keys.tolist(), batch.hops, batch.responsible, batch.code
        ):
            for record_path in (False, True):
                if code != WalkCode.OK:
                    with pytest.raises(RoutingError, match=WALK_ERRORS[WalkCode(code)]):
                        self.overlay.route(source, key, record_path=record_path)
                    continue
                result = self.overlay.route(source, key, record_path=record_path)
                assert (result.hops, result.responsible, result.delivered_to) == (
                    hops,
                    owner,
                    owner,
                )
                if record_path:
                    assert len(result.path) == hops + 1 and result.path[-1] == owner

    def crash_revive(self, fraction: float) -> None:
        """Crash ``fraction`` of the truth-live peers with
        ``OracleView.crash_fraction`` on a stream labelled by the
        program, ``repair_ring()``, route four keys fault-aware, then
        ``revive`` the victims and ``repair_ring()`` again: the
        grow-and-measure loop's wave, which must leave no residue."""
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
            for source, key in zip(rng.choice(survivors, 4), rng.random(4).tolist()):
                result = overlay.route(int(source), key, faulty=True)
                assert result.success and result.delivered_to == ring.successor_of_key(key)
                assert result.cost == result.hops + result.wasted_probes + result.backtracks
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
        for twin in self.twins:
            overlay = twin["overlay"]
            overlay.ring.verify()
            verify(overlay.ring, overlay.pointers)
            self.check_keys(overlay)
            self.check_links(overlay, capped=self.substrate != "chord")
        self.check_twins()
        self.check_walk_tables()
        for twin in self.twins:
            store = twin["store"]
            assert store.item_count == self.seeded - store.items_lost_total
        if self.gentle and not self.waves:
            assert self.twins[0]["store"].items_lost_total == 0

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
        reference captures build."""
        for twin in self.twins:
            overlay, serve = twin["overlay"], twin["serve"]
            with row_block(CAPTURE_BLOCK):
                truth = TopologySnapshot.capture(overlay)
                fresh = ServeSnapshot.capture(
                    overlay, serve.membership, serve.serve_version, serve.store
                )
            assert_same_table(truth.table, reference_truth_table(overlay))
            assert_same_table(fresh.table, reference_serve_table(overlay, serve.membership))
            assert_walk_table(
                truth.table,
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

    def check_gossip_bound(self, evicted: int) -> None:
        """No report in flight has reached the staleness bound. The
        epoch's last push round ran over at most the believed-live peers
        of now plus those the epoch evicted, and the bound only grows
        with the population, so that population's bound caps it."""
        for twin in self.twins:
            gossip = twin["view"]._gossip
            bound = gossip.config.staleness_bound(max(twin["view"].live_count + evicted, 2))
            ages = gossip._age.values() if isinstance(gossip._age, dict) else gossip._age
            assert all(age < bound for age in ages)

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
        assert stores[0].items_lost_total == stores[1].items_lost_total
        if self.probe:
            views = [twin["view"] for twin in self.twins]
            for name in ("evictions", "false_evictions", "detection_lags"):
                assert getattr(views[0], name) == getattr(views[1], name), name
            assert np.array_equal(views[0].live_ids(), views[1].live_ids())
            matrix, reference = (view._gossip for view in views)
            assert matrix.active == reference.active
            for target in reference.active:
                assert matrix.informed_count(target) == reference.informed_count(target)


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
        loss=st.sampled_from([0.0, 0.05, 0.3]),
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
