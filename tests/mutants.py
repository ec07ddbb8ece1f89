"""The committed mutant catalogue: deliberate faults and what must catch them.

Each :class:`Mutant` names one function of ``repro`` (``module:Class.name``
or ``module:name``), one or more exact text edits to its source (indented as in
the function's dedented source), and the tests that must fail once the
edits are in. :func:`apply` edits the
function's source with ``textwrap``, compiles it in its own module's
globals and binds the result wherever the original was bound — the
class, a class alias (``OscarOverlay.leave_batch = Substrate.leave_batch``)
or a module that imported the function by name. No patch file, nothing
downloaded, and the source tree is never written.

Run one mutant by hand (exit 0 = every catcher caught it)::

    PYTHONPATH=src python tests/mutants.py <name>

``tests/test_mutants.py`` (``slow``) runs every entry this way, each in a
subprocess of its own. A refactor that moves a mutant's target re-states
the mutant's edits; only a mutant whose code is gone is deleted.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import textwrap
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = "tests/test_stateful_churn.py::test_committed_program[{}]"


@dataclass(frozen=True)
class Mutant:
    """One deliberate fault.

    Attributes:
        name: Catalogue key.
        about: What the fault does and where it was first caught.
        target: ``module:qualified.name`` of the function edited.
        edits: ``(old, new)`` source replacements; each ``old`` occurs
            exactly once in the function's source.
        catchers: Pytest node ids; every one must fail with the edits in.
    """

    name: str
    about: str
    target: str
    edits: tuple[tuple[str, str], ...]
    catchers: tuple[str, ...]


CATALOGUE = (
    Mutant(
        "ring-insert-float-only-cell",
        "Ring.insert refuses only an equal float, not a taken 2**-64 key cell (PR 36)",
        "repro.ring.ring:Ring.insert",
        (("self._sorted_keys[idx] == key", "self.state.pos[self._sorted_slots[idx]] == position"),),
        (PROGRAM.format("route_and_join_into_a_low_peers_cell"),),
    ),
    Mutant(
        "leave-batch-kills-before-check",
        "leave_batch marks the wave dead before the empty-population check (PR 37)",
        "repro.core.substrate:Substrate.leave_batch",
        (
            (
                "    departing = np.unique(slots[self.state.alive[slots]]).size\n"
                "    if departing and departing >= self.ring.live_count:\n",
                "    departing = np.unique(slots[self.state.alive[slots]]).size\n"
                "    live = self.ring.live_count\n"
                "    self.ring.mark_dead_slots(slots)\n"
                "    if departing and departing >= live:\n",
            ),
        ),
        (PROGRAM.format("leave_refused_after_waves_and_compaction"),),
    ),
    Mutant(
        "cache-find-tombstone-ends-chain",
        "the shared hash_find under ResultCache.probe treats a deleted slot as empty",
        "repro.core.soa:hash_find",
        (
            (
                "again = again[held[again] != HASH_EMPTY]",
                "again = again[held[again] < HASH_DELETED]",
            ),
            (
                "again = again[~hit & (held != HASH_EMPTY)]",
                "again = again[~hit & (held < HASH_DELETED)]",
            ),
        ),
        (
            PROGRAM.format("serve_cache_evicts_through_tombstones"),
            "tests/test_serve_cache.py::TestLruModelDifferential",
        ),
    ),
    Mutant(
        "catalog-index-kept-after-loss",
        "rereplicate drops lost items from the catalog but keeps the old hashed index",
        "repro.index.replication:ReplicatedStore.rereplicate",
        (("        self._index_catalog()\n", ""),),
        (
            "tests/test_replication.py::TestCatalogIndex",
            PROGRAM.format("probe_repair_epochs_reconcile"),
        ),
    ),
    Mutant(
        "rereplicate-keeps-dead-targets",
        "a re-replication pass keeps its truth-dead targets as holders: a phantom replica "
        "reads as a held copy",
        "repro.index.replication:ReplicatedStore.rereplicate",
        (("self.holders = np.where(alive, targets, -1)", "self.holders = targets"),),
        (PROGRAM.format("rereplicate_onto_undetected_deaths"),),
    ),
    Mutant(
        "catalog-index-stops-at-home-slot",
        "lookup_rows reads a key's home slot only, never the chain past a collision",
        "repro.index.replication:ReplicatedStore.lookup_rows",
        (
            (
                "slot, __ = hash_find(self._index_bits, key_bits(keys.reshape(-1)))",
                "from repro.core.soa import hash_home\n"
                "    bits = key_bits(keys.reshape(-1))\n"
                "    slot = hash_home(bits, self._index_bits.size)\n"
                "    slot[self._index_bits[slot] != bits] = np.argmax(self._index_rows < 0)",
            ),
        ),
        (
            "tests/test_replication.py::TestCatalogIndex",
            "tests/test_stateful_churn.py::TestChurnStateful",
        ),
    ),
    Mutant(
        "cache-probe-no-stamp-refresh",
        "ResultCache.probe leaves a hit's recency stamp as it was (PR 39)",
        "repro.engine.serve:ResultCache.probe_bits",
        (("np.maximum.at(table_stamp, slot[at], self._clock + at)", "pass"),),
        (
            "tests/test_serve_cache.py::TestResultCache::test_get_refreshes_recency",
            "tests/test_serve_cache.py::TestLruModelDifferential",
        ),
    ),
    Mutant(
        "crash-fraction-from-every-peer",
        "crash_fraction draws its victims from dead peers too (PR 40)",
        "repro.membership.views:MembershipView.crash_fraction",
        (
            (
                "live = self.ring.ids_array(live_only=True)",
                "live = self.ring.ids_array(live_only=False)",
            ),
        ),
        (PROGRAM.format("crash_revive_after_a_wave"),),
    ),
    Mutant(
        "revive-leaves-last-victim-dead",
        "revive reports the last victim revived but leaves it dead (PR 40)",
        "repro.membership.views:MembershipView.revive",
        (
            (
                "return self._write(node_ids, self.ring.mark_alive_slots)",
                "node_ids = list(node_ids)\n"
                "    revived = self._write(node_ids[:-1], self.ring.mark_alive_slots)\n"
                "    return revived + [int(node_ids[-1])]",
            ),
        ),
        (PROGRAM.format("crash_revive_after_a_wave"),),
    ),
    Mutant(
        "revive-skips-last-victim",
        "revive never reaches the last victim (PR 40)",
        "repro.membership.views:MembershipView.revive",
        (
            (
                "self._write(node_ids, self.ring.mark_alive_slots)",
                "self._write(list(node_ids)[:-1], self.ring.mark_alive_slots)",
            ),
        ),
        (PROGRAM.format("crash_revive_after_a_wave"),),
    ),
    Mutant(
        "gossip-last-round-skips-draws",
        "GossipMembership.spread skips the draw of a report at its bound",
        "repro.membership.gossip:GossipMembership.spread",
        (
            (
                "rng.binomial(n - k, 1.0 - miss)",
                "rng.binomial(np.where(self._age >= self.config.staleness_bound(n), 0, n - k), "
                "1.0 - miss)",
            ),
        ),
        (
            PROGRAM.format("probe_reports_retire_at_the_bound"),
            "tests/test_membership.py::TestGossipMembership::test_count_plane_matches_scalar_twin",
        ),
    ),
    Mutant(
        "gossip-last-round-one-early",
        "GossipMembership.spread retires a report a round before its bound",
        "repro.membership.gossip:GossipMembership.spread",
        (
            (
                "(self._age >= self.config.staleness_bound",
                "(self._age + 1 >= self.config.staleness_bound",
            ),
        ),
        (
            PROGRAM.format("probe_reports_retire_at_the_bound"),
            "tests/test_membership.py::TestGossipMembership::test_count_plane_matches_scalar_twin",
            "tests/test_membership.py::TestGossipMembership"
            "::test_report_covers_a_tiny_population_before_its_bound",
        ),
    ),
    Mutant(
        "gossip-push-without-fanout",
        "GossipMembership.spread pushes once per informed peer, not fanout times",
        "repro.membership.gossip:GossipMembership.spread",
        (("e = 1.0 - 1.0 / n, k * self.config.gossip_fanout", "e = 1.0 - 1.0 / n, k.copy()"),),
        (
            "tests/test_gossip_oracle.py::test_completion_rounds_agree_in_law[24-4]",
            "tests/test_membership.py::TestGossipMembership::test_count_plane_matches_scalar_twin",
        ),
    ),
    Mutant(
        "gossip-covered-strictly",
        "GossipMembership.spread completes a report only past coverage (count > n)",
        "repro.membership.gossip:GossipMembership.spread",
        (("done = (self._count >= n)", "done = (self._count > n)"),),
        (
            "tests/test_membership.py::TestGossipMembership::"
            "test_report_covers_a_tiny_population_before_its_bound[GossipMembership]",
            "tests/test_gossip_oracle.py::test_completion_rounds_agree_in_law[24-4]",
            PROGRAM.format("probe_reports_retire_at_the_bound"),
        ),
    ),
    Mutant(
        "gossip-report-starts-uninformed",
        "GossipMembership.start_many starts a report at count 0, its origin uncounted",
        "repro.membership.gossip:GossipMembership.start_many",
        (
            (
                "np.append(self._count, np.ones_like(targets))",
                "np.append(self._count, np.zeros_like(targets))",
            ),
        ),
        (
            PROGRAM.format("probe_reports_retire_at_the_bound"),
            PROGRAM.format("probe_repair_epochs_reconcile"),
        ),
    ),
    Mutant(
        "churn-counts-wave-victims-as-departures",
        "the churn engine counts a session whose peer left in a wave as a departure",
        "repro.engine.churn:SteadyStateChurnEngine._depart",
        (("return self._leave(e, expired)", "return int(ended.size), self._leave(e, expired)[1]"),),
        (PROGRAM.format("wave_victim_session_not_a_departure"),),
    ),
    Mutant(
        "mercury-links-to-dead-successors",
        "Mercury's link acquisition resolves candidates among dead peers too",
        "repro.mercury.construction:acquire_links",
        (
            (
                "ring.successor_of_key(target_key, live_only=True)",
                "ring.successor_of_key(target_key, live_only=False)",
            ),
        ),
        (PROGRAM.format("mercury_repair_over_a_wave"),),
    ),
    Mutant(
        "membership-row-drops-false-evictions",
        "a false eviction is filed as moot: the membership row drops it and advance never "
        "hands it back",
        "repro.membership.probe:ProbeView._evict",
        (('        return "false_evictions"', '        return "moot"'),),
        (
            "tests/test_obs.py::TestMembershipRows::test_false_evictions_are_counted_and_leave_"
            "truth_alone",
        ),
    ),
    Mutant(
        "false-eviction-skips-the-departure-door",
        "ProbeView.advance kills a false eviction itself and hands nothing back, so the engine "
        "never repairs the ring pointers around it",
        "repro.membership.probe:ProbeView.advance",
        (
            (
                "false_evicted.append(int(target))",
                "self.ring.mark_dead_slots(self.ring.known_slots([target]))",
            ),
        ),
        (
            PROGRAM.format("false_eviction_then_repair_and_route"),
            "tests/test_steady_churn.py::TestFalseEvictions::test_false_evictions_leave_by_"
            "leave_batch",
        ),
    ),
    Mutant(
        "membership-row-drops-moot-evictions",
        "the membership row's evictions leave out the moot outcome",
        "repro.membership.probe:ProbeView.advance",
        (
            (
                "evictions=sum(outcomes.values())",
                'evictions=sum(outcomes.values()) - outcomes["moot"]',
            ),
        ),
        (PROGRAM.format("probe_repair_epochs_reconcile"),),
    ),
    Mutant(
        "store-row-counts-phantoms-as-placed",
        "a store row counts copies sent to dead targets as placed",
        "repro.index.replication:ReplicatedStore._record_pass",
        (("placed=int(alive.sum())", "placed=int((targets >= 0).sum())"),),
        (
            PROGRAM.format("probe_repair_epochs_reconcile"),
            "tests/test_obs.py::TestStoreRows::test_a_phantom_replica_is_not_placed",
        ),
    ),
    Mutant(
        "store-row-under-k-counts-full-items",
        "a pass's under_k counts the items holding all k copies too",
        "repro.index.replication:ReplicatedStore._record_pass",
        (("under_k=int((counts < self.k).sum())", "under_k=int((counts <= self.k).sum())"),),
        (PROGRAM.format("probe_repair_epochs_reconcile"),),
    ),
    Mutant(
        "churn-row-believed-is-truth",
        "the churn row's believed-live count reads the truth-live ring",
        "repro.engine.churn:SteadyStateChurnEngine.run_epoch",
        (("believed=self.membership.live_count", "believed=self.substrate.ring.live_count"),),
        (PROGRAM.format("probe_repair_epochs_reconcile"),),
    ),
    Mutant(
        "acquisition-counts-lost-requests",
        "a vectorized acquisition round counts every request, lost commits too, as placed",
        "repro.engine.construct:BatchConstructionEngine._round_vectorized",
        (("stats.links_placed += int(winners.size)", "stats.links_placed += int(req.size)"),),
        ("tests/test_stateful_churn.py::TestChurnStateful",),
    ),
    Mutant(
        "acquisition-demand-ignores-repeats",
        "an acquisition round's demand is 1 for every request, so every requester of an "
        "over-subscribed candidate wins: it takes more links than its spare in-capacity",
        "repro.engine.construct:BatchConstructionEngine._demand",
        (
            (
                "    if cand.size * 16 >= m:\n",
                "    return np.ones_like(cand)\n    if cand.size * 16 >= m:\n",
            ),
        ),
        (
            "tests/test_construct_engine.py::TestDemand",
            "tests/test_construct_engine.py::TestPathEquivalence",
            "tests/test_stateful_churn.py::TestChurnStateful",
        ),
    ),
    Mutant(
        "detector-origin-is-last-voter",
        "a quorum target's origin is its highest-rank voting monitor, not its lowest",
        "repro.membership.vectorized:VectorizedDetectorBank.round",
        (("votes[hit].argmax(axis=1)", "j_eff - 1 - votes[hit][:, ::-1].argmax(axis=1)"),),
        ("tests/test_membership.py::TestBankDifferential",),
    ),
    Mutant(
        "detector-write-back-skips-new-pending",
        "a detector round writes back no row whose only change is a probe left pending",
        "repro.membership.vectorized:VectorizedDetectorBank.round",
        (
            (
                "(fails[:, :j_eff] != counts) | (pend[:, :j_eff] != fail)",
                "(fails[:, :j_eff] != counts)",
            ),
        ),
        ("tests/test_membership.py::TestBankDifferential",),
    ),
    Mutant(
        "detector-write-back-keeps-a-shrunk-tail",
        "a detector round leaves ranks past a shrunk panel uncleared in rows it did not change",
        "repro.membership.vectorized:VectorizedDetectorBank.round",
        (("if j_eff < fails.shape[1]:", "if False:"),),
        ("tests/test_membership.py::TestBankDifferential::test_ranks_past_a_shrunk_panel_clear",),
    ),
    Mutant(
        "detection-lag-from-the-wrong-epoch",
        "a lagged eviction's detection row measures its lag one epoch short",
        "repro.membership.probe:ProbeView._evict",
        (
            (
                'lag=epoch - int(state.died_at[slot]))',
                'lag=epoch - int(state.died_at[slot]) - 1)',
            ),
        ),
        ("tests/test_obs.py::TestMembershipRows::test_every_eviction_has_exactly_one_outcome",),
    ),
    Mutant(
        "route-ignores-dead-peers",
        "Substrate.route walks the truth snapshot fault-free with dead peers in the ring",
        "repro.core.substrate:Substrate.route",
        (("if self.ring.has_dead:", "if False:"),),
        (
            PROGRAM.format("crash_revive_after_a_wave"),
            "tests/test_overlay.py::TestRouting::test_dead_peers_choose_the_backtracking_router",
            "tests/test_stateful_churn.py::TestChurnStateful",
        ),
    ),
    Mutant(
        "measure-ignores-dead-peers",
        "BatchQueryEngine.measure walks the truth snapshot fault-free with dead peers in "
        "the ring: a repaired crash wave reads as lost queries, and no error",
        "repro.engine.batch:BatchQueryEngine.measure",
        (("if self.substrate.ring.has_dead:", "if False:"),),
        (
            PROGRAM.format("crash_revive_after_a_wave"),
            "tests/test_batch_engine.py::TestBatchMatchesScalar"
            "::test_a_repaired_crash_wave_is_measured_without_a_flag",
            "tests/test_metrics.py::TestMeasureSearchCost"
            "::test_a_dead_peer_routes_through_the_backtracking_router",
            "tests/test_stateful_churn.py::TestChurnStateful",
        ),
    ),
    Mutant(
        "cache-hits-count-distinct-slots",
        "ResultCache.probe counts a batch's hits on one entry once",
        "repro.engine.serve:ResultCache.probe_bits",
        (("self.hits += int(at.size)", "self.hits += int(np.unique(slot[at]).size)"),),
        (
            "tests/test_serve_cache.py::TestResultCache::test_every_hit_counts_repeats_included",
            "tests/test_serve_cache.py::TestLruModelDifferential",
        ),
    ),
    Mutant(
        "border-id-one-row-late",
        "_estimate stores the id of the peer one row past each border, not the peer on it",
        "repro.engine.construct:BatchConstructionEngine._estimate",
        (
            (
                "np.where(on_peer, ids.take(at), -1)",
                "np.where(on_peer, np.roll(ids, -1).take(at), -1)",
            ),
        ),
        (
            "tests/test_construct_engine.py::TestBorderIds"
            "::test_each_border_names_the_peer_it_sits_on",
            "tests/test_stateful_churn.py::TestChurnStateful",
        ),
    ),
    Mutant(
        "truth-rows-kept-across-version",
        "BatchQueryEngine.snapshot carries the rows built under the last version into the new "
        "capture when the row count is unchanged",
        "repro.engine.batch:BatchQueryEngine.snapshot",
        (
            (
                "        self._route_cache = None"
                "  # the stale arrays go before their replacements come\n"
                "        self._route_cache = TopologySnapshot.capture(self.substrate)\n",
                "        old = self._route_cache\n"
                "        self._route_cache = TopologySnapshot.capture(self.substrate)\n"
                "        new = self._route_cache.table\n"
                "        if old is not None and old.table.offsets.shape == new.offsets.shape:\n"
                "            new.offsets[old.table.built] = old.table.offsets[old.table.built]\n"
                "            new.built[old.table.built] = True\n",
            ),
        ),
        ("tests/test_batch_engine.py::TestDeferredTruthRows::test_no_row_survives_a_version_bump",),
    ),
    Mutant(
        "walk-split-halves-swapped",
        "greedy_walk joins a split batch's halves with the worker's half first",
        "repro.engine.walk:greedy_walk",
        (("zip(head, tail.result())", "zip(tail.result(), head)"),),
        (
            "tests/test_walk_split.py::TestSplitWalk::test_codes_in_either_half_stay_in_query_order",
            PROGRAM.format("serve_cache_evicts_through_tombstones"),
            PROGRAM.format("route_and_join_into_a_low_peers_cell"),
        ),
    ),
)

BY_NAME = {mutant.name: mutant for mutant in CATALOGUE}


def apply(mutant: Mutant) -> None:
    """Compile ``mutant``'s edited function and bind it everywhere the
    original is bound in the loaded ``repro`` modules."""
    module_name, qualname = mutant.target.split(":")
    owner: object = importlib.import_module(module_name)
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = vars(owner)[name]
    function = getattr(original, "__func__", original)
    source = textwrap.dedent(inspect.getsource(function))
    for old, new in mutant.edits:
        if source.count(old) != 1:
            raise LookupError(f"{mutant.name}: {old!r} occurs {source.count(old)} times")
        source = source.replace(old, new)
    namespace: dict[str, object] = {}
    exec(compile(source, f"<mutant {mutant.name}>", "exec"), function.__globals__, namespace)
    replacement = namespace[function.__name__]
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        holders = [module, *(v for v in vars(module).values() if isinstance(v, type))]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, replacement)


class _Failures:
    """Pytest plugin: the node ids whose test failed."""

    def __init__(self) -> None:
        self.failed: set[str] = set()

    def pytest_runtest_logreport(self, report) -> None:
        if report.failed:
            self.failed.add(report.nodeid)


def run(name: str) -> int:
    """Apply mutant ``name`` and run its catchers; 0 when every catcher
    failed, 1 when one passed (the mutant survived it), 2 on an error."""
    import pytest
    from hypothesis import HealthCheck, Phase, settings

    mutant = BY_NAME[name]
    # Derandomized like the suite, without shrinking: a caught mutant
    # needs the first failing example, not the smallest one.
    settings.register_profile(
        "mutants",
        derandomize=True,
        database=None,
        phases=(Phase.explicit, Phase.generate),
        suppress_health_check=list(HealthCheck),
    )
    os.environ["HYPOTHESIS_PROFILE"] = "mutants"
    apply(mutant)
    failures = _Failures()
    # hypothesis is imported before pytest starts, so pytest cannot
    # rewrite its asserts; it has none of ours to rewrite.
    quiet = ("-W", "ignore::pytest.PytestAssertRewriteWarning")
    args = ["-q", "-p", "no:cacheprovider", *quiet, *mutant.catchers]
    code = pytest.main(args, plugins=[failures])
    if code not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED):
        print(f"[mutants] {name}: pytest exit code {int(code)}")
        return 2
    survived = [c for c in mutant.catchers if not any(f.startswith(c) for f in failures.failed)]
    for catcher in survived:
        print(f"[mutants] {name} SURVIVED {catcher}")
    return 1 if survived else 0


if __name__ == "__main__":
    os.chdir(ROOT)
    try:
        sys.exit(run(sys.argv[1]))
    except Exception as exc:  # a catalogue entry that no longer applies
        print(f"[mutants] {sys.argv[1]}: {type(exc).__name__}: {exc}")
        sys.exit(2)
