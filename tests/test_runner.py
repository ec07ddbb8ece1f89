"""Tests for the declarative spec registry, Runner and sweeps."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.experiments import (
    ArtifactStore,
    ExperimentResult,
    ExperimentSpec,
    Runner,
    SweepSpec,
    all_specs,
    all_sweeps,
    derive_seed,
    get_spec,
    get_sweep,
)
from repro.experiments.spec import Param

SMALL = 0.02


class TestSpecSchema:
    def test_all_twelve_experiments_registered(self):
        ids = {spec.id for spec in all_specs()}
        assert {
            "fig1a", "fig1b", "fig1c", "fig2a", "fig2b",
            "ext-mercury", "ext-keydist", "ext-range", "ext-latency", "scale-build",
            "abl-power-of-two", "abl-sampling", "abl-partitions",
            "detector-churn", "net-churn",
        } <= ids

    def test_tags_partition_the_registry(self):
        assert len(all_specs(tag="figure")) == 5
        assert len(all_specs(tag="ablation")) == 3
        assert len(all_specs(tag="extension")) == 10
        assert [spec.id for spec in all_specs(tag="scenario")] == ["scenario"]

    def test_every_spec_has_scale_and_seed(self):
        for spec in all_specs():
            assert {"scale", "seed"} <= set(spec.param_names), spec.id

    def test_resolve_fills_defaults(self):
        spec = get_spec("fig1c")
        params = spec.resolve({"scale": 0.1})
        assert params["scale"] == 0.1
        assert params["seed"] == 42
        assert params["n_queries"] == 0

    def test_resolve_rejects_unknown_names(self):
        with pytest.raises(ConfigError, match="unknown parameters"):
            get_spec("fig1c").resolve({"bogus": 1})

    def test_unknown_spec_lists_known_ids(self):
        with pytest.raises(KeyError, match="fig1a"):
            get_spec("fig99")

    def test_descriptions_come_from_docstrings(self):
        assert get_spec("fig1c").description != ""

    def test_run_stamps_id_title_and_parameters(self):
        def fn(scale=1.0, size=10, note=None):
            return ExperimentResult(metadata={"size": 3, "derived": "x"})

        params = (Param("scale", 1.0), Param("size", 10), Param("note", None))
        result = ExperimentSpec(id="demo", title="Demo", fn=fn, params=params).run(scale=0.5)
        assert (result.experiment_id, result.title) == ("demo", "Demo")
        # A derived value wins over the parameter of its name.
        assert result.metadata == {"scale": 0.5, "size": 3, "note": None, "derived": "x"}

    def test_run_rejects_a_non_result(self):
        spec = ExperimentSpec(id="demo", title="Demo", fn=lambda: {}, params=())
        with pytest.raises(TypeError, match="not ExperimentResult"):
            spec.run()


class TestParamCoercion:
    def test_basic_kinds(self):
        assert Param("x", 1).coerce("5") == 5
        assert Param("x", 1.0).coerce("0.5") == 0.5
        assert Param("x", "a").coerce("b") == "b"
        assert Param("x", True).coerce("false") is False
        assert Param("x", False).coerce("yes") is True

    def test_tuple_kinds(self):
        assert Param("x", (1, 2)).coerce("4,8") == (4, 8)
        assert Param("x", (0.1,)).coerce("0.2,0.3") == (0.2, 0.3)

    def test_none_default_guesses_numbers_only(self):
        assert Param("x", None).coerce("5") == 5
        assert Param("x", None).coerce("0.5") == 0.5
        # Object-valued params (config dataclasses) cannot be built from
        # a CLI string — refusing beats handing a raw str to the spec.
        with pytest.raises(ConfigError, match="typed default"):
            Param("x", None).coerce("text")

    def test_bad_bool_rejected(self):
        with pytest.raises(ConfigError):
            Param("x", True).coerce("maybe")

    def test_bad_number_spellings_rejected(self):
        with pytest.raises(ConfigError, match="expected int"):
            Param("x", 1).coerce("abc")
        with pytest.raises(ConfigError, match="expected float"):
            Param("x", 1.0).coerce("abc")
        with pytest.raises(ConfigError):
            Param("x", (1, 2)).coerce("1,zz")


class TestRunner:
    def test_run_resolves_and_executes(self):
        record = Runner().run("fig1a", {"scale": SMALL})
        assert record.spec_id == "fig1a"
        assert record.cached is False
        assert record.wall_time > 0
        assert record.params["scale"] == SMALL
        assert record.result.scalars["analytic_mean"] == pytest.approx(27.0, abs=1e-6)

    def test_defaults_filtered_per_spec(self):
        # fig1a has no n_queries parameter; the shared default must not
        # leak into its resolution (the old CLI special-cased this).
        runner = Runner(defaults={"scale": SMALL, "n_queries": 17})
        record = runner.run("fig1a")
        assert "n_queries" not in record.params
        assert record.params["scale"] == SMALL

    def test_cache_hit_and_force(self, tmp_path):
        store = ArtifactStore(tmp_path)
        runner = Runner(store=store, defaults={"scale": SMALL})
        first = runner.run("fig1a")
        second = runner.run("fig1a")
        assert first.cached is False and second.cached is True
        assert second.result.series == first.result.series
        assert second.wall_time == first.wall_time  # original simulation time
        forced = Runner(store=store, force=True, defaults={"scale": SMALL}).run("fig1a")
        assert forced.cached is False

    def test_run_many_preserves_order_and_mixes_cache(self, tmp_path):
        store = ArtifactStore(tmp_path)
        runner = Runner(store=store, defaults={"scale": SMALL, "n_queries": 20})
        warm = runner.run("fig1a")
        assert warm.cached is False
        records = runner.run_many([("abl-power-of-two", {}), ("fig1a", {})])
        assert [record.spec_id for record in records] == ["abl-power-of-two", "fig1a"]
        assert records[0].cached is False
        assert records[1].cached is True

    def test_parallel_results_equal_sequential(self, tmp_path):
        requests = [
            ("fig1a", {}),
            ("abl-power-of-two", {}),
            ("abl-partitions", {"partition_counts": (4, 8)}),
        ]
        defaults = {"scale": SMALL, "seed": 42, "n_queries": 25}
        parallel = Runner(defaults=defaults).run_many(requests, jobs=3)
        sequential = Runner(defaults=defaults).run_many(requests, jobs=1)
        assert len(parallel) == len(sequential) == 3
        for p, s in zip(parallel, sequential):
            assert p.spec_id == s.spec_id
            assert p.result.series == s.result.series
            assert p.result.scalars == s.result.scalars

    def test_rejects_bad_jobs(self):
        with pytest.raises(ConfigError):
            Runner(jobs=0)
        with pytest.raises(ConfigError):
            Runner().run_many([], jobs=0)


class TestSweeps:
    def test_registered_demo_sweep(self):
        sweep = get_sweep("substrate-churn")
        assert sweep.spec_id == "scenario"
        spec = get_spec("scenario")
        points = sweep.points(spec, {"scale": SMALL})
        assert len(points) == 3 * 2 * 2
        assert {point["substrate"] for point in points} == {"oscar", "chord", "mercury"}
        assert all(point["scale"] == SMALL for point in points)
        assert len(sweep.labels()) == len(points)

    def test_unknown_sweep_rejected(self):
        with pytest.raises(KeyError, match="substrate-churn"):
            get_sweep("nope")
        assert any(sweep.id == "substrate-churn" for sweep in all_sweeps())

    def test_overrides_never_shadow_axes(self):
        sweep = SweepSpec(
            id="t", spec_id="scenario", axes=(("substrate", ("oscar", "chord")),)
        )
        points = sweep.points(get_spec("scenario"), {"substrate": "mercury", "scale": SMALL})
        assert [point["substrate"] for point in points] == ["oscar", "chord"]

    def test_vary_seed_derives_independent_seeds(self):
        sweep = SweepSpec(
            id="t2",
            spec_id="scenario",
            axes=(("substrate", ("oscar", "chord")),),
            vary_seed=True,
        )
        points = sweep.points(get_spec("scenario"), {"seed": 42})
        seeds = [point["seed"] for point in points]
        assert len(set(seeds)) == 2
        assert seeds == [derive_seed(42, "t2", 0), derive_seed(42, "t2", 1)]

    def test_register_sweep_validates_axes_eagerly(self):
        from repro.experiments import register_sweep

        with pytest.raises(ConfigError, match="kill_fractionn"):
            register_sweep(
                SweepSpec(
                    id="typo-sweep",
                    spec_id="scenario",
                    axes=(("kill_fractionn", (0.1,)),),
                )
            )
        with pytest.raises(KeyError, match="unknown experiment"):
            register_sweep(
                SweepSpec(id="typo-spec", spec_id="nope", axes=(("x", (1,)),))
            )

    def test_axes_validated(self):
        with pytest.raises(ConfigError):
            SweepSpec(id="bad", spec_id="scenario", axes=())
        with pytest.raises(ConfigError):
            SweepSpec(id="bad", spec_id="scenario", axes=(("substrate", ()),))
        with pytest.raises(ConfigError, match="unknown parameters"):
            SweepSpec(
                id="bad2", spec_id="scenario", axes=(("bogus", (1, 2)),)
            ).points(get_spec("scenario"))

    def test_run_sweep_caches_points(self, tmp_path):
        sweep = SweepSpec(
            id="t3",
            spec_id="scenario",
            axes=(("substrate", ("oscar", "chord")),),
            base=(("keys", "uniform"),),
        )
        runner = Runner(
            store=ArtifactStore(tmp_path),
            defaults={"scale": 0.008, "seed": 5, "n_queries": 10},
        )
        first = runner.run_sweep(sweep)
        again = runner.run_sweep(sweep)
        assert [record.label for record in first] == ["substrate=oscar", "substrate=chord"]
        assert all(not record.cached for record in first)
        assert all(record.cached for record in again)
        assert all(record.params["keys"] == "uniform" for record in first)


class TestDeriveSeed:
    def test_deterministic_and_label_sensitive(self):
        assert derive_seed(42, "a", 0) == derive_seed(42, "a", 0)
        assert derive_seed(42, "a", 0) != derive_seed(42, "a", 1)
        assert derive_seed(42, "a", 0) != derive_seed(43, "a", 0)


class TestScenarioSpec:
    def test_scenario_runs_any_substrate(self):
        runner = Runner(defaults={"scale": 0.008, "n_queries": 10})
        for substrate in ("oscar", "chord", "mercury"):
            record = runner.run("scenario", {"substrate": substrate})
            assert record.result.scalars["success_rate"] == 1.0

    def test_scenario_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="key distribution"):
            Runner(defaults={"scale": 0.008}).run("scenario", {"keys": "nope"})
        with pytest.raises(ValueError, match="degree distribution"):
            Runner(defaults={"scale": 0.008}).run("scenario", {"degrees": "nope"})

    def test_scenario_excluded_from_all_view(self):
        standalone = [spec.id for spec in all_specs() if spec.standalone]
        assert "scenario" not in standalone
        assert len(standalone) == 18
