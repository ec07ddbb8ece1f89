"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import pytest

from repro import OscarOverlay
from repro.cli import COMMANDS, build_parser, main
from repro.experiments import all_specs


class TestParser:
    def test_run_accepts_every_spec(self):
        parser = build_parser()
        for spec in all_specs():
            args = parser.parse_args(["run", spec.id])
            assert args.experiments == [spec.id]

    def test_run_accepts_multiple_specs(self):
        args = build_parser().parse_args(["run", "fig1a", "fig1c"])
        assert args.experiments == ["fig1a", "fig1c"]

    def test_defaults(self):
        args = build_parser().parse_args(["run", "fig1c"])
        assert args.scale == 1.0
        assert args.seed == 42
        assert args.jobs == 1
        assert args.out is None
        assert not args.force
        assert args.csv_dir is None

    def test_flags(self, tmp_path):
        args = build_parser().parse_args(
            [
                "run", "fig1b",
                "--scale", "0.1", "--seed", "7",
                "--jobs", "4", "--out", str(tmp_path / "arts"), "--force",
                "--csv-dir", str(tmp_path), "--log-y",
            ]
        )
        assert args.scale == 0.1
        assert args.seed == 7
        assert args.jobs == 4
        assert args.out == tmp_path / "arts"
        assert args.force
        assert args.csv_dir == tmp_path
        assert args.log_y and not args.log_x

    def test_all_subcommand(self):
        assert build_parser().parse_args(["all"]).command == "all"

    def test_sweep_subcommand(self):
        args = build_parser().parse_args(
            ["sweep", "scenario", "--axis", "substrate=oscar,chord"]
        )
        assert args.target == "scenario"
        assert args.axis == ["substrate=oscar,chord"]

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "figZZ"])
        assert "invalid choice" in capsys.readouterr().err


class TestMain:
    def test_fig1a_renders(self, capsys):
        exit_code = main(["run", "fig1a", "--scale", "0.02"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "fig1a" in out
        assert "analytic_mean" in out
        assert "finished in" in out
        assert "ran 1, cached 0" in out

    def test_bare_experiment_name_is_an_invalid_choice(self, capsys):
        # One spelling: `repro run fig1a`; a bare id is not a subcommand.
        with pytest.raises(SystemExit) as excinfo:
            main(["fig1a", "--scale", "0.02"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'fig1a'" in capsys.readouterr().err

    def test_flags_first_spelling_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--scale", "0.02", "run", "fig1a"])
        assert excinfo.value.code == 2

    def test_flags_before_subcommand(self, capsys):
        # Options belong to their subcommand; nothing rotates them there.
        with pytest.raises(SystemExit) as excinfo:
            main(["--tag", "ablation", "list"])
        assert excinfo.value.code == 2
        assert "abl-sampling" not in capsys.readouterr().out

    def test_flag_value_colliding_with_command_name(self, tmp_path, capsys):
        # "run" here is the value of --out, not a subcommand.
        exit_code = main(
            ["run", "fig1a", "--scale", "0.02", "--out", str(tmp_path / "run")]
        )
        assert exit_code == 0
        assert "analytic_mean" in capsys.readouterr().out

    def test_object_param_rejected_from_cli(self, capsys):
        exit_code = main(["run", "ext-mercury", "--param", "oscar_config=foo"])
        assert exit_code == 2
        assert "oscar_config" in capsys.readouterr().err

    def test_csv_output(self, tmp_path, capsys):
        exit_code = main(["run", "fig1a", "--scale", "0.02", "--csv-dir", str(tmp_path)])
        assert exit_code == 0
        csv_file = tmp_path / "fig1a.csv"
        assert csv_file.exists()
        assert csv_file.read_text().startswith("series,x,y")
        assert "series written to" in capsys.readouterr().out

    def test_small_growth_experiment(self, capsys):
        exit_code = main(["run", "fig1c", "--scale", "0.015", "--seed", "3"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "constant" in out and "stepped" in out

    def test_queries_flag_caps_measurement(self, capsys):
        exit_code = main(["run", "fig1c", "--scale", "0.015", "--queries", "20"])
        assert exit_code == 0
        assert "fig1c" in capsys.readouterr().out

    def test_queries_flag_ignored_by_fig1a(self, capsys):
        exit_code = main(["run", "fig1a", "--scale", "0.02", "--queries", "20"])
        assert exit_code == 0

    def test_param_override(self, capsys):
        exit_code = main(["run", "fig1a", "--scale", "0.02", "--param", "mean_degree=30"])
        assert exit_code == 0
        assert "30.000" in capsys.readouterr().out

    def test_param_requires_single_experiment(self, capsys):
        exit_code = main(["run", "fig1a", "fig1c", "--param", "mean_degree=30"])
        assert exit_code == 2
        assert "--param" in capsys.readouterr().err

    def test_unknown_param_rejected(self, capsys):
        exit_code = main(["run", "fig1a", "--param", "bogus=1"])
        assert exit_code == 2
        assert "bogus" in capsys.readouterr().err

    def test_unparsable_param_value_rejected(self, capsys):
        # A bad value spelling is a user error (exit 2), not a traceback.
        exit_code = main(["run", "fig1a", "--param", "mean_degree=abc"])
        assert exit_code == 2
        assert "mean_degree" in capsys.readouterr().err

    def test_artifact_cache_round_trip(self, tmp_path, capsys):
        store = str(tmp_path / "artifacts")
        assert main(["run", "fig1a", "--scale", "0.02", "--out", store]) == 0
        assert "ran 1, cached 0" in capsys.readouterr().out
        assert main(["run", "fig1a", "--scale", "0.02", "--out", store]) == 0
        out = capsys.readouterr().out
        assert "ran 0, cached 1" in out
        assert "served from cache" in out
        # --force re-simulates despite the cache.
        assert main(["run", "fig1a", "--scale", "0.02", "--out", store, "--force"]) == 0
        assert "ran 1, cached 0" in capsys.readouterr().out


class TestListSubcommand:
    def test_lists_every_spec(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for spec in all_specs():
            assert spec.id in out
        assert "substrate-churn" in out  # registered sweeps shown too

    def test_tag_filter(self, capsys):
        assert main(["list", "--tag", "ablation"]) == 0
        out = capsys.readouterr().out
        assert "abl-sampling" in out
        assert "fig1a" not in out

    def test_params_shown(self, capsys):
        assert main(["list", "--params"]) == 0
        assert "--param mean_degree" in capsys.readouterr().out

    def test_unknown_tag_fails(self, capsys):
        assert main(["list", "--tag", "nope"]) == 1


class TestSweepSubcommand:
    def test_adhoc_axis_sweep(self, capsys):
        exit_code = main(
            [
                "sweep", "scenario",
                "--axis", "substrate=oscar,chord",
                "--scale", "0.008", "--queries", "10",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "2 points" in out
        assert "substrate=oscar" in out and "substrate=chord" in out
        assert "final_cost" in out

    def test_unknown_sweep_rejected(self, capsys):
        assert main(["sweep", "nope"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_sweep_csv_one_file_per_point(self, tmp_path, capsys):
        exit_code = main(
            [
                "sweep", "scenario", "--axis", "substrate=oscar,chord",
                "--scale", "0.008", "--queries", "10", "--csv-dir", str(tmp_path),
            ]
        )
        assert exit_code == 0
        names = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert names == [
            "scenario-substrate_chord.csv",
            "scenario-substrate_oscar.csv",
        ]

    def test_bad_axis_spelling_rejected(self, capsys):
        assert main(["sweep", "scenario", "--axis", "substrate"]) == 2
        assert "NAME=VALUE" in capsys.readouterr().err


class TestReportSubcommand:
    def test_report_from_artifacts(self, tmp_path, capsys):
        store = str(tmp_path / "artifacts")
        report = tmp_path / "EXPERIMENTS.md"
        assert main(["run", "fig1a", "--scale", "0.02", "--out", store]) == 0
        capsys.readouterr()
        assert main(["report", "--out", store, "--file", str(report)]) == 0
        text = report.read_text()
        assert "# Experiment record" in text
        assert "`fig1a`" in text
        assert "analytic_mean" in text

    def test_report_skips_scenario_grid_points(self, tmp_path, capsys):
        store = str(tmp_path / "artifacts")
        report = tmp_path / "EXPERIMENTS.md"
        assert main(["run", "fig1a", "--scale", "0.02", "--out", store]) == 0
        assert main(
            [
                "sweep", "scenario", "--axis", "substrate=oscar",
                "--scale", "0.008", "--queries", "10", "--out", store,
            ]
        ) == 0
        capsys.readouterr()
        assert main(["report", "--out", store, "--file", str(report)]) == 0
        text = report.read_text()
        assert "`fig1a`" in text
        # An arbitrary sweep grid point is not a canonical record.
        assert "`scenario`" not in text

    def test_report_without_artifacts_fails(self, tmp_path, capsys):
        exit_code = main(
            ["report", "--out", str(tmp_path / "empty"), "--file", str(tmp_path / "E.md")]
        )
        assert exit_code == 1
        assert "no artifacts" in capsys.readouterr().err


def run_spec(spec_id: str, *params: str, extra: tuple[str, ...] = ()) -> int:
    """``repro run <spec> --param k=v ...`` in-process; returns the exit code."""
    argv = ["run", spec_id, *extra]
    for pair in params:
        argv += ["--param", pair]
    return main(argv)


TINY_CHURN = ("size=150", "epochs=4", "n_queries=32", "half_life=3", "repair_every=2")


class TestBenchSubcommand:
    """``bench`` is gone: a measurement is a spec run.

    Each test drives the ``repro run`` twin of a removed ``bench``
    invocation (old -> new table: docs/reproduction.md), so the
    replacement commands stay runnable and keep the one-line, exit-2
    answer to bad values that ``bench`` gave.
    """

    def test_bench_is_gone(self, capsys):
        assert "bench" not in COMMANDS
        with pytest.raises(SystemExit) as excinfo:
            main(["bench"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_bench_runs_and_validates(self, capsys):
        extra = ("--scale", "0.012", "--queries", "64")
        assert run_spec("scenario", "substrate=chord", extra=extra) == 0
        out = capsys.readouterr().out
        assert "chord/gnutella/constant" in out
        assert "success_rate" in out

    def test_substrate_choices(self, capsys):
        extra = ("--scale", "0.0064", "--queries", "16")
        for substrate in ("oscar", "mercury"):
            assert run_spec("scenario", f"substrate={substrate}", extra=extra) == 0
        capsys.readouterr()
        assert run_spec("scenario", "substrate=kademlia", extra=extra) == 2
        assert "unknown overlay kind 'kademlia'" in capsys.readouterr().err

    def test_bench_build_phase_runs(self, capsys):
        assert run_spec("scale-build", "sizes=150", "n_queries=50") == 0
        out = capsys.readouterr().out
        assert "rewire_speedup" in out
        assert "final_peers_per_second" in out
        assert run_spec("scale-build", "sizes=150", "compare_scalar=false") == 0

    def test_bench_churn_phase_runs(self, capsys):
        assert run_spec("steady-churn", *TINY_CHURN) == 0
        out = capsys.readouterr().out
        assert "epochs_per_second" in out
        assert "max_stale_links" in out

    def test_bench_detector_phase_runs(self, capsys):
        assert run_spec("detector-churn", *TINY_CHURN, "loss=0.05", "rounds=3") == 0
        assert "false_evictions" in capsys.readouterr().out

    def test_bench_serve_phase_runs(self, capsys):
        serve = ("replicas=2", "items=100", "cache_size=64", "exponent=1.1")
        assert run_spec("serve-churn", *TINY_CHURN, *serve) == 0
        assert "items_lost_total" in capsys.readouterr().out
        assert run_spec("serve-churn", *TINY_CHURN, *serve, "membership=probe", "loss=0.1") == 0
        assert "stale_serves" in capsys.readouterr().out

    def test_bench_net_phase_runs(self, capsys):
        assert run_spec("net-smoke", "size=64", "free_size=64", "probes=20") == 0
        assert "lockstep_stats_equal" in capsys.readouterr().out

    def test_bench_batch_zero_means_one_query_per_peer(self, capsys):
        # The PR 2 n_queries=0 convention: 0 is a valid "default budget".
        assert run_spec("steady-churn", "size=80", "epochs=1", "n_queries=0") == 0
        assert "mean_success_rate" in capsys.readouterr().out

    def test_bench_negative_batch_is_a_config_error(self, capsys):
        assert run_spec("steady-churn", "size=80", "n_queries=-3") == 2
        assert "run: n_queries must be >= 0" in capsys.readouterr().err

    def test_bench_rejects_bad_rounds_and_cap(self, capsys):
        assert run_spec("detector-churn", "size=80", "rounds=0") == 2
        assert "run: rounds_per_epoch must be >= 1" in capsys.readouterr().err
        assert run_spec("scale-build", "sizes=80", "cap=0") == 2
        assert "run: cap must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("spec_id", ["steady-churn", "detector-churn", "serve-churn"])
    def test_zero_epochs_is_a_config_error(self, spec_id, capsys):
        # steady-/detector-churn used to die with ZeroDivisionError here.
        assert run_spec(spec_id, "size=80", "epochs=0") == 2
        assert capsys.readouterr().err == "run: epochs must be >= 1, got 0\n"

    def test_bench_churn_rejects_bad_flags(self, capsys):
        for pair, message in [
            ("half_life=0", "run: half_life must be a positive finite float"),
            ("repair_every=0", "run: repair_every must be >= 1"),
            ("sessions=weibull", "run: unknown session distribution 'weibull'"),
            ("keys=bogus", "run: unknown key distribution 'bogus'"),
            ("degrees=bogus", "run: unknown degree distribution 'bogus'"),
        ]:
            assert run_spec("steady-churn", "size=80", pair) == 2
            assert message in capsys.readouterr().err

    def test_engine_rejections_exit_2_without_a_traceback(self, capsys, monkeypatch):
        assert run_spec("detector-churn", "size=80", "loss=1.5") == 2
        assert "run: loss must be in [0, 1)" in capsys.readouterr().err
        assert run_spec("serve-churn", "size=80", "replicas=0") == 2
        assert "run: replication factor k must be >= 1" in capsys.readouterr().err
        assert run_spec("serve-churn", "size=80", "membership=gossip") == 2
        assert "run: unknown membership 'gossip'" in capsys.readouterr().err
        # These once surfaced as tracebacks after the overlay was grown
        # (or, for loss under the oracle, were silently ignored): each is
        # now one line, exit 2, before anything is built.
        grown = []
        monkeypatch.setattr(OscarOverlay, "grow_batch", lambda *a, **k: grown.append(a))
        for pair, message in [
            ("items=-1", "run: items must be >= 0, got -1\n"),
            ("n_queries=-5", "run: n_queries must be >= 0, got -5\n"),
            ("flash_fraction=1.5", "run: fraction must be in [0, 1], got 1.5\n"),
            ("exponent=-1", "run: exponent must be a finite float >= 0, got -1.0\n"),
            ("loss=1.5", "run: loss must be in [0, 1), got 1.5\n"),
        ]:
            assert run_spec("serve-churn", "size=80", pair) == 2, pair
            assert capsys.readouterr().err == message
        assert grown == []

    def test_grow_specs_reject_outside_input_before_growing(self, capsys, monkeypatch):
        # The grow-and-measure loop refuses a bad query count or crash
        # fraction with one line, exit 2, before any overlay is grown.
        grown = []
        monkeypatch.setattr(OscarOverlay, "grow", lambda *a, **k: grown.append(a))
        for spec_id, pair, message in [
            ("scenario", "kill_fraction=1.0", "run: kill_fraction must be in [0, 1), got 1.0\n"),
            ("scenario", "kill_fraction=-0.1", "run: kill_fraction must be in [0, 1), got -0.1\n"),
            ("fig1c", "n_queries=-1", "run: n_queries must be >= 0, got -1\n"),
            ("abl-partitions", "n_queries=-1", "run: n_queries must be >= 0, got -1\n"),
        ]:
            assert run_spec(spec_id, pair) == 2, (spec_id, pair)
            assert capsys.readouterr().err == message
        assert grown == []

    @pytest.mark.parametrize("spec_id", ["steady-churn", "ext-latency", "scenario"])
    @pytest.mark.parametrize("scale", ["0", "-1"])
    def test_nonpositive_scale_is_a_config_error(self, spec_id, scale, capsys):
        # scaled_sizes raised a bare ValueError: a traceback on every spec.
        assert run_spec(spec_id, f"scale={scale}") == 2
        assert capsys.readouterr().err == f"run: scale must be > 0, got {float(scale)}\n"

    def test_nan_load_is_a_config_error(self, capsys):
        # NaN passed `arrival_rate <= 0` and died in the ASCII chart.
        extra = ("--scale", "0.02")
        assert run_spec("ext-latency", "load_factor=nan", extra=extra) == 2
        assert capsys.readouterr().err == "run: arrival_rate must be > 0, got nan\n"
        assert run_spec("ext-latency", "rate_per_link=nan", extra=extra) == 2
        assert capsys.readouterr().err == "run: rate_per_link must be > 0, got nan\n"

    def test_sweep_reports_run_time_config_errors(self, capsys):
        argv = ["sweep", "steady-churn", "--axis", "epochs=0,1", "--scale", "0.02"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "sweep: epochs must be >= 1, got 0\n"


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-m", "repro", "run", "fig1a", "--scale", "0.02"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0
        assert "fig1a" in completed.stdout

    def test_help_lists_subcommands(self):
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode == 0
        for command in ("run", "sweep", "list", "report"):
            assert command in completed.stdout

    def test_run_help_lists_experiments(self):
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--help"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode == 0
        # argparse wraps the id list across lines; compare without whitespace.
        compact = "".join(completed.stdout.split())
        for name in ("fig1c", "ext-range", "abl-sampling"):
            assert name in compact
