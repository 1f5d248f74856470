"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "comp"])
        assert args.benchmark == "comp"
        assert args.n == 10
        assert args.threshold == 0.10
        assert not args.profile_guided

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "fig7"])
        assert args.which == "fig7"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert (args.host, args.port) == ("127.0.0.1", 8752)
        assert args.queue_dir == ".repro-serve"
        assert args.store is None and args.max_instructions is None
        assert args.shard_size == 8 and args.resume

    @pytest.mark.parametrize("argv", [
        ["serve", "--rate", "5"],
        ["serve", "--burst", "5"],
        ["loadtest"],
    ], ids=["serve-rate", "serve-burst", "loadtest"])
    def test_removed_options_are_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


class TestCommands:
    def test_suite_lists_benchmarks(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "gcc" in out and "mcf_2k" in out

    def test_run_prints_comparison(self, capsys):
        assert main(["run", "comp", "--instructions", "20000"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "dynamic SSMT" in out
        assert "speed-up" in out

    def test_run_profile_guided(self, capsys):
        assert main(["run", "comp", "--instructions", "20000",
                     "--profile-guided"]) == 0
        assert "profile-guided SSMT" in capsys.readouterr().out

    def test_profile_outputs_tables(self, capsys):
        assert main(["profile", "comp", "--instructions", "20000",
                     "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 2" in out

    def test_experiment_intro_subset(self, capsys):
        assert main(["experiment", "intro", "--instructions", "20000",
                     "--benchmarks", "comp"]) == 0
        assert "headroom" in capsys.readouterr().out

    def test_experiment_fig7_subset(self, capsys):
        assert main(["experiment", "fig7", "--instructions", "20000",
                     "--benchmarks", "comp"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out and "mean gain" in out

    def test_disasm_head(self, capsys):
        assert main(["disasm", "comp", "--head", "5"]) == 0
        out = capsys.readouterr().out
        assert "main:" in out and "more lines" in out

    def test_unknown_benchmark_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "nonsense"])


class TestVerifyCommand:
    def test_verify_defaults(self):
        from repro.verify.runner import DEFAULT_VERIFY_LENGTH

        args = build_parser().parse_args(["verify"])
        assert args.instructions == DEFAULT_VERIFY_LENGTH
        assert args.benchmarks == []
        assert not args.sanitize

    def test_rules_listing(self, capsys):
        assert main(["verify", "--rules"]) == 0
        out = capsys.readouterr().out
        assert "MT001" in out and "SAN001" in out
        assert "use-before-def" in out

    def test_verify_clean_benchmark_exits_zero(self, capsys):
        assert main(["verify", "comp", "--instructions", "20000",
                     "--sanitize"]) == 0
        out = capsys.readouterr().out
        assert "routines verified, 0 errors" in out
        assert "ok" in out and "FAIL" not in out

    def test_verify_unknown_benchmark_exits(self):
        with pytest.raises(SystemExit):
            main(["verify", "nonsense"])

    def test_verify_failure_exits_nonzero(self, capsys, monkeypatch):
        from repro.verify.diagnostics import Severity, VerifyReport
        from repro.verify.runner import WorkloadVerifyResult

        report = VerifyReport(subject="path_id=0xbad term_pc=7")
        report.emit("MT002", Severity.ERROR, "dead micro-op seeded")

        def fake_suite(benchmarks, **kwargs):
            return (WorkloadVerifyResult(
                benchmark="comp", routines_built=3,
                error_reports=[report], error_count=1, warning_count=0),)

        monkeypatch.setattr("repro.cli.verify_suite", fake_suite)
        assert main(["verify", "comp"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "MT002" in out and "dead micro-op seeded" in out

    def test_run_sanitize_clean(self, capsys):
        assert main(["run", "comp", "--instructions", "20000",
                     "--sanitize"]) == 0
        assert "invariants held" in capsys.readouterr().out

    def test_run_sanitize_rejects_profile_guided(self):
        with pytest.raises(SystemExit):
            main(["run", "comp", "--instructions", "20000",
                  "--sanitize", "--profile-guided"])
