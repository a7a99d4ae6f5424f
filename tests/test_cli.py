"""Tests for repro.cli."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_experiment_subcommand(self):
        args = build_parser().parse_args(["experiment", "fig2", "--out", "x"])
        assert args.command == "experiment"
        assert args.id == "fig2"
        assert args.out == "x"

    def test_threshold_defaults(self):
        args = build_parser().parse_args(["threshold"])
        assert args.alpha == 0.01
        assert args.eps1 == 0.2
        assert args.eps2 == 0.05

    def test_dataset_subcommand(self):
        args = build_parser().parse_args(["dataset"])
        assert args.friends_csv is None

    def test_experiment_parallel_flags(self):
        args = build_parser().parse_args(
            ["experiment", "all", "--workers", "4", "--backend", "process"])
        assert args.workers == 4
        assert args.backend == "process"

    def test_experiment_parallel_defaults(self):
        args = build_parser().parse_args(["experiment", "all"])
        assert args.workers is None
        assert args.backend is None

    def test_experiment_invalid_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["experiment", "all", "--backend", "gpu"])

    def test_experiment_rejects_vectorized_backend(self, capsys):
        """The figure pipelines are not batch-capable sweeps: under the
        vectorized executor they would run one after another."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["experiment", "all", "--backend", "vectorized"])
        assert "invalid choice: 'vectorized'" in capsys.readouterr().err

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_dataset_synthetic(self, capsys):
        assert main(["dataset"]) == 0
        out = capsys.readouterr().out
        assert "synthetic" in out
        assert "848" in out

    def test_dataset_from_csv(self, tmp_path: Path, capsys):
        path = tmp_path / "digg_friends.csv"
        path.write_text("1,1,1,2\n1,2,2,3\n")
        assert main(["dataset", "--friends-csv", str(path)]) == 0
        assert "digg2009-csv" in capsys.readouterr().out

    def test_threshold_reports_verdict(self, capsys):
        assert main(["threshold", "--eps1", "0.2", "--eps2", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "r0 =" in out
        assert "EXTINCT" in out or "SPREADING" in out

    def test_threshold_spreading_verdict(self, capsys):
        assert main(["threshold", "--eps1", "0.01", "--eps2", "0.01"]) == 0
        assert "SPREADING" in capsys.readouterr().out


class TestObservabilityFlags:
    def test_defaults(self):
        args = build_parser().parse_args(["threshold"])
        assert args.log_level == "warning"
        assert args.trace_out is None
        assert args.progress is False

    def test_flags_parse(self):
        args = build_parser().parse_args(
            ["--log-level", "debug", "--trace-out", "run.jsonl",
             "--progress", "threshold"])
        assert args.log_level == "debug"
        assert args.trace_out == "run.jsonl"
        assert args.progress is True

    def test_invalid_log_level_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--log-level", "loud", "threshold"])

    def test_trace_out_writes_valid_manifest(self, tmp_path: Path, capsys):
        from repro.obs.events import validate_manifest

        path = tmp_path / "trace.jsonl"
        assert main(["--trace-out", str(path), "threshold"]) == 0
        events = validate_manifest(path)
        assert events[0]["run"]["command"] == "threshold"
        assert events[-1]["type"] == "manifest_end"

    def test_no_observer_leaks_after_main(self, tmp_path: Path):
        from repro.obs.trace import get_observer

        assert main(["--trace-out", str(tmp_path / "t.jsonl"),
                     "threshold"]) == 0
        assert get_observer() is None

    def test_profiling_flags_default_off(self):
        args = build_parser().parse_args(["threshold"])
        assert args.profile_resources is False
        assert args.profile_phases is False

    def test_profiling_flags_parse(self):
        args = build_parser().parse_args(
            ["--profile-resources", "--profile-phases", "threshold"])
        assert args.profile_resources is True
        assert args.profile_phases is True

    def test_profiling_flag_alone_installs_observer(self, tmp_path: Path,
                                                    capsys):
        # --profile-resources without --trace-out still observes (the
        # manifest goes to a MemorySink) and must not leak the hook.
        from repro.obs.trace import get_observer

        assert main(["--profile-resources", "threshold"]) == 0
        assert get_observer() is None


class TestObsSubcommand:
    def _valid_manifest(self, tmp_path: Path) -> Path:
        from repro.obs.trace import observing

        path = tmp_path / "run.jsonl"
        with observing(path, run={"case": "cli"}) as observer:
            with observer.span("phase"):
                pass
        return path

    def test_parser_accepts_obs_commands(self):
        args = build_parser().parse_args(["obs", "report", "m.jsonl"])
        assert args.command == "obs"
        assert args.obs_command == "report"
        assert args.width == 40
        args = build_parser().parse_args(
            ["obs", "compare", "a.json", "b.json", "--warn-only",
             "--wall-rtol", "0.5"])
        assert args.obs_command == "compare"
        assert args.warn_only is True
        assert args.wall_rtol == 0.5
        args = build_parser().parse_args(["obs", "validate", "m.jsonl"])
        assert args.obs_command == "validate"

    def test_obs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs"])

    def test_validate_exit_zero_on_valid(self, tmp_path: Path, capsys):
        path = self._valid_manifest(tmp_path)
        assert main(["obs", "validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "valid" in out
        assert "repro-obs/3" in out

    def test_validate_exit_one_on_truncated(self, tmp_path: Path,
                                            capsys):
        path = self._valid_manifest(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()[:-1]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["obs", "validate", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_validate_exit_one_on_missing_file(self, tmp_path: Path,
                                               capsys):
        assert main(["obs", "validate",
                     str(tmp_path / "nope.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_report_renders_manifest(self, tmp_path: Path, capsys):
        path = self._valid_manifest(tmp_path)
        assert main(["obs", "report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "[COMPLETE]" in out
        assert "phase" in out

    def test_obs_never_installs_observer(self, tmp_path: Path, capsys):
        # Even with observability flags set, analysis commands must not
        # trace themselves.
        from repro.obs.trace import get_observer

        path = self._valid_manifest(tmp_path)
        trace = tmp_path / "self-trace.jsonl"
        assert main(["--trace-out", str(trace), "obs", "report",
                     str(path)]) == 0
        assert get_observer() is None
        assert not trace.exists()
