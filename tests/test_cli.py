"""Smoke tests for the unified ``repro`` CLI."""

import pytest

from repro.cli import main as cli_main


class TestDevicesCommand:
    def test_lists_registered_devices(self, capsys):
        assert cli_main(["devices"]) == 0
        out = capsys.readouterr().out
        for name in ("rtx3080", "i7-8700k", "jetson-tx2", "raspberry-pi"):
            assert name in out
        assert "oracle" in out and "predictor" in out


class TestProfileCommand:
    def test_profiles_preset(self, capsys):
        assert cli_main(["profile", "--device", "pi", "--arch", "fast"]) == 0
        out = capsys.readouterr().out
        assert "Raspberry Pi" in out
        assert "total latency" in out
        assert "aggregate" in out

    def test_scenario_overrides(self, capsys):
        assert cli_main(["profile", "--device", "gpu", "--arch", "dgcnn", "--num-points", "256", "--k", "8"]) == 0
        assert "Nvidia RTX3080" in capsys.readouterr().out


class TestPredictCommand:
    def test_trains_then_hits_cache(self, tmp_path, capsys):
        argv = ["predict", "--device", "gpu", "--num-samples", "30", "--epochs", "3", "--root", str(tmp_path)]
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert "0 hits, 1 misses" in first
        assert cli_main(argv) == 0
        second = capsys.readouterr().out
        assert "1 hits, 0 misses" in second


class TestSearchCommand:
    def test_tiny_search_runs_and_caches(self, tmp_path, capsys):
        argv = [
            "search",
            "--device",
            "tx2",
            "--root",
            str(tmp_path),
            "--num-positions",
            "6",
            "--population",
            "4",
            "--function-iterations",
            "1",
            "--operation-iterations",
            "2",
            "--classes",
            "4",
            "--samples-per-class",
            "4",
            "--points",
            "24",
        ]
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert "objective score" in first
        assert "0 hits, 1 misses" in first
        assert cli_main(argv) == 0
        assert "1 hits, 0 misses" in capsys.readouterr().out


class TestServeCommand:
    def test_serves_stream(self, capsys):
        assert cli_main(["serve", "--requests", "8", "--device", "tx2"]) == 0
        out = capsys.readouterr().out
        assert "served 8 requests" in out
        assert "serving telemetry" in out

    def test_unknown_device_is_exit_2(self, capsys):
        assert cli_main(["serve", "--device", "abacus"]) == 2
        assert "error" in capsys.readouterr().err

    def test_slo_rejection_is_exit_2(self, capsys):
        assert cli_main(["serve", "--device", "pi", "--requests", "2", "--slo-ms", "0.0001"]) == 2
        assert "error" in capsys.readouterr().err


class TestEntryPoints:
    def test_console_scripts_point_at_cli(self):
        import pathlib
        import tomllib

        data = tomllib.loads((pathlib.Path(__file__).parents[1] / "pyproject.toml").read_text())
        scripts = data["project"]["scripts"]
        assert scripts == {"repro": "repro.cli:main"}

    def test_missing_subcommand_exits_with_usage(self):
        with pytest.raises(SystemExit) as excinfo:
            cli_main([])
        assert excinfo.value.code == 2
