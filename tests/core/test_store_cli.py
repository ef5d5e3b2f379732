"""Tests for config fingerprints and the command-line interface."""

import json

import pytest

from repro.cli import main as cli_main
from repro.core.store import config_fingerprint
from repro.opg.problem import OpgConfig


class TestFingerprint:
    def test_stable(self):
        assert config_fingerprint(OpgConfig()) == config_fingerprint(OpgConfig())

    def test_sensitive_to_hyperparameters(self):
        assert config_fingerprint(OpgConfig()) != config_fingerprint(OpgConfig(lam=0.5))
        assert config_fingerprint(OpgConfig()) != config_fingerprint(
            OpgConfig(m_peak_bytes=1 << 20)
        )

    def test_hint_order_irrelevant(self):
        a = OpgConfig(preload_hint_weights=frozenset({"x", "y"}))
        b = OpgConfig(preload_hint_weights=frozenset({"y", "x"}))
        assert config_fingerprint(a) == config_fingerprint(b)


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "GPTN-S" in out and "OnePlus 12" in out and "table7" in out

    def test_run_with_baseline(self, capsys):
        code = cli_main(
            ["run", "ResNet50", "--baseline", "SMem", "--time-limit", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "FlashMem:" in out and "SMem:" in out and "Speedup" in out

    def test_run_unsupported_baseline_model(self, capsys):
        code = cli_main(["run", "ViT", "--baseline", "NCNN", "--time-limit", "1"])
        assert code == 0
        assert "not supported" in capsys.readouterr().out

    def test_plan_export(self, tmp_path, capsys):
        out_file = tmp_path / "plan.json"
        code = cli_main(["plan", "ResNet50", "--time-limit", "1", "--out", str(out_file)])
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["model"] == "ResNet50"
        assert payload["schedules"]

    def test_plan_solver_stats(self, capsys):
        code = cli_main(["plan", "ResNet50", "--time-limit", "1", "--solver-stats"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Solver stats" in out
        assert "nodes/s" in out

    def test_run_solver_stats(self, capsys):
        code = cli_main(["run", "ResNet50", "--time-limit", "1", "--solver-stats"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Solver stats" in out
        assert "windows replayed from cache" in out
        assert "compiled in" in out

    def test_profile_compile(self, capsys):
        code = cli_main(
            ["profile", "compile", "ResNet50", "oneplus12", "--top", "5", "--time-limit", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Profiling compile" in out
        assert "OnePlus 12" in out  # alias resolved to the canonical preset
        assert "cumulative" in out
        assert "compile finished in" in out

    def test_device_alias_accepted_by_run(self, capsys):
        code = cli_main(["run", "ResNet50", "--device", "PIXEL-8", "--time-limit", "1"])
        assert code == 0
        assert "Pixel 8" in capsys.readouterr().out

    def test_experiment_command(self, capsys, tmp_path):
        assert cli_main(["experiment", "table5", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Table 5" in out
        assert "cache:" in out and "1 stored" in out

    def test_experiment_warm_rerun_hits_cache(self, capsys, tmp_path):
        assert cli_main(["experiment", "table5", "--cache-dir", str(tmp_path)]) == 0
        first = capsys.readouterr().out
        assert cli_main(["experiment", "table5", "--cache-dir", str(tmp_path)]) == 0
        second = capsys.readouterr().out
        assert "[cached]" in second and "1 hits" in second
        # The rendered table itself is byte-for-byte identical.
        assert first.split("\n\n")[0] == second.split("\n\n")[0]

    def test_experiment_no_cache_bypasses_store(self, capsys, tmp_path):
        code = cli_main(["experiment", "table5", "--no-cache",
                         "--cache-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "cache: disabled (--no-cache)" in out
        assert not list(tmp_path.rglob("*.pkl"))

    def test_experiment_results_dir(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code = cli_main(["experiment", "table5", "--no-cache",
                         "--results-dir", str(out_dir)])
        assert code == 0
        assert "Table 5" in (out_dir / "table5.txt").read_text()

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["frobnicate"])
