import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eulerreach import benchcli
from eulerreach.benchcli import (
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_RESOURCE,
    ExperimentConfig,
    build_system,
    main,
    metric_sigma,
    run_experiment,
)
from eulerreach.discretization import uniform_discretization
from eulerreach.errors import ConfigError, InvariantViolation
from eulerreach.euler import euler_run
from eulerreach.systems import make_exponential_system


class TestConfig:
    def test_defaults_valid(self):
        ExperimentConfig().validate()

    @pytest.mark.parametrize(
        "patch",
        [
            {"system": "lorenz"},
            {"algorithm": "magic"},
            {"eps": 0.0},
            {"ladder": [1.0, 2.0]},
            {"ladder": []},
            {"cap": 10},
            {"d": 0},
            {"workers": 0},
            {"eps": float("nan")},
            {"eps": float("inf")},
            {"L": float("nan")},
            {"L": float("inf")},
            {"ladder": [float("inf"), 1.0]},
            {"ladder": [1.0, float("nan")]},
        ],
    )
    def test_invalid_rejected(self, patch):
        config = ExperimentConfig(**patch)
        with pytest.raises(ConfigError):
            config.validate()

    def test_hash_stable_and_sensitive(self):
        a = ExperimentConfig()
        b = ExperimentConfig()
        c = ExperimentConfig(eps=0.5)
        assert a.hash() == b.hash()
        assert a.hash() != c.hash()

    def test_build_system_overrides_exponents(self):
        config = ExperimentConfig(system="exponential", d=2, d_R=1, d_F=2)
        system = build_system(config)
        assert system.d_R == 1 and system.d_F == 2


class TestMetrics:
    def test_sigma_profiles_normalized(self):
        system = make_exponential_system(1, 1.0)
        record = euler_run(system, uniform_discretization(1.0, 6))
        sigma_e, sigma_c = metric_sigma(record)
        assert len(sigma_e) == 7 and len(sigma_c) == 7
        assert np.all(np.diff(sigma_e) >= 0) and np.all(np.diff(sigma_c) >= 0)
        assert sigma_e[-1] == pytest.approx(1.0)
        assert sigma_c[-1] == pytest.approx(1.0)


class TestConfigParsing:
    def test_kv_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "system = exponential\n"
            "d = 2\n"
            "eps = 0.5  # trailing comment\n"
            "ladder = 4, 2, 1\n"
        )
        data = benchcli._parse_kv_file(cfg)
        config = ExperimentConfig()
        for key, value in data.items():
            benchcli._apply_key(config, key, value)
        assert config.d == 2
        assert config.eps == 0.5
        assert config.ladder == [4.0, 2.0, 1.0]

    def test_kv_file_missing(self):
        with pytest.raises(ConfigError):
            benchcli._parse_kv_file(Path("/nonexistent/file.cfg"))

    def test_kv_file_bad_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just words\n")
        with pytest.raises(ConfigError):
            benchcli._parse_kv_file(cfg)

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            benchcli._apply_key(ExperimentConfig(), "bogus", "1")

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            benchcli._apply_key(ExperimentConfig(), "eps", "fast")

    def test_stdin_json(self, tmp_path, monkeypatch):
        payload = {"system": "exponential", "d": 1, "L": 1.0, "eps": 2.0,
                   "out": str(tmp_path / "o")}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        assert main(["run-uniform", "--config", "-"]) == EXIT_OK
        assert (tmp_path / "o" / "summary.txt").exists()

    def test_stdin_invalid_json(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("not json"))
        assert main(["run-uniform", "--config", "-"]) == EXIT_CONFIG


class TestRunExperiment:
    def test_uniform_artifacts(self, tmp_path):
        config = ExperimentConfig(eps=1.0, out=str(tmp_path / "u"))
        assert run_experiment(config) == EXIT_OK
        out = tmp_path / "u"
        for name in ("config.txt", "summary.txt", "steps_uniform.csv",
                      "sigma_uniform.csv", "stepsizes_uniform.csv", "timing.txt"):
            assert (out / name).exists(), name
        assert "config_hash" in (out / "summary.txt").read_text()

    def test_adaptive_artifacts(self, tmp_path):
        config = ExperimentConfig(
            algorithm="adaptive", eps=2.0, out=str(tmp_path / "a")
        )
        assert run_experiment(config) == EXIT_OK
        out = tmp_path / "a"
        for name in ("steps_adaptive.csv", "iterations.csv", "thresholds.csv"):
            assert (out / name).exists(), name
        with (out / "thresholds.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["eps"] == "" and rows[0]["delta_C_metric"] == ""
        assert all(r["delta_C_metric"] != "" for r in rows[1:])

    def test_compare_artifacts(self, tmp_path):
        config = ExperimentConfig(
            algorithm="compare", eps=2.0, out=str(tmp_path / "c")
        )
        assert run_experiment(config) == EXIT_OK
        with (tmp_path / "c" / "comparison.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert int(rows[0]["cost_adaptive_final"]) > 0

    def test_snapshots(self, tmp_path):
        config = ExperimentConfig(
            algorithm="adaptive", eps=4.0, out=str(tmp_path / "s"), snapshots=True
        )
        run_experiment(config)
        snaps = sorted((tmp_path / "s" / "snapshots").glob("step_*.txt"))
        assert snaps
        first = snaps[0].read_text().splitlines()
        assert first[0].startswith("# t=")
        assert first[1].startswith("# rho=")

    def test_deterministic_artifacts(self, tmp_path):
        out = tmp_path / "repeat"

        def snapshot():
            run_experiment(
                ExperimentConfig(algorithm="compare", eps=1.0, out=str(out))
            )
            return {
                f.name: f.read_bytes()
                for f in sorted(out.glob("*"))
                if f.is_file() and f.name != "timing.txt"
            }

        assert snapshot() == snapshot()


class TestMainExitCodes:
    def test_ok(self, tmp_path):
        assert main(
            ["run-uniform", "--d", "1", "--L", "1", "--eps", "2.0",
             "--out", str(tmp_path / "o")]
        ) == EXIT_OK

    def test_config_error(self, tmp_path):
        assert main(
            ["run-uniform", "--eps", "-1", "--out", str(tmp_path / "x")]
        ) == EXIT_CONFIG

    def test_system_construction_error(self, tmp_path):
        assert main(
            ["run-uniform", "--L", "-1", "--out", str(tmp_path / "neg")]
        ) == EXIT_CONFIG

    def test_resource_cap(self, tmp_path):
        code = main(
            ["run-uniform", "--d", "2", "--L", "2", "--eps", "0.5",
             "--cap", "2000", "--out", str(tmp_path / "cap")]
        )
        assert code == EXIT_RESOURCE

    def test_invariant_violation(self, tmp_path, monkeypatch):
        def boom(config):
            raise InvariantViolation("forced")

        monkeypatch.setattr(benchcli, "run_experiment", boom)
        assert main(
            ["run-uniform", "--out", str(tmp_path / "v")]
        ) == EXIT_INVARIANT

    def test_sweep(self, tmp_path):
        out = tmp_path / "sweep"
        assert main(
            ["sweep", "--d", "1", "--L", "1", "--eps-list", "2.0,1.0",
             "--out", str(out)]
        ) == EXIT_OK
        with (out / "sweep.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert {r["eps"] for r in rows} == {"2", "1"}

    def test_emit_figure_data(self, tmp_path):
        out = tmp_path / "fig"
        assert main(
            ["emit-figure-data", "--d", "1", "--L", "1", "--eps", "2.0",
             "--out", str(out)]
        ) == EXIT_OK
        assert (out / "comparison.csv").exists()
        assert list((out / "snapshots").glob("step_*.txt"))


class TestSelftest:
    def test_passes_and_prints(self, capsys):
        assert benchcli.selftest(seed=0) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(line.startswith("PASS") for line in lines)

    def test_via_main(self, capsys):
        assert main(["selftest", "--seed", "1"]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out


def test_import_loads_no_threads_or_scipy():
    # -S skips site start-up hooks (.pth files), which may load threading
    # themselves; the path still comes from this interpreter
    code = (
        "import sys, eulerreach, eulerreach.benchcli; "
        "print(sorted({'scipy', 'concurrent.futures', 'threading'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"
