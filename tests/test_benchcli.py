import argparse
import csv
import dataclasses
import hashlib
import io
import json
import os
import shutil
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
from eulerreach.errors import ConfigError, InvariantViolation, ResourceCapError
from eulerreach.euler import euler_run
from eulerreach.refine import algorithm_adaptive
from eulerreach.systems import make_exponential_system


# argparse rejects the input: exit 2 after its usage line
ARGPARSE = "argparse"


def _artifact_digests(out: Path) -> dict[str, str]:
    got = {}
    snapshots = hashlib.sha256()
    for path in sorted(out.rglob("*")):
        if not path.is_file() or path.name == "timing.txt":
            continue
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if path.parent.name == "snapshots":
            snapshots.update(f"{path.name} {digest}\n".encode())
            got["snapshots"] = None
        else:
            got[path.relative_to(out).as_posix()] = digest
    if "snapshots" in got:
        got["snapshots"] = snapshots.hexdigest()
    return got


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
            {"eps": float("nan")},
            {"eps": float("inf")},
            {"L": float("nan")},
            {"L": float("inf")},
            {"ladder": [float("inf"), 1.0]},
            {"ladder": [1.0, float("nan")]},
            {"cap": 2**53},
            {"algorithm": "compare", "eps": 0.25, "ladder": [4.0, 2.0, 1.0]},
        ],
    )
    def test_invalid_rejected(self, patch):
        config = ExperimentConfig(**patch)
        with pytest.raises(ConfigError):
            config.validate()

    def test_workers_and_seed_are_fixed_but_echoed(self):
        for name, value in (("workers", 1), ("seed", 0)):
            with pytest.raises(TypeError):
                ExperimentConfig(**{name: value})
            assert dataclasses.asdict(ExperimentConfig())[name] == value
            assert name not in benchcli._FIELDS

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


def _loaded(monkeypatch, data: dict) -> ExperimentConfig:
    """The configuration that `--config -` reads from data as JSON."""
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(data)))
    return benchcli._load_config(argparse.Namespace(config="-"))


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
        config = benchcli._load_config(argparse.Namespace(config=str(cfg)))
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

    def test_unknown_key(self, monkeypatch):
        with pytest.raises(ConfigError, match="unknown config key 'bogus'"):
            _loaded(monkeypatch, {"bogus": "1"})

    def test_bad_value(self, monkeypatch):
        with pytest.raises(ConfigError):
            _loaded(monkeypatch, {"eps": "fast"})

    def test_stdin_json(self, tmp_path, monkeypatch):
        payload = {"system": "exponential", "d": 1, "L": 1.0, "eps": 2.0,
                   "out": str(tmp_path / "o")}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        assert main(["run-uniform", "--config", "-"]) == EXIT_OK
        assert (tmp_path / "o" / "summary.txt").exists()

    @pytest.mark.parametrize("key", ["out", "system"])
    @pytest.mark.parametrize("value", [None, 5, ["a"]], ids=["null", "number", "list"])
    def test_stdin_string_key_takes_only_strings(
        self, tmp_path, monkeypatch, capsys, key, value
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({key: value, "eps": 1.0})))
        assert main(["run-uniform", "--config", "-"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: bad value for {key!r}")
        assert list(tmp_path.iterdir()) == []

    def test_stdin_invalid_json(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("not json"))
        assert main(["run-uniform", "--config", "-"]) == EXIT_CONFIG

    @pytest.mark.parametrize("value", [2.7, True], ids=["float", "bool"])
    def test_stdin_non_integer_rejected(self, tmp_path, monkeypatch, capsys, value):
        payload = {"d": value, "out": str(tmp_path / "o")}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        assert main(["run-uniform", "--config", "-"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "o").exists()

    def test_kv_file_bad_boolean(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("snapshots = on\n")
        assert main(
            ["run-uniform", "--config", str(cfg), "--out", str(tmp_path / "o")]
        ) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize(
        "value, expected",
        [(True, True), (False, False), ("true", True), ("1", True), ("yes", True),
         ("false", False), ("0", False), ("no", False)],
    )
    def test_boolean_spellings(self, monkeypatch, value, expected):
        assert _loaded(monkeypatch, {"snapshots": value}).snapshots is expected

    @pytest.mark.parametrize(
        "value, expected", [("7", 7), (7, 7), ("-3", -3), ("5e7", 50_000_000),
                            (5e7, 50_000_000), ("2.0", 2)],
    )
    def test_integer_spellings(self, monkeypatch, value, expected):
        config = _loaded(monkeypatch, {"cap": value})
        assert type(config.cap) is int and config.cap == expected

    @pytest.mark.parametrize(
        "value", ["2.5", 2.5, True, "nan", "inf", float("inf"), None, [1]]
    )
    def test_non_integers_rejected(self, monkeypatch, value):
        with pytest.raises(ConfigError):
            _loaded(monkeypatch, {"d": value})

    @pytest.mark.parametrize(
        "key, value", [("eps", True), ("L", False), ("ladder", [True, 0.5])]
    )
    def test_booleans_rejected_as_floats(self, monkeypatch, key, value):
        with pytest.raises(ConfigError):
            _loaded(monkeypatch, {key: value})

    # a non-default value of every config key: as JSON, as a key=value
    # line and as flags
    SPELLINGS = {
        "system": ("michaelis_menten", "michaelis_menten", ["--system", "michaelis_menten"]),
        "d": (2, "2", ["--d", "2"]),
        "L": (0.5, "0.5", ["--L", "0.5"]),
        "eps": (1.0, "1.0", ["--eps", "1.0"]),
        "ladder": ([1.0, 0.5], "1, 0.5", ["--ladder", "1,0.5"]),
        "d_R": (1, "1", ["--d_R", "1"]),
        "d_F": (0, "0", ["--d_F", "0"]),
        "cap": (40_000_000, "4e7", ["--cap", "40000000"]),
        "out": ("elsewhere", "elsewhere", ["--out", "elsewhere"]),
        "snapshots": (True, "yes", ["--snapshots"]),
    }

    @pytest.mark.parametrize("key", list(SPELLINGS))
    def test_file_json_and_flag_agree(self, tmp_path, monkeypatch, key):
        assert set(self.SPELLINGS) == set(benchcli._FIELDS)
        monkeypatch.chdir(tmp_path)
        json_value, kv_value, flags = self.SPELLINGS[key]
        Path("run.cfg").write_text(f"{key} = {kv_value}\n")
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({key: json_value})))
        out = Path("elsewhere" if key == "out" else "out")
        echoed = []
        for argv in (["--config", "run.cfg"], ["--config", "-"], flags):
            assert main(["run-uniform", *argv]) == EXIT_OK
            echoed.append((out / "config.txt").read_bytes())
            shutil.rmtree(out)
        assert echoed[0] == echoed[1] == echoed[2]
        default = f"{key} = {getattr(ExperimentConfig(), key)}"
        assert default not in echoed[0].decode().splitlines()


def _assert_writes_its_artifacts(out: Path, algorithm: str) -> None:
    """The run wrote exactly the files that benchcli.ARTIFACTS lists, so
    the check of artifact paths before a solve covers every file."""
    common = {"config.txt", "summary.txt", "timing.txt"}
    assert {p.name for p in out.iterdir()} == common | set(benchcli.ARTIFACTS[algorithm])


class TestRunExperiment:
    def test_uniform_artifacts(self, tmp_path):
        config = ExperimentConfig(eps=1.0, out=str(tmp_path / "u"))
        assert run_experiment(config) == EXIT_OK
        out = tmp_path / "u"
        for name in ("config.txt", "summary.txt", "steps_uniform.csv",
                      "sigma_uniform.csv", "stepsizes_uniform.csv", "timing.txt"):
            assert (out / name).exists(), name
        _assert_writes_its_artifacts(out, "uniform")
        assert "config_hash" in (out / "summary.txt").read_text()

    def test_adaptive_artifacts(self, tmp_path):
        config = ExperimentConfig(
            algorithm="adaptive", eps=2.0, out=str(tmp_path / "a")
        )
        assert run_experiment(config) == EXIT_OK
        out = tmp_path / "a"
        for name in ("steps_adaptive.csv", "iterations.csv", "thresholds.csv"):
            assert (out / name).exists(), name
        _assert_writes_its_artifacts(out, "adaptive")
        with (out / "thresholds.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["eps"] == "" and rows[0]["delta_C_metric"] == ""
        assert all(r["delta_C_metric"] != "" for r in rows[1:])

    def test_compare_artifacts(self, tmp_path):
        config = ExperimentConfig(
            algorithm="compare", eps=2.0, out=str(tmp_path / "c")
        )
        assert run_experiment(config) == EXIT_OK
        _assert_writes_its_artifacts(tmp_path / "c", "compare")
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

    def test_rerun_removes_stale_snapshots(self, tmp_path):
        """A shorter rerun into the same directory leaves only its own steps."""
        out = tmp_path / "o"
        for eps in ("0.0625", "0.5"):
            assert main(
                ["run-adaptive", "--eps", eps, "--snapshots", "--out", str(out)]
            ) == EXIT_OK
        summary = (out / "summary.txt").read_text().split()
        n = int(summary[summary.index("n") + 1])
        assert n == 21
        assert {p.name for p in (out / "snapshots").iterdir()} == {
            f"step_{j:05d}.txt" for j in range(n + 1)
        }

    @pytest.mark.parametrize("system, d", [("exponential", 2), ("michaelis_menten", 1)])
    def test_snapshot_bytes(self, tmp_path, system, d):
        """Every snapshot is the t line plus one row of indices per point."""
        out = tmp_path / "snap"
        assert main(
            ["run-adaptive", "--snapshots", "--system", system, "--d", str(d),
             "--ladder", "0.5,0.25", "--out", str(out)]
        ) == EXIT_OK
        config = ExperimentConfig(system=system, d=d)
        _, record, _ = algorithm_adaptive(build_system(config), [0.5, 0.25])
        snaps = sorted((out / "snapshots").glob("step_*.txt"))
        assert len(snaps) == len(record.sets)
        for path, t, s in zip(snaps, record.disc.t, record.sets):
            ref = io.StringIO()
            ref.write(f"# t={format(float(t), '.17g')}\n")
            ref.write(f"# rho={s.resolution!r} d={s.dim} n={s.cardinality}\n")
            for row in s.points:
                ref.write(" ".join(str(int(v)) for v in row) + "\n")
            assert path.read_text() == ref.getvalue(), path.name

    # argv of each pinned run; its --out is the run's name, relative,
    # because config.txt and the config hash echo it
    PINNED_RUNS = {
        "exponential-2": ["run-adaptive", "--snapshots", "--system", "exponential",
                          "--d", "2", "--ladder", "0.5,0.25,0.125"],
        "michaelis_menten-1": ["run-adaptive", "--snapshots", "--system",
                               "michaelis_menten", "--d", "1", "--ladder",
                               "0.5,0.25,0.125"],
        # the snapshot writer's d = 1 rows (no earlier indices) and d = 3 rows
        "snapshots-exponential-1": ["run-adaptive", "--snapshots", "--d", "1",
                                    "--eps", "0.125"],
        "snapshots-exponential-3": ["run-adaptive", "--snapshots", "--d", "3",
                                    "--eps", "0.5"],
        "compare-exponential-2": ["compare", "--d", "2", "--eps", "0.25"],
        # d = 1 and d = 3 give the volume exponents (1, 1) and (3, 3)
        "compare-exponential-1": ["compare", "--d", "1", "--eps", "0.0625"],
        "compare-exponential-3": ["compare", "--d", "3", "--eps", "0.5"],
        "sweep-michaelis_menten": ["sweep", "--system", "michaelis_menten",
                                   "--eps-list", "0.5,0.25"],
    }

    # SHA-256 of every artifact but timing.txt, which performance work must
    # leave unchanged, by path below --out; "snapshots" digests the lines
    # "<file name> <sha256>" of all snapshot files in name order
    PINNED_ARTIFACTS = {
        "exponential-2": {
            "config.txt": "6405e18715bf6486b753eadbd1580d7be1d9dbab6d2f904661b54092e8d29d00",
            "iterations.csv": "38c69b5c126c2d3921353776eb0ea5c83c1cf5ba32eec25f2be0057651944e08",
            "sigma_adaptive.csv": "43daea0565b41e4b73324037b9c7a456729bcf2780be81e37fe1de329e16f9d4",
            "steps_adaptive.csv": "c7762ae2fa31507d4e39124658a9e0b0db5004cb3a27661e145b9ca7b8a076a6",
            "stepsizes_adaptive.csv": "2eb25217d63a435965e722364ab581efcf0d44c73fdc4aca9cab6a1d4ec0672c",
            "summary.txt": "9d80364cbdb8d7e4d5db50ffa31056e1312115cba47cde1bb83a197a19536a77",
            "thresholds.csv": "4ed95e5dbaa443fa7150aacdc5a8b336f8540354f40648ae2672ea92547a34fb",
            "snapshots": "35387ea8ac3280bea0cddfcd03dd32e14a64402f312178e5940600448ad0d745",
        },
        "michaelis_menten-1": {
            "config.txt": "c2455dcaa546547e3c6a4f8a9a429804d3258602454d21499d4c4e4cbf9d642c",
            "iterations.csv": "9184037addbe23b86f01fdb0981ce4e340acdc20b1efe86ee29aca9b8e93cac3",
            "sigma_adaptive.csv": "de25dd14688437610d639c6a7774a585b9356827bf6ced7a59a7e04d03b8a9f1",
            "steps_adaptive.csv": "7bf0ce6e1bed145a36f8630548e87ce0d9c7260b02eb0ef870675712771f7b39",
            "stepsizes_adaptive.csv": "0078762d13bf79615c96ae4fed0ff79faebab4522a8107313749f2966848b23d",
            "summary.txt": "494bc3e55aa81da7bdcf8815b548a207bf8fd58d5157730ab2fbd6e3fc598832",
            "thresholds.csv": "a77b9b5096a0827f3e8cbea5601fa6ab488ae6d8bd4ff8b5b5d04c941770487a",
            "snapshots": "6820c4236a1088f5b9408db6a9f959638c0aad5f4e226b635a2743499270abc0",
        },
        "snapshots-exponential-1": {
            "config.txt": "d5ef8b59c2cd3ad54b49c5c3ceaca61ec893b3addd7f0e26a333d863ff355e7b",
            "iterations.csv": "0fbf45fb1a7c3cd3bd53e68e2b3cf3b0868fd5f6de09d1a5ee1f8bf610fb997f",
            "sigma_adaptive.csv": "dfaf1a11cc2e703ff3ee5faa4f113b3eb2a3ee347efcfa8e38e59bcbfa064f52",
            "steps_adaptive.csv": "3f6d587f248a87613582726c452bf5fb6404e531126ca81866bfeb9f57ff8720",
            "stepsizes_adaptive.csv": "a50ed05a16518b49920d9db47738fe8c2cee4594b7efcbf683b7ea977614efae",
            "summary.txt": "54b42ac62c17aa5a0666c7070524547f78b880bc9f447a881aebacdc21959086",
            "thresholds.csv": "c30cd78d8ee6afe9bfabfc0896880bfadfa4b267a6260ca0f47126979cfc0821",
            "snapshots": "b9a917d80f7352f55c5a57dc68615077f0f15a9fb67608c5f79f3835e3aadb87",
        },
        "snapshots-exponential-3": {
            "config.txt": "084199edcbdd1359280d558163466b47414a8a0b90f4493991dacc862194fc8d",
            "iterations.csv": "24e343bccae7f69b8fb1221134fb924a746e4b13345c170a842c8d88bab04f43",
            "sigma_adaptive.csv": "150af5c147d356724846f07a3531334b5d3dacb3c9dbd92cce1bf1ef1e317ec3",
            "steps_adaptive.csv": "7edd40a585162b2f971692fd70add9dc860492eff6b0af683917c0e4601f8612",
            "stepsizes_adaptive.csv": "3c626714664578fa86a0fb7323d2763631ddfd8d7d20deb50ccd26a69464d957",
            "summary.txt": "c2e0c241834cdc57f3714172b0a6605c50c4ec57795a127dad170855e26b50ad",
            "thresholds.csv": "7edaeaa18932fe976607aefaeefe9a279d76a08b15046315cf749f88f9d02a21",
            "snapshots": "4210665d25c933396011946735ddbe27ce1d211a389e4a670472c397c1f985a5",
        },
        "compare-exponential-2": {
            "comparison.csv": "cd4b0be32e8773af4c6a516d71f7627846f8d710dfb74de6d1aba0f7a923536d",
            "config.txt": "f3d60883c46e329b4ea10754ff9ded96af0ab7ec2bf8486311ff7388ffdef0c3",
            "iterations.csv": "9bb063b5806a47b054d341678cf83f25f81a4451a407cd2a888967287dfec879",
            "sigma_adaptive.csv": "decf232b2e1802fe9eb7119e609718962fa20814a875683f880d95769726a304",
            "sigma_uniform.csv": "2f09c893c9ae9833716e2296d9d07e22b101310139d2646e7bbb35f5c08d526b",
            "steps_adaptive.csv": "5ab7d15060767dfda55c183bb2097701e1fb85ccba2786c030ee1fd0fb36bc80",
            "steps_uniform.csv": "f110abc2fd775f417c4f97ff9df3fe427b0cf7d7c0bcf95e17b27794ad1bca72",
            "stepsizes_adaptive.csv": "c2c881c0c4082d1ddc60b9f6cc99eb37ae9aba9306a7478a9758fb3325948946",
            "stepsizes_uniform.csv": "12213b29ef428dbec3119677e39c717279b68c81f8e38b8f83d261abdc77be1f",
            "summary.txt": "a3bf2257724403fe397c9b9d07b2e03c873ed34da61d2f42f4dadc9245e77ee6",
            "thresholds.csv": "5d802d62d7ee360ebef8c4b13b6f2de7c79df3952ebe13987966bf1179e92a04",
        },
        "compare-exponential-1": {
            "comparison.csv": "180f3eddc5a49ed15b615acfff8d3147c7495121032d1f66dfbc91fc0c608d10",
            "config.txt": "fd68627d2678aa56523a55bd9ad44ad77af13ac1941ec61c7b8ed385e201c087",
            "iterations.csv": "f11e3ea3c33668a843150ceb5097eaabec64de4f6886db367959367e890c9cf2",
            "sigma_adaptive.csv": "6ba8875cd70a96e89e4768b061b780053c3f3873bcd4177c8f588100e73ef30a",
            "sigma_uniform.csv": "7ee28eb44dfdd688fafe6a16f49c63b7635519c4ef120fd9dc58396c3148b9f2",
            "steps_adaptive.csv": "6849391f683ed72698ddee895291419e93b0461f9f662608f43a42355b6ec7ba",
            "steps_uniform.csv": "6797b2c4bf0a1598f079044413035bf8e3f8352a6f574bd32a85bf401ab5a543",
            "stepsizes_adaptive.csv": "0ababf892d04eb7f564ea16d04067cea9d4952faabdc092d0075cbd0ed0526a7",
            "stepsizes_uniform.csv": "20c9dfc17764440b95bd28ed1b159823b16f36686f41cb35b0d7229c8d0c645b",
            "summary.txt": "9147f031504174e6ea1b913a2bd9b2304b4dc5d3c4a30ee9622bc0471552a05f",
            "thresholds.csv": "f8c573d9d62b266ec8a6b667ea9ee77ba6921fb29684ea20bdf3535e4da760b4",
        },
        "compare-exponential-3": {
            "comparison.csv": "740fdb9bbfdaed8b4900c8df37f728851c41980cd1efcaf89311c9f887e2ba83",
            "config.txt": "55a2724448af09206a22f69a40080da2d5710332e234a68a970c254b946b4edd",
            "iterations.csv": "24e343bccae7f69b8fb1221134fb924a746e4b13345c170a842c8d88bab04f43",
            "sigma_adaptive.csv": "150af5c147d356724846f07a3531334b5d3dacb3c9dbd92cce1bf1ef1e317ec3",
            "sigma_uniform.csv": "c8068d05988f5bcc25924b2809074dbf0d57dd27b9e4f3828e78952225473097",
            "steps_adaptive.csv": "7edd40a585162b2f971692fd70add9dc860492eff6b0af683917c0e4601f8612",
            "steps_uniform.csv": "5a58b4e5f17132a4e138c743ae7c03a131d1302dda5987141b867c62b899b1b7",
            "stepsizes_adaptive.csv": "3c626714664578fa86a0fb7323d2763631ddfd8d7d20deb50ccd26a69464d957",
            "stepsizes_uniform.csv": "6c68e33ae7426ceeb29174715a36f12f3c2500aa57385490256a481b8696099e",
            "summary.txt": "523b182c5a1e7a5e9e5e1ea300ff3ddf094edcd7020bd48608951c88f9154139",
            "thresholds.csv": "7edaeaa18932fe976607aefaeefe9a279d76a08b15046315cf749f88f9d02a21",
        },
        "sweep-michaelis_menten": {
            "eps_0.25/comparison.csv": "ed5ef9fbcd6b725dc2b8b9b297401c39094ba7e5142af16bcbaf0a5809882089",
            "eps_0.25/config.txt": "80f5e53695afe246ca0966638677fe4e2b31f9b2dec2e271c7909fcaae0d3ebd",
            "eps_0.25/iterations.csv": "2f0ee52efd4828d26a8d272ba411a15bb91ed09e6bbf060c70a5881c34f072f2",
            "eps_0.25/sigma_adaptive.csv": "7bffa09603970b5230c1d38e3887bb87efb66faf27ff49ffe1672825daa28003",
            "eps_0.25/sigma_uniform.csv": "6115827c5775bde53d607e4ff5482dad52426b30f0fb45d8059f01970758d160",
            "eps_0.25/steps_adaptive.csv": "1c1e5092d865c3d54d84df17f9ff5277d3772dac02aa33a481375c2bee092636",
            "eps_0.25/steps_uniform.csv": "e525b313f72c5661a94ae59ca6a3fb012a6005573a411f1c8ee19f0430aebca6",
            "eps_0.25/stepsizes_adaptive.csv": "7e85e401a170b7eaa7f485551de843c9b885f1f2f7c2476fd1c6c1ae62c55b80",
            "eps_0.25/stepsizes_uniform.csv": "1c0e5d53d551fc88f28be724f85b63172d144f01d50f4fd094f1ea157c3613e6",
            "eps_0.25/summary.txt": "427f0641ec6c415a39e50f46afb916b3fcb5762493b48dc51482bfe58adfd6b8",
            "eps_0.25/thresholds.csv": "8a090074c50ef5bee36de745cfd58c95865ebb68056bc7f1fc2c0c4d9f1caaf8",
            "eps_0.5/comparison.csv": "ecee86402dbcfed4d3961fbad290ed7a6fab8c5d61ec824cecbef2da971c44ac",
            "eps_0.5/config.txt": "4699fcbd2301a95d3d8c2b217a4dffecb2668d415501ca51dfdf8905c1424658",
            "eps_0.5/iterations.csv": "a1b8975714c6c5b58f4bdc489fa1963ae45505360737ddec5046b2c4cb9b65ef",
            "eps_0.5/sigma_adaptive.csv": "2ca380ca85df53cb9dfece8886fa616b44a861bf6f7c1c988c543ae1099eb963",
            "eps_0.5/sigma_uniform.csv": "79122d18bfe88abb9bd505cf518351a83bcc178dfda93428e17b4d90104ca6e9",
            "eps_0.5/steps_adaptive.csv": "cc2a238cf89eaa3ebba6e22f5f1cd7bf0cbb25bc8848a573e08cfff1850179c0",
            "eps_0.5/steps_uniform.csv": "08617c6e3622349cf70bad6fe1838bc346ffcceeed8a0fbd8efb92027b39fb01",
            "eps_0.5/stepsizes_adaptive.csv": "56421b7fcad149440026909c27240fa6677c354b819b919e49d01bc956910ea2",
            "eps_0.5/stepsizes_uniform.csv": "fece16cdde0ee4091973c507fa06ac2476f63f1f098693069a52ff34973557db",
            "eps_0.5/summary.txt": "7130d10387e9ac230eed090f1470a71f8d97df01d98ce0177933d8fca43efbc6",
            "eps_0.5/thresholds.csv": "88446088007fc9698f745872494ae220b213fb3359815819586b2d4308b1abf1",
            "sweep.csv": "89d44e57ab7da947bcb0304726b619714e484a01c1ab69d098236253195d48e0",
        },
    }

    @pytest.mark.parametrize("name", list(PINNED_RUNS))
    def test_pinned_artifact_digests(self, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        assert main([*self.PINNED_RUNS[name], "--out", name]) == EXIT_OK
        assert _artifact_digests(Path(name)) == self.PINNED_ARTIFACTS[name]

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

    def test_huge_tolerance_runs_one_step(self, tmp_path):
        out = tmp_path / "o"
        assert main(["run-uniform", "--eps", "1e308", "--out", str(out)]) == EXIT_OK
        assert (out / "summary.txt").read_text().splitlines()[1].startswith("uniform n 1 ")

    def test_config_error(self, tmp_path):
        assert main(
            ["run-uniform", "--eps", "-1", "--out", str(tmp_path / "x")]
        ) == EXIT_CONFIG

    def test_system_construction_error(self, tmp_path):
        assert main(
            ["run-uniform", "--L", "-1", "--out", str(tmp_path / "neg")]
        ) == EXIT_CONFIG

    @pytest.mark.parametrize("line", ["d_R = 5", "d_F = -1"])
    def test_bad_exponent_in_config_file(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert main(
            ["run-uniform", "--config", str(cfg), "--out", str(tmp_path / "o")]
        ) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")

    def test_sweep_bad_eps_list(self, tmp_path, capsys):
        assert main(
            ["sweep", "--eps-list", "abc", "--out", str(tmp_path / "s")]
        ) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")

    # what --config - reads, by case
    STDIN = {"seed-json": '{"seed": 0}', "out-nul-json": '{"out": "a\\u0000b"}'}

    @pytest.mark.parametrize("argv,code", [
        (["run-uniform", "--config", "{tmp}/dir"], EXIT_CONFIG),
        (["run-uniform", "--config", "{tmp}/latin1.cfg"], EXIT_CONFIG),
        (["run-uniform", "--out", "{tmp}/file"], EXIT_CONFIG),
        (["run-uniform", "--out", "{tmp}/file/o"], EXIT_CONFIG),
        (["selftest"], ARGPARSE),
        (["run-uniform", "--L", "800"], EXIT_CONFIG),
        (["run-uniform", "--eps", "1e-300"], EXIT_RESOURCE),
        (["run-uniform", "--L", "700", "--eps", "1e300"], EXIT_RESOURCE),
        (["run-adaptive", "--L", "350"], EXIT_RESOURCE),
        (["run-adaptive", "--L", "400"], EXIT_RESOURCE),
        (["run-adaptive", "--L", "700"], EXIT_RESOURCE),
        (["run-adaptive", "--L", "400", "--ladder", "1"], EXIT_RESOURCE),
        (["run-uniform", "--eps", "1", "--out", "{tmp}/busy"], EXIT_CONFIG),
        (["run-uniform", "--eps", "1", "--out", ""], EXIT_CONFIG),
        (["sweep", "--eps-list", "1", "--out", ""], EXIT_CONFIG),
        (["sweep", "--eps-list", "1", "--out", "{tmp}/busy"], EXIT_CONFIG),
        (["sweep", "--eps-list", "1,1.0"], EXIT_CONFIG),
        (["emit-figure-data", "--eps", "1", "--out", "{tmp}/busy"], EXIT_CONFIG),
        (["emit-figure-data", "--eps", "1", "--out", "{tmp}/snapfile"], EXIT_CONFIG),
        (["run-uniform", "--workers", "2"], ARGPARSE),
        (["run-uniform", "--seed", "3"], ARGPARSE),
        (["run-uniform", "--config", "{tmp}/compare.cfg"], EXIT_CONFIG),
        (["run-uniform", "--config", "-"], EXIT_CONFIG),
        (["run-uniform", "--d", "1e15"], EXIT_CONFIG),
        (["run-uniform", "--config", "-"], EXIT_CONFIG),
        (["run-uniform", "--config", "{tmp}/nul.cfg"], EXIT_CONFIG),
        (["sweep", "--eps-list", "1", "--config", "{tmp}/nul.cfg"], EXIT_CONFIG),
    ], ids=["config-dir", "config-not-utf8", "out-file", "out-below-file",
            "selftest-removed", "L800", "eps1e-300", "L700-eps1e300", "adaptive-L350",
            "adaptive-L400", "adaptive-L700", "adaptive-L400-ladder1",
            "artifact-dir", "out-empty", "sweep-out-empty", "sweep-csv-dir",
            "sweep-repeated-dir",
            "snapshot-dir", "snapshots-file",
            "workers-flag", "seed-flag", "algorithm-key", "seed-json",
            "d1e15", "out-nul-json", "out-nul-file", "sweep-out-nul"])
    def test_bad_input_exits_without_traceback(self, request, tmp_path, argv, code):
        (tmp_path / "dir").mkdir()
        (tmp_path / "latin1.cfg").write_bytes("eps = 0.5  # \xe9\n".encode("latin-1"))
        (tmp_path / "compare.cfg").write_text("algorithm = compare\n")
        (tmp_path / "nul.cfg").write_text("out = a\0b\n")
        (tmp_path / "file").write_text("")
        # directories where artifacts go: config.txt, sweep.csv, a snapshot
        busy = tmp_path / "busy"
        for name in ("config.txt", "sweep.csv", "snapshots/step_00000.txt"):
            (busy / name).mkdir(parents=True)
        (tmp_path / "snapfile").mkdir()
        (tmp_path / "snapfile" / "snapshots").write_text("")
        argv = [a.format(tmp=tmp_path) for a in argv]
        # a config file or stdin may name the out under test, and a command
        # that does not exist must fail on its name, not on a flag
        known = argv[0] in (*benchcli.COMMANDS, "sweep")
        if known and not {"--out", "--config"} & set(argv):
            argv += ["--out", str(tmp_path / "o")]
        work = tmp_path / "work"  # the working directory, empty
        work.mkdir()
        out = subprocess.run(
            [sys.executable, "-m", "eulerreach.benchcli", *argv],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                os.path.abspath(p) for p in sys.path if p)},
            input=self.STDIN.get(request.node.callspec.id, ""),
            capture_output=True, text=True, timeout=60, cwd=work,
        )
        assert out.returncode == (EXIT_CONFIG if code == ARGPARSE else code)
        assert "Traceback" not in out.stderr
        assert out.stderr.startswith(
            {EXIT_CONFIG: "config error:", EXIT_RESOURCE: "resource cap:",
             ARGPARSE: "usage:"}[code]
        )
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["sweep", "--eps-list", "0.5", "--ladder", "4,2,1"],
        ["sweep", "--eps-list", "1", "--ladder", "4,2,1"],
        ["compare", "--eps", "0.25", "--ladder", "4,2,1"],
        ["emit-figure-data", "--eps", "0.25", "--ladder", "4,2,1"],
    ], ids=["sweep", "sweep-ending-at-eps", "compare", "emit-figure-data"])
    def test_dropped_or_mismatched_ladder_rejected(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    def test_compare_with_ladder_ending_at_eps(self, tmp_path):
        out = tmp_path / "o"
        argv = ["compare", "--eps", "1", "--ladder", "4,2,1", "--out", str(out)]
        assert main(argv) == EXIT_OK
        with (out / "comparison.csv").open() as fh:
            assert next(csv.DictReader(fh))["eps"] == "1"

    def test_resource_cap(self, tmp_path):
        code = main(
            ["run-uniform", "--d", "2", "--L", "2", "--eps", "0.5",
             "--cap", "2000", "--out", str(tmp_path / "cap")]
        )
        assert code == EXIT_RESOURCE

    def test_images_outside_the_index_range_exit_3(self, tmp_path, monkeypatch, capsys):
        def far_system(config):
            return dataclasses.replace(
                build_system(config),
                rhs_batch=lambda x: (np.full_like(x, 1e25), np.full_like(x, 1e25)),
            )

        monkeypatch.setattr(benchcli, "build_system", far_system)
        assert main(["run-uniform", "--out", str(tmp_path / "far")]) == EXIT_RESOURCE
        assert "step 1: " in capsys.readouterr().err

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

    def test_sweep_cells_sharing_a_directory_rejected(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        # 1 and 1.0 are one tolerance, so both cells would be eps_1
        assert main(["sweep", "--eps-list", "1,1.0", "--out", str(out)]) == EXIT_CONFIG
        assert str(out / "eps_1") in capsys.readouterr().err
        assert not out.exists()

    def test_emit_figure_data(self, tmp_path):
        out = tmp_path / "fig"
        assert main(
            ["emit-figure-data", "--d", "1", "--L", "1", "--eps", "2.0",
             "--out", str(out)]
        ) == EXIT_OK
        assert (out / "comparison.csv").exists()
        assert list((out / "snapshots").glob("step_*.txt"))


def _cli(*argv: str, timeout: float = 120) -> None:
    """Run the command line in a fresh interpreter; it must exit 0 within
    timeout seconds."""
    subprocess.run(
        [sys.executable, "-m", "eulerreach.benchcli", *argv],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            os.path.abspath(p) for p in sys.path if p)},
        capture_output=True, text=True, timeout=timeout, check=True,
    )


@pytest.mark.parametrize("d", [40, 100])
def test_one_point_sets_in_high_dimension(tmp_path, d):
    # every image box is one lattice cell, which the union rasters on a grid
    # of two cells, not 2**d; d = 100 is past numpy's limit of 64 axes
    _cli("run-uniform", "--d", str(d), "--eps", "10", "--out", str(tmp_path), timeout=30)
    summary = (tmp_path / "summary.txt").read_text().split("\n")
    assert summary[1].startswith("uniform n 1 ") and summary[1].endswith(" cost 1")


class TestRerunIntoOneDirectory:
    """An output directory holds what its last run wrote."""

    def test_adaptive_after_compare(self, tmp_path):
        out = str(tmp_path / "st")
        _cli("compare", "--eps", "2", "--out", out)
        _cli("run-adaptive", "--eps", "2", "--out", out)
        _assert_writes_its_artifacts(tmp_path / "st", "adaptive")

    def test_no_snapshots_after_snapshots(self, tmp_path):
        out = tmp_path / "st2"
        _cli("run-adaptive", "--eps", "2", "--snapshots", "--out", str(out))
        assert list((out / "snapshots").glob("step_*.txt"))
        # only regular files go: a directory named like an artifact stays
        (out / "comparison.csv").mkdir()
        _cli("run-adaptive", "--eps", "1", "--out", str(out))
        assert not (out / "snapshots").exists()
        assert (out / "comparison.csv").is_dir()
        (out / "comparison.csv").rmdir()
        _assert_writes_its_artifacts(out, "adaptive")

    def test_failed_rerun_changes_no_file(self, tmp_path):
        out = tmp_path / "o"
        assert main(["run-adaptive", "--eps", "0.0625", "--out", str(out)]) == EXIT_OK
        before = _file_bytes(out)
        # a config of its own, which exits 3 at step 16
        assert main(
            ["run-adaptive", "--eps", "0.0625", "--d", "3", "--cap", "1000",
             "--out", str(out)]
        ) == EXIT_RESOURCE
        assert _file_bytes(out) == before

    def test_failed_sweep_rerun_changes_no_file(self, tmp_path):
        out = tmp_path / "sw"
        assert main(["sweep", "--eps-list", "2,1", "--out", str(out)]) == EXIT_OK
        before = _file_bytes(out)
        # with d = 3 the cell eps_2 solves and eps_1 then exits 3
        assert main(
            ["sweep", "--eps-list", "2,1", "--d", "3", "--cap", "1000", "--out", str(out)]
        ) == EXIT_RESOURCE
        assert _file_bytes(out) == before

    def test_failed_adaptive_half_of_compare_changes_no_file(self, tmp_path, monkeypatch):
        out = tmp_path / "c"
        assert main(["compare", "--eps", "2", "--out", str(out)]) == EXIT_OK
        before = _file_bytes(out)

        def capped(*args, **kwargs):
            raise ResourceCapError(1, 2e3, 1e3)

        # the uniform half at eps 1 succeeds and differs from the one at 2
        monkeypatch.setattr(benchcli, "algorithm_adaptive", capped)
        assert main(["compare", "--eps", "1", "--out", str(out)]) == EXIT_RESOURCE
        assert _file_bytes(out) == before


def _file_bytes(out: Path) -> dict[Path, bytes]:
    return {path: path.read_bytes() for path in out.rglob("*") if path.is_file()}


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
