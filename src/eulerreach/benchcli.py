"""Command-line front end: experiments, metrics, and figure/table data.

Configuration is a plain-text key=value schema (one pair per line, ``#``
comments allowed); the same keys are accepted as a JSON object on stdin
via ``--config -`` and as command-line flags, which take precedence.
Every emitted table value carries the config hash so results can be
pinned in regressions.  Deterministic artifacts never contain wall-clock
times; timings go to a separate ``timing.txt``.

Exit codes: 0 ok, 2 configuration error, 3 resource cap, 4 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .discretization import error_components, error_total, initial_discretization
from .errors import ConfigError, InvariantViolation, ResourceCapError
from .euler import DEFAULT_CAP, RunRecord
from .refine import (
    RefinementTrace,
    VolumeSplines,
    algorithm_adaptive,
    algorithm_uniform,
    check_tolerances,
    default_ladder,
    estimator_relative_error,
)
from .systems import SystemSpec, make_exponential_system, make_michaelis_menten

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_INVARIANT = 4

MIN_CAP = 1000

# Path("") is the working directory, which no empty out may stand for
EMPTY_OUT = "out must name a directory, not be empty"

# files a run writes into its output directory, by algorithm, besides
# config.txt, summary.txt and timing.txt (and the snapshots directory)
_RUN_FILES = ("steps_{}.csv", "sigma_{}.csv", "stepsizes_{}.csv")
_UNIFORM_FILES = tuple(f.format("uniform") for f in _RUN_FILES)
_ADAPTIVE_FILES = (*(f.format("adaptive") for f in _RUN_FILES), "iterations.csv", "thresholds.csv")
ARTIFACTS = {
    "uniform": _UNIFORM_FILES,
    "adaptive": _ADAPTIVE_FILES,
    "compare": (*_UNIFORM_FILES, *_ADAPTIVE_FILES, "comparison.csv"),
}

# columns of comparison.csv and of sweep.csv, which gathers its rows
COMPARISON_HEADER = (
    "config_hash", "system", "d", "L", "eps", "n_uniform", "cost_uniform",
    "n_adaptive", "cost_adaptive_final", "cost_adaptive_cumulative",
)


@dataclass
class ExperimentConfig:
    system: str = "exponential"
    d: int = 1
    L: float = 1.0
    algorithm: str = "uniform"  # uniform | adaptive | compare
    eps: float = 0.25
    ladder: list[float] | None = None
    d_R: int | None = None
    d_F: int | None = None
    cap: int = DEFAULT_CAP
    # workers and seed are fixed: no flag, file or JSON key sets them, but
    # config.txt and the hash echo them, so pinned digests hold (ROADMAP item 6)
    workers: int = field(default=1, init=False)
    out: str = "out"
    seed: int = field(default=0, init=False)
    snapshots: bool = False

    def validate(self) -> None:
        if self.system not in ("exponential", "michaelis_menten"):
            raise ConfigError(f"unknown system {self.system!r}")
        if self.algorithm not in ("uniform", "adaptive", "compare"):
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        try:
            check_tolerances([self.eps], "eps")
            if self.ladder is not None:
                check_tolerances(self.ladder)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # a comparison row is labelled eps: both solvers must stop there
        ladder_end = self.eps if self.ladder is None else self.ladder[-1]
        if self.algorithm == "compare" and ladder_end != self.eps:
            raise ConfigError("a compared ladder must end at eps")
        if not np.isfinite(self.L):
            raise ConfigError("L must be finite")
        if not MIN_CAP <= self.cap < 2**53:  # counts are exact below 2**53
            raise ConfigError(f"cap must lie in [{MIN_CAP}, 2**53)")
        if self.d < 1:
            raise ConfigError("d must be >= 1")
        if not self.out:
            raise ConfigError(EMPTY_OUT)
        if "\0" in self.out:
            raise ConfigError("out must not contain a NUL byte")

    def canonical(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    def hash(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]


def build_system(config: ExperimentConfig) -> SystemSpec:
    try:
        if config.system == "exponential":
            system = make_exponential_system(config.d, config.L)
        else:
            system = make_michaelis_menten()
        return replace(
            system,
            d_R=system.d_R if config.d_R is None else config.d_R,
            d_F=system.d_F if config.d_F is None else config.d_F,
        )
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"cannot build system {config.system!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# metrics


def metric_sigma(record: RunRecord) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative normalized error and cost profiles (both end at 1)."""
    comp = error_components(record.disc, record.system.lipschitz, record.system.bound)
    sigma_e = np.cumsum(comp) / comp.sum()
    cs = np.cumsum(np.asarray(record.cost_exact, dtype=float))
    total = cs[-1]
    n = record.disc.n
    idx = np.minimum(np.arange(n + 1), n - 1)
    sigma_c = cs[idx] / total
    return sigma_e, sigma_c


# ---------------------------------------------------------------------------
# output helpers


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_run(outdir: Path, name: str, record: RunRecord) -> None:
    """steps_, sigma_ and stepsizes_<name>.csv of one solver run."""
    disc = record.disc
    t, h, rho = disc.t, disc.h, disc.rho
    volumes = VolumeSplines.from_run(record)
    header = ("j", "t_j", "h_j", "rho_j", "cardinality", "cost_j", "vhat_R", "vhat_F")
    rows = [
        [j, _fmt(t[j]), _fmt(h[j - 1]) if j >= 1 else "", _fmt(rho[j]),
         s.cardinality, record.cost_exact[j] if j < disc.n else "",
         _fmt(volumes.vR_values[j]), _fmt(volumes.vF_values[j])]
        for j, s in enumerate(record.sets)
    ]
    _write_csv(outdir / f"steps_{name}.csv", header, rows)
    sigma_e, sigma_c = metric_sigma(record)
    _write_csv(
        outdir / f"sigma_{name}.csv",
        ("i", "t_i", "sigma_E", "sigma_C"),
        ([i, _fmt(t[i]), _fmt(e), _fmt(c)]
         for i, (e, c) in enumerate(zip(sigma_e, sigma_c))),
    )
    # the step sizes are the steps table after node 0, cut to its first columns
    _write_csv(outdir / f"stepsizes_{name}.csv", header[:4], (r[:4] for r in rows[1:]))


def _write_trace(outdir: Path, trace: RefinementTrace) -> None:
    _write_csv(
        outdir / "iterations.csv",
        ("m", "k_m", "n_m", "delta_E", "delta_C", "ratio", "E"),
        (
            [m, it.k, it.n_after, _fmt(it.delta_e), _fmt(it.delta_c),
             _fmt(-it.delta_e / it.delta_c), _fmt(it.error_after)]
            for m, it in enumerate(trace.iterations, 1)
        ),
    )
    # each run after the first was planned with the volumes of the one before
    planned = [None, *trace.thresholds]
    _write_csv(
        outdir / "thresholds.csv",
        ("ell", "eps", "n", "E", "cost_final", "cost_cumulative", "delta_C_metric"),
        (
            [ell, "" if th.eps is None else _fmt(th.eps), th.record.disc.n,
             _fmt(th.record.error_bound), th.record.cost_total, th.cost_cumulative,
             "" if prev is None else _fmt(estimator_relative_error(
                 th.record, VolumeSplines.from_run(prev.record)))]
            for ell, (prev, th) in enumerate(zip(planned, trace.thresholds))
        ),
    )


def _write_snapshots(snapdir: Path, record: RunRecord) -> None:
    """One step_NNNNN.txt per set of the run."""
    snapdir.mkdir(parents=True, exist_ok=True)
    for j, (s, t) in enumerate(zip(record.sets, record.disc.t)):
        with (snapdir / f"step_{j:05d}.txt").open("w") as fh:
            fh.write(f"# t={_fmt(t)}\n")
            s.write_text(fh)


def _remove_stale(outdir: Path) -> None:
    """Remove what an earlier run left in outdir: artifact files and
    snapshot steps, regular files only, and then the snapshots directory
    if that empties it."""
    snapdir = outdir / "snapshots"
    every = {name for names in ARTIFACTS.values() for name in names}
    for path in [*(outdir / name for name in every), *snapdir.glob("step_*.txt")]:
        if path.is_file():
            path.unlink()
    try:
        snapdir.rmdir()  # only when empty
    except OSError:
        pass


# ---------------------------------------------------------------------------
# experiment driver


def _default_ladder(system: SystemSpec, eps: float) -> list[float]:
    """The ladder from the error bound of the system's initial
    discretization down to eps."""
    L, P = system.lipschitz, system.bound
    e0 = error_total(initial_discretization(system.horizon, L, P), L, P)
    return default_ladder(e0, eps)


def _check_file_path(path: Path) -> None:
    if os.path.lexists(path) and not path.is_file():
        raise ConfigError(f"artifact path {path} exists and is not a regular file")


def _checked_system(config: ExperimentConfig) -> SystemSpec:
    """The system of a valid cell.  Raise ConfigError, before any solve,
    when a file the run writes exists as something else (a directory, a
    dangling link), or the snapshots path as something other than a
    directory."""
    config.validate()
    system = build_system(config)
    outdir = Path(config.out)
    for name in ("config.txt", "summary.txt", "timing.txt", *ARTIFACTS[config.algorithm]):
        _check_file_path(outdir / name)
    if config.snapshots:
        snapdir = outdir / "snapshots"
        if os.path.lexists(snapdir) and not snapdir.is_dir():
            raise ConfigError(f"snapshot path {snapdir} exists and is not a directory")
        for path in snapdir.glob("step_*.txt"):
            _check_file_path(path)
    return system


def _solve(config: ExperimentConfig, system: SystemSpec) -> tuple:
    """The uniform run, the adaptive run and its trace of one cell, None
    for what its algorithm does not run."""
    uniform = adaptive = trace = None
    if config.algorithm in ("uniform", "compare"):
        _, uniform = algorithm_uniform(system, config.eps, cap=config.cap)
    if config.algorithm in ("adaptive", "compare"):
        ladder = config.ladder or _default_ladder(system, config.eps)
        _, adaptive, trace = algorithm_adaptive(system, ladder, cap=config.cap)
    return uniform, adaptive, trace


def _write_cell(config: ExperimentConfig, uniform, adaptive, trace) -> list[list]:
    """Write the artifacts of one solved cell; returns the rows of its
    comparison.csv, none unless it compares.  What an earlier run left in
    the cell's directory goes first, so that it then holds exactly what
    this run wrote."""
    outdir = Path(config.out)
    _remove_stale(outdir)
    chash = config.hash()
    (outdir / "config.txt").write_text(
        "".join(f"{k} = {v}\n" for k, v in sorted(asdict(config).items()))
        + f"config_hash = {chash}\n"
    )
    summary = [f"config_hash {chash}"]
    timing = []  # wall-clock data is kept out of the deterministic artifacts
    if uniform is not None:
        _write_run(outdir, "uniform", uniform)
        summary.append(
            f"uniform n {uniform.disc.n} E {_fmt(uniform.error_bound)} "
            f"cost {uniform.cost_total}"
        )
        timing.append(f"uniform reach_s {uniform.wall_time:.6f}")
    if adaptive is not None:
        _write_run(outdir, "adaptive", adaptive)
        _write_trace(outdir, trace)
        cumulative = trace.thresholds[-1].cost_cumulative
        summary.append(
            f"adaptive n {adaptive.disc.n} E {_fmt(adaptive.error_bound)} "
            f"cost_final {adaptive.cost_total} cost_cumulative {cumulative}"
        )
        for ell, th in enumerate(trace.thresholds):
            timing.append(
                f"adaptive ell {ell} reach_s {th.record.wall_time:.6f} "
                f"refine_s {th.time_refine:.6f}"
            )

    if config.snapshots:  # of the last run: adaptive when both ran
        _write_snapshots(outdir / "snapshots", adaptive or uniform)
    rows = [[
        chash, config.system, config.d, _fmt(config.L), _fmt(config.eps),
        uniform.disc.n, uniform.cost_total,
        adaptive.disc.n, adaptive.cost_total, cumulative,
    ]] if config.algorithm == "compare" else []
    if rows:
        _write_csv(outdir / "comparison.csv", COMPARISON_HEADER, rows)

    (outdir / "summary.txt").write_text("\n".join(summary) + "\n")
    (outdir / "timing.txt").write_text("\n".join(timing) + "\n")
    return rows


def run_experiment(*configs: ExperimentConfig, table: Path | None = None) -> int:
    """Check, solve and then write each cell, a configured experiment;
    with table, also write there the comparison rows of every cell.
    Returns 0.  Every cell is checked before any solve runs and every
    solve runs before anything is written, so a run that fails leaves
    every file as it found it, apart from creating output directories.
    The table's directory exists or is made with the cells' directories."""
    systems = [_checked_system(config) for config in configs]
    outdirs = [Path(config.out) for config in configs]
    repeated = [out for i, out in enumerate(outdirs) if out in outdirs[:i]]
    if repeated:
        raise ConfigError(f"two cells would write into {repeated[0]}")
    if table is not None:
        _check_file_path(table)
    try:
        for outdir in outdirs:
            outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from exc
    solved = [(config, *_solve(config, system)) for config, system in zip(configs, systems)]
    rows = [row for cell in solved for row in _write_cell(*cell)]
    if table is not None:
        _write_csv(table, COMPARISON_HEADER, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument handling


def _float(value) -> float:
    if isinstance(value, bool):
        raise TypeError("a boolean is not a number")
    return float(value)


def _int(value) -> int:
    """An integer, also from an integral float spelling such as 5e7."""
    if isinstance(value, bool):
        raise TypeError("a boolean is not a number")
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            value = float(value)
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("not an integer")
    return int(value)


_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _str(value) -> str:
    if not isinstance(value, str):
        raise TypeError("not a string")
    return value


def _bool(value) -> bool:
    if isinstance(value, bool):
        return value
    if str(value) not in _BOOLS:
        raise ValueError("not a boolean")
    return _BOOLS[str(value)]


def _floats(value) -> list[float]:
    """Floats from a list, or from a comma-separated string."""
    if isinstance(value, str):
        value = [v for v in value.split(",") if v.strip()]
    return [_float(v) for v in value]


# parser of each key, by the annotation of its ExperimentConfig field; the
# same parsers read key=value files, JSON on stdin and the flags.  The keys
# are the fields a run reads: the subcommand sets the algorithm
_PARSERS = {
    "str": _str, "int": _int, "int | None": _int, "float": _float, "bool": _bool,
    "list[float] | None": _floats,
}
_FIELDS = {f.name: _PARSERS[f.type] for f in fields(ExperimentConfig)
           if f.init and f.name != "algorithm"}


def _parse(key: str, value, parser):
    try:
        return parser(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {value!r}") from exc


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    config = ExperimentConfig()
    data = {}
    if args.config == "-":
        try:
            data = json.load(sys.stdin)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"invalid JSON config on stdin: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("stdin config must be a JSON object")
    elif args.config:
        data = _parse_kv_file(Path(args.config))
    # flags win over the file
    flags = {k: getattr(args, k, None) for k in _FIELDS}
    data.update((k, v) for k, v in flags.items() if v is not None)
    for key, value in data.items():
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(config, key, _parse(key, value, _FIELDS[key]))
    return config


def _parse_kv_file(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    data = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        data[key] = value
    return data


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file, or '-' for JSON on stdin")
    for name, parser in _FIELDS.items():
        if parser is _bool:
            p.add_argument(f"--{name}", action="store_true", default=None)
        else:
            p.add_argument(f"--{name}")


# the algorithm each experiment command runs, and whether it always writes
# snapshots; sweep runs compare per eps
COMMANDS = {
    "run-uniform": ("uniform", False), "run-adaptive": ("adaptive", False),
    "compare": ("compare", False), "emit-figure-data": ("compare", True),
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulerreach",
        description="Reachable sets of differential inclusions by the "
        "fully discrete Euler scheme, uniform and adaptive.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        _add_common_flags(sub.add_parser(name))
    p = sub.add_parser("sweep")
    _add_common_flags(p)
    p.add_argument("--eps-list", required=True, help="comma-separated tolerances")
    return parser


def sweep(config: ExperimentConfig, eps_list: list[float]) -> int:
    """One compare run per tolerance, below config.out, plus sweep.csv."""
    if not eps_list:
        raise ConfigError("empty --eps-list")
    if config.ladder is not None:
        raise ConfigError("sweep builds the ladder of each eps; drop ladder")
    if not config.out:
        raise ConfigError(EMPTY_OUT)
    base_out = Path(config.out)
    cells = [
        replace(config, eps=eps, algorithm="compare", out=str(base_out / f"eps_{_fmt(eps)}"))
        for eps in eps_list
    ]
    return run_experiment(*cells, table=base_out / "sweep.csv")


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        config = _load_config(args)
        if args.command == "sweep":
            return sweep(config, _parse("--eps-list", args.eps_list, _floats))
        config.algorithm, snapshots = COMMANDS[args.command]
        config.snapshots |= snapshots
        return run_experiment(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
