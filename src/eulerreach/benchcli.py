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
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import refine
from .discretization import dyadic_invariants_ok, error_components, error_total
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
    workers: int = 1  # no effect; kept because config.txt and the hash echo it
    out: str = "out"
    seed: int = 0
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
        if not np.isfinite(self.L):
            raise ConfigError("L must be finite")
        if self.cap < MIN_CAP:
            raise ConfigError(f"cap must be at least {MIN_CAP}")
        if self.d < 1:
            raise ConfigError("d must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")

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
    except ValueError as exc:
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
    _write_csv(
        outdir / f"steps_{name}.csv",
        ("j", "t_j", "h_j", "rho_j", "cardinality", "cost_j", "vhat_R", "vhat_F"),
        (
            [j, _fmt(t[j]), _fmt(h[j - 1]) if j >= 1 else "", _fmt(rho[j]),
             s.cardinality, record.cost_exact[j] if j < disc.n else "",
             _fmt(record.vhat_R[j]), _fmt(record.vhat_F[j])]
            for j, s in enumerate(record.sets)
        ),
    )
    sigma_e, sigma_c = metric_sigma(record)
    _write_csv(
        outdir / f"sigma_{name}.csv",
        ("i", "t_i", "sigma_E", "sigma_C"),
        ([i, _fmt(t[i]), _fmt(e), _fmt(c)]
         for i, (e, c) in enumerate(zip(sigma_e, sigma_c))),
    )
    _write_csv(
        outdir / f"stepsizes_{name}.csv",
        ("j", "t_j", "h_j", "rho_j"),
        ([j, _fmt(t[j]), _fmt(h[j - 1]), _fmt(rho[j])] for j in range(1, disc.n + 1)),
    )


def _write_trace(outdir: Path, trace: RefinementTrace) -> None:
    _write_csv(
        outdir / "iterations.csv",
        ("m", "k_m", "n_m", "delta_E", "delta_C", "ratio", "E"),
        (
            [it.m, it.k, it.n_after, _fmt(it.delta_e), _fmt(it.delta_c),
             _fmt(it.ratio), _fmt(it.error_after)]
            for it in trace.iterations
        ),
    )
    _write_csv(
        outdir / "thresholds.csv",
        ("ell", "eps", "n", "E", "cost_final", "cost_cumulative", "delta_C_metric"),
        (
            [th.ell, "" if th.eps is None else _fmt(th.eps), th.record.disc.n,
             _fmt(th.record.error_bound), th.record.cost_total, th.cost_cumulative,
             "" if th.planning_splines is None
             else _fmt(estimator_relative_error(th.record, th.planning_splines))]
            for th in trace.thresholds
        ),
    )


def _write_snapshots(outdir: Path, record: RunRecord) -> None:
    snapdir = outdir / "snapshots"
    snapdir.mkdir(parents=True, exist_ok=True)
    for j, s in enumerate(record.sets):
        with (snapdir / f"step_{j:05d}.txt").open("w") as fh:
            fh.write(f"# t={_fmt(record.disc.t[j])}\n")
            s.write_text(fh)


# ---------------------------------------------------------------------------
# experiment driver


def run_experiment(config: ExperimentConfig) -> int:
    """Run the configured experiment and write its artifacts; returns 0."""
    config.validate()
    system = build_system(config)
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    chash = config.hash()
    (outdir / "config.txt").write_text(
        "".join(f"{k} = {v}\n" for k, v in sorted(asdict(config).items()))
        + f"config_hash = {chash}\n"
    )
    summary = [f"config_hash {chash}"]
    timing = []  # wall-clock data is kept out of the deterministic artifacts

    if config.algorithm in ("uniform", "compare"):
        _, uniform = algorithm_uniform(system, config.eps, cap=config.cap)
        _write_run(outdir, "uniform", uniform)
        summary.append(
            f"uniform n {uniform.disc.n} E {_fmt(uniform.error_bound)} "
            f"cost {uniform.cost_total}"
        )
        timing.append(f"uniform reach_s {uniform.wall_time:.6f}")
        last = uniform

    if config.algorithm in ("adaptive", "compare"):
        ladder = config.ladder
        if ladder is None:
            L, P = system.lipschitz, system.bound
            e0 = error_total(
                refine.initial_discretization(system.horizon, L, P), L, P
            )
            ladder = default_ladder(e0, config.eps)
        _, adaptive, trace = algorithm_adaptive(system, ladder, cap=config.cap)
        _write_run(outdir, "adaptive", adaptive)
        _write_trace(outdir, trace)
        cumulative = trace.thresholds[-1].cost_cumulative
        summary.append(
            f"adaptive n {adaptive.disc.n} E {_fmt(adaptive.error_bound)} "
            f"cost_final {adaptive.cost_total} cost_cumulative {cumulative}"
        )
        for th in trace.thresholds:
            timing.append(
                f"adaptive ell {th.ell} reach_s {th.record.wall_time:.6f} "
                f"refine_s {th.time_refine:.6f}"
            )
        last = adaptive

    if config.snapshots:  # of the last run: adaptive when both ran
        _write_snapshots(outdir, last)
    if config.algorithm == "compare":
        _write_csv(outdir / "comparison.csv", COMPARISON_HEADER, [[
            chash, config.system, config.d, _fmt(config.L), _fmt(config.eps),
            uniform.disc.n, uniform.cost_total,
            adaptive.disc.n, adaptive.cost_total, cumulative,
        ]])

    (outdir / "summary.txt").write_text("\n".join(summary) + "\n")
    (outdir / "timing.txt").write_text("\n".join(timing) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest


def selftest(seed: int = 0) -> int:
    """Quick invariant suites; returns 0 or raises InvariantViolation."""
    from .discretization import initial_discretization, subdivide
    from .euler import project_box
    from .lattice import hausdorff_to_box
    from .systems import Box

    rng = np.random.default_rng(seed)

    def check(name: str, ok: bool) -> None:
        print(f"{'PASS' if ok else 'FAIL'}: {name}")
        if not ok:
            raise InvariantViolation(name)

    # projection error bound over random boxes
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 3))
        lo = rng.uniform(-5, 5, size=d)
        hi = lo + rng.uniform(0, 3, size=d)
        rho = float(rng.uniform(0.05, 2.0))
        b = Box(lo, hi)
        worst = max(worst, hausdorff_to_box(project_box(b, rho), b) / (rho / 2))
    check("projection within rho/2", worst <= 1.0 + 1e-12)

    # closed-form deltas against recomputation on random refinement paths
    system = make_exponential_system(1, 1.0)
    L, P = system.lipschitz, system.bound
    splines = VolumeSplines(np.array([0.0, 1.0]), np.array([1.0, 2.0]), np.array([1.5, 1.0]))
    ok = True
    for _ in range(50):
        disc = initial_discretization(1.0, L, P)
        for _ in range(int(rng.integers(0, 12))):
            disc = subdivide(disc, int(rng.integers(0, disc.n + 1)))
        e = error_total(disc, L, P)
        c = refine.cost_estimate(disc, splines, 1, 1)
        de = refine.delta_error_all(disc, L, P)
        dc = refine.delta_cost_all(disc, splines, 1, 1)
        for k in range(disc.n + 1):
            sub = subdivide(disc, k)
            ok &= abs(de[k] - (error_total(sub, L, P) - e)) <= 1e-10 * abs(e)
            ok &= abs(dc[k] - (refine.cost_estimate(sub, splines, 1, 1) - c)) <= 1e-10 * abs(c)
        if not dyadic_invariants_ok(disc):
            ok = False
    check("closed-form deltas match recomputation", ok)

    # short adaptive run keeps structural invariants and terminates
    ladder = default_ladder(
        error_total(initial_discretization(1.0, L, P), L, P), 4.0
    )
    disc, record, trace = algorithm_adaptive(system, ladder)
    errs = [it.error_after for it in trace.iterations]
    check("adaptive error strictly decreasing",
          all(b < a for a, b in zip(errs, errs[1:])))
    check("adaptive dyadic invariants", dyadic_invariants_ok(disc))
    check("adaptive meets tolerance", record.error_bound <= ladder[-1])
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


# parser of each ExperimentConfig field, by its annotation; the same
# parsers read key=value files, JSON on stdin and the flags
_PARSERS = {
    "str": str, "int": _int, "int | None": _int, "float": _float, "bool": _bool,
    "list[float] | None": _floats,
}
_FIELDS = {f.name: _PARSERS[f.type] for f in fields(ExperimentConfig)}


def _parse(key: str, value, parser):
    try:
        return parser(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {value!r}") from exc


def _apply_key(config: ExperimentConfig, key: str, value) -> None:
    if key not in _FIELDS:
        raise ConfigError(f"unknown config key {key!r}")
    setattr(config, key, _parse(key, value, _FIELDS[key]))


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    config = ExperimentConfig()
    data = {}
    if args.config == "-":
        try:
            data = json.load(sys.stdin)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config on stdin: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("stdin config must be a JSON object")
    elif args.config:
        data = _parse_kv_file(Path(args.config))
    # flags win over the file
    flags = {k: getattr(args, k, None) for k in _FIELDS}
    data.update((k, v) for k, v in flags.items() if v is not None)
    for key, value in data.items():
        _apply_key(config, key, value)
    return config


def _parse_kv_file(path: Path) -> dict:
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    data = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
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
        elif name != "algorithm":  # each command sets its own
            p.add_argument(f"--{name}")


# the algorithm each experiment command runs; sweep runs compare per eps
COMMANDS = {
    "run-uniform": "uniform", "run-adaptive": "adaptive",
    "compare": "compare", "emit-figure-data": "compare",
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
    p = sub.add_parser("selftest")
    p.add_argument("--seed", type=int, default=0)
    return parser


def sweep(config: ExperimentConfig, eps_list: list[float]) -> int:
    """One compare run per tolerance, below config.out, plus sweep.csv."""
    if not eps_list:
        raise ConfigError("empty --eps-list")
    base_out = Path(config.out)
    rows = []
    for eps in eps_list:
        cell = replace(
            config, eps=eps, ladder=None, algorithm="compare",
            out=str(base_out / f"eps_{_fmt(eps)}"),
        )
        run_experiment(cell)
        with (Path(cell.out) / "comparison.csv").open() as fh:
            rows.extend(list(csv.reader(fh))[1:])
    base_out.mkdir(parents=True, exist_ok=True)
    _write_csv(base_out / "sweep.csv", COMPARISON_HEADER, rows)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            return selftest(seed=args.seed)
        config = _load_config(args)
        if args.command == "sweep":
            return sweep(config, _parse("--eps-list", args.eps_list, _floats))
        config.algorithm = COMMANDS[args.command]
        if args.command == "emit-figure-data":
            config.snapshots = True
        return run_experiment(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (InvariantViolation, AssertionError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
