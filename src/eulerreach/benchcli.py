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
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import refine
from .discretization import Discretization, dyadic_invariants_ok
from .errors import ConfigError, InvariantViolation, ResourceCapError
from .euler import RunRecord
from .lattice import DEFAULT_CAP
from .refine import (
    RefinementTrace,
    VolumeSplines,
    algorithm_adaptive,
    algorithm_uniform,
    default_ladder,
    error_components,
    error_total,
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
        if not (np.isfinite(self.eps) and self.eps > 0):
            raise ConfigError("eps must be positive and finite")
        if not np.isfinite(self.L):
            raise ConfigError("L must be finite")
        if self.ladder is not None:
            if not self.ladder or not all(
                np.isfinite(e) and e > 0 for e in self.ladder
            ):
                raise ConfigError("ladder entries must be positive and finite")
            if any(
                self.ladder[i + 1] >= self.ladder[i]
                for i in range(len(self.ladder) - 1)
            ):
                raise ConfigError("ladder must be strictly decreasing")
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
    except ValueError as exc:
        raise ConfigError(f"cannot build system {config.system!r}: {exc}") from exc
    if config.d_R is not None or config.d_F is not None:
        system = replace(
            system,
            d_R=config.d_R if config.d_R is not None else system.d_R,
            d_F=config.d_F if config.d_F is not None else system.d_F,
        )
    return system


# ---------------------------------------------------------------------------
# metrics


def metric_sigma(record: RunRecord) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative normalized error and cost profiles (both end at 1)."""
    comp = error_components(record.disc, record.lipschitz, record.bound)
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


def _write_steps_csv(path: Path, record: RunRecord) -> None:
    disc = record.disc
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["j", "t_j", "h_j", "rho_j", "cardinality", "cost_j", "vhat_R", "vhat_F"])
        for j in range(disc.n + 1):
            w.writerow(
                [
                    j,
                    _fmt(disc.t[j]),
                    _fmt(disc.h[j - 1]) if j >= 1 else "",
                    _fmt(disc.rho[j]),
                    record.sets[j].cardinality,
                    record.cost_exact[j] if j < disc.n else "",
                    _fmt(record.vhat_R[j]),
                    _fmt(record.vhat_F[j]),
                ]
            )


def _write_sigma_csv(path: Path, record: RunRecord) -> None:
    sigma_e, sigma_c = metric_sigma(record)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["i", "t_i", "sigma_E", "sigma_C"])
        for i in range(len(sigma_e)):
            w.writerow([i, _fmt(record.disc.t[i]), _fmt(sigma_e[i]), _fmt(sigma_c[i])])


def _write_trace_csv(outdir: Path, trace: RefinementTrace) -> None:
    with (outdir / "iterations.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["m", "k_m", "n_m", "delta_E", "delta_C", "ratio", "E"])
        for it in trace.iterations:
            w.writerow(
                [it.m, it.k, it.n_after, _fmt(it.delta_e), _fmt(it.delta_c),
                 _fmt(it.ratio), _fmt(it.error_after)]
            )
    with (outdir / "thresholds.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["ell", "eps", "n", "E", "cost_final", "cost_cumulative", "delta_C_metric"]
        )
        for th in trace.thresholds:
            delta_c = (
                ""
                if th.planning_splines is None
                else _fmt(estimator_relative_error(th.record, th.planning_splines))
            )
            w.writerow(
                [
                    th.ell,
                    "" if th.eps is None else _fmt(th.eps),
                    th.record.disc.n,
                    _fmt(th.record.error_bound),
                    th.record.cost_total,
                    th.cost_cumulative,
                    delta_c,
                ]
            )


def _write_snapshots(outdir: Path, record: RunRecord) -> None:
    snapdir = outdir / "snapshots"
    snapdir.mkdir(parents=True, exist_ok=True)
    for j, s in enumerate(record.sets):
        with (snapdir / f"step_{j:05d}.txt").open("w") as fh:
            fh.write(f"# t={_fmt(record.disc.t[j])}\n")
            s.write_text(fh)


def _write_stepsizes_csv(path: Path, disc: Discretization) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["j", "t_j", "h_j", "rho_j"])
        for j in range(1, disc.n + 1):
            w.writerow([j, _fmt(disc.t[j]), _fmt(disc.h[j - 1]), _fmt(disc.rho[j])])


def _write_timing(outdir: Path, lines: list[str]) -> None:
    # wall-clock data is kept out of the deterministic artifacts
    with (outdir / "timing.txt").open("w") as fh:
        fh.write("\n".join(lines) + "\n")


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

    timing: list[str] = []
    summary: list[str] = [f"config_hash {chash}"]

    uniform_record: RunRecord | None = None
    adaptive_record: RunRecord | None = None
    trace: RefinementTrace | None = None

    if config.algorithm in ("uniform", "compare"):
        disc, uniform_record = algorithm_uniform(system, config.eps, cap=config.cap)
        _write_steps_csv(outdir / "steps_uniform.csv", uniform_record)
        _write_sigma_csv(outdir / "sigma_uniform.csv", uniform_record)
        _write_stepsizes_csv(outdir / "stepsizes_uniform.csv", disc)
        summary.append(
            f"uniform n {disc.n} E {_fmt(uniform_record.error_bound)} "
            f"cost {uniform_record.cost_total}"
        )
        timing.append(f"uniform reach_s {uniform_record.wall_time:.6f}")
        if config.snapshots and config.algorithm == "uniform":
            _write_snapshots(outdir, uniform_record)

    if config.algorithm in ("adaptive", "compare"):
        ladder = config.ladder
        if ladder is None:
            L, P = system.lipschitz, system.bound
            e0 = error_total(
                refine.initial_discretization(system.horizon, L, P), L, P
            )
            ladder = default_ladder(e0, config.eps)
        disc, adaptive_record, trace = algorithm_adaptive(system, ladder, cap=config.cap)
        _write_steps_csv(outdir / "steps_adaptive.csv", adaptive_record)
        _write_sigma_csv(outdir / "sigma_adaptive.csv", adaptive_record)
        _write_stepsizes_csv(outdir / "stepsizes_adaptive.csv", disc)
        _write_trace_csv(outdir, trace)
        summary.append(
            f"adaptive n {disc.n} E {_fmt(adaptive_record.error_bound)} "
            f"cost_final {adaptive_record.cost_total} "
            f"cost_cumulative {trace.thresholds[-1].cost_cumulative}"
        )
        for th in trace.thresholds:
            timing.append(
                f"adaptive ell {th.ell} reach_s {th.time_reach:.6f} "
                f"refine_s {th.time_refine:.6f}"
            )
        if config.snapshots:
            _write_snapshots(outdir, adaptive_record)

    if config.algorithm == "compare":
        assert uniform_record is not None and adaptive_record is not None
        assert trace is not None
        with (outdir / "comparison.csv").open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(COMPARISON_HEADER)
            w.writerow(
                [chash, config.system, config.d, _fmt(config.L), _fmt(config.eps),
                 uniform_record.disc.n, uniform_record.cost_total,
                 adaptive_record.disc.n, adaptive_record.cost_total,
                 trace.thresholds[-1].cost_cumulative]
            )

    (outdir / "summary.txt").write_text("\n".join(summary) + "\n")
    _write_timing(outdir, timing)
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest


def selftest(seed: int = 0, verbose: bool = True) -> int:
    """Quick invariant suites; returns 0 or raises InvariantViolation."""
    from .discretization import initial_discretization, subdivide
    from .lattice import hausdorff_to_box, project_box
    from .systems import Box

    rng = np.random.default_rng(seed)

    def check(name: str, ok: bool) -> None:
        if verbose:
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
        for k in range(disc.n + 1):
            de = refine.delta_error(disc, L, P, k)
            dc = refine.delta_cost(disc, splines, 1, 1, k)
            sub = subdivide(disc, k)
            ok &= abs(de - (error_total(sub, L, P) - e)) <= 1e-10 * abs(e)
            ok &= abs(dc - (refine.cost_estimate(sub, splines, 1, 1) - c)) <= 1e-10 * abs(c)
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


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    config = ExperimentConfig()
    if getattr(args, "config", None):
        if args.config == "-":
            try:
                data = json.load(sys.stdin)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"invalid JSON config on stdin: {exc}") from exc
            if not isinstance(data, dict):
                raise ConfigError("stdin config must be a JSON object")
        else:
            data = _parse_kv_file(Path(args.config))
        for key, value in data.items():
            _apply_key(config, key, value)
    for key in ("system", "d", "L", "eps", "cap", "workers", "out", "seed"):
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            _apply_key(config, key, value)
    if getattr(args, "ladder", None):
        _apply_key(config, "ladder", args.ladder)
    if getattr(args, "snapshots", False):
        config.snapshots = True
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


def _apply_key(config: ExperimentConfig, key: str, value) -> None:
    try:
        if key == "system":
            config.system = str(value)
        elif key == "d":
            config.d = int(value)
        elif key == "L":
            config.L = float(value)
        elif key == "algorithm":
            config.algorithm = str(value)
        elif key == "eps":
            config.eps = float(value)
        elif key == "ladder":
            if isinstance(value, str):
                value = [float(v) for v in value.split(",") if v.strip()]
            config.ladder = [float(v) for v in value]
        elif key in ("d_R", "dR"):
            config.d_R = int(value)
        elif key in ("d_F", "dF"):
            config.d_F = int(value)
        elif key == "cap":
            config.cap = int(float(value))
        elif key == "workers":
            config.workers = int(value)
        elif key == "out":
            config.out = str(value)
        elif key == "seed":
            config.seed = int(value)
        elif key == "snapshots":
            config.snapshots = value in (True, "true", "1", "yes")
        else:
            raise ConfigError(f"unknown config key {key!r}")
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad value for {key!r}: {value!r}") from exc


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file, or '-' for JSON on stdin")
    p.add_argument("--system", choices=["exponential", "michaelis_menten"])
    p.add_argument("--d", type=int)
    p.add_argument("--L", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--ladder", help="comma-separated decreasing thresholds")
    p.add_argument("--cap", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--out")
    p.add_argument("--seed", type=int)
    p.add_argument("--snapshots", action="store_true")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulerreach",
        description="Reachable sets of differential inclusions by the "
        "fully discrete Euler scheme, uniform and adaptive.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run-uniform", "run-adaptive", "compare", "emit-figure-data"):
        p = sub.add_parser(name)
        _add_common_flags(p)
    p = sub.add_parser("sweep")
    _add_common_flags(p)
    p.add_argument("--eps-list", required=True, help="comma-separated tolerances")
    p = sub.add_parser("selftest")
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            return selftest(seed=args.seed)
        config = _load_config(args)
        if args.command == "run-uniform":
            config.algorithm = "uniform"
            return run_experiment(config)
        if args.command == "run-adaptive":
            config.algorithm = "adaptive"
            return run_experiment(config)
        if args.command in ("compare", "emit-figure-data"):
            config.algorithm = "compare"
            if args.command == "emit-figure-data":
                config.snapshots = True
            return run_experiment(config)
        if args.command == "sweep":
            eps_list = [float(v) for v in args.eps_list.split(",") if v.strip()]
            if not eps_list:
                raise ConfigError("empty --eps-list")
            base_out = Path(config.out)
            rows = []
            for eps in eps_list:
                cell = ExperimentConfig(**{**asdict(config)})
                cell.eps = eps
                cell.ladder = None
                cell.algorithm = "compare"
                cell.out = str(base_out / f"eps_{_fmt(eps)}")
                run_experiment(cell)
                with (Path(cell.out) / "comparison.csv").open() as fh:
                    rows.extend(list(csv.reader(fh))[1:])
            base_out.mkdir(parents=True, exist_ok=True)
            with (base_out / "sweep.csv").open("w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(COMPARISON_HEADER)
                w.writerows(rows)
            return EXIT_OK
        raise ConfigError(f"unknown command {args.command!r}")
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
