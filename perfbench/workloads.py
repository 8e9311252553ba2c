"""The benchmark's three workloads: inputs from a seed, one operation, its check.

Every workload drives the checkout's ``eulerreach`` package through its public
entry points with ``workers=1``.  Seed 0 gives the canonical inputs, whose
results are pinned in ``references.json``; any other seed moves the initial
point a little, deterministically, and is checked against the solver's own
guarantees instead.

This module imports no part of ``eulerreach`` itself: the caller passes the
imported package in, so that a fresh process can time that import.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

# Relative to the repository root, which is the working directory of a run.
SOURCE_DIR = Path("src")
SCRATCH_DIR = Path(".bench_out")

# Largest move of an initial-point coordinate for a non-zero seed.  It spans
# a few lattice cells, so each seed gives different sets, yet it is small
# enough that every seed does similar work.
JITTER = 0.002


def import_package(root: Path):
    """Import ``eulerreach`` from ``<root>/src``; exit with a message if it is not there."""
    src = (root / SOURCE_DIR).resolve()
    if not (src / "eulerreach" / "__init__.py").is_file():
        sys.exit(f"perfbench: no eulerreach package under {src}; "
                 "run from the root of an eulerreach checkout")
    sys.path.insert(0, str(src))
    import eulerreach
    import eulerreach.benchcli

    if not Path(eulerreach.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: imported eulerreach from {eulerreach.__file__}, "
                 f"not from {src}")
    return eulerreach


def points_digest(points: np.ndarray) -> str:
    """SHA-256 of an (N, d) index array as little-endian int64, with its shape."""
    arr = np.ascontiguousarray(points, dtype="<i8")
    h = hashlib.sha256(repr(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def compare(summary: dict, reference: dict) -> list[str]:
    """Names of the pinned values that differ, with both values when short."""
    problems = []
    for key, want in reference.items():
        got = summary.get(key)
        if got == want:
            continue
        if isinstance(want, (list, dict)):
            problems.append(f"{key} differs from the pinned reference")
        else:
            problems.append(f"{key} = {got!r}, pinned {want!r}")
    return problems


def _call(tracer, span: str, fn, *args):
    """fn(*args), inside a root span named ``span`` when tracing."""
    return fn(*args) if tracer is None else tracer.call(span, fn, *args)


def _bound_problems(summary: dict, eps: float) -> list[str]:
    if summary["error_bound"] <= eps:
        return []
    return [f"error bound {summary['error_bound']!r} exceeds eps {eps!r}"]


class Workload:
    """One operation and its check; subclasses build their inputs from a seed."""

    name = ""
    eps = 0.0

    def __init__(self, er, seed: int):
        self.er = er
        self.seed = seed
        self.rng = random.Random(seed)

    def run(self, tracer=None):
        """One operation; with a tracer, the layers it calls are traced."""
        raise NotImplementedError

    def summarize(self, result) -> dict:
        """The values the reference pins, read from one result."""
        raise NotImplementedError

    def invariants(self, result, summary: dict) -> list[str]:
        """Guarantees that hold for every seed."""
        raise NotImplementedError

    def work_count(self, summary: dict) -> int:
        """The paper's work count for one operation."""
        raise NotImplementedError

    def layer_counts(self, result) -> dict[str, int]:
        """Counts read from one result, for layers the tracer cannot see."""
        return {}

    def cleanup(self, result) -> None:
        pass

    def check(self, result, reference: dict | None) -> tuple[dict, list[str]]:
        """The result's summary, and every problem found in it (none if correct)."""
        summary = self.summarize(result)
        problems = self.invariants(result, summary)
        if reference is not None:
            problems += compare(summary, reference)
        return summary, problems


class _Exponential(Workload):
    """Shared set-up and checks for the x' in [0.9, 1] * x systems."""

    d = 1

    def __init__(self, er, seed: int):
        super().__init__(er, seed)
        system = er.make_exponential_system(self.d, 1.0)
        # Starting inside [0.9, 1]^d keeps the declared L and P valid.
        self.x0 = np.array(
            [1.0 - JITTER * self.rng.random() if seed else 1.0 for _ in range(self.d)]
        )
        if seed:
            system = dataclasses.replace(system, initial_set=er.Box.point(self.x0))
        self.system = system

    def system_for(self, tracer):
        return self.system if tracer is None else tracer.traced_system(self.system)

    def summarize(self, result) -> dict:
        record = result[1]  # (disc, record[, trace])
        return {
            "n": record.disc.n,
            "cost_total": record.cost_total,
            "cost_exact": list(record.cost_exact),
            "cardinalities": list(record.cardinalities),
            "final_points_sha256": points_digest(record.sets[-1].points),
            "error_bound": record.error_bound,
        }

    def invariants(self, result, summary: dict) -> list[str]:
        record = result[1]  # (disc, record[, trace])
        problems = _bound_problems(summary, self.eps)
        # the system is linear, so the reachable set from x0 is x0 times the
        # reachable set from the all-ones point
        exact = self.er.exact_reachable_box(self.system, self.system.horizon)
        box = self.er.Box(self.x0 * exact.lower, self.x0 * exact.upper)
        dist = self.er.hausdorff_to_box_two_sided(record.sets[-1], box)
        if not dist <= record.error_bound:
            problems.append(
                f"Hausdorff distance {dist!r} to the exact reachable box exceeds "
                f"the error bound {record.error_bound!r}"
            )
        return problems


class UniformExp2(_Exponential):
    """algorithm_uniform on the 2-D exponential system at eps = 3/16."""

    name = "uniform-exp2"
    d = 2
    eps = 0.1875

    def run(self, tracer=None):
        return _call(tracer, "refine.uniform", self.er.algorithm_uniform,
                     self.system_for(tracer), self.eps)

    def work_count(self, summary: dict) -> int:
        return summary["cost_total"]


class AdaptiveExp1(_Exponential):
    """algorithm_adaptive on the 1-D exponential system down to eps = 2**-6."""

    name = "adaptive-exp1"
    d = 1
    eps = 2.0**-6

    def __init__(self, er, seed: int):
        super().__init__(er, seed)
        L, P = self.system.lipschitz, self.system.bound
        e0 = er.error_total(er.initial_discretization(self.system.horizon, L, P), L, P)
        self.ladder = er.default_ladder(e0, self.eps)

    def run(self, tracer=None):
        return _call(tracer, "refine.adaptive", self.er.algorithm_adaptive,
                     self.system_for(tracer), self.ladder)

    def summarize(self, result) -> dict:
        summary = super().summarize(result)
        summary["cost_cumulative"] = result[2].thresholds[-1].cost_cumulative
        return summary

    def work_count(self, summary: dict) -> int:
        return summary["cost_cumulative"]


class FigureMM(Workload):
    """``eulerreach run-adaptive`` on Michaelis-Menten with snapshots, in process.

    Each operation writes into a fresh directory that the benchmark deletes
    after checking it.  The directory name is the same every time, because
    it enters config.txt and the config hash, which are pinned.
    """

    name = "figure-mm"
    eps = 0.0625
    out_dir = SCRATCH_DIR / "figure-mm-out"

    def __init__(self, er, seed: int):
        super().__init__(er, seed)
        cli = er.benchcli
        self.argv = ["run-adaptive", "--system", "michaelis_menten",
                     "--eps", repr(self.eps), "--snapshots", "--out", str(self.out_dir)]
        # set-up covers what the CLI builds before it solves: the parsed
        # arguments, the validated configuration and the system
        cli.make_parser().parse_args(self.argv)
        config = cli.ExperimentConfig(
            system="michaelis_menten", algorithm="adaptive", eps=self.eps,
            snapshots=True, out=str(self.out_dir),
        )
        config.validate()
        center = np.asarray(cli.build_system(config).initial_set.lower)
        # small moves keep the start inside system.domain, where L and P hold
        self.x0 = center + (
            np.array([JITTER * (2.0 * self.rng.random() - 1.0) for _ in center])
            if seed else 0.0
        )

    def run(self, tracer=None):
        cli = self.er.benchcli
        if self.out_dir.exists():
            shutil.rmtree(self.out_dir)
        self.out_dir.mkdir(parents=True)
        build_system = cli.build_system

        def build_seeded(config):
            system = build_system(config)
            if self.seed:
                system = dataclasses.replace(
                    system, initial_set=self.er.Box.point(self.x0)
                )
            return system if tracer is None else tracer.traced_system(system)

        cli.build_system = build_seeded
        try:
            return _call(tracer, "benchcli.main", cli.main, self.argv)
        finally:
            cli.build_system = build_system

    def cleanup(self, result) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def artifacts(self) -> dict[str, str]:
        """SHA-256 of every file the run wrote, except the wall-clock timings."""
        return {
            str(p.relative_to(self.out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(self.out_dir.rglob("*"))
            if p.is_file() and p.name != "timing.txt"
        }

    def layer_counts(self, result) -> dict[str, int]:
        files = [p for p in self.out_dir.rglob("*") if p.is_file()]
        return {
            "benchcli.files_written": len(files),
            "benchcli.bytes_written": sum(p.stat().st_size for p in files),
        }

    def summarize(self, result) -> dict:
        fields = (self.out_dir / "summary.txt").read_text().split("\n")[1].split()
        if fields[0] != "adaptive":
            raise ValueError(f"unexpected summary line {fields!r}")
        values = dict(zip(fields[1::2], fields[2::2]))
        n = int(values["n"])
        cardinalities, cost_exact = [], []
        with (self.out_dir / "steps_adaptive.csv").open() as fh:
            next(fh)
            for line in fh:
                cols = line.rstrip("\n").split(",")
                cardinalities.append(int(cols[4]))
                if cols[5]:
                    cost_exact.append(int(cols[5]))
        final = np.loadtxt(
            self.out_dir / "snapshots" / f"step_{n:05d}.txt", dtype=np.int64,
            comments="#", ndmin=2,
        )
        return {
            "n": n,
            "cost_total": int(values["cost_final"]),
            "cost_exact": cost_exact,
            "cardinalities": cardinalities,
            "cost_cumulative": int(values["cost_cumulative"]),
            "final_points_sha256": points_digest(final),
            "artifacts": self.artifacts(),
            "error_bound": float(values["E"]),
        }

    def check(self, result, reference: dict | None) -> tuple[dict, list[str]]:
        if result != 0:
            return {}, [f"exit code {result!r}"]
        return super().check(result, reference)

    def invariants(self, result, summary: dict) -> list[str]:
        problems = _bound_problems(summary, self.eps)
        if sum(summary["cost_exact"]) != summary["cost_total"]:
            problems.append("per-step costs do not sum to cost_final")
        if len(summary["cardinalities"]) != summary["n"] + 1:
            problems.append("steps_adaptive.csv does not have n + 1 rows")
        return problems

    def work_count(self, summary: dict) -> int:
        return summary["cost_cumulative"]


WORKLOADS = {w.name: w for w in (UniformExp2, AdaptiveExp1, FigureMM)}


def build(er, name: str, seed: int) -> Workload:
    return WORKLOADS[name](er, seed)
