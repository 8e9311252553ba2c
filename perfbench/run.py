"""eulerreach benchmark: closed-loop solver workloads with one client, workers=1.

Run from the root of an eulerreach checkout, for example

    python3 perfbench/run.py --workload uniform-exp2 --seed 0 --seconds 36 --trace 0

Each operation starts when the previous one has returned and is checked
after its timer stops (see workloads.py).  With ``--trace 0`` the run
reports the end-to-end metrics: set-up time in fresh processes, then timed
operations for ``--seconds``; the benchmark process is itself fresh, so its
peak RSS after the first operation is that of one run of the workload.  An
operation takes seconds, so the first one pays no noticeable lazy set-up;
it counts as a sample.  With ``--trace 1`` it makes one untraced warm-up
operation, then alternates untraced and traced operations and reports the
per-layer metrics (see tracer.py).

The metrics are printed one per line with their units; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import os

# A single-threaded process: the numeric libraries read these when they load.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracer import Tracer, layer_metrics, root_seconds

SETUP_PROBES = 7
MIN_OPS = 3
MIN_TRACED_PAIRS = 2
PROBE = Path(__file__).resolve().with_name("setup_probe.py")
# per-layer counts the workload reads from its result rather than from spans
COUNTED_OUTSIDE = ("benchcli.files_written", "benchcli.bytes_written")

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    return {m["name"]: m["unit"] for m in json.loads(BENCHMARK.read_text())[kind]}


class Runner:
    """Attempts operations one after another and counts failures."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.work = 0
        self.peak_rss_mib = 0.0

    def attempt(self, tracer=None) -> tuple[float, bool, dict]:
        """One operation: its seconds, whether it was correct, its layer counts."""
        self.attempted += 1
        start = time.perf_counter()
        result = None
        try:
            result = self.workload.run(tracer)
            seconds = time.perf_counter() - start
            if self.attempted == 1:
                # ru_maxrss is in KiB on Linux
                self.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            summary, problems = self.workload.check(result, self.reference)
            counts = self.workload.layer_counts(result) if tracer is not None else {}
        except Exception:
            seconds = time.perf_counter() - start
            summary, problems, counts = {}, [traceback.format_exc()], {}
        finally:
            self.workload.cleanup(result)
        if problems:
            self.failed += 1
            print(f"operation {self.attempted} failed:", *problems, sep="\n  ",
                  file=sys.stderr)
            return seconds, False, counts
        self.work = self.workload.work_count(summary)
        return seconds, True, counts


def closed_loop(seconds: float, minimum: int, step) -> None:
    """Call step() until the next call would likely end after ``seconds``.

    step() returns the seconds it took; it runs at least ``minimum`` times.
    """
    start = time.perf_counter()
    taken: list[float] = []
    while len(taken) < minimum or (
        time.perf_counter() - start + statistics.median(taken) <= seconds
    ):
        taken.append(step())


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten samples
    beyond it, but never below the median.  Fewer than 22 samples leave no
    such percentile above the median, so the tail then reads the median."""
    ordered = sorted(samples)
    n = len(ordered)
    median = statistics.median(ordered)
    if n >= 11 and ordered[n - 11] > median:
        return 100.0 * (n - 10) / n, ordered[n - 11]
    return 50.0, median


def measure_setup(name: str, seed: int) -> float:
    """Median seconds, over fresh processes, to import eulerreach and build inputs."""
    times = []
    for _ in range(SETUP_PROBES + 1):
        out = subprocess.run(
            [sys.executable, str(PROBE), name, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.split()[-1]))
    # the first probe also writes the bytecode caches of a fresh checkout
    return statistics.median(times[1:])


def end_to_end(runner: Runner, args) -> dict[str, float]:
    setup_s = measure_setup(args.workload, args.seed)
    samples: list[float] = []

    def step() -> float:
        seconds, ok, _ = runner.attempt()
        if ok:
            samples.append(seconds)
        return seconds

    closed_loop(args.seconds, MIN_OPS, step)
    if not samples:
        sys.exit("perfbench: no operation succeeded")
    p50 = statistics.median(samples)
    q, tail_s = tail(samples)
    print(f"{len(samples)} timed operations, seconds:",
          " ".join(f"{v:.4g}" for v in samples))
    print(f"solve_s_tail is p{q:.1f} of the {len(samples)} samples")
    return {
        "setup_s": setup_s,
        "solve_s_p50": p50,
        "solve_s_tail": tail_s,
        "points_per_s": runner.work / p50,
        "peak_rss_mb": runner.peak_rss_mib,
    }


def per_layer(runner: Runner, args, er) -> dict[str, float]:
    runner.attempt()  # warm-up, untraced
    tracer = Tracer()
    untraced: list[float] = []
    traced: list[dict[str, float]] = []

    def pair() -> float:
        seconds, ok, _ = runner.attempt()
        if ok:
            untraced.append(seconds)
        tracer.trace += 1
        with tracer.installed(er):
            traced_seconds, ok, counts = runner.attempt(tracer)
        if ok:
            spans = tracer.traces()[tracer.trace]
            metrics = layer_metrics(spans)
            metrics.update(dict.fromkeys(COUNTED_OUTSIDE, 0), **counts)
            metrics["total_s"] = root_seconds(spans)
            traced.append(metrics)
        return seconds + traced_seconds

    closed_loop(args.seconds, MIN_TRACED_PAIRS, pair)
    tracer.write(workloads.SCRATCH_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    if not untraced or not traced:
        sys.exit("perfbench: no operation succeeded")
    metrics = {
        k: statistics.median(m[k] for m in traced) for k in traced[0] if k != "total_s"
    }
    metrics["trace.overhead_s"] = (
        statistics.median(m["total_s"] for m in traced) - statistics.median(untraced)
    )
    print(f"traced operations {len(traced)}, untraced {len(untraced)}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    er = workloads.import_package(Path.cwd())
    workload = workloads.build(er, args.workload, args.seed)
    reference = workloads.load_references()[args.workload] if args.seed == 0 else None
    runner = Runner(workload, reference)
    if args.trace:
        metrics = per_layer(runner, args, er)
        units = declared_units("per_layer")
    else:
        metrics = end_to_end(runner, args)
        units = declared_units("end_to_end")
    if set(metrics) != set(units):
        sys.exit(f"perfbench: measured {sorted(metrics)}, declared {sorted(units)}")

    print(f"workload {args.workload} seed {args.seed}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    print(f"  {'fail_ratio':32s} {runner.failed}/{runner.attempted} "
          f"= {runner.failed / runner.attempted:.6g}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
