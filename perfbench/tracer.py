"""Spans around the calls between eulerreach's layers, recorded from outside.

The tracer swaps the module-level names one layer calls another through,
such as ``eulerreach.euler.dedupe_points``, for wrappers that record a span:
trace id (one per operation), span id, parent span id, name, start, end and
a few counts read from the call's arguments and result.  Spans stay in
memory and are written out once, at the end of a run.

A name that is absent is left alone: its layer then reads 0 and its time
shows up in the self time of the caller's span.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


def _enumerated(args, out):
    return {"points": out.shape[0], "bytes": out.shape[0] * out.shape[1] * 8}


def _deduped(args, out):
    return {"in": args[0].shape[0], "out": out.shape[0]}


def _written(args, out):
    return {"rows": args[0].cardinality}


def _euler_run(args, out):
    return {"steps": out.disc.n, "max_cardinality": max(out.cardinalities)}


def _adaptive(args, out):
    _, record, trace = out
    return {
        "iterations": len(trace.iterations),
        "reruns": len(trace.thresholds) - 1,
        "cost_total": record.cost_total,
        "cost_cumulative": trace.thresholds[-1].cost_cumulative,
    }


def _rhs(args, out):
    return {"points": args[0].shape[0]}


# Counts kept per span name; a count whose key starts with "max_" keeps the
# largest value, every other count is summed.
COUNTERS = {
    "lattice.enumerate": _enumerated,
    "lattice.dedupe": _deduped,
    "lattice.write_text": _written,
    "euler.run": _euler_run,
    "refine.adaptive": _adaptive,
    "systems.rhs": _rhs,
}

# (owner inside the package, attribute, span name).  Only the names euler
# calls through are wrapped in euler's namespace, so project_box's own
# calls into the lattice module stay inside its span.
TARGETS = (
    ("euler", "lattice_range", "lattice.range"),
    ("euler", "enumerate_ranges", "lattice.enumerate"),
    ("euler", "dedupe_points", "lattice.dedupe"),
    ("euler", "LatticeSet", "lattice.set_build"),
    ("euler", "project_box", "lattice.project_box"),
    ("lattice.LatticeSet", "write_text", "lattice.write_text"),
    ("refine", "euler_run", "euler.run"),
    ("refine", "delta_error_all", "refine.delta"),
    ("refine", "delta_cost_all", "refine.delta"),
    ("refine", "error_total", "refine.error_total"),
    ("refine", "subdivide", "discretization.subdivide"),
    ("benchcli", "algorithm_adaptive", "refine.adaptive"),
)


@dataclasses.dataclass
class Span:
    trace: int
    id: int
    parent: int  # 0 for the root span of an operation
    name: str
    start: float = 0.0
    end: float = 0.0
    counts: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans in memory; ``trace`` is the operation id given to new spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.trace = 0
        self._open = [0]

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span named ``name``."""
        span = Span(self.trace, len(self.spans) + 1, self._open[-1], name)
        self.spans.append(span)
        self._open.append(span.id)
        span.start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()
        counter = COUNTERS.get(name)
        if counter is not None:
            span.counts = counter(args, out)
        return out

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def traced_system(self, system):
        """A copy of a SystemSpec whose right-hand side is traced."""
        return dataclasses.replace(
            system, rhs_batch=self.wrap("systems.rhs", system.rhs_batch)
        )

    @contextmanager
    def installed(self, package):
        """Wrap every target name that exists while the block runs."""
        undo = []
        try:
            for owner_path, attr, name in TARGETS:
                owner = package
                for part in owner_path.split("."):
                    owner = getattr(owner, part, None)
                old = getattr(owner, attr, None)
                if old is None:
                    continue
                setattr(owner, attr, self.wrap(name, old))
                undo.append((owner, attr, old))
            yield self
        finally:
            for owner, attr, old in reversed(undo):
                setattr(owner, attr, old)

    def traces(self) -> dict[int, list[Span]]:
        by_trace: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            by_trace[span.trace].append(span)
        return dict(by_trace)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dataclasses.asdict(span)) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover.

    The operation runs in one thread, so children of one span never overlap.
    """
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        covered[span.parent] += span.seconds
    return {span.id: span.seconds - covered[span.id] for span in spans}


def root_seconds(spans: list[Span]) -> float:
    return sum(span.seconds for span in spans if span.parent == 0)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of one traced operation."""
    own = self_times(spans)
    incl: dict[str, float] = defaultdict(float)
    selft: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    for span in spans:
        incl[span.name] += span.seconds
        selft[span.name] += own[span.id]
        calls[span.name] += 1
        for key, value in (span.counts or {}).items():
            k = f"{span.name}:{key}"
            counts[k] = max(counts[k], value) if key.startswith("max_") else counts[k] + value

    def ratio(num: str, den: str) -> float:
        return counts[num] / counts[den] if counts[den] else 0.0

    return {
        "lattice.dedupe_s": incl["lattice.dedupe"],
        "lattice.enumerate_s": incl["lattice.enumerate"],
        "lattice.enumerate_points": counts["lattice.enumerate:points"],
        "lattice.enumerate_bytes": counts["lattice.enumerate:bytes"],
        "lattice.dedupe_yield": ratio("lattice.dedupe:out", "lattice.dedupe:in"),
        "lattice.range_s": incl["lattice.range"],
        "lattice.set_build_s": incl["lattice.set_build"],
        "lattice.project_box_s": incl["lattice.project_box"],
        "lattice.write_text_s": incl["lattice.write_text"],
        "lattice.write_text_rows": counts["lattice.write_text:rows"],
        "euler.run_s": incl["euler.run"],
        "euler.self_s": selft["euler.run"],
        "euler.runs": calls["euler.run"],
        "euler.steps": counts["euler.run:steps"],
        "euler.max_cardinality": counts["euler.run:max_cardinality"],
        "refine.loop_self_s": selft["refine.adaptive"],
        "refine.delta_s": incl["refine.delta"],
        "refine.error_total_s": incl["refine.error_total"],
        "refine.iterations": counts["refine.adaptive:iterations"],
        "refine.euler_reruns": counts["refine.adaptive:reruns"],
        "refine.final_cost_share": ratio(
            "refine.adaptive:cost_total", "refine.adaptive:cost_cumulative"
        ),
        "discretization.subdivide_s": incl["discretization.subdivide"],
        "discretization.subdivide_calls": calls["discretization.subdivide"],
        "systems.rhs_s": incl["systems.rhs"],
        "systems.rhs_points": counts["systems.rhs:points"],
        "benchcli.self_s": selft["benchcli.main"],
    }
