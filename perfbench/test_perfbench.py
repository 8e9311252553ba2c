"""Tests of the benchmark itself: its reference check, seeds and tracer.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import time
import types
from pathlib import Path

import numpy as np
import pytest

import workloads
from run import tail
from tracer import Tracer, layer_metrics, root_seconds, self_times

er = workloads.import_package(Path(__file__).resolve().parents[1])
REFERENCES = workloads.load_references()


@pytest.fixture(scope="module")
def uniform():
    workload = workloads.build(er, "uniform-exp2", 0)
    return workload, workload.run()


def with_final_points(record, points):
    final = er.LatticeSet(record.sets[-1].resolution, points)
    return dataclasses.replace(record, sets=record.sets[:-1] + (final,))


def test_seed0_result_matches_the_references(uniform):
    workload, result = uniform
    _, problems = workload.check(result, REFERENCES["uniform-exp2"])
    assert problems == []


def test_one_moved_point_in_the_final_set_is_rejected(uniform):
    workload, (disc, record) = uniform
    points = record.sets[-1].points.copy()
    points[0, 0] -= 1  # the smallest point moves off the set
    _, problems = workload.check(
        (disc, with_final_points(record, points)), REFERENCES["uniform-exp2"]
    )
    assert any("final_points_sha256" in p for p in problems)


def test_cost_exact_off_by_one_is_rejected(uniform):
    workload, (disc, record) = uniform
    cost = list(record.cost_exact)
    cost[5] += 1
    bad = dataclasses.replace(record, cost_exact=tuple(cost))
    _, problems = workload.check((disc, bad), REFERENCES["uniform-exp2"])
    assert any(p.startswith("cost_exact") for p in problems)
    assert any(p.startswith("cost_total") for p in problems)


def test_invariants_reject_a_set_that_misses_the_exact_box_without_references(uniform):
    workload, (disc, record) = uniform
    shifted = record.sets[-1].points + [400, 0]  # 400 cells = 0.44 > the bound
    _, problems = workload.check((disc, with_final_points(record, shifted)), None)
    assert any("Hausdorff" in p for p in problems)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seeds_jitter_the_initial_point_deterministically(name):
    canonical = workloads.build(er, name, 0).x0
    a, b = workloads.build(er, name, 7).x0, workloads.build(er, name, 7).x0
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, canonical)
    if name == "figure-mm":
        domain = er.make_michaelis_menten().domain
        assert np.all(domain.lower <= a) and np.all(a <= domain.upper)
    else:
        np.testing.assert_array_equal(canonical, 1.0)
        assert np.all(0.9 <= a) and np.all(a <= 1.0)


def test_traced_self_times_sum_to_the_traced_total():
    workload = workloads.build(er, "adaptive-exp1", 0)
    workload.ladder = workload.ladder[:4]
    start = time.perf_counter()
    workload.run()
    untraced = time.perf_counter() - start

    tracer = Tracer()
    with tracer.installed(er):
        workload.run(tracer)
    spans = tracer.traces()[0]
    total = root_seconds(spans)
    overhead = total - untraced
    assert abs(sum(self_times(spans).values()) - total) <= max(overhead, 0.0) + 1e-9

    metrics = layer_metrics(spans)
    assert metrics["euler.runs"] == 5
    assert metrics["refine.euler_reruns"] == 4
    assert metrics["refine.iterations"] == metrics["discretization.subdivide_calls"] > 0
    assert metrics["lattice.dedupe_s"] > 0 and metrics["systems.rhs_points"] > 0
    assert er.euler.dedupe_points is er.lattice.dedupe_points  # restored


def test_absent_names_are_left_alone_and_read_zero():
    def lattice_range(*args):
        return args

    fake = types.SimpleNamespace(euler=types.SimpleNamespace(lattice_range=lattice_range))
    tracer = Tracer()
    with tracer.installed(fake):
        assert fake.euler.lattice_range is not lattice_range
        fake.euler.lattice_range(1, 2)
    assert fake.euler.lattice_range is lattice_range
    metrics = layer_metrics(tracer.traces()[0])
    assert metrics["lattice.dedupe_s"] == 0 and metrics["lattice.dedupe_yield"] == 0
    assert metrics["lattice.range_s"] > 0


def test_tail_keeps_ten_samples_beyond_it_and_never_drops_below_the_median():
    assert tail([float(v) for v in range(5)]) == (50.0, 2.0)
    assert tail([float(v) for v in range(30)]) == (100.0 * 20 / 30, 19.0)
