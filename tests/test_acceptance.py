"""End-to-end acceptance gate.

Each numbered criterion prints one PASS/FAIL line.  Expensive solver runs
are shared through module-scoped fixtures.  Cost targets for the benchmark
cells are two-significant-figure reference values; uniform cells carry a
10% tolerance, adaptive cells a factor of 3 (the refinement ladder is a
free parameter of the method).
"""

import time

import numpy as np
import pytest

from eulerreach.discretization import (
    coupling_satisfied,
    dyadic_invariants_ok,
    initial_discretization,
    subdivide,
)
from eulerreach.errors import ResourceCapError
from eulerreach.euler import project_box
from eulerreach.lattice import hausdorff_to_box, hausdorff_to_box_two_sided
from eulerreach.refine import (
    VolumeSplines,
    algorithm_adaptive,
    algorithm_uniform,
    cost_estimate,
    default_ladder,
    delta_cost_all,
    delta_error_all,
    error_components,
    error_total,
    estimator_relative_error,
)
from eulerreach.systems import (
    Box,
    exact_reachable_box,
    make_exponential_system,
    make_michaelis_menten,
)


def _report(num: int, label: str, ok: bool) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}")
    assert ok, f"criterion {num}: {label}"


def _coarsest_eps(L: float) -> float:
    return 0.25 if L == 1.0 else 2.0


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# shared runs


@pytest.fixture(scope="module")
def uniform_d1(request):
    system = make_exponential_system(1, 1.0)
    out = {}
    for eps in (0.25, 0.125):
        (disc, record), secs = _timed(algorithm_uniform, system, eps)
        out[eps] = (disc, record, secs)
    return out


@pytest.fixture(scope="module")
def uniform_d2():
    system = make_exponential_system(2, 1.0)
    (disc, record), secs = _timed(algorithm_uniform, system, 0.25)
    return disc, record, secs


@pytest.fixture(scope="module")
def adaptive_cells():
    """Adaptive runs at the coarsest benchmark tolerance for each (d, L)."""
    out = {}
    for d in (1, 2):
        for L in (1.0, 2.0):
            system = make_exponential_system(d, L)
            eps = _coarsest_eps(L)
            e0 = error_total(
                initial_discretization(1.0, system.lipschitz, system.bound),
                system.lipschitz,
                system.bound,
            )
            out[(d, L)] = (
                system,
                algorithm_adaptive(system, default_ladder(e0, eps)),
            )
    return out


@pytest.fixture(scope="module")
def adaptive_d1_fine():
    system = make_exponential_system(1, 1.0)
    e0 = error_total(
        initial_discretization(1.0, system.lipschitz, system.bound),
        system.lipschitz,
        system.bound,
    )
    return system, algorithm_adaptive(system, default_ladder(e0, 0.125))


@pytest.fixture(scope="module")
def michaelis_runs():
    system = make_michaelis_menten()
    (_, uni), t_uni = _timed(algorithm_uniform, system, 0.125)
    e0 = error_total(
        initial_discretization(1.0, system.lipschitz, system.bound),
        system.lipschitz,
        system.bound,
    )
    (_, ada, trace), t_ada = _timed(
        algorithm_adaptive, system, default_ladder(e0, 0.125)
    )
    return uni, ada, trace, t_uni + t_ada


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_uniform_benchmark_cells(uniform_d1, uniform_d2):
    checks = []
    for eps, target in ((0.25, 5.8e3), (0.125, 8.3e4)):
        _, record, secs = uniform_d1[eps]
        checks.append(abs(record.cost_total - target) <= 0.10 * target)
        checks.append(secs < 5.0)
        checks.append(record.error_bound <= eps)
    _, record2, secs2 = uniform_d2
    checks.append(abs(record2.cost_total - 2.7e6) <= 0.10 * 2.7e6)
    checks.append(secs2 < 120.0)
    checks.append(record2.error_bound <= 0.25)
    _report(1, "uniform solver costs on the exponential benchmark", all(checks))


def test_criterion_2_adaptive_benchmark_cells(
    adaptive_cells, adaptive_d1_fine, uniform_d1, uniform_d2, michaelis_runs
):
    checks = []
    for (d, L), target in (((1, 1.0), 1.7e3), ((2, 1.0), 1.1e5)):
        _, (_, record, _) = adaptive_cells[(d, L)]
        checks.append(target / 3.0 <= record.cost_total <= 3.0 * target)
        checks.append(record.error_bound <= 0.25)
    # adaptive strictly cheaper than uniform in every cell where both ran
    _, (_, ada_d1, _) = adaptive_cells[(1, 1.0)]
    checks.append(ada_d1.cost_total < uniform_d1[0.25][1].cost_total)
    _, (_, ada_d1f, _) = adaptive_d1_fine
    checks.append(ada_d1f.cost_total < uniform_d1[0.125][1].cost_total)
    _, (_, ada_d2, _) = adaptive_cells[(2, 1.0)]
    checks.append(ada_d2.cost_total < uniform_d2[1].cost_total)
    uni_mm, ada_mm, _, _ = michaelis_runs
    checks.append(ada_mm.cost_total < uni_mm.cost_total)
    _report(2, "adaptive solver costs beat uniform on every cell", all(checks))


def test_criterion_3_michaelis_menten(michaelis_runs):
    uni, ada, _, secs = michaelis_runs
    checks = [
        abs(uni.cost_total - 7.8e5) <= 0.10 * 7.8e5,
        7.8e5 / 3.0 <= uni.cost_total,  # sanity: same scale
        9.6e4 / 3.0 <= ada.cost_total <= 3.0 * 9.6e4,
        uni.error_bound <= 0.125,
        ada.error_bound <= 0.125,
        secs < 300.0,
    ]
    _report(3, "enzyme-kinetics benchmark costs", all(checks))


def test_criterion_4_error_bound_soundness(adaptive_cells, uniform_d1):
    violations = 0
    checked = 0

    def audit(system, disc, record):
        nonlocal violations, checked
        bounds = np.cumsum(error_components(disc, system.lipschitz, system.bound))
        for k in range(disc.n + 1):
            exact = exact_reachable_box(system, disc.t[k])
            dist = hausdorff_to_box_two_sided(record.sets[k], exact)
            checked += 1
            if dist > bounds[k]:
                violations += 1

    for (d, L), (system, (disc, record, _)) in adaptive_cells.items():
        audit(system, disc, record)
    system_d1 = make_exponential_system(1, 1.0)
    for eps in (0.25, 0.125):
        disc, record, _ = uniform_d1[eps]
        audit(system_d1, disc, record)
    _report(
        4,
        f"certified error bound contains the measured distance "
        f"({checked} sets audited)",
        checked > 0 and violations == 0,
    )


def test_criterion_5_closed_form_delta_oracles():
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(200):
        L = float(rng.uniform(0.3, 4.0))
        P = float(rng.uniform(0.3, 8.0))
        T = float(rng.choice([0.5, 1.0, 2.0]))
        disc = initial_discretization(T, L, P)
        for _ in range(int(rng.integers(0, 14))):
            disc = subdivide(disc, int(rng.integers(0, disc.n + 1)))
        splines = VolumeSplines(
            np.array([0.0, 0.4 * T, T]),
            rng.uniform(0.2, 5.0, size=3),
            rng.uniform(0.2, 5.0, size=3),
        )
        d_R = int(rng.integers(1, 4))
        d_F = int(rng.integers(1, 4))
        e = error_total(disc, L, P)
        c = cost_estimate(disc, splines, d_R, d_F)
        comp = error_components(disc, L, P)
        all_de = delta_error_all(disc, L, P)
        all_dc = delta_cost_all(disc, splines, d_R, d_F)
        for k, (de, dc) in enumerate(zip(all_de, all_dc)):
            sub = subdivide(disc, k)
            ok &= abs(de - (error_total(sub, L, P) - e)) <= 1e-10 * abs(e)
            ok &= (
                abs(dc - (cost_estimate(sub, splines, d_R, d_F) - c))
                <= 1e-10 * abs(c)
            )
            ok &= de <= -0.5 * comp[k] + 1e-15
        if not ok:
            break
    _report(5, "subdivision deltas match recomputation on 200 random grids", ok)


def test_criterion_6_structural_invariants(
    adaptive_cells, adaptive_d1_fine, michaelis_runs
):
    ok = True

    def audit(system, disc, trace):
        nonlocal ok
        L, P = system.lipschitz, system.bound
        replay = initial_discretization(system.horizon, L, P)
        errs = []
        for it in trace.iterations:
            replay = subdivide(replay, it.k)
            ok &= dyadic_invariants_ok(replay)
            ok &= coupling_satisfied(replay, L, P)
            errs.append(it.error_after)
        ok &= all(
            np.array_equal(getattr(replay, f), getattr(disc, f))
            for f in ("h", "rho", "t")
        )
        ok &= all(b < a for a, b in zip(errs, errs[1:]))
        ok &= dyadic_invariants_ok(disc)

    for (d, L), (system, (disc, record, trace)) in adaptive_cells.items():
        audit(system, disc, trace)
    system, (disc, record, trace) = adaptive_d1_fine
    audit(system, disc, trace)
    _, ada, trace_mm, _ = michaelis_runs
    audit(make_michaelis_menten(), ada.disc, trace_mm)
    _report(6, "dyadic grid invariants hold along every refinement trace", ok)


def test_criterion_7_estimator_quality(adaptive_cells, adaptive_d1_fine):
    ok = True
    for system, (disc, record, trace) in (
        adaptive_d1_fine,
        adaptive_cells[(1, 2.0)],
    ):
        # every run after the first, with the volumes it was planned with
        rated = trace.thresholds[1:]
        deltas = [
            estimator_relative_error(th.record, VolumeSplines.from_run(prev.record))
            for prev, th in zip(trace.thresholds, rated)
        ]
        errors = [th.record.error_bound for th in rated]
        ok &= len(deltas) >= 4
        ok &= deltas[-1] < deltas[0]
        ok &= deltas[-1] < deltas[-2] < deltas[-3]
        ok &= errors[-1] < errors[-2] < errors[-3]
    _report(
        7, "cost estimator accuracy improves toward the final threshold", ok
    )


def test_criterion_8_projection_property():
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(100):
        d = int(rng.integers(1, 4))
        lo = rng.uniform(-8.0, 8.0, size=d)
        b = Box(lo, lo + rng.uniform(0.0, 4.0, size=d))
        rho = float(rng.uniform(0.02, 3.0))
        s = project_box(b, rho)
        ok &= s.cardinality >= 1
        ok &= hausdorff_to_box(s, b) <= rho / 2.0 + 1e-12
    _report(8, "projected lattice sets stay within half a cell of the box", ok)


def test_infeasible_cell_aborts_cleanly():
    system = make_exponential_system(2, 4.0)
    with pytest.raises(ResourceCapError) as info:
        algorithm_uniform(system, 4.0)
    assert info.value.step >= 1
    assert info.value.projected > info.value.cap
    print(
        f"\n[PASS] resource guard: infeasible cell aborted at step "
        f"{info.value.step} with a clean diagnostic"
    )
