import dataclasses
import tracemalloc

import numpy as np
import pytest

from eulerreach.discretization import uniform_discretization
from eulerreach.errors import InvariantViolation, ResourceCapError
from eulerreach.euler import DEFAULT_CAP, _project, _step, euler_run
from eulerreach.lattice import lattice_range
from eulerreach.refine import VolumeSplines, algorithm_uniform, error_total
from eulerreach.systems import make_exponential_system, make_michaelis_menten


def _cost_oracle(system, record):
    """Recount projected points per step directly from the stored sets."""
    disc = record.disc
    costs = []
    for k in range(disc.n):
        x = record.sets[k].state_points()
        f_lo, f_hi = system.rhs_batch(x)
        lo, hi = lattice_range(
            x + disc.h[k] * f_lo, x + disc.h[k] * f_hi, disc.rho[k + 1]
        )
        costs.append(int(np.prod(hi - lo + 1, axis=1).sum()))
    return costs


class TestEulerRun:
    def test_initial_projection_single_point(self):
        # rho_0 = 2*e is wider than the unit start point: a single lattice point
        system = make_exponential_system(1, 1.0)
        from eulerreach.discretization import initial_discretization

        disc = initial_discretization(1.0, system.lipschitz, system.bound)
        record = euler_run(system, disc)
        assert record.sets[0].points.tolist() == [[0]]

    def test_shapes_and_totals(self):
        system = make_exponential_system(1, 1.0)
        disc = uniform_discretization(1.0, 4)
        record = euler_run(system, disc)
        assert len(record.sets) == 5
        assert len(record.cost_exact) == 4
        assert record.cost_total == sum(record.cost_exact)
        assert record.cardinalities == tuple(s.cardinality for s in record.sets)

    def test_cost_matches_recount(self):
        system = make_exponential_system(1, 1.0)
        record = euler_run(system, uniform_discretization(1.0, 6))
        assert list(record.cost_exact) == _cost_oracle(system, record)

    def test_cost_matches_recount_2d(self):
        system = make_exponential_system(2, 1.0)
        record = euler_run(system, uniform_discretization(1.0, 4))
        assert list(record.cost_exact) == _cost_oracle(system, record)

    def test_surrogate_volume_definitions(self):
        # the vectorized volumes equal the per-step Python float formulas
        # bit for bit, at the exponents (1, 1), (2, 2), (3, 3) and (2, 1)
        disc = uniform_discretization(1.0, 3)
        rho, h = disc.rho.tolist(), disc.h.tolist()
        for system in (make_exponential_system(1, 1.0), make_exponential_system(2, 1.0),
                       make_exponential_system(3, 1.0), make_michaelis_menten()):
            record = euler_run(system, disc)
            volumes = VolumeSplines.from_run(record)
            assert volumes.nodes.tolist() == disc.t.tolist()
            d_R, d_F = system.d_R, system.d_F
            assert volumes.vR_values.tolist() == [
                record.sets[j].cardinality * rho[j] ** d_R for j in range(4)
            ]
            v_F = [
                (record.cost_exact[k] / record.sets[k].cardinality)
                * (rho[k + 1] / h[k]) ** d_F
                for k in range(3)
            ]
            assert volumes.vF_values.tolist() == [*v_F, v_F[-1]]

    def test_error_bound_recorded(self):
        system = make_exponential_system(1, 1.0)
        disc = uniform_discretization(1.0, 5)
        record = euler_run(system, disc)
        assert record.error_bound == pytest.approx(
            error_total(disc, system.lipschitz, system.bound)
        )

    def test_horizon_mismatch(self):
        system = make_exponential_system(1, 1.0)
        with pytest.raises(ValueError):
            euler_run(system, uniform_discretization(0.5, 2))

    def test_cap_triggers_with_step_index(self):
        system = make_exponential_system(2, 2.0)
        disc = uniform_discretization(1.0, 40)
        with pytest.raises(ResourceCapError) as info:
            euler_run(system, disc, cap=2000)
        assert info.value.step >= 1
        assert info.value.projected > info.value.cap

    def test_cap_counts_exactly_below_two_to_the_53(self):
        # one 2**27 + 1 by 2**26 box: the count reaches 2**53, past which a
        # float64 count is no longer exact, so no cap lets it through; the
        # (d, N) bounds project onto the index box [0, 2**27] x [0, 2**26 - 1]
        lower = np.zeros((2, 1))
        upper = np.array([[2.0**27], [2.0**26 - 1]])
        with pytest.raises(ResourceCapError) as info:
            _project(lower, upper, 1.0, 2**62, 3, np.empty((3, 2, 1)))
        assert info.value.step == 3 and info.value.cap == 2**53 - 1
        assert info.value.projected == (2**27 + 1) * 2**26

    def test_cap_admits_a_count_equal_to_it(self):
        # the index boxes [0, 4] and [0, 2] on rho = 0.5: 5 + 3 points
        lower = np.zeros((1, 2))
        upper = np.array([[2.0, 1.0]])
        s, cost = _project(lower, upper, 0.5, 8, 1, np.empty((3, 1, 2)))
        assert cost == 8 and s.points.ravel().tolist() == [0, 1, 2, 3, 4]
        with pytest.raises(ResourceCapError):
            _project(lower, upper, 0.5, 7, 1, np.empty((3, 1, 2)))

    def test_michaelis_menten_runs(self):
        system = make_michaelis_menten()
        record = euler_run(system, uniform_discretization(1.0, 10))
        assert record.system.d_R == 2 and record.system.d_F == 1
        assert all(c > 0 for c in record.cost_exact)


def _nan_lower(lo, hi):
    lo[0, 0] = np.nan


def _swapped(lo, hi):
    lo[0], hi[0] = hi[0].copy(), lo[0].copy()


def _inf_both(lo, hi):
    lo[0, 0] = hi[0, 0] = np.inf


def _neg_inf_lower(lo, hi):
    lo[0, 1] = -np.inf


def _inf_upper(lo, hi):
    hi[0, 1] = np.inf


def _nan_upper(lo, hi):
    hi[0, 0] = np.nan


class TestDeterminism:
    def test_repeat_runs_identical(self):
        system = make_michaelis_menten()
        disc = uniform_discretization(1.0, 8)
        a = euler_run(system, disc)
        b = euler_run(system, disc)
        assert a.cost_exact == b.cost_exact
        for x, y in zip(a.sets, b.sets):
            assert np.array_equal(x.points, y.points)


@pytest.mark.parametrize(
    "corrupt", [_nan_lower, _swapped, _inf_both, _neg_inf_lower, _inf_upper, _nan_upper]
)
def test_bad_rhs_box_rejected(corrupt):
    base = make_exponential_system(2, 1.0)

    def rhs(x):
        lo, hi = base.rhs_batch(x)
        corrupt(lo, hi)
        return lo, hi

    system = dataclasses.replace(base, rhs_batch=rhs)
    with pytest.raises(InvariantViolation, match="step 1: right-hand side returned 1 "):
        euler_run(system, uniform_discretization(1.0, 4))


def test_images_outside_the_index_range_are_a_resource_cap():
    """Finite, ordered F whose image boxes reach past the int64 indices of
    the next lattice: a resource cap at that step, not an overflow."""
    system = dataclasses.replace(
        make_exponential_system(1, 1.0),
        rhs_batch=lambda x: (np.full_like(x, 1e25), np.full_like(x, 1e25)),
    )
    with pytest.raises(ResourceCapError, match="step 1: ") as exc:
        euler_run(system, uniform_discretization(1.0, 4))
    assert exc.value.step == 1


@pytest.mark.parametrize("d, n", [(1, 12), (3, 6)])
def test_workspace_reuse_matches_fresh_buffers(d, n):
    """Large, small, large sets through one workspace: the same sets and
    costs, bit for bit, as fresh NaN-filled buffers cut to each set, so no
    step reads what an earlier one left behind."""
    system = make_exponential_system(d, 1.0)
    disc = uniform_discretization(1.0, n)
    record = euler_run(system, disc)
    largest = max(record.cardinalities)
    work = np.full(3 * d * largest, np.nan)
    for k in (n - 1, 0, 1, n - 2, 0, n - 1):
        src = record.sets[k]
        args = (system, src, disc.h[k], disc.rho[k + 1], DEFAULT_CAP, k + 1)
        got, cost = _step(*args, work)
        fresh, fresh_cost = _step(*args, np.full(3 * d * src.cardinality, np.nan))
        want = record.sets[k + 1]
        assert cost == fresh_cost == record.cost_exact[k]
        for s in (got, fresh):
            assert np.array_equal(s.starts, want.starts)
            assert np.array_equal(s.lengths, want.lengths)
    assert record.cardinalities[0] < 10 < largest


def test_peak_memory_of_a_uniform_solve():
    """A run's workspace is three (d, N) slots; the traced peak of the
    benchmark's uniform d=2 solve stays under 7 MiB with it."""
    system = make_exponential_system(2, 1.0)
    algorithm_uniform(system, 0.1875)  # numpy's lazy set-up, untraced
    tracemalloc.start()
    try:
        algorithm_uniform(system, 0.1875)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * 2**20
