import dataclasses

import numpy as np
import pytest

from eulerreach.discretization import uniform_discretization
from eulerreach.errors import InvariantViolation, ResourceCapError
from eulerreach.euler import euler_run
from eulerreach.lattice import lattice_range
from eulerreach.refine import error_total
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
        assert len(record.vhat_R) == 5 and len(record.vhat_F) == 5
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
        system = make_exponential_system(2, 1.0)
        disc = uniform_discretization(1.0, 3)
        record = euler_run(system, disc)
        for j in range(4):
            assert record.vhat_R[j] == pytest.approx(
                record.sets[j].cardinality * disc.rho[j] ** 2
            )
        for k in range(3):
            expect = (record.cost_exact[k] / record.sets[k].cardinality) * (
                disc.rho[k + 1] / disc.h[k]
            ) ** 2
            assert record.vhat_F[k] == pytest.approx(expect)
        assert record.vhat_F[3] == record.vhat_F[2]

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

    def test_michaelis_menten_runs(self):
        system = make_michaelis_menten()
        record = euler_run(system, uniform_discretization(1.0, 10))
        assert record.system.d_R == 2 and record.system.d_F == 1
        assert all(c > 0 for c in record.cost_exact)


def _nan_lower(lo, hi):
    lo[0, 0] = np.nan


def _swapped(lo, hi):
    lo[0], hi[0] = hi[0].copy(), lo[0].copy()


class TestDeterminism:
    def test_repeat_runs_identical(self):
        system = make_michaelis_menten()
        disc = uniform_discretization(1.0, 8)
        a = euler_run(system, disc)
        b = euler_run(system, disc)
        assert a.cost_exact == b.cost_exact
        for x, y in zip(a.sets, b.sets):
            assert np.array_equal(x.points, y.points)


@pytest.mark.parametrize("corrupt", [_nan_lower, _swapped])
def test_bad_rhs_box_rejected(corrupt):
    base = make_exponential_system(2, 1.0)

    def rhs(x):
        lo, hi = base.rhs_batch(x)
        corrupt(lo, hi)
        return lo, hi

    system = dataclasses.replace(base, rhs_batch=rhs)
    with pytest.raises(InvariantViolation, match="step 1: right-hand side returned 1 "):
        euler_run(system, uniform_discretization(1.0, 4))
