import dataclasses
import math

import numpy as np
import pytest

from eulerreach.discretization import (
    dyadic_invariants_ok,
    initial_discretization,
    subdivide,
    uniform_discretization,
    Discretization,
)
from eulerreach.errors import CouplingError, InvariantViolation, ResourceCapError
from eulerreach.euler import euler_run
from eulerreach.lattice import LatticeSet
from eulerreach import refine
from eulerreach.refine import (
    RefinementTrace,
    ThresholdRecord,
    VolumeSplines,
    algorithm_adaptive,
    algorithm_uniform,
    cost_components,
    cost_estimate,
    check_tolerances,
    default_ladder,
    delta_cost_all,
    delta_error_all,
    error_components,
    error_total,
    estimator_relative_error,
    uniform_step_count,
)
from eulerreach.systems import Box, make_exponential_system, make_michaelis_menten

E = math.e


def _flat_splines(value=1.0):
    return VolumeSplines(
        np.array([0.0, 1.0]), np.array([value, value]), np.array([1.0, 1.0])
    )


class TestErrorBound:
    def test_initial_components(self):
        # L = P = T = 1: rho_0 = 2, so the node-0 term is e and the single
        # step term is (e - 1)(1 + 1 + 1)
        disc = initial_discretization(1.0, 1.0, 1.0)
        comp = error_components(disc, 1.0, 1.0)
        assert comp[0] == pytest.approx(E)
        assert comp[1] == pytest.approx(3 * (E - 1))
        assert error_total(disc, 1.0, 1.0) == pytest.approx(4 * E - 3)


class TestDeltaError:
    def test_initial_values(self):
        disc = initial_discretization(1.0, 1.0, 1.0)
        # quartering rho_0 = 2 changes the node-0 term by -3/8 * e * 2
        de = delta_error_all(disc, 1.0, 1.0)
        assert de[0] == pytest.approx(-0.75 * E)
        assert de[1] == pytest.approx(-1.75 * (E - 1))

    def test_requires_coupling(self):
        disc = uniform_discretization(1.0, 4)  # rho = h^2, not 2*L*P*h^2
        with pytest.raises(CouplingError):
            delta_error_all(disc, 1.0, 1.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_recomputation(self, seed):
        rng = np.random.default_rng(seed)
        L, P = float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.5, 3.0))
        disc = initial_discretization(1.0, L, P)
        for _ in range(int(rng.integers(3, 15))):
            disc = subdivide(disc, int(rng.integers(0, disc.n + 1)))
        e = error_total(disc, L, P)
        for k, de in enumerate(delta_error_all(disc, L, P)):
            assert de == pytest.approx(
                error_total(subdivide(disc, k), L, P) - e, rel=1e-10, abs=1e-12 * e
            )

    def test_at_least_half_component(self):
        rng = np.random.default_rng(123)
        L, P = 2.0, 1.5
        disc = initial_discretization(1.0, L, P)
        for _ in range(20):
            disc = subdivide(disc, int(rng.integers(0, disc.n + 1)))
        de = delta_error_all(disc, L, P)
        comp = error_components(disc, L, P)
        assert np.all(de <= -0.5 * comp + 1e-15)


class TestVolumeSplines:
    def test_reproduces_node_values(self):
        s = VolumeSplines(
            np.array([0.0, 0.5, 1.0]),
            np.array([1.0, 3.0, 2.0]),
            np.array([4.0, 1.0, 2.0]),
        )
        assert s.v_R(0.5) == 3.0
        assert s.v_F(1.0) == 2.0
        assert s.v_RF(0.0) == 4.0

    def test_linear_between_nodes(self):
        s = VolumeSplines(
            np.array([0.0, 1.0]), np.array([1.0, 3.0]), np.array([2.0, 2.0])
        )
        assert s.v_R(0.25) == pytest.approx(1.5)

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            VolumeSplines(np.array([0.0, 1.0]), np.array([1.0, 0.0]), np.ones(2))

    @pytest.mark.parametrize("field", ["vR_values", "vF_values"])
    def test_rejects_nan_values(self, field):
        values = {"vR_values": [1.0, 1.0], "vF_values": [1.0, 1.0]}
        values[field] = [math.nan, 1.0]
        with pytest.raises(ValueError, match="positive"):
            VolumeSplines([0.0, 1.0], **values)


class TestCostEstimator:
    def test_flat_spline_uniform_grid(self):
        # h = 1/2, rho = 1 everywhere, V = 1: each step predicts h/1 = 1/2
        disc = Discretization(1.0, (0.5, 0.5), (0.0, 0.5, 1.0), (1.0, 1.0, 1.0))
        s = _flat_splines()
        assert cost_components(disc, s, 1, 1)[0] == pytest.approx(0.5)
        assert cost_estimate(disc, s, 1, 1) == pytest.approx(1.0)

    def test_exact_on_own_run(self):
        system = make_exponential_system(1, 1.0)
        _, record = algorithm_uniform(system, 1.0)
        splines = VolumeSplines.from_run(record)
        assert estimator_relative_error(record, splines) <= 1e-9

    def test_exact_on_own_run_mixed_exponents(self):
        from eulerreach.euler import euler_run

        system = make_michaelis_menten()
        record = euler_run(system, uniform_discretization(1.0, 10))
        assert estimator_relative_error(record, VolumeSplines.from_run(record)) <= 1e-9


class TestDeltaCost:
    def test_first_index_closed_form(self):
        # V = 1, d_R = d_F = 1: quartering rho_0 = 1 multiplies the first
        # summand h_0 / (rho_0 * rho_1) = 1/2 by 4, a change of +3/2
        disc = Discretization(1.0, (0.5, 0.5), (0.0, 0.5, 1.0), (1.0, 1.0, 1.0))
        assert delta_cost_all(disc, _flat_splines(), 1, 1)[0] == pytest.approx(1.5)

    @pytest.mark.parametrize("d_R,d_F", [(1, 1), (2, 2), (2, 1), (3, 2)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_recomputation(self, d_R, d_F, seed):
        rng = np.random.default_rng(seed)
        disc = initial_discretization(1.0, 1.0, 1.0)
        for _ in range(int(rng.integers(2, 12))):
            disc = subdivide(disc, int(rng.integers(0, disc.n + 1)))
        s = VolumeSplines(
            np.array([0.0, 0.3, 1.0]),
            rng.uniform(0.5, 4.0, size=3),
            rng.uniform(0.5, 4.0, size=3),
        )
        c = cost_estimate(disc, s, d_R, d_F)
        for k, dc in enumerate(delta_cost_all(disc, s, d_R, d_F)):
            assert dc == pytest.approx(
                cost_estimate(subdivide(disc, k), s, d_R, d_F) - c,
                rel=1e-10,
                abs=1e-12 * c,
            )
            assert dc > 0.0


def _delta_cost_unshared(disc, s, d_R, d_F):
    """delta_cost_all with every term computed from its own slices."""
    n, V = disc.n, s.v_RF
    h, t, rho = disc.h, disc.t, disc.rho
    out = np.empty(n + 1)
    out[0] = V(0.0) * (4**d_R - 1) / rho[0] ** d_R * (h[0] / rho[1]) ** d_F
    mid = V(t[1:] - h / 2.0) * (2.0 * h / rho[1:]) ** d_F * (4.0 / rho[1:]) ** d_R
    prev = V(t[:-1]) * (2**d_F - 1) / rho[:-1] ** d_R * (h / rho[1:]) ** d_F
    out[1:] = mid + prev
    out[1:n] += V(t[1:n]) * (4**d_R - 1) / rho[1:n] ** d_R * (h[1:] / rho[2:]) ** d_F
    return out


class TestDeltaCostSharing:
    @pytest.mark.parametrize("d_R,d_F", [(1, 1), (2, 1), (2, 2), (3, 3)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_to_unshared_terms(self, d_R, d_F, seed):
        """Sharing V(t), (h_j / rho_{j+1})^d_F and rho^d_R between the
        terms keeps every entry's bits, along refinement paths that
        subdivide at 0, 1, n and between, from 40 random couplings (numpy's
        array ** differs from its scalar ** in a few percent of cubes)."""
        rng = np.random.default_rng(seed)
        s = VolumeSplines(
            np.array([0.0, 0.3, 1.0]),
            rng.uniform(0.5, 4.0, size=3),
            rng.uniform(0.5, 4.0, size=3),
        )
        seen = set()
        for i in range(240):
            if i % 6 == 0:
                L, P = rng.uniform(0.5, 3.0, size=2).tolist()
                disc = initial_discretization(1.0, L, P)
            assert np.array_equal(
                delta_cost_all(disc, s, d_R, d_F), _delta_cost_unshared(disc, s, d_R, d_F)
            )
            # the boundary indices 0, 1 and n in turn, random ones between
            forced = {0: 0, 1: 1, 2: disc.n}.get(i % 6)
            k = forced if forced is not None else int(rng.integers(0, disc.n + 1))
            seen.add("0" if k == 0 else "n" if k == disc.n else "inner")
            disc = subdivide(disc, k)
        assert seen == {"0", "n", "inner"}


EXP1 = make_exponential_system(1, 1.0)
MM = make_michaelis_menten()


class TestUniformSolver:
    @pytest.mark.parametrize("system,eps", [
        (EXP1, 0.25), (EXP1, 0.125), (EXP1, 1.0), (EXP1, 3.0),
        # tolerances at a grid's own bound, where the closed-form quadratic
        # and error_total disagree in the last bit; n is 11, 3, 4 and 3
        (EXP1, 0.5751743367547032),
        (make_exponential_system(1, 0.5), 0.5221362132709876),
        (MM, 4.9298711436181675),
        (MM, 12.307934402634794),
    ], ids=["0.25", "0.125", "1.0", "3.0", "L1-boundary", "L0.5-boundary",
            "mm-boundary-4.93", "mm-boundary-12.3"])
    def test_step_count_minimal(self, system, eps):
        n = uniform_step_count(system, eps)
        T, L, P = system.horizon, system.lipschitz, system.bound
        assert error_total(uniform_discretization(T, n), L, P) <= eps
        if n > 1:
            assert error_total(uniform_discretization(T, n - 1), L, P) > eps

    def test_step_count_brute_scan(self):
        system = make_exponential_system(1, 1.0)
        L, P = system.lipschitz, system.bound
        for eps in (20.0, 9.0, 2.0, 0.6):
            n = uniform_step_count(system, eps)
            want = next(
                m
                for m in range(1, 500)
                if error_total(uniform_discretization(1.0, m), L, P) <= eps
            )
            assert n == want

    def test_solver_meets_tolerance(self):
        system = make_exponential_system(1, 1.0)
        for eps in (0.5, 0.5751743367547032):
            disc, record = algorithm_uniform(system, eps)
            assert record.error_bound <= eps
            assert disc.n == uniform_step_count(system, eps)

    @pytest.mark.parametrize("eps", [3e307, 1e308, 1.7976931348623157e308])
    def test_huge_tolerance_takes_one_step(self, eps):
        # a*a + 4*eps*b overflows here, though the root is about 1
        disc, record = algorithm_uniform(make_exponential_system(1, 1.0), eps)
        assert disc.n == 1 and record.error_bound <= eps

    def test_smallest_tolerance_over_cap(self):
        with pytest.raises(ResourceCapError):
            uniform_step_count(make_exponential_system(1, 1.0), 5e-324)

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            uniform_step_count(make_exponential_system(1, 1.0), 0.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_eps(self, eps):
        with pytest.raises(ValueError):
            uniform_step_count(make_exponential_system(1, 1.0), eps)

    @pytest.mark.parametrize("L,eps", [(1.0, 1e-300), (700.0, 1e300)])
    def test_step_count_over_cap(self, L, eps):
        # the needed n is about 5.5e300, or inf when its coefficients overflow
        with pytest.raises(ResourceCapError):
            uniform_step_count(make_exponential_system(1, L), eps)


class TestLadder:
    def test_powers_of_two_down_to_target(self):
        assert default_ladder(7.87, 0.25) == [4.0, 2.0, 1.0, 0.5, 0.25]

    def test_starts_strictly_below_initial(self):
        assert default_ladder(8.0, 2.0) == [4.0, 2.0]

    def test_target_appended_if_not_power(self):
        assert default_ladder(10.0, 1.5) == [8.0, 4.0, 2.0, 1.5]

    def test_invalid(self):
        with pytest.raises(ValueError):
            default_ladder(1.0, 0.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_eps(self, eps):
        with pytest.raises(ValueError):
            default_ladder(1.0, eps)


class TestCheckTolerances:
    @pytest.mark.parametrize("ladder", [[4.0, 2.0, 0.5], [1e-300], [1e300, 1.0]])
    def test_accepts(self, ladder):
        check_tolerances(ladder)

    @pytest.mark.parametrize(
        "ladder",
        [[], [0.0], [-1.0], [math.nan], [math.inf], [math.inf, 1.0],
         [1.0, math.nan], [1.0, 1.0], [1.0, 2.0]],
    )
    def test_rejects(self, ladder):
        with pytest.raises(ValueError):
            check_tolerances(ladder)


class TestAdaptiveSolver:
    def test_trivial_ladder_two_runs_no_refinement(self):
        system = make_exponential_system(1, 1.0)
        e0 = error_total(
            initial_discretization(1.0, system.lipschitz, system.bound),
            system.lipschitz,
            system.bound,
        )
        disc, record, trace = algorithm_adaptive(system, [2.0 * e0])
        assert disc.n == 1
        assert len(trace.iterations) == 0
        assert len(trace.thresholds) == 2
        assert trace.thresholds[0].eps is None
        # the second run is planned with the volumes of the first
        splines = VolumeSplines.from_run(trace.thresholds[0].record)
        assert splines.nodes.tolist() == [0.0, 1.0]

    def test_meets_target_and_invariants(self):
        system = make_exponential_system(1, 1.0)
        disc, record, trace = algorithm_adaptive(system, [4.0, 2.0, 1.0])
        assert record.error_bound <= 1.0
        assert dyadic_invariants_ok(disc)
        errs = [it.error_after for it in trace.iterations]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert trace.thresholds[-1].cost_cumulative == sum(
            th.record.cost_total for th in trace.thresholds
        )

    def test_threshold_errors_meet_their_eps(self):
        system = make_exponential_system(1, 1.0)
        _, _, trace = algorithm_adaptive(system, [4.0, 1.0, 0.5])
        for th in trace.thresholds[1:]:
            assert th.record.error_bound <= th.eps

    def test_replayed_iterations_reproduce_discretization(self):
        system = make_exponential_system(1, 1.0)
        disc, _, trace = algorithm_adaptive(system, [4.0, 1.0])
        replay = initial_discretization(1.0, system.lipschitz, system.bound)
        for it in trace.iterations:
            replay = subdivide(replay, it.k)
            assert replay.n == it.n_after
        assert np.array_equal(replay.h, disc.h) and np.array_equal(replay.rho, disc.rho)

    def test_one_dimensional_sets_are_one_run_each(self):
        """Adaptive exp d=1 down to 2**-6: every set of its 12 threshold
        runs is one run of consecutive indices, so the 3,145,435 points of
        its 1,294 sets are stored as 1,294 runs."""
        system = make_exponential_system(1, 1.0)
        L, P = system.lipschitz, system.bound
        e0 = error_total(initial_discretization(1.0, L, P), L, P)
        _, _, trace = algorithm_adaptive(system, default_ladder(e0, 2.0**-6))
        sets = [s for th in trace.thresholds for s in th.record.sets]
        assert len(trace.thresholds) == 12 and len(sets) == 1294
        assert [s.lengths.size for s in sets] == [1] * 1294
        assert sum(s.cardinality for s in sets) == 3_145_435

    def test_invalid_ladders(self):
        system = make_exponential_system(1, 1.0)
        with pytest.raises(ValueError):
            algorithm_adaptive(system, [])
        with pytest.raises(ValueError):
            algorithm_adaptive(system, [1.0, 2.0])
        with pytest.raises(ValueError):
            algorithm_adaptive(system, [1.0, -1.0])

    @pytest.mark.parametrize("L", [400.0, 700.0])
    def test_overflowing_start_hits_the_cap(self, L):
        # rho_0 = 2*L*P*T^2 (L = 700) or its error bound (L = 400) is inf;
        # filterwarnings = error also proves no overflow warning is emitted
        with pytest.raises(ResourceCapError):
            algorithm_adaptive(make_exponential_system(1, L), [1.0])

    @pytest.mark.parametrize("ladder", [[1.0, math.nan], [math.inf, 1.0]])
    def test_non_finite_ladder_rejected_before_any_run(self, ladder, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("Euler ran on an invalid ladder")

        monkeypatch.setattr(refine, "euler_run", no_run)
        with pytest.raises(ValueError):
            algorithm_adaptive(make_exponential_system(1, 1.0), ladder)


def _array_holders():
    """Factories of each array-holding record, by class name."""
    system = make_exponential_system(2, 1.0)
    record = euler_run(system, uniform_discretization(1.0, 2))
    return {
        "LatticeSet": lambda: LatticeSet(0.5, np.array([[0, 0], [1, 5]])),
        "Box": lambda: Box([0.0, 1.0], [1.0, 2.0]),
        "SystemSpec": lambda: dataclasses.replace(system),
        "VolumeSplines": _flat_splines,
        "RunRecord": lambda: dataclasses.replace(record),
        "ThresholdRecord": lambda: ThresholdRecord(None, record, 5, 0.0),
        "RefinementTrace": lambda: RefinementTrace([], [ThresholdRecord(None, record, 5, 0.0)]),
    }


@pytest.mark.parametrize("name", [
    "Box", "LatticeSet", "RefinementTrace", "RunRecord", "SystemSpec",
    "ThresholdRecord", "VolumeSplines",
])
def test_array_holders_compare_by_identity(name):
    """No generated equality, which would compare arrays elementwise and
    raise: == is identity and every record hashes, so in, index and dict
    keys work on them."""
    make = _array_holders()[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a == a and not a == b and a != b
    assert [b, a].index(a) == 1
    assert {a: 1, b: 2}[a] == 1
