import dataclasses
import math

import numpy as np
import pytest

from eulerreach.systems import (
    Box,
    SystemSpec,
    evaluate_rhs,
    exact_reachable_box,
    make_exponential_system,
    make_michaelis_menten,
)


class TestBox:
    def test_basic_properties(self):
        b = Box([0.0, -1.0], [2.0, 3.0])
        assert b.dim == 2
        assert np.array_equal(b.width, [2.0, 4.0])

    def test_point_box(self):
        b = Box.point([1.5, 2.5])
        assert np.array_equal(b.lower, b.upper)
        assert np.all(b.width == 0.0)

    def test_scalar_promoted(self):
        b = Box(1.0, 2.0)
        assert b.dim == 1

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Box([0.0, 1.0], [1.0, 0.5])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Box([0.0], [1.0, 2.0])

    def test_bounds_immutable(self):
        b = Box([0.0], [1.0])
        with pytest.raises(ValueError):
            b.lower[0] = 5.0


class TestExponentialSystem:
    def test_rhs_at_point(self):
        system = make_exponential_system(1, 1.0)
        img = evaluate_rhs(system, [2.0])
        assert img.lower[0] == pytest.approx(1.8)
        assert img.upper[0] == pytest.approx(2.0)

    def test_rhs_componentwise(self):
        system = make_exponential_system(3, 2.0)
        img = evaluate_rhs(system, [1.0, 2.0, 0.5])
        assert np.allclose(img.lower, [1.8, 3.6, 0.9])
        assert np.allclose(img.upper, [2.0, 4.0, 1.0])

    def test_rhs_handles_negative_states(self):
        # 0.9*L*x > L*x for x < 0; the hull endpoints must stay ordered
        system = make_exponential_system(1, 1.0)
        img = evaluate_rhs(system, [-1.0])
        assert img.lower[0] == pytest.approx(-1.0)
        assert img.upper[0] == pytest.approx(-0.9)

    def test_constants(self):
        system = make_exponential_system(2, 2.0)
        assert system.lipschitz == 2.0
        assert system.bound == pytest.approx(2.0 * math.exp(2.0))
        assert system.horizon == 1.0
        assert system.d_R == 2 and system.d_F == 2
        assert np.array_equal(system.initial_set.lower, [1.0, 1.0])

    def test_zero_lipschitz_clamped(self):
        system = make_exponential_system(1, 0.0)
        assert system.lipschitz > 0.0
        assert system.bound > 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            make_exponential_system(0, 1.0)
        with pytest.raises(ValueError):
            make_exponential_system(1, -1.0)

    @pytest.mark.parametrize("L", [701.0, 800.0, math.inf, math.nan])
    def test_overflowing_bound_rejected(self, L):
        # L is capped at 700; P = L * exp(L) overflows past L = 703.2
        with pytest.raises(ValueError):
            make_exponential_system(1, L)

    def test_wrong_state_length(self):
        system = make_exponential_system(2, 1.0)
        with pytest.raises(ValueError):
            evaluate_rhs(system, [1.0])


class TestMichaelisMenten:
    def test_rhs_at_initial_point(self):
        system = make_michaelis_menten()
        img = evaluate_rhs(system, [0.75, 0.25])
        # first component is single-valued:
        # -0.5*0.6*0.75 + (0.5*0.75 + 0.05)*0.25 = -0.11875
        assert img.lower[0] == pytest.approx(-0.11875)
        assert img.upper[0] == pytest.approx(-0.11875)
        # second: 0.11875 - [1.8, 2.0]*0.25 = [-0.38125, -0.33125]
        assert img.lower[1] == pytest.approx(-0.38125)
        assert img.upper[1] == pytest.approx(-0.33125)
        assert img.width[1] == pytest.approx(0.05)

    def test_rhs_interval_stays_ordered_for_negative_x2(self):
        system = make_michaelis_menten()
        img = evaluate_rhs(system, [0.75, -0.1])
        assert img.lower[1] <= img.upper[1]

    def test_constants(self):
        system = make_michaelis_menten()
        assert system.dimension == 2
        assert system.lipschitz == 3.0
        assert system.bound == 0.61
        assert system.d_R == 2 and system.d_F == 1


def _hull_distance(lo_a, hi_a, lo_b, hi_b):
    """Max-norm Hausdorff distance between two boxes (endpoint formula)."""
    return max(
        np.abs(lo_a - lo_b).max(),
        np.abs(hi_a - hi_b).max(),
    )


@pytest.mark.parametrize(
    "system",
    [
        make_exponential_system(1, 1.0),
        make_exponential_system(2, 2.0),
        make_michaelis_menten(),
    ],
    ids=["exp_d1_L1", "exp_d2_L2", "michaelis_menten"],
)
def test_lipschitz_property_sampled(system):
    rng = np.random.default_rng(7)
    d = system.dimension
    lo, hi = system.domain.lower, system.domain.upper
    x = rng.uniform(lo, hi, size=(1000, d))
    y = rng.uniform(lo, hi, size=(1000, d))
    fx_lo, fx_hi = system.rhs_batch(x)
    fy_lo, fy_hi = system.rhs_batch(y)
    dist = np.maximum(
        np.abs(fx_lo - fy_lo).max(axis=1), np.abs(fx_hi - fy_hi).max(axis=1)
    )
    gap = np.abs(x - y).max(axis=1)
    assert np.all(dist <= system.lipschitz * gap + 1e-12)


@pytest.mark.parametrize(
    "system",
    [
        make_exponential_system(1, 1.0),
        make_exponential_system(2, 2.0),
        make_michaelis_menten(),
    ],
    ids=["exp_d1_L1", "exp_d2_L2", "michaelis_menten"],
)
def test_velocity_bound_sampled(system):
    rng = np.random.default_rng(11)
    d = system.dimension
    x = rng.uniform(system.domain.lower, system.domain.upper, size=(1000, d))
    f_lo, f_hi = system.rhs_batch(x)
    mag = np.maximum(np.abs(f_lo), np.abs(f_hi)).max()
    assert mag <= system.bound + 1e-12


class TestExactReachableBox:
    def test_values(self):
        system = make_exponential_system(2, 2.0)
        b = exact_reachable_box(system, 0.5)
        assert np.allclose(b.lower, math.exp(0.9))
        assert np.allclose(b.upper, math.exp(1.0))

    def test_initial_time(self):
        system = make_exponential_system(1, 1.0)
        b = exact_reachable_box(system, 0.0)
        assert b.lower[0] == 1.0 and b.upper[0] == 1.0

    def test_out_of_range(self):
        system = make_exponential_system(1, 1.0)
        with pytest.raises(ValueError):
            exact_reachable_box(system, 1.5)

    def test_unavailable_for_other_systems(self):
        with pytest.raises(NotImplementedError):
            exact_reachable_box(make_michaelis_menten(), 0.5)


class TestSystemSpecValidation:
    @pytest.mark.parametrize("name,value", [
        ("lipschitz", 0.0), ("lipschitz", -1.0), ("lipschitz", math.nan),
        ("lipschitz", math.inf), ("bound", 0.0), ("bound", math.nan),
        ("bound", math.inf), ("horizon", math.nan), ("horizon", math.inf),
        ("horizon", 0.0),
    ])
    def test_rejects_impossible_constant(self, name, value):
        system = make_exponential_system(1, 1.0)
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(system, **{name: value})

    def test_bad_dr(self):
        system = make_exponential_system(2, 1.0)
        with pytest.raises(ValueError):
            SystemSpec(
                name="x",
                dimension=2,
                horizon=1.0,
                lipschitz=1.0,
                bound=1.0,
                initial_set=system.initial_set,
                rhs_batch=system.rhs_batch,
                d_R=3,
                d_F=2,
                domain=system.domain,
            )

    def test_dimension_mismatch(self):
        system = make_exponential_system(2, 1.0)
        with pytest.raises(ValueError):
            SystemSpec(
                name="x",
                dimension=1,
                horizon=1.0,
                lipschitz=1.0,
                bound=1.0,
                initial_set=system.initial_set,
                rhs_batch=system.rhs_batch,
                d_R=1,
                d_F=1,
                domain=system.domain,
            )
