import math

import numpy as np
import pytest

from eulerreach.discretization import (
    Discretization,
    coupling_satisfied,
    dyadic_invariants_ok,
    initial_discretization,
    subdivide,
    uniform_discretization,
)


class TestConstruction:
    def test_initial(self):
        disc = initial_discretization(1.0, 1.0, 1.0)
        assert disc.n == 1
        assert disc.h.tolist() == [1.0]
        assert disc.t.tolist() == [0.0, 1.0]
        assert disc.rho.tolist() == [2.0, 2.0]
        assert disc.levels.tolist() == [0]

    def test_initial_scaling(self):
        disc = initial_discretization(2.0, 3.0, 0.5)
        # 2 * L * P * T^2 = 2 * 3 * 0.5 * 4
        assert disc.rho[0] == pytest.approx(12.0)

    def test_uniform(self):
        disc = uniform_discretization(1.0, 4)
        assert disc.n == 4
        assert disc.h.tolist() == [0.25] * 4
        assert disc.t[-1] == 1.0
        assert disc.rho.tolist() == [0.0625] * 5
        # h = 1/4 is dyadic, whatever built the grid
        assert disc.levels.tolist() == [2] * 4
        assert uniform_discretization(1.0, 3).levels is None

    @pytest.mark.parametrize("T", [1.0, 1e-3, 3.0, 1e4])
    def test_nodes_may_miss_the_running_sum_by_rounding(self, T):
        for n in (1, 3, 7, 1000):
            uniform_discretization(T, n)
        # within 1e-9 * max(1, T) of the running sum of h
        off = 0.9e-9 * max(1.0, T)
        Discretization(T, (T / 2, T / 2), (0.0, T / 2 + off, T), (1.0, 1.0, 1.0))

    def test_uniform_last_node_exact(self):
        # T/n may not be exactly representable; the last node must still be T
        disc = uniform_discretization(1.0, 7)
        assert disc.t[-1] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Discretization(1.0, (), (0.0,), (1.0,))
        with pytest.raises(ValueError):
            Discretization(1.0, (1.0,), (0.0, 1.0), (1.0,))
        with pytest.raises(ValueError):
            Discretization(1.0, (1.0,), (0.1, 1.1), (1.0, 1.0))
        with pytest.raises(ValueError):
            Discretization(1.0, (-1.0,), (0.0, 1.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            Discretization(1.0, (0.5,), (0.0, 0.5), (1.0, 1.0))
        with pytest.raises(ValueError, match="step by h"):
            Discretization(1.0, (0.5, 0.5), (0.0, 0.9, 1.0), (1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="step by h"):
            Discretization(4.0, (1.0, 3.0), (0.0, 1.0 + 5e-9, 4.0), (1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            initial_discretization(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            uniform_discretization(1.0, 0)

    def test_initial_rejects_nan_horizon(self):
        with pytest.raises(ValueError, match="T must be positive"):
            initial_discretization(math.nan, 1.0, 1.0)

    @pytest.mark.parametrize(
        "h,t,rho",
        [
            ((math.nan,), (0.0, 1.0), (1.0, 1.0)),
            ((math.inf,), (0.0, 1.0), (1.0, 1.0)),
            ((1.0,), (0.0, 1.0), (math.nan, 1.0)),
            ((1.0,), (0.0, 1.0), (1.0, math.inf)),
            ((0.5, 0.5), (0.0, math.nan, 1.0), (1.0, 1.0, 1.0)),
            ((0.5, 0.5), (0.0, math.inf, 1.0), (1.0, 1.0, 1.0)),
        ],
    )
    def test_rejects_non_finite(self, h, t, rho):
        with pytest.raises(ValueError):
            Discretization(1.0, h, t, rho)

    def test_fields_are_read_only_arrays(self):
        disc = subdivide(initial_discretization(1.0, 1.0, 1.0), 1)
        for name, dtype in (("h", np.float64), ("t", np.float64),
                            ("rho", np.float64), ("levels", np.int64)):
            a = getattr(disc, name)
            assert a.dtype == dtype
            with pytest.raises(ValueError):
                a[0] = 0


class TestSubdivide:
    def test_index_zero_only_quarters_rho0(self):
        disc = initial_discretization(1.0, 1.0, 1.0)
        out = subdivide(disc, 0)
        assert np.array_equal(out.h, disc.h)
        assert np.array_equal(out.t, disc.t)
        assert out.rho.tolist() == [0.5, 2.0]
        assert np.array_equal(out.levels, disc.levels)

    def test_interior_split(self):
        disc = initial_discretization(1.0, 1.0, 1.0)
        out = subdivide(disc, 1)
        assert out.n == 2
        assert out.h.tolist() == [0.5, 0.5]
        assert out.t.tolist() == [0.0, 0.5, 1.0]
        assert out.rho.tolist() == [2.0, 0.5, 0.5]
        assert out.levels.tolist() == [1, 1]

    def test_second_level(self):
        disc = subdivide(initial_discretization(1.0, 1.0, 1.0), 1)
        out = subdivide(disc, 2)
        assert out.h.tolist() == [0.5, 0.25, 0.25]
        assert out.t.tolist() == [0.0, 0.5, 0.75, 1.0]
        assert out.rho.tolist() == [2.0, 0.5, 0.125, 0.125]
        assert out.levels.tolist() == [1, 2, 2]

    def test_out_of_range(self):
        disc = initial_discretization(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            subdivide(disc, 2)
        with pytest.raises(ValueError):
            subdivide(disc, -1)

    def test_disjoint_indices_commute(self):
        disc = subdivide(initial_discretization(1.0, 1.0, 1.0), 1)  # n = 2
        a = subdivide(subdivide(disc, 1), 3)  # split first, then old second
        b = subdivide(subdivide(disc, 2), 1)  # split second, then old first
        for f in ("h", "t", "rho", "levels"):
            assert np.array_equal(getattr(a, f), getattr(b, f))


class TestInvariants:
    def _random_refinement(self, seed, steps, L=1.0, P=1.0, T=1.0):
        rng = np.random.default_rng(seed)
        disc = initial_discretization(T, L, P)
        for _ in range(steps):
            disc = subdivide(disc, int(rng.integers(0, disc.n + 1)))
        return disc

    @pytest.mark.parametrize("seed", range(10))
    def test_coupling_exact_along_refinement(self, seed):
        L, P = 2.0, 0.7
        disc = self._random_refinement(seed, 25, L=L, P=P)
        assert coupling_satisfied(disc, L, P)

    @pytest.mark.parametrize("seed", range(10))
    def test_dyadic_invariants_along_refinement(self, seed):
        disc = self._random_refinement(seed, 25)
        assert dyadic_invariants_ok(disc)
        assert disc.t[-1] == disc.horizon
        # node sums drift by at most n units in the last place
        acc = np.cumsum(disc.h)
        drift = np.abs(acc - np.asarray(disc.t[1:]))
        assert np.all(drift <= disc.n * math.ulp(disc.horizon))

    def test_coupling_relative_fallback_for_uniform(self):
        # uniform grids with rho = h^2 satisfy the coupling iff 2*L*P = 1
        disc = uniform_discretization(1.0, 5)
        assert coupling_satisfied(disc, 0.5, 1.0)
        assert not coupling_satisfied(disc, 1.0, 1.0)

    def test_coupling_detects_violation(self):
        disc = initial_discretization(1.0, 1.0, 1.0)
        broken = Discretization(
            disc.horizon, disc.h, disc.t, (disc.rho[0], disc.rho[1] * 2.0)
        )
        assert not coupling_satisfied(broken, 1.0, 1.0)

    def test_dyadic_check_requires_levels(self):
        # h = 1/3 is no power-of-two fraction of T, so there are no levels
        assert not dyadic_invariants_ok(uniform_discretization(1.0, 3))

    @pytest.mark.parametrize("T", [1.0, 0.75, 3.0])
    def test_levels_follow_the_steps(self, T):
        disc = uniform_discretization(T, 8)
        assert disc.levels.tolist() == [3] * 8
        assert np.array_equal(disc.h, np.ldexp(T, -disc.levels))
        # a step a hair off a power of two has no level
        h = (T / 2, np.nextafter(T / 4, T), np.nextafter(T / 4, 0.0))
        t = (0.0, T / 2, T / 2 + h[1], T)
        assert Discretization(T, h, t, (1.0,) * 4).levels is None

    def test_non_unit_horizon(self):
        L, P, T = 1.5, 2.0, 0.75
        rng = np.random.default_rng(3)
        disc = initial_discretization(T, L, P)
        for _ in range(20):
            disc = subdivide(disc, int(rng.integers(0, disc.n + 1)))
        assert dyadic_invariants_ok(disc)
        assert coupling_satisfied(disc, L, P)
