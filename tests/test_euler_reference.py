"""Euler runs against a plain-Python reference, set by set and cost by cost.

The reference shares no code with ``euler_run`` past the right-hand side.
It projects the initial box and steps every source point on its own, with
Python floats and the same operations in the same order as the vectorized
step: x = rho * z, then h * f, then + x, then (bound -/+ rho/2) / rho, then
the guard q -/+ BOUNDARY_GUARD * (|q| + 1), then ceil and floor.  It
enumerates every projected point into a Python set and counts them as the
step's cost.  The right-hand side is called once per step on the
reference's own array of source points; every built-in and test
right-hand side is elementwise, so its bits do not depend on the batch.
"""

import itertools
import math

import numpy as np
import pytest

from eulerreach import lattice
from eulerreach.discretization import subdivide, uniform_discretization
from eulerreach.euler import euler_run
from eulerreach.systems import Box, SystemSpec, make_exponential_system, make_michaelis_menten


def _exact_range(lower: float, upper: float, rho: float) -> tuple[int, int]:
    """ceil((lower - rho/2) / rho) and floor((upper + rho/2) / rho) of the
    float bounds taken as exact rationals, as Fraction gives them, in
    integer arithmetic: (2 lower - rho) / (2 rho) and (2 upper + rho) / (2 rho)."""
    a, qa = lower.as_integer_ratio()
    z, qz = upper.as_integer_ratio()
    r, qr = rho.as_integer_ratio()
    return -((r * qa - 2 * a * qr) // (2 * r * qa)), (2 * z * qr + r * qz) // (2 * r * qz)


def _index_range(lower: float, upper: float, rho: float) -> tuple[int, int]:
    """The scalar lattice_range of one axis of one box.  It must contain the
    exact range of the same bounds and be wider by at most one index per
    side, the one boundary layer the guard may admit."""
    guard = lattice.BOUNDARY_GUARD
    qlo = (lower - rho / 2.0) / rho
    qhi = (upper + rho / 2.0) / rho
    qlo = qlo + (abs(qlo) + 1.0) * -guard
    qhi = qhi + (abs(qhi) + 1.0) * guard
    lo, hi = math.ceil(qlo), math.floor(qhi)
    want_lo, want_hi = _exact_range(lower, upper, rho)
    within = want_lo - 1 <= lo <= want_lo and want_hi <= hi <= want_hi + 1
    assert within, (lower, upper, rho)
    return lo, hi


def _boxes(ranges):
    return itertools.product(*[range(a, z + 1) for a, z in ranges])


def _reference_run(system: SystemSpec, disc) -> tuple[list[set], list[int]]:
    """The sets (as sets of index tuples) and cost counts of the Euler run."""
    rho = disc.rho.tolist()
    b = system.initial_set
    start = [_index_range(a, z, rho[0]) for a, z in zip(b.lower.tolist(), b.upper.tolist())]
    sets = [set(_boxes(start))]
    costs = []
    for k, h in enumerate(disc.h.tolist()):
        src = sorted(sets[k])
        xs = [[rho[k] * i for i in p] for p in src]
        f_lo, f_hi = system.rhs_batch(np.array(xs))
        nxt, cost = set(), 0
        for x, lo, hi in zip(xs, f_lo.tolist(), f_hi.tolist()):
            ranges = [
                _index_range(h * fl + xi, h * fh + xi, rho[k + 1])
                for xi, fl, fh in zip(x, lo, hi)
            ]
            cost += math.prod(z - a + 1 for a, z in ranges)
            nxt.update(_boxes(ranges))
        sets.append(nxt)
        costs.append(cost)
    return sets, costs


def _affine_system(d: int, seed: int) -> SystemSpec:
    """A box-valued affine rhs: the hull of two affine maps with random
    signs, from a box around the origin, so indices go negative and the
    two maps cross (the images flip which map is the lower bound)."""
    rng = np.random.default_rng(seed)
    a1, a2 = rng.uniform(-1.5, 1.5, size=(2, d, d))
    c1, c2 = rng.uniform(-0.5, 0.5, size=(2, d))

    def affine(x, a, c):
        # column by column, elementwise, so the bits do not depend on N
        f = np.empty_like(x)
        for i in range(d):
            f[:, i] = c[i]
            for j in range(d):
                f[:, i] += a[i, j] * x[:, j]
        return f

    def rhs_batch(x):
        f1, f2 = affine(x, a1, c1), affine(x, a2, c2)
        return np.minimum(f1, f2), np.maximum(f1, f2)

    corner = rng.uniform(-0.3, 0.0, size=d)
    return SystemSpec(
        name="affine",
        horizon=1.0,
        lipschitz=3.0 * d,
        bound=3.0 * d,
        initial_set=Box(corner, corner + rng.uniform(0.0, 0.3, size=d)),
        rhs_batch=rhs_batch,
        d_R=d,
        d_F=d,
        domain=Box(-np.ones(d), np.ones(d)),
    )


def _refined(n: int, splits: int, seed: int):
    """A uniform grid of n steps after random dyadic subdivisions."""
    rng = np.random.default_rng(seed)
    disc = uniform_discretization(1.0, n)
    for _ in range(splits):
        disc = subdivide(disc, int(rng.integers(0, disc.n + 1)))
    return disc


CASES = {
    "affine d=1": (lambda: _affine_system(1, 1), lambda: _refined(8, 8, 1)),
    "affine d=2": (lambda: _affine_system(2, 2), lambda: _refined(5, 4, 2)),
    "affine d=3": (lambda: _affine_system(3, 3), lambda: _refined(3, 4, 3)),
    "exponential d=1": (lambda: make_exponential_system(1, 1.0), lambda: _refined(8, 10, 4)),
    "exponential d=2": (lambda: make_exponential_system(2, 1.0), lambda: uniform_discretization(1.0, 10)),
    "exponential d=3": (lambda: make_exponential_system(3, 1.0), lambda: uniform_discretization(1.0, 5)),
    "michaelis-menten": (make_michaelis_menten, lambda: _refined(32, 6, 5)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_euler_run_matches_the_reference(name, monkeypatch):
    make_system, make_disc = CASES[name]
    system, disc = make_system(), make_disc()
    want_sets, want_costs = _reference_run(system, disc)
    assert max(map(len, want_sets)) > 20, "the case should exercise real runs"
    # with the default raster budget, then with one so small that every
    # union splits, down to a few boxes
    for budget in (lattice.RASTER_BUDGET, 64):
        monkeypatch.setattr(lattice, "RASTER_BUDGET", budget)
        record = euler_run(system, disc)
        assert list(record.cost_exact) == want_costs, budget
        for k, (got, want) in enumerate(zip(record.sets, want_sets)):
            assert got.resolution == disc.rho[k]
            assert set(map(tuple, got.points.tolist())) == want, (budget, k)
