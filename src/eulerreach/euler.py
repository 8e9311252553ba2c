"""Fully discrete set-valued Euler recursion over a discretization.

Step k maps every source point x of the current lattice set through the
inflated image box x + h * F(x) and projects onto the next lattice; the
union over all sources is the next reachable set.  The exact per-step
cost counts projected points per source point (before dedup), which is
exactly the work the recursion performs; the union itself is rastered on
the bounding grid of the image boxes (see ``union_of_boxes``), so wall
time follows the size of the set rather than that count.

A run computes its steps in one workspace, a float64 buffer of three
(d, N) slots for a set of N points in d dimensions, doubled whenever a
set outgrows it (see ``_step``).  A set keeps only its runs, so nothing
large outlives a step: were each step to allocate its per-point arrays
afresh, the allocator would hand that memory back to the OS between
steps and the next step would fault it in again.  The workspace stays
mapped from step to step and is freed with its run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .discretization import Discretization, error_total
from .errors import InvariantViolation, ResourceCapError
from .lattice import REACH, LatticeSet, lattice_range, union_of_boxes
from .systems import Box, SystemSpec

# default cap on the projected points of one step, which also bounds the
# size of the set they build; configurations beyond it abort with a
# ResourceCapError
DEFAULT_CAP = 50_000_000


@dataclass(frozen=True, eq=False)
class RunRecord:
    """Everything one Euler run produces.

    cost_exact[j] is the number of grid points computed when stepping
    from node j to node j+1 (n entries).
    """

    system: SystemSpec
    disc: Discretization
    sets: tuple[LatticeSet, ...]
    cost_exact: tuple[int, ...]
    wall_time: float

    @property
    def error_bound(self) -> float:
        return error_total(self.disc, self.system.lipschitz, self.system.bound)

    @property
    def cost_total(self) -> int:
        return sum(self.cost_exact)

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(s.cardinality for s in self.sets)


def project_box(b: Box, rho: float, cap: int = DEFAULT_CAP) -> LatticeSet:
    """Project a box onto the lattice rho * Z^d (never empty).  Raises
    ResourceCapError for a box that reaches REACH * rho from 0."""
    if not (b.lower.min() > -REACH * rho and b.upper.max() < REACH * rho):
        raise _out_of_reach(b.lower, b.upper, rho, 0)
    work = np.empty((3, b.dim, 1))
    return _project(b.lower[:, None], b.upper[:, None], rho, cap, 0, work)[0]


def euler_run(
    system: SystemSpec,
    disc: Discretization,
    cap: int = DEFAULT_CAP,
) -> RunRecord:
    """Run the Euler recursion (deterministic)."""
    if abs(disc.horizon - system.horizon) > 1e-9 * system.horizon:
        raise ValueError("discretization horizon does not match the system")
    t0 = time.perf_counter()
    rho = disc.rho
    d = system.dimension
    sets = [project_box(system.initial_set, rho[0], cap=cap)]
    cost_exact: list[int] = []
    work = np.empty(0)
    for k in range(disc.n):
        need = 3 * d * sets[k].cardinality
        if need > work.size:
            # doubled, or to the need: the old workspace goes first
            size = max(need, 2 * work.size)
            del work
            work = np.empty(size)
        nxt, cost = _step(system, sets[k], disc.h[k], rho[k + 1], cap, k + 1, work)
        sets.append(nxt)
        cost_exact.append(cost)

    return RunRecord(
        system=system,
        disc=disc,
        sets=tuple(sets),
        cost_exact=tuple(cost_exact),
        wall_time=time.perf_counter() - t0,
    )


def _step(
    system: SystemSpec,
    src: LatticeSet,
    h: float,
    rho_next: float,
    cap: int,
    step: int,
    work: np.ndarray,
) -> tuple[LatticeSet, int]:
    """One Euler step from src, computed in ``work``, a 1-D float64 array
    of at least 3 d N elements for a set of N points in d dimensions.  Its
    head is cut into three contiguous (d, N) slots, which hold in turn: the
    index rows (slot 2, as int64) and the state points (slot 0); the image
    boxes (slots 1 and 2); the guard terms and the index ranges as int64
    (slots 0 and 1, see ``lattice_range``); the box sizes (slot 2).  Values
    change type only on their way to another slot, since numpy copies the
    input of a cast in place.  Every slot is written before it is read, so
    nothing is left over from an earlier step."""
    n = src.cardinality
    w = work[: 3 * src.dim * n].reshape(3, -1, n)
    x = np.multiply(src.expand_into(w[2].view(np.int64)), src.resolution, out=w[0])
    # the rhs sees the (N, d) points, columns contiguous; its arrays are its
    # own and may alias each other or x, so they are only read
    f_lo, f_hi = system.rhs_batch(x.T)
    ordered = (f_lo <= f_hi).all()
    # the image boxes x + h * F(x), as (F(x) * h) + x: the same bits
    images, lower, upper = w[1:], w[1], w[2]
    np.multiply(f_lo.T, h, out=lower)
    np.multiply(f_hi.T, h, out=upper)
    images += x
    # ordered rows of F hold no NaN, so neither do the images, which lie
    # between the smallest lower and the largest upper bound: these bounds
    # make every value finite, and every index lattice_range casts to int64
    # lie inside +-INDEX_LIMIT (see REACH)
    reach = REACH * rho_next
    if not (ordered and lower.min() > -reach and upper.max() < reach):
        ok = np.isfinite(f_lo) & np.isfinite(f_hi) & (f_lo <= f_hi)
        bad = int(np.count_nonzero(~ok.all(axis=1)))
        if bad:
            raise InvariantViolation(
                f"step {step}: right-hand side returned {bad} non-finite or "
                "inverted image boxes"
            )
        raise _out_of_reach(lower, upper, rho_next, step)
    # free the rhs's arrays before the union allocates its own
    del x, f_lo, f_hi
    return _project(lower, upper, rho_next, cap, step, w)


def _out_of_reach(lower, upper, rho: float, step: int) -> ResourceCapError:
    """The error for boxes that reach REACH * rho from 0, past the index
    range of the lattice."""
    far = max(-float(lower.min()), float(upper.max())) / rho
    return ResourceCapError(step, far, REACH, "cells from 0")


def _project(
    lower: np.ndarray,
    upper: np.ndarray,
    rho: float,
    cap: int,
    step: int,
    work: np.ndarray,
) -> tuple[LatticeSet, int]:
    """The lattice set covering the (d, N) float boxes [lower, upper] and
    their summed sizes, the cost count.  Computed in ``work``, a (3, d, N)
    float64 array whose slots 1 and 2 lower and upper may be: the index
    ranges go into slots 0 and 1 (see ``lattice_range``), the box sizes
    into slot 2.  The caller checks that the bounds lie within REACH * rho
    of 0.  Raises ResourceCapError when the count exceeds cap or reaches
    2**53; the union has at most that many points."""
    lo, hi = lattice_range(lower, upper, rho, work)
    # one row of box sizes per axis; the products run over the axes in
    # order, as a per-box product would
    sizes = np.subtract(hi, lo, out=work[2])
    sizes += 1.0
    count = sizes[0]
    for a in range(1, len(sizes)):
        count *= sizes[a]
    # Counted in float64, which is exact below 2**53: every partial product
    # and partial sum is an integer no larger than the total.  Rounding is
    # monotone, so a total at or above 2**53 never rounds below it.
    projected = float(count.sum())
    limit = min(cap, 2**53 - 1)
    if not projected <= limit:
        raise ResourceCapError(step=step, projected=projected, cap=limit)
    return LatticeSet(rho, runs=union_of_boxes(lo.T, hi.T)), int(projected)
