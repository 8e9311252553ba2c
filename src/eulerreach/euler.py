"""Fully discrete set-valued Euler recursion over a discretization.

Step k maps every source point x of the current lattice set through the
inflated image box x + h * F(x) and projects onto the next lattice; the
union over all sources is the next reachable set.  The exact per-step
cost counts projected points per source point (before dedup), which is
exactly the work the recursion performs; the union itself is rastered on
the bounding grid of the image boxes (see ``union_of_boxes``), so wall
time follows the size of the set rather than that count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .discretization import Discretization
from .errors import InvariantViolation, ResourceCapError
from .lattice import DEFAULT_CAP, LatticeSet, lattice_range, project_box, union_of_boxes
from .systems import SystemSpec


@dataclass(frozen=True)
class RunRecord:
    """Everything one Euler run produces.

    cost_exact[j] is the number of grid points computed when stepping
    from node j to node j+1 (n entries).  vhat_R / vhat_F are the
    surrogate volumes of the reachable sets and the rhs images (n+1
    entries each, with the last image volume copied from its neighbor).
    """

    disc: Discretization
    sets: tuple[LatticeSet, ...]
    cost_exact: tuple[int, ...]
    vhat_R: tuple[float, ...]
    vhat_F: tuple[float, ...]
    error_bound: float
    wall_time: float
    lipschitz: float
    bound: float
    d_R: int
    d_F: int

    @property
    def cost_total(self) -> int:
        return sum(self.cost_exact)

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(s.cardinality for s in self.sets)


def euler_run(
    system: SystemSpec,
    disc: Discretization,
    cap: int = DEFAULT_CAP,
) -> RunRecord:
    """Run the Euler recursion (deterministic)."""
    from .refine import error_total

    if abs(disc.horizon - system.horizon) > 1e-9 * system.horizon:
        raise ValueError("discretization horizon does not match the system")
    t0 = time.perf_counter()
    rho = disc.rho
    sets = [project_box(system.initial_set, rho[0], cap=cap)]
    cost_exact: list[int] = []
    vhat_R = [sets[0].cardinality * rho[0] ** system.d_R]
    vhat_F: list[float] = []

    for k in range(disc.n):
        h = disc.h[k]
        src = sets[k]
        nxt, cost = _step(system, src, h, rho[k + 1], cap, step=k + 1)
        sets.append(nxt)
        cost_exact.append(cost)
        vhat_R.append(nxt.cardinality * rho[k + 1] ** system.d_R)
        vhat_F.append((cost / src.cardinality) * (rho[k + 1] / h) ** system.d_F)
    vhat_F.append(vhat_F[-1])

    bound = error_total(disc, system.lipschitz, system.bound)
    return RunRecord(
        disc=disc,
        sets=tuple(sets),
        cost_exact=tuple(cost_exact),
        vhat_R=tuple(vhat_R),
        vhat_F=tuple(vhat_F),
        error_bound=bound,
        wall_time=time.perf_counter() - t0,
        lipschitz=system.lipschitz,
        bound=system.bound,
        d_R=system.d_R,
        d_F=system.d_F,
    )


def _step(
    system: SystemSpec,
    src: LatticeSet,
    h: float,
    rho_next: float,
    cap: int,
    step: int,
) -> tuple[LatticeSet, int]:
    x = src.state_points()
    f_lo, f_hi = system.rhs_batch(x)
    ok = np.isfinite(f_lo) & np.isfinite(f_hi) & (f_lo <= f_hi)
    bad = int(np.count_nonzero(~ok.all(axis=1)))
    if bad:
        raise InvariantViolation(
            f"step {step}: right-hand side returned {bad} non-finite or "
            "inverted image boxes"
        )
    lo_idx, hi_idx = lattice_range(x + h * f_lo, x + h * f_hi, rho_next)
    sizes = hi_idx - lo_idx + 1

    # guard in float first: the int64 counts can overflow in infeasible cells
    projected = float(np.prod(sizes.astype(float), axis=1).sum())
    if projected > cap:
        raise ResourceCapError(step=step, projected=projected, cap=cap)
    cost = int(np.prod(sizes, axis=1).sum())

    pts = union_of_boxes(lo_idx, hi_idx)
    if pts.shape[0] > cap:
        raise ResourceCapError(step=step, projected=float(pts.shape[0]), cap=cap)
    return LatticeSet(rho_next, pts), cost
