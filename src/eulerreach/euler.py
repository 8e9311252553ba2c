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

from .discretization import Discretization, error_total
from .errors import InvariantViolation, ResourceCapError
from .lattice import LatticeSet, lattice_range, union_of_boxes
from .systems import Box, SystemSpec

# default cap on the projected points of one step, which also bounds the
# size of the set they build; configurations beyond it abort with a
# ResourceCapError
DEFAULT_CAP = 50_000_000


@dataclass(frozen=True)
class RunRecord:
    """Everything one Euler run produces.

    cost_exact[j] is the number of grid points computed when stepping
    from node j to node j+1 (n entries).  vhat_R / vhat_F are the
    surrogate volumes of the reachable sets and the rhs images (n+1
    entries each, with the last image volume copied from its neighbor).
    """

    system: SystemSpec
    disc: Discretization
    sets: tuple[LatticeSet, ...]
    cost_exact: tuple[int, ...]
    vhat_R: tuple[float, ...]
    vhat_F: tuple[float, ...]
    error_bound: float
    wall_time: float

    @property
    def cost_total(self) -> int:
        return sum(self.cost_exact)

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(s.cardinality for s in self.sets)


def project_box(b: Box, rho: float, cap: int = DEFAULT_CAP) -> LatticeSet:
    """Project a box onto the lattice rho * Z^d (never empty)."""
    lo, hi = lattice_range(b.lower[None, :], b.upper[None, :], rho)
    return _project(lo, hi, rho, cap, step=0)[0]


def euler_run(
    system: SystemSpec,
    disc: Discretization,
    cap: int = DEFAULT_CAP,
) -> RunRecord:
    """Run the Euler recursion (deterministic)."""
    if abs(disc.horizon - system.horizon) > 1e-9 * system.horizon:
        raise ValueError("discretization horizon does not match the system")
    t0 = time.perf_counter()
    # Python floats: a np.float64 resolution would print as np.float64(...)
    # in the snapshot header
    rho = disc.rho.tolist()
    hs = disc.h.tolist()
    sets = [project_box(system.initial_set, rho[0], cap=cap)]
    cost_exact: list[int] = []
    vhat_R = [sets[0].cardinality * rho[0] ** system.d_R]
    vhat_F: list[float] = []

    for k in range(disc.n):
        h = hs[k]
        src = sets[k]
        nxt, cost = _step(system, src, h, rho[k + 1], cap, step=k + 1)
        sets.append(nxt)
        cost_exact.append(cost)
        vhat_R.append(nxt.cardinality * rho[k + 1] ** system.d_R)
        vhat_F.append((cost / src.cardinality) * (rho[k + 1] / h) ** system.d_F)
    vhat_F.append(vhat_F[-1])

    return RunRecord(
        system=system,
        disc=disc,
        sets=tuple(sets),
        cost_exact=tuple(cost_exact),
        vhat_R=tuple(vhat_R),
        vhat_F=tuple(vhat_F),
        error_bound=error_total(disc, system.lipschitz, system.bound),
        wall_time=time.perf_counter() - t0,
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
    if not ok.all():
        bad = int(np.count_nonzero(~ok.all(axis=1)))
        raise InvariantViolation(
            f"step {step}: right-hand side returned {bad} non-finite or "
            "inverted image boxes"
        )
    lo_idx, hi_idx = lattice_range(x + h * f_lo, x + h * f_hi, rho_next)
    # The set outlives the step: free the temporaries before the union
    # allocates it, so that it fills their space instead of landing above
    # them and leaving holes too small for the next, larger step.
    del x, f_lo, f_hi, ok
    return _project(lo_idx, hi_idx, rho_next, cap, step)


def _project(
    lo_idx: np.ndarray, hi_idx: np.ndarray, rho: float, cap: int, step: int
) -> tuple[LatticeSet, int]:
    """The lattice set covered by the (N, d) index boxes [lo_idx, hi_idx]
    and their summed sizes, the cost count.  Raises ResourceCapError when
    that count exceeds cap; the union has at most that many points."""
    # one contiguous row of box sizes per axis; the products run over the
    # axes in order, as a per-box product would
    sizes = np.ascontiguousarray((hi_idx - lo_idx).T)
    sizes += 1
    # guard in float first: the int64 counts can overflow in infeasible cells
    projected = float(np.multiply.reduce(sizes.astype(float)).sum())
    if projected > cap:
        raise ResourceCapError(step=step, projected=projected, cap=cap)
    cost = int(np.multiply.reduce(sizes).sum())
    del sizes
    return LatticeSet(rho, union_of_boxes(lo_idx, hi_idx)), cost
