"""Error model, spline cost estimator, greedy refinement, and the two solvers.

The quality of a discretization is the a-priori error bound E = sum of
per-node components; its price is the number of grid points the Euler
recursion computes.  That cost is only known after the fact, so it is
predicted from piecewise-linear interpolants of the surrogate volumes
measured on the previous run.  Refinement greedily subdivides the index
with the best predicted error decrease per predicted extra cost.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .discretization import (
    Discretization,
    coupling_satisfied,
    error_components,
    error_total,
    initial_discretization,
    subdivide,
    uniform_discretization,
)
from .errors import CouplingError, InvariantViolation, ResourceCapError
from .euler import DEFAULT_CAP, RunRecord, euler_run
from .systems import SystemSpec, hold

# ---------------------------------------------------------------------------
# error bound


def delta_error_all(disc: Discretization, L: float, P: float) -> np.ndarray:
    """Closed-form change of the error bound under subdivision at each k.

    Requires the coupling rho_j = 2*L*P*h_j^2 on j >= 1.  Equals
    -3/8 * exp(L*T) * rho_0 at k = 0 and
    -exp(L*(T - t_k)) * (exp(L*h_k) - 1) * (P*h_k + 3*L*P*h_k^2/4)
    otherwise; always at most -E_k / 2.
    """
    if not coupling_satisfied(disc, L, P):
        raise CouplingError("delta_error_all requires rho_j = 2*L*P*h_j^2, j >= 1")
    return _delta_error(disc, L, P)


def _delta_error(disc: Discretization, L: float, P: float) -> np.ndarray:
    """delta_error_all without the coupling check."""
    T, h, t = disc.horizon, disc.h, disc.t[1:]
    tail = -np.exp(L * (T - t)) * np.expm1(L * h) * (P * h + 0.75 * L * P * h * h)
    return np.concatenate(([-0.375 * math.exp(L * T) * disc.rho[0]], tail))


# ---------------------------------------------------------------------------
# cost estimator


@dataclass(frozen=True, eq=False)
class VolumeSplines:
    """Piecewise-linear surrogate volume interpolants on [0, T].

    Evaluation at a node reproduces the stored value; outside the node
    range (cannot happen for nodes spanning [0, T]) the nearest value is
    held constant.
    """

    nodes: np.ndarray
    vR_values: np.ndarray
    vF_values: np.ndarray

    def __post_init__(self):
        hold(self, nodes=self.nodes, vR_values=self.vR_values, vF_values=self.vF_values)
        nodes, vr, vf = self.nodes, self.vR_values, self.vF_values
        if nodes.ndim != 1 or nodes.shape != vr.shape or nodes.shape != vf.shape:
            raise ValueError("nodes and values must be 1-d arrays of equal length")
        if not ((vr > 0).all() and (vf > 0).all()):  # also rejects nan
            raise ValueError("surrogate volumes must be strictly positive")

    @classmethod
    def from_run(cls, record: RunRecord) -> "VolumeSplines":
        """The surrogate volumes measured on a run, which cost_components
        inverts: |R_j| * rho_j^d_R at every node, and per step the image
        volume (cost_j / |R_j|) * (rho_{j+1} / h_j)^d_F, the last node
        copying its neighbor."""
        disc, system = record.disc, record.system
        card = np.asarray(record.cardinalities, dtype=float)
        v_F = np.asarray(record.cost_exact, dtype=float) / card[:-1] * (
            disc.rho[1:] / disc.h
        ) ** system.d_F
        return cls(disc.t, card * disc.rho**system.d_R, np.append(v_F, v_F[-1]))

    def v_R(self, t):
        return np.interp(t, self.nodes, self.vR_values)

    def v_F(self, t):
        return np.interp(t, self.nodes, self.vF_values)

    def v_RF(self, t):
        """Product spline value v_R(t) * v_F(t)."""
        return self.v_R(t) * self.v_F(t)


def cost_estimate(
    disc: Discretization, splines: VolumeSplines, d_R: int, d_F: int
) -> float:
    return float(cost_components(disc, splines, d_R, d_F).sum())


def cost_components(
    disc: Discretization, splines: VolumeSplines, d_R: int, d_F: int
) -> np.ndarray:
    """Predicted grid points computed when stepping from node j to j+1."""
    rho = disc.rho
    return splines.v_RF(disc.t[:-1]) * disc.h**d_F / (rho[:-1] ** d_R * rho[1:] ** d_F)


def delta_cost_all(
    disc: Discretization, splines: VolumeSplines, d_R: int, d_F: int
) -> np.ndarray:
    """Closed-form change of the cost estimate under subdivision at each k.

    Only the (at most three) summands touching interval k change; with
    V(t) = v_R(t) * v_F(t) the middle branch is

      V(t_k - h_k/2) * (2 h_k / rho_k)^d_F * (4 / rho_k)^d_R
      + V(t_k) * (4^d_R - 1) / rho_k^d_R * (h_{k+1} / rho_{k+1})^d_F
      + V(t_{k-1}) * (2^d_F - 1) / rho_{k-1}^d_R * (h_k / rho_k)^d_F,

    the last summand alone survives scaled variants at the boundary
    branches k = 0 and k = n.  Strictly positive for positive inputs.
    """
    h, t, rho = disc.h, disc.t, disc.rho
    r = rho[1:]
    # V at the nodes and at the midpoints, in one evaluation (V is
    # elementwise, so the same bits); terms that two branches share: V(t_j),
    # rho_j^d_R, (h_j / rho_{j+1})^d_F
    v_all = splines.v_RF(np.concatenate((t, t[1:] - h / 2.0)))
    v, rho_R, h_F = v_all[: t.size], rho**d_R, (h / r) ** d_F
    out = np.empty(disc.n + 1)
    # scalar **, which can differ from numpy's array ** in the last bit;
    # v[0] is V(0.0), since t[0] == 0.0
    out[0] = v[0] * (4**d_R - 1) / rho[0] ** d_R * (h[0] / rho[1]) ** d_F
    mid = v_all[t.size :] * (2.0 * h / r) ** d_F * (4.0 / r) ** d_R
    out[1:] = mid + v[:-1] * (2**d_F - 1) / rho_R[:-1] * h_F
    # k = n has no next interval
    out[1:-1] += v[1:-1] * (4**d_R - 1) / rho_R[1:-1] * h_F[1:]
    return out


# ---------------------------------------------------------------------------
# solvers


def check_tolerances(tolerances: list[float], name: str = "ladder") -> None:
    """Raise ValueError unless the tolerances are nonempty, finite, positive
    and strictly decreasing; name goes into the message."""
    if not tolerances:
        raise ValueError(f"{name} must be nonempty")
    if not all(math.isfinite(e) and e > 0 for e in tolerances):
        raise ValueError(f"{name} must be positive and finite")
    if any(b >= a for a, b in zip(tolerances, tolerances[1:])):
        raise ValueError(f"{name} must be strictly decreasing")


def uniform_step_count(system: SystemSpec, eps: float) -> int:
    """Smallest n for which the uniform grid h = T/n, rho = T^2/n^2 meets eps.

    The error of that grid is available in closed form (the geometric sum
    over the step terms collapses), so n is the least m with
    m^2 eps - m (e^{LT}-1)(PT + T/(2L)) - T^2 (e^{LT} - 1/2) >= 0.
    """
    check_tolerances([eps], "eps")
    L, P, T = system.lipschitz, system.bound, system.horizon
    a = math.expm1(L * T) * (P * T + T / (2.0 * L))
    b = T * T * (math.exp(L * T) - 0.5)

    def ok(m: int) -> bool:
        return m * m * eps - m * a - b >= 0.0

    # the positive root (a + sqrt(a^2 + 4 eps b)) / (2 eps), written so
    # that no intermediate overflows while the root itself is finite
    c = a / 2.0 / eps
    root = c + math.hypot(c, math.sqrt(b / eps))
    if not root <= 2**53:  # floats miscount past 2**53; inf if a or b overflowed
        raise ResourceCapError(None, root, 2**53, "uniform steps")
    n = max(1, math.ceil(root))
    while not ok(n):
        n += 1
    while n > 1 and ok(n - 1):
        n -= 1
    return n


def algorithm_uniform(
    system: SystemSpec,
    eps: float,
    cap: int = DEFAULT_CAP,
) -> tuple[Discretization, RunRecord]:
    """Euler run on the coarsest uniform discretization meeting the tolerance."""
    n = uniform_step_count(system, eps)
    disc = uniform_discretization(system.horizon, n)
    record = euler_run(system, disc, cap=cap)
    return disc, record


@dataclass(frozen=True)
class IterationRecord:
    """Greedy iteration m, entry m - 1 of RefinementTrace.iterations."""

    k: int
    n_after: int
    delta_e: float
    delta_c: float
    error_after: float


@dataclass(frozen=True, eq=False)
class ThresholdRecord:
    """Threshold ell, entry ell of RefinementTrace.thresholds."""

    eps: float | None  # None for the unconditional first run
    record: RunRecord
    cost_cumulative: int
    time_refine: float


@dataclass(eq=False)
class RefinementTrace:
    iterations: list[IterationRecord] = field(default_factory=list)
    thresholds: list[ThresholdRecord] = field(default_factory=list)


def default_ladder(e_initial: float, eps: float) -> list[float]:
    """Geometric halving from the first power of two below the initial
    error bound down to the target tolerance, inclusive."""
    check_tolerances([eps], "eps")
    a = math.floor(math.log2(e_initial))
    if 2.0**a >= e_initial:
        a -= 1
    ladder = []
    v = 2.0**a
    while v > eps:
        ladder.append(v)
        v /= 2.0
    ladder.append(eps)
    return ladder


def algorithm_adaptive(
    system: SystemSpec,
    ladder: list[float],
    cap: int = DEFAULT_CAP,
) -> tuple[Discretization, RunRecord, RefinementTrace]:
    """Iterative greedy refinement around repeated Euler runs.

    Runs Euler once on the single-interval start; then, for each threshold
    of the ladder, subdivides greedily while the error bound exceeds it and
    runs Euler again, which refreshes the volume splines the next threshold
    plans with.  Returns the final discretization with error bound
    <= ladder[-1], its run, and the full trace.
    """
    check_tolerances(ladder)
    L, P = system.lipschitz, system.bound
    d_R, d_F = system.d_R, system.d_F
    disc = initial_discretization(system.horizon, L, P)
    err = error_total(disc, L, P)
    trace = RefinementTrace()
    splines: VolumeSplines | None = None
    cumulative = 0

    # the first run has no threshold to meet
    for eps in [None, *ladder]:
        t0 = time.perf_counter()
        if eps is not None and err > eps:
            # the coupling is checked once per threshold: subdivide keeps it
            de = delta_error_all(disc, L, P)
            while err > eps:
                dc = delta_cost_all(disc, splines, d_R, d_F)
                # argmax takes the first maximum: ties go to the smallest
                # index, so refinement paths are reproducible
                k = int(np.argmax(-de / dc))
                delta_e, delta_c = float(de[k]), float(dc[k])
                disc = subdivide(disc, k)
                de = _delta_error(disc, L, P)
                new_err = error_total(disc, L, P)
                if not new_err < err:
                    raise InvariantViolation(
                        "error bound did not strictly decrease under subdivision"
                    )
                err = new_err
                trace.iterations.append(IterationRecord(
                    k=k, n_after=disc.n, delta_e=delta_e, delta_c=delta_c,
                    error_after=err,
                ))
        t1 = time.perf_counter()
        record = euler_run(system, disc, cap=cap)
        cumulative += record.cost_total
        trace.thresholds.append(ThresholdRecord(
            eps=eps, record=record, cost_cumulative=cumulative, time_refine=t1 - t0,
        ))
        splines = VolumeSplines.from_run(record)

    if not record.error_bound <= ladder[-1]:
        raise InvariantViolation("final run does not meet the target tolerance")
    return disc, record, trace


def estimator_relative_error(record: RunRecord, splines: VolumeSplines) -> float:
    """Total relative mismatch between predicted and exact per-step costs."""
    predicted = cost_components(record.disc, splines, record.system.d_R, record.system.d_F)
    exact = np.asarray(record.cost_exact, dtype=float)
    return float(np.abs(predicted - exact).sum() / exact.sum())
