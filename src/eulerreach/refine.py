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
    initial_discretization,
    subdivide,
    uniform_discretization,
)
from .errors import CouplingError, InvariantViolation
from .euler import RunRecord, euler_run
from .lattice import DEFAULT_CAP
from .systems import SystemSpec


# ---------------------------------------------------------------------------
# error bound


def error_component(disc: Discretization, L: float, P: float, j: int) -> float:
    """Per-node contribution to the a-priori error bound (see error_components)."""
    if not 0 <= j <= disc.n:
        raise ValueError("component index out of range")
    return float(error_components(disc, L, P)[j])


def error_components(disc: Discretization, L: float, P: float) -> np.ndarray:
    """All n+1 per-node contributions to the a-priori error bound.

    Index 0 carries the initial projection error exp(L*T) * rho_0 / 2;
    index j >= 1 carries the local step error
    exp(L*(T - t_j)) * (exp(L*h_j) - 1) * (P*h_j + rho_j/2 + rho_j/(2*L*h_j)).
    """
    T = disc.horizon
    h = disc.h
    t = disc.t[1:]
    rho = disc.rho[1:]
    # expm1 keeps the factor accurate for steps as small as 2**-20 * T
    tail = np.exp(L * (T - t)) * np.expm1(L * h) * (
        P * h + rho / 2.0 + rho / (2.0 * L * h)
    )
    return np.concatenate(([math.exp(L * T) * disc.rho[0] / 2.0], tail))


def error_total(disc: Discretization, L: float, P: float) -> float:
    return float(error_components(disc, L, P).sum())


def error_partial_sums(disc: Discretization, L: float, P: float) -> np.ndarray:
    """Per-k bound: partial sums of the components (length n+1)."""
    return np.cumsum(error_components(disc, L, P))


def delta_error(disc: Discretization, L: float, P: float, k: int) -> float:
    """Closed-form change of the error bound under subdivision at k.

    Requires the coupling rho_j = 2*L*P*h_j^2 on j >= 1.  Equals
    -3/8 * exp(L*T) * rho_0 at k = 0 and
    -exp(L*(T - t_k)) * (exp(L*h_k) - 1) * (P*h_k + 3*L*P*h_k^2/4)
    otherwise; always at most -E_k / 2.
    """
    if not coupling_satisfied(disc, L, P):
        raise CouplingError("delta_error requires rho_j = 2*L*P*h_j^2 for j >= 1")
    return float(delta_error_all(disc, L, P)[k])


def delta_error_all(disc: Discretization, L: float, P: float) -> np.ndarray:
    return _delta_error_window(disc, L, P, 0, disc.n + 1)


def _delta_error_window(
    disc: Discretization, L: float, P: float, a: int, b: int
) -> np.ndarray:
    """delta_error at the subdivision indices a <= k < b."""
    T = disc.horizon
    lo = max(a, 1)
    h = disc.h[lo - 1 : b - 1]
    t = disc.t[lo:b]
    tail = -np.exp(L * (T - t)) * np.expm1(L * h) * (P * h + 0.75 * L * P * h * h)
    if a > 0:
        return tail
    head = -0.375 * math.exp(L * T) * disc.rho[0]
    return np.concatenate(([head], tail))


# ---------------------------------------------------------------------------
# cost estimator


@dataclass(frozen=True)
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
        nodes = np.asarray(self.nodes, dtype=float)
        vr = np.asarray(self.vR_values, dtype=float)
        vf = np.asarray(self.vF_values, dtype=float)
        if nodes.ndim != 1 or nodes.shape != vr.shape or nodes.shape != vf.shape:
            raise ValueError("nodes and values must be 1-d arrays of equal length")
        if np.any(vr <= 0) or np.any(vf <= 0):
            raise ValueError("surrogate volumes must be strictly positive")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "vR_values", vr)
        object.__setattr__(self, "vF_values", vf)

    @classmethod
    def from_run(cls, record: RunRecord) -> "VolumeSplines":
        return cls(record.disc.t, record.vhat_R, record.vhat_F)

    def v_R(self, t):
        return np.interp(t, self.nodes, self.vR_values)

    def v_F(self, t):
        return np.interp(t, self.nodes, self.vF_values)

    def v_RF(self, t):
        """Product spline value v_R(t) * v_F(t)."""
        return self.v_R(t) * self.v_F(t)


def cost_component(
    disc: Discretization, splines: VolumeSplines, d_R: int, d_F: int, j: int
) -> float:
    """Predicted grid points computed when stepping from node j to j+1."""
    if not 0 <= j <= disc.n - 1:
        raise ValueError("cost component index out of range")
    return float(cost_components(disc, splines, d_R, d_F)[j])


def cost_estimate(
    disc: Discretization, splines: VolumeSplines, d_R: int, d_F: int
) -> float:
    return float(cost_components(disc, splines, d_R, d_F).sum())


def cost_components(
    disc: Discretization, splines: VolumeSplines, d_R: int, d_F: int
) -> np.ndarray:
    rho = disc.rho
    return splines.v_RF(disc.t[:-1]) * disc.h**d_F / (rho[:-1] ** d_R * rho[1:] ** d_F)


def delta_cost(
    disc: Discretization, splines: VolumeSplines, d_R: int, d_F: int, k: int
) -> float:
    """Closed-form change of the cost estimate under subdivision at k.

    Only the (at most three) summands touching interval k change; with
    V(t) = v_R(t) * v_F(t) the middle branch is

      V(t_k - h_k/2) * (2 h_k / rho_k)^d_F * (4 / rho_k)^d_R
      + V(t_k) * (4^d_R - 1) / rho_k^d_R * (h_{k+1} / rho_{k+1})^d_F
      + V(t_{k-1}) * (2^d_F - 1) / rho_{k-1}^d_R * (h_k / rho_k)^d_F,

    the last summand alone survives scaled variants at the boundary
    branches k = 0 and k = n.  Strictly positive for positive inputs.
    """
    if not 0 <= k <= disc.n:
        raise ValueError("subdivision index out of range")
    return float(_delta_cost_window(disc, splines, d_R, d_F, k, k + 1)[0])


def delta_cost_all(
    disc: Discretization, splines: VolumeSplines, d_R: int, d_F: int
) -> np.ndarray:
    return _delta_cost_window(disc, splines, d_R, d_F, 0, disc.n + 1)


def _delta_cost_window(
    disc: Discretization, splines: VolumeSplines, d_R: int, d_F: int, a: int, b: int
) -> np.ndarray:
    """delta_cost at the subdivision indices a <= k < b.

    Every entry is the same elementwise expression whatever the window, so
    a window matches the full array bit for bit.
    """
    n = disc.n
    V = splines.v_RF
    h, t, rho = disc.h, disc.t, disc.rho
    out = np.empty(b - a)
    if a == 0:
        out[0] = V(0.0) * (4**d_R - 1) / rho[0] ** d_R * (h[0] / rho[1]) ** d_F
    lo = max(a, 1)
    hk = h[lo - 1 : b - 1]
    rk = rho[lo:b]
    mid = V(t[lo:b] - hk / 2.0) * (2.0 * hk / rk) ** d_F * (4.0 / rk) ** d_R
    rp = rho[lo - 1 : b - 1]
    prev = V(t[lo - 1 : b - 1]) * (2**d_F - 1) / rp**d_R * (hk / rk) ** d_F
    out[lo - a :] = mid + prev
    c = min(b, n)  # k = n has no next interval
    if c > lo:
        rc, rn = rho[lo:c], rho[lo + 1 : c + 1]
        out[lo - a : c - a] += (
            V(t[lo:c]) * (4**d_R - 1) / rc**d_R * (h[lo:c] / rn) ** d_F
        )
    return out


def greedy_select(
    disc: Discretization,
    L: float,
    P: float,
    splines: VolumeSplines,
    d_R: int,
    d_F: int,
) -> int:
    """Index with maximal predicted error decrease per predicted cost.

    Ties go to the smallest index so refinement paths are reproducible.
    """
    ratios = -delta_error_all(disc, L, P) / delta_cost_all(disc, splines, d_R, d_F)
    return int(np.argmax(ratios))


# ---------------------------------------------------------------------------
# solvers


def uniform_step_count(system: SystemSpec, eps: float) -> int:
    """Smallest n for which the uniform grid h = T/n, rho = T^2/n^2 meets eps.

    The error of that grid is available in closed form (the geometric sum
    over the step terms collapses), so n is the least m with
    m^2 eps - m (e^{LT}-1)(PT + T/(2L)) - T^2 (e^{LT} - 1/2) >= 0.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    L, P, T = system.lipschitz, system.bound, system.horizon
    a = math.expm1(L * T) * (P * T + T / (2.0 * L))
    b = T * T * (math.exp(L * T) - 0.5)

    def ok(m: int) -> bool:
        return m * m * eps - m * a - b >= 0.0

    n = max(1, math.ceil((a + math.sqrt(a * a + 4.0 * eps * b)) / (2.0 * eps)))
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
    m: int
    k: int
    n_after: int
    delta_e: float
    delta_c: float
    ratio: float
    error_after: float


@dataclass(frozen=True)
class ThresholdRecord:
    ell: int
    eps: float | None  # None for the unconditional first run
    record: RunRecord
    planning_splines: VolumeSplines | None  # splines the run was planned with
    cost_cumulative: int
    time_reach: float
    time_refine: float


@dataclass
class RefinementTrace:
    iterations: list[IterationRecord] = field(default_factory=list)
    thresholds: list[ThresholdRecord] = field(default_factory=list)


def default_ladder(e_initial: float, eps: float) -> list[float]:
    """Geometric halving from the first power of two below the initial
    error bound down to the target tolerance, inclusive."""
    if eps <= 0:
        raise ValueError("eps must be positive")
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
    if not ladder or any(e <= 0 for e in ladder):
        raise ValueError("ladder must be nonempty and positive")
    if any(ladder[i + 1] >= ladder[i] for i in range(len(ladder) - 1)):
        raise ValueError("ladder must be strictly decreasing")

    L, P = system.lipschitz, system.bound
    d_R, d_F = system.d_R, system.d_F
    disc = initial_discretization(system.horizon, L, P)
    err = error_total(disc, L, P)
    trace = RefinementTrace()
    splines: VolumeSplines | None = None
    cumulative = 0

    # the first run has no threshold to meet
    for ell, eps in enumerate([None, *ladder]):
        t0 = time.perf_counter()
        if eps is not None and err > eps:
            # in full once per threshold, since the splines changed; then
            # entry by entry as the discretization is subdivided
            de = delta_error_all(disc, L, P)
            dc = delta_cost_all(disc, splines, d_R, d_F)
            while err > eps:
                k = int(np.argmax(-de / dc))
                delta_e, delta_c = float(de[k]), float(dc[k])
                ratio = float(-de[k] / dc[k])
                disc = subdivide(disc, k)
                de, dc = _update_deltas(de, dc, disc, k, L, P, splines, d_R, d_F)
                new_err = error_total(disc, L, P)
                if not new_err < err:
                    raise InvariantViolation(
                        "error bound did not strictly decrease under subdivision"
                    )
                err = new_err
                trace.iterations.append(IterationRecord(
                    m=len(trace.iterations) + 1, k=k, n_after=disc.n,
                    delta_e=delta_e, delta_c=delta_c, ratio=ratio, error_after=err,
                ))
        t1 = time.perf_counter()
        record = euler_run(system, disc, cap=cap)
        cumulative += record.cost_total
        trace.thresholds.append(ThresholdRecord(
            ell=ell, eps=eps, record=record, planning_splines=splines,
            cost_cumulative=cumulative, time_reach=time.perf_counter() - t1,
            time_refine=t1 - t0,
        ))
        splines = VolumeSplines.from_run(record)

    if not record.error_bound <= ladder[-1]:
        raise InvariantViolation("final run does not meet the target tolerance")
    return disc, record, trace


def _update_deltas(
    de: np.ndarray, dc: np.ndarray, disc: Discretization, k: int,
    L: float, P: float, splines: VolumeSplines, d_R: int, d_F: int,
) -> tuple[np.ndarray, np.ndarray]:
    """delta_error_all and delta_cost_all of disc = subdivide(old, k), from
    those of old: subdividing at k >= 1 inserts node k and rewrites nodes k
    and k + 1, which only de[k:k+2] and dc[k-1:k+3] read; at k = 0 only
    rho_0 changes, which only de[0] and dc[0:2] read."""
    if k == 0:
        de_hi = 1
    else:
        de_hi = k + 2
        de = np.concatenate((de[: k + 1], de[k:]))
        dc = np.concatenate((dc[: k + 1], dc[k:]))
    de[k:de_hi] = _delta_error_window(disc, L, P, k, de_hi)
    a, b = max(k - 1, 0), min(k + 3, disc.n + 1)
    dc[a:b] = _delta_cost_window(disc, splines, d_R, d_F, a, b)
    return de, dc


def estimator_relative_error(record: RunRecord, splines: VolumeSplines) -> float:
    """Total relative mismatch between predicted and exact per-step costs."""
    predicted = cost_components(record.disc, splines, record.d_R, record.d_F)
    exact = np.asarray(record.cost_exact, dtype=float)
    return float(np.abs(predicted - exact).sum() / exact.sum())
