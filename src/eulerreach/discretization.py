"""Non-uniform space-time discretizations and the subdivision operator.

A discretization is the triple (h, t, rho): per-interval time steps h of
length n, the time nodes t = cumulative sums of h (length n+1), and
per-node spatial resolutions rho (length n+1).  Subdividing interval j
halves h_j, inserts the midpoint node and quarters rho_j (for j = 0 only
rho_0 is quartered, the time grid is untouched).

Discretizations produced by :func:`initial_discretization` and refined via
:func:`subdivide` stay dyadic: every h_j is T * 2**-level for an integer
level, which makes the structural invariants exactly checkable in floating
point (all involved values are dyadic rationals).
"""

from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ResourceCapError
from .systems import CONSTANT_FLOOR, hold


@dataclass(frozen=True, eq=False)
class Discretization:
    """h, t and rho are read-only float64 arrays; the constructor accepts
    any sequences.  There is no generated equality: compare the arrays."""

    horizon: float
    h: np.ndarray
    t: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        hold(self, h=self.h, t=self.t, rho=self.rho)
        h, t, rho, n = self.h, self.t, self.rho, self.h.size
        if h.ndim != 1 or n < 1:
            raise ValueError("need at least one time interval")
        if t.shape != (n + 1,) or rho.shape != (n + 1,):
            raise ValueError("t and rho must have length n + 1")
        if t[0] != 0.0:
            raise ValueError("t must start at 0")
        if not all(np.isfinite(a).all() for a in (h, t, rho)):
            raise ValueError("h, t and rho must be finite")
        if h.min() <= 0.0 or rho.min() <= 0.0:
            raise ValueError("h and rho must be strictly positive")
        tol = 1e-9 * max(1.0, self.horizon)
        if not abs(t[-1] - self.horizon) <= tol:
            raise ValueError("time nodes do not span [0, T]")
        # t is the running sum of h, up to rounding
        steps = t[1:] - t[:-1]
        steps -= h
        if not np.abs(steps).max() <= tol:
            raise ValueError("time nodes must step by h")

    @property
    def n(self) -> int:
        return self.h.size

    @property
    def levels(self) -> np.ndarray | None:
        """Dyadic exponents as a read-only int64 array, h[j] == horizon *
        2**-levels[j]; None unless every step is such a fraction of T."""
        levels = 1 - np.frexp(self.h / self.horizon)[1].astype(np.int64)
        if not np.array_equal(self.h, np.ldexp(self.horizon, -levels)):
            return None
        levels.setflags(write=False)
        return levels


def initial_discretization(T: float, L: float, P: float) -> Discretization:
    """Single-interval starting discretization with rho = 2*L*P*T^2 at both nodes.

    Raises ResourceCapError when rho_0 or its error bound overflows a float.
    """
    if not T > 0:  # also rejects nan
        raise ValueError("T must be positive")
    L = max(L, CONSTANT_FLOOR)
    P = max(P, CONSTANT_FLOOR)
    rho0 = 2.0 * L * P * T * T
    e0 = math.inf
    if math.isfinite(rho0):
        disc = Discretization(T, (T,), (0.0, T), (rho0, rho0))
        # an overflowing bound comes out inf, or raises in math.exp(L*T)
        with np.errstate(over="ignore"), contextlib.suppress(OverflowError):
            e0 = error_total(disc, L, P)
    if not math.isfinite(e0):
        raise ResourceCapError(None, e0, sys.float_info.max, "initial error bound")
    return disc


def uniform_discretization(T: float, n: int) -> Discretization:
    """Uniform grid h = T/n with rho = (T/n)^2 at every node."""
    if n < 1:
        raise ValueError("n must be >= 1")
    h = T / n
    t = np.arange(n + 1) * h
    t[-1] = T
    return Discretization(T, np.full(n, h), t, np.full(n + 1, T * T / (n * n)))


def subdivide(disc: Discretization, j: int) -> Discretization:
    """Apply the subdivision operator at index j in [0, n].

    j = 0 quarters rho_0 and leaves the time grid alone; j >= 1 splits the
    j-th interval at its midpoint and replaces rho_j by two copies of
    rho_j / 4.  Midpoints are inserted as t_j - h_j/2, which is exact for
    dyadic grids, so the node sums never drift.
    """
    n = disc.n
    if not 0 <= j <= n:
        raise ValueError(f"subdivision index {j} out of range [0, {n}]")
    if j == 0:
        rho = np.concatenate(((disc.rho[0] / 4.0,), disc.rho[1:]))
        return Discretization(disc.horizon, disc.h, disc.t, rho)
    half = disc.h[j - 1] / 2.0
    h = np.concatenate((disc.h[: j - 1], (half, half), disc.h[j:]))
    t = np.concatenate((disc.t[:j], (disc.t[j] - half,), disc.t[j:]))
    quarter = disc.rho[j] / 4.0
    rho = np.concatenate((disc.rho[:j], (quarter, quarter), disc.rho[j + 1 :]))
    return Discretization(disc.horizon, h, t, rho)


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


def coupling_satisfied(disc: Discretization, L: float, P: float) -> bool:
    """Check rho_j = 2*L*P*h_j^2 for j in [1, n].

    Exact (bitwise) along dyadic refinement paths, where rho_j is
    2*L*P*T^2 scaled by a power of four; otherwise a relative check.
    """
    rho = disc.rho[1:]
    if (levels := disc.levels) is not None:
        base = 2.0 * L * P * disc.horizon * disc.horizon
        return bool(np.all(rho == np.ldexp(base, -2 * levels)))
    return bool(np.all(np.abs(rho - 2.0 * L * P * disc.h**2) <= 1e-9 * rho))


def dyadic_invariants_ok(disc: Discretization) -> bool:
    """Structural invariants of refinement paths.

    Every h_j is a dyadic fraction of T, every t_j is an integer multiple
    of the adjacent h_j, and the nodes equal the cumulative sums of h up
    to n units in the last place.
    """
    if disc.levels is None:
        return False
    h, t = disc.h, disc.t
    # both ends of interval j are integer multiples of h_j
    for node in (t[1:], t[:-1]):
        if not np.all(np.rint(node / h) * h == node):
            return False
    acc = np.cumsum(h)  # sequential, as a running sum
    drift = np.abs(acc - t[1:])
    return bool(np.all(drift <= disc.n * np.spacing(np.maximum(acc, 1.0))))
