"""Differential inclusion instances with box-valued right-hand sides.

A system is given by ``xdot in F(x)`` on ``[0, T]`` with ``x(0) in X0``,
where every image ``F(x)`` is an axis-aligned box (the interval hull; for
the built-in benchmark systems the hull equals the image exactly).  The
constants carried alongside are a Lipschitz constant ``L`` of ``F`` in the
max norm and a uniform velocity bound ``P``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# L = 0 or P = 0 would break the rho = 2*L*P*h^2 coupling and the uniform
# step-count formula, both of which divide by L and P.
CONSTANT_FLOOR = 1e-12


@dataclass(frozen=True)
class Box:
    """Nonempty axis-aligned box [lower, upper] in R^d (point boxes allowed)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.ndim != 1 or lo.shape != hi.shape or lo.size < 1:
            raise ValueError("box bounds must be 1-d arrays of equal length >= 1")
        if np.any(lo > hi):
            raise ValueError("box has lower[i] > upper[i]")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    @classmethod
    def point(cls, x) -> "Box":
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return cls(x, x.copy())


# Batch right-hand side: maps an (N, d) array of states to a pair of
# (N, d) arrays (componentwise lower and upper image bounds).
BatchRhs = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class SystemSpec:
    """One differential-inclusion benchmark instance.

    ``lipschitz`` and ``bound`` are the (clamped) constants used by the
    error model; ``params`` keeps the raw defining parameters.  ``domain``
    is the sampling box used by the Lipschitz/bound property checks.
    """

    name: str
    dimension: int
    horizon: float
    lipschitz: float
    bound: float
    initial_set: Box
    rhs_batch: BatchRhs
    d_R: int
    d_F: int
    domain: Box
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        for name in ("horizon", "lipschitz", "bound"):
            if not 0.0 < getattr(self, name) < math.inf:  # also rejects nan
                raise ValueError(f"{name} must be positive and finite")
        if not (1 <= self.d_R <= self.dimension):
            raise ValueError("d_R must satisfy 1 <= d_R <= d")
        if not (0 <= self.d_F <= self.dimension):
            raise ValueError("d_F must satisfy 0 <= d_F <= d")
        if self.initial_set.dim != self.dimension:
            raise ValueError("initial set dimension mismatch")


def evaluate_rhs(system: SystemSpec, x) -> Box:
    """Interval hull of F(x) at a single state point."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (system.dimension,):
        raise ValueError(
            f"state has length {x.size}, system dimension is {system.dimension}"
        )
    lo, hi = system.rhs_batch(x[None, :])
    return Box(lo[0], hi[0])


def make_exponential_system(d: int, L: float) -> SystemSpec:
    """Componentwise inclusion xdot_i in [0.9, 1.0] * L * x_i on [0, 1].

    Starts from the all-ones point.  The exact reachable set at time t is
    [exp(0.9 L t), exp(L t)]^d, so the velocity bound on the reachable
    region is P = L * exp(L).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if not 0 <= L <= 700:  # P = L * exp(L) overflows past L = 703.2
        raise ValueError("L must lie in [0, 700]")

    def rhs_batch(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        a = 0.9 * L * x
        b = L * x
        return np.minimum(a, b), np.maximum(a, b)

    ones = np.ones(d)
    return SystemSpec(
        name="exponential",
        dimension=d,
        horizon=1.0,
        lipschitz=max(L, CONSTANT_FLOOR),
        bound=max(L * math.exp(L), CONSTANT_FLOOR),
        initial_set=Box.point(ones),
        rhs_batch=rhs_batch,
        d_R=d,
        d_F=d,
        domain=Box(np.zeros(d), math.exp(L) * ones),
        params={"L": L},
    )


def make_michaelis_menten() -> SystemSpec:
    """Reduced two-state enzyme kinetics with an uncertain rate k2.

    x1' = -k1*e0*x1 + (k1*x1 + km1)*x2
    x2' in k1*e0*x1 - (k1*x1 + km1 + [k2lo, k2hi])*x2

    e0 = 0.6, km1 = 0.05, k1 = 0.5, k2 in [1.8, 2.0], from (0.75, 0.25)
    on [0, 1].  On the region the trajectories visit, L <= 3.0 and
    P <= 0.61; these constants are used as given.
    """
    e0, km1, k1 = 0.6, 0.05, 0.5
    k2lo, k2hi = 1.8, 2.0

    def rhs_batch(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x1 = x[:, 0]
        x2 = x[:, 1]
        f1 = -k1 * e0 * x1 + (k1 * x1 + km1) * x2
        base = k1 * e0 * x1 - (k1 * x1 + km1) * x2
        # sign-aware interval product of [k2lo, k2hi] with x2; states can
        # leave the positive quadrant at coarse resolutions
        lo2 = base - np.maximum(k2lo * x2, k2hi * x2)
        hi2 = base - np.minimum(k2lo * x2, k2hi * x2)
        return np.stack([f1, lo2], axis=1), np.stack([f1, hi2], axis=1)

    return SystemSpec(
        name="michaelis_menten",
        dimension=2,
        horizon=1.0,
        lipschitz=3.0,
        bound=0.61,
        initial_set=Box.point([0.75, 0.25]),
        rhs_batch=rhs_batch,
        d_R=2,
        d_F=1,
        domain=Box([0.70, 0.02], [0.95, 0.26]),
        params={"e0": e0, "km1": km1, "k1": k1, "k2lo": k2lo, "k2hi": k2hi},
    )


def exact_reachable_box(system: SystemSpec, t: float) -> Box:
    """Closed-form reachable set of the exponential benchmark at time t."""
    if system.name != "exponential":
        raise NotImplementedError(
            "exact reachable sets are only known for the exponential system"
        )
    if not (0.0 <= t <= system.horizon):
        raise ValueError("t outside [0, T]")
    L = system.params["L"]
    d = system.dimension
    return Box(
        np.full(d, math.exp(0.9 * L * t)),
        np.full(d, math.exp(L * t)),
    )
