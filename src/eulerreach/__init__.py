"""Guaranteed-error reachable sets of differential inclusions.

Fully discrete Euler scheme on scaled integer lattices, with an optimal
uniform baseline and a greedy adaptive space-time refinement solver.
Everything else stays importable from its submodule.
"""

from .discretization import Discretization, initial_discretization
from .errors import ConfigError, CouplingError, InvariantViolation, ResourceCapError
from .euler import RunRecord
from .lattice import LatticeSet, hausdorff_to_box_two_sided
from .refine import algorithm_adaptive, algorithm_uniform, default_ladder, error_total
from .systems import (
    Box,
    SystemSpec,
    exact_reachable_box,
    make_exponential_system,
    make_michaelis_menten,
)

__all__ = [
    "Box",
    "ConfigError",
    "CouplingError",
    "Discretization",
    "InvariantViolation",
    "LatticeSet",
    "ResourceCapError",
    "RunRecord",
    "SystemSpec",
    "algorithm_adaptive",
    "algorithm_uniform",
    "default_ladder",
    "error_total",
    "exact_reachable_box",
    "hausdorff_to_box_two_sided",
    "initial_discretization",
    "make_exponential_system",
    "make_michaelis_menten",
]
