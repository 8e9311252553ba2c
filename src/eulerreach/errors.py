"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid experiment configuration."""


class CouplingError(ValueError):
    """A discretization violates the rho = 2*L*P*h^2 coupling required here."""


class ResourceCapError(RuntimeError):
    """A lattice set (or the points needed to build it) exceeded the cap, or
    a uniform grid would need more steps than its cap (step is then None)."""

    def __init__(self, step: int | None, projected: float, cap: float,
                 unit: str = "lattice points"):
        self.step, self.projected, self.cap = step, projected, cap
        where = "" if step is None else f"step {step}: "
        super().__init__(
            f"{where}projected {projected:.3e} {unit} exceeds cap {cap:.3e}"
        )


class InvariantViolation(RuntimeError):
    """An internal runtime invariant failed."""
