"""Exception types shared across the package."""


class DynoscaleError(Exception):
    """Base class for package errors."""


class InvalidMetricError(DynoscaleError):
    """A distance table violates a metric axiom."""


class RepresentationError(DynoscaleError):
    """A map image or index falls outside the represented point set."""


class ShapeError(DynoscaleError):
    """Mismatched shapes between operands (e.g. prefixes of unequal depth)."""


class OutOfRealizationError(DynoscaleError):
    """A point lies in the unrealized tail of a truncated construction."""


class ParameterError(DynoscaleError):
    """An argument is outside its documented domain."""


class BudgetExceededError(DynoscaleError):
    """An exact solver ran out of its node-expansion budget.

    Callers normally catch this and fall back to a heuristic bracket;
    it is raised only by the low-level solvers.
    """


class ConfigError(ParameterError):
    """A JSON input (config, descriptor, measure, instance) failed validation."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")
