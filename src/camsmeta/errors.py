"""Shared exception and warning types.

Two error families are distinguished on purpose: DomainError means a numeric
argument is outside the mathematically meaningful range (a negative standard
error, a prevalence outside the simplex), while ContractError means the API was
called in a way that cannot be satisfied regardless of numbers (missing counts,
wrong estimator kind, malformed input rows).
"""


class CamsmetaError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(CamsmetaError, ValueError):
    """A numeric input lies outside its mathematical domain."""


class ContractError(CamsmetaError, ValueError):
    """An operation was invoked with inputs that violate its contract."""


class CamsmetaWarning(UserWarning):
    """Base class for warnings emitted by this package."""


class ValidationWarning(CamsmetaWarning):
    """Reported and recomputed quantities disagree beyond tolerance."""


class IdentifiabilityWarning(CamsmetaWarning):
    """The design is rank deficient or badly conditioned; results along the
    flat directions are not data driven."""


class ExtrapolationWarning(CamsmetaWarning):
    """A reporting quantity was requested outside the observed range."""


class GridEdgeWarning(CamsmetaWarning):
    """A heterogeneity posterior holds visible mass at the last grid node, so
    the grid cuts it off and the upper summaries are too low."""
