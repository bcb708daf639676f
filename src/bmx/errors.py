"""Exception taxonomy shared across the toolkit."""


class BmxError(Exception):
    """Base class for all toolkit errors."""


class BadParameters(BmxError):
    """Domain or map constructed with parameters outside their valid range."""


class PointOutsideDomain(BmxError):
    """A query point that must lie inside the domain does not."""


class AtPole(BmxError):
    """Analytic map evaluated at a pole or other non-removable singularity."""


class MaxStepsExceeded(BmxError):
    """A simulated path did not terminate within the configured step budget."""


class QuadratureFailure(BmxError):
    """Adaptive quadrature exceeded its refinement depth cap."""


class TooFewTailSamples(BmxError):
    """Not enough order statistics above the cutoff for tail-index estimation."""


class TargetUnreachable(BmxError):
    """No grid path connects the source to the target in the metric graph."""


class NodeBudgetExceeded(TargetUnreachable):
    """The first metric graph needs more leaves than ``max_nodes`` allows."""


class NestingViolation(BmxError):
    """A claimed domain inclusion failed a containment check."""


class ConfigError(BmxError):
    """Scenario configuration is malformed or references unknown entities."""
