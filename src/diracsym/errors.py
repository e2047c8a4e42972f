"""Exception types shared across the package."""


class DiracsymError(Exception):
    """Base class for all library errors."""


class OutsideChart(DiracsymError):
    """A point lies outside the metric's chart."""


class DegenerateMetric(DiracsymError):
    """Metric determinant is numerically zero at the evaluation point."""


class FrameDegenerate(DiracsymError):
    """A pivot of the factorization g = R^T eta R (the squared diagonal of
    R) underflows, or the chart order does not give a time-first
    orthonormal frame."""


class StepUnderflow(DiracsymError):
    """Adaptive integrator drove the step size below the resolvable floor."""


class UnsupportedDimension(DiracsymError):
    """No shipped gamma set for this chart dimension."""


class NotTimelike(DiracsymError):
    """A vector required to be timelike is not."""


class NotFutureDirected(DiracsymError):
    """A timelike vector points into the past half-cone."""


class ZeroCovector(DiracsymError):
    """A phase point was built with a vanishing covector."""


class NotOnCharacteristicSet(DiracsymError):
    """A phase point required to satisfy q = 0 does not."""


class KernelViolation(DiracsymError):
    """A polarization vector left the principal-symbol kernel beyond
    tolerance."""


class ChartMapDegenerate(DiracsymError):
    """Chart transition Jacobian is singular at the evaluation point."""


class ConfigError(DiracsymError):
    """Malformed or inconsistent run configuration."""
