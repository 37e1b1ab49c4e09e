"""Exception taxonomy.

Every error that can surface through the command line interface carries a
``context`` dict of JSON-serializable diagnostics, so the CLI can emit a
machine-readable error object on stderr without string parsing.
"""


class LightconeError(Exception):
    """Base class for all package errors."""

    def __init__(self, message, **context):
        super().__init__(message)
        self.message = message
        self.context = context

    def payload(self):
        """Machine-readable form used by the CLI error channel."""
        return {"error": type(self).__name__, "message": self.message,
                "context": self.context}


class MotionNotOrthogonal(LightconeError):
    """A 6x6 matrix violates T eta T^t = eta beyond tolerance."""


class ZeroRepresentative(LightconeError):
    """A projective point was handed a numerically zero representative."""


class OrderExhausted(LightconeError):
    """A jet has too few orders: a derivative of an order-0 jet, or a
    chain evaluated at coordinate jets below its order cost."""


class DomainError(LightconeError):
    """Jet composition outside the domain of the analytic function
    (division or fractional power at a near-zero constant term), or a
    constant of a chart program that is not a finite real number."""


class NotOnQuadric(LightconeError):
    """Input point fails the defining quadric equation of the space form,
    or a lift leaves the light cone."""


class NonFinite(LightconeError):
    """A computed quantity holds NaN or Inf, as the lift of a chart whose
    coordinates overflow does."""


class NotSpacelike(LightconeError):
    """The induced metric is not positive definite: <Y_z, Y_zbar> is not
    bounded away from zero, or the chart is not conformal."""


class NormalPlaneDegenerate(LightconeError):
    """At some point the η-orthogonal complement of span{Y, Y_u, Y_v, N}
    is not a nondegenerate Lorentzian plane; the frame cannot be
    completed."""


class GaugeReferenceDegenerate(LightconeError):
    """At some point no coordinate axis pairs with both null normals
    L and R above the gauge tolerance; the L/R scaling cannot be
    normalized there."""


class ParameterOutOfRange(LightconeError):
    """A catalog chart parameter is outside its admissible range."""


class ParseError(LightconeError):
    """Syntax error in a surface description program."""

    def __init__(self, message, line, col):
        super().__init__(message, line=line, col=col)
        self.line = line
        self.col = col


class UnknownIdentifier(LightconeError):
    """An identifier is neither a coordinate, a parameter, a constant,
    nor a known function."""


class ArityMismatch(LightconeError):
    """Wrong number of arguments to a function or expressions to a target
    form."""


class DegenerateTransform(LightconeError):
    """A polar or adjoint transform is degenerate (the relevant Hopf
    differential component vanishes) on the whole probe set."""


class NotWillmore(LightconeError):
    """An operation that requires a Willmore chart received one whose
    Willmore residual exceeds the gate tolerance."""


class NotSWillmore(LightconeError):
    """An operation that requires an S-Willmore chart received one whose
    deviation |lambda1 gamma2 - lambda2 gamma1| exceeds the gate."""


class IntegrandSingular(LightconeError):
    """The energy integrand exceeds the configured singularity bound."""
