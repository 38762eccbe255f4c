"""Exception taxonomy.

Two families: UsageError for bad inputs (CLI exit code 2) and
GeometryError for curves that are degenerate for the requested
operation (CLI exit code 3). Everything derives from FrenetSimError
so callers can catch the whole library with one clause.
"""


class FrenetSimError(Exception):
    """Base class for all frenetsim errors."""


class UsageError(FrenetSimError):
    """Invalid arguments, malformed files, out-of-range options."""

    exit_code = 2


class GeometryError(FrenetSimError):
    """The input curve is geometrically degenerate for this operation."""

    exit_code = 3


# ---- usage errors ----

class BadParameters(UsageError):
    pass


class BadRange(UsageError):
    pass


class BadIndex(UsageError):
    pass


class TooFewSamples(UsageError):
    pass


class IncompatibleSignatures(UsageError):
    pass


class DimensionMismatch(UsageError):
    pass


class NotThreeDimensional(UsageError):
    pass


# ---- geometric degeneracies ----

class ZeroSpeed(GeometryError):
    """Some sample has ||dalpha/dt|| below tolerance."""


class FrameDegenerate(GeometryError):
    """QR pivot |R_jj| below tolerance; some curvature is effectively 0."""


class IndicatrixDegenerate(GeometryError):
    """Indicatrix speed sqrt(kappa_{i-1}^2 + kappa_i^2) below tolerance."""


class DegenerateSpeed(GeometryError):
    """Spherical-curve speed below tolerance."""


class DivisionDegenerate(GeometryError):
    """A closed-form ratio has a vanishing denominator."""


class ZeroCurvature(GeometryError):
    """A curvature required to be nonzero vanishes."""


class ZeroFocalPivot(GeometryError):
    """A focal curvature needed as a pivot/denominator vanishes."""


class CotSingularity(GeometryError):
    """The evolute phase reaches or crosses a multiple of pi."""


class NoRealSolution(GeometryError):
    """The self-similar normal form cannot be phased into a real frame."""


class RepeatedEigenvalue(GeometryError):
    """Rotation frequencies are not distinct; normal form breaks down."""

