"""Exception hierarchy for the waveforce toolkit.

Every failure the library raises on purpose derives from WaveforceError,
which itself derives from ValueError so callers that only know stdlib
exceptions still catch validation problems.
"""


class WaveforceError(ValueError):
    """Base class for all toolkit errors."""


class WrongType(WaveforceError):
    """An argument is not of the type its slot takes (a GridSpec, a Source, ...)."""


class CFLViolation(WaveforceError):
    """Grid ratio r = c*dt/dx exceeds 1; the explicit scheme would be unstable."""


class InvalidDimension(WaveforceError):
    """A size parameter is out of range (M < 2, N < 1, operator order too high, ...)."""


class DimensionMismatch(WaveforceError):
    """Sampled arrays disagree with the grid or with each other."""


class IncompatibleData(WaveforceError):
    """Boundary values at t=0 disagree with the initial displacement at the ends."""


class UnresolvedForce(WaveforceError):
    """A direct solve was requested while the source still has unknown components."""


class UnderdeterminedSystem(WaveforceError):
    """Fewer observations than unknowns; the inverse system has no unique minimizer."""


class SingularSystem(WaveforceError):
    """Solve found numerically dependent columns: a rank-deficient A at lambda = 0, or
    at lambda > 0 an A W (W the null space of D_k) past the rank rule's condition limit,
    which a sweep and each build of the regularized solve's factors raise as well."""


class ZeroMatrix(WaveforceError):
    """SVD diagnostics requested for an all-zero matrix."""


class DegenerateCurve(WaveforceError):
    """An L-curve has too few points or no corner (log-log collinear)."""


class UnknownExample(WaveforceError):
    """Benchmark id outside 1..5."""
