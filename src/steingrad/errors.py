"""Exception types shared across the library.

Input validation problems (bad shapes, unknown names, out-of-range
parameters) raise plain ValueError.  Failures that only show up once the
numbers are on the table derive from NumericalError so callers, the CLI in
particular, can tell the two classes apart.
"""


class SteinGradError(Exception):
    """Base class for steingrad-specific errors."""


class NumericalError(SteinGradError):
    """A computation failed for numerical reasons."""


class SingularSolveError(NumericalError):
    """A regularised linear system stayed unsolvable through the jitter ladder."""


class DegenerateBandwidthError(NumericalError):
    """The median heuristic produced a zero bandwidth (all samples identical)."""


class DegenerateDenominatorError(NumericalError):
    """A kernel row sum is zero, so a density-ratio form is undefined."""
