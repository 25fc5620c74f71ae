"""Exception hierarchy shared by all modules."""


class WplError(Exception):
    """Base class for every error raised by this package."""


# --- special functions -------------------------------------------------

class PoleError(WplError):
    """Argument sits on a pole of the gamma function."""


class DivergentSeries(WplError):
    """Hypergeometric series diverges for the given parameters/argument."""


class LowerParamPole(WplError):
    """A lower parameter hits a nonpositive integer before the series terminates."""


class NonConvergent(WplError):
    """Numerical evaluation exceeded its fixed budget or left the float64 range."""


class ContourViolation(WplError):
    """Contour does not separate the two pole sets (or sits on a pole)."""


class InternalImaginaryResidue(WplError):
    """A nominally real result came back with a large imaginary part."""


# --- free probability --------------------------------------------------

class PoleAtMinusOne(WplError):
    """S-transform evaluated at its pole z = -1."""


class NoPhysicalRoot(WplError):
    """Root selection criteria inconsistent; solver failure."""


class DomainError(WplError):
    """Argument outside the mathematical domain of the operation."""


# --- sampling ----------------------------------------------------------

class NumericalSingularity(WplError):
    """A matrix factor was numerically singular too many times in a row."""


class AlreadyScaled(WplError):
    """rescale() applied to a sample that is not in raw scaling."""


class EmptySample(WplError):
    """Empirical CDF requested for an empty value list."""


# --- finite-N kernel / hard edge ----------------------------------------

class CoincidentPoints(WplError):
    """Christoffel-Darboux form evaluated too close to the diagonal."""


class UnsupportedR(WplError):
    """Operation only implemented for specific values of r."""


# --- harness -----------------------------------------------------------

class ConfigError(WplError):
    """Invalid input: a CLI argument or the WPL_THREADS setting."""
