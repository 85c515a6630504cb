"""Exception hierarchy shared across the package."""


class FrontlabError(Exception):
    """Base class for every error raised by this package."""


class DomainError(FrontlabError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InputError(FrontlabError, ValueError):
    """Structurally invalid input: empty grid, too few samples, bad shapes."""


class ParameterError(FrontlabError, ValueError):
    """A model parameter violates its admissibility constraints."""


class BelowLevelError(FrontlabError, ValueError):
    """No grid value reaches the requested level (the level set is empty)."""


class FrontExitedDomainError(FrontlabError, ValueError):
    """The rightmost grid value still exceeds the level: the front left the domain."""


class OffsetError(FrontlabError, ValueError):
    """A fit offset makes the transformed ordinate undefined (x - b <= 0)."""


class AnalysisError(FrontlabError, RuntimeError):
    """No candidate rate model could be fitted to a trace."""


class CalibrationError(FrontlabError, RuntimeError):
    """The doubling calibration did not reach a valid barrier within its cap."""


class NumericalError(FrontlabError, ArithmeticError):
    """Defensive report of a numerically impossible event (e.g. zero pivot)."""


class SolverError(FrontlabError, RuntimeError):
    """The time integration failed; the message names the simulation time."""


class ConfigError(FrontlabError, ValueError):
    """A configuration file could not be parsed or validated; the message
    names the offending key and, where the text gave it, its line."""
