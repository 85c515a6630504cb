"""Exception hierarchy shared across the package: one class per exit code."""


class FrontlabError(Exception):
    """Base class for every error raised by this package."""


class InputError(FrontlabError, ValueError):
    """The caller must fix the input: a parameter, grid, level, trace or
    window that the operation cannot take.  The command line exits 2."""


class ConfigError(FrontlabError, ValueError):
    """A configuration file could not be parsed or validated; the message
    names the offending key and, where the text gave it, its line."""


class SolverError(FrontlabError, RuntimeError):
    """A computation did not finish; the message names which one failed:
    time integration, factorisation or barrier calibration.  The command
    line exits 3."""
