"""Exception hierarchy shared across the package.

Validation-type errors (bad parameters, bad config) map to CLI exit code 2,
runtime/numeric errors to exit code 3.
"""


class DuogameError(Exception):
    pass


class ParameterError(DuogameError, ValueError):
    """A function argument or model parameter is out of its admissible range."""


class ConfigError(DuogameError, ValueError):
    """Configuration file is malformed, has unknown keys, or violates ranges."""


class StateError(DuogameError):
    """Simulation state is inadmissible (NaN, negative stock, non-positive price).

    An array step over many rows sets ``row`` to the lowest inadmissible row,
    and a kernel pass sets it to the row of a failed plain-float step.
    """

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class ReplicationError(DuogameError):
    """A replication blew up numerically.

    Carries the simulated day, the replication's seed (which replays it) and
    its position ``index`` among the replications of the call.
    """

    def __init__(self, message, day=None, seed=None, index=None):
        super().__init__(message)
        self.day = day
        self.seed = seed
        self.index = index

    def __reduce__(self):
        # keep the attributes when a pool worker sends the error back
        return type(self), (str(self), self.day, self.seed, self.index)


class IncompleteGameError(DuogameError):
    """A payoff query or solve needs profiles that were never simulated."""

    def __init__(self, message, missing=()):
        super().__init__(message)
        self.missing = list(missing)


class InsufficientDataError(DuogameError):
    """Not enough samples for the requested statistic."""


class DesignError(DuogameError):
    """Experimental design is unusable (missing cells, over budget)."""
