"""Error taxonomy shared across the package.

Library code raises these instead of bare ValueError/RuntimeError so the CLI
can map failure classes onto exit codes without string matching.
"""


class FlipwideError(Exception):
    """Base class for all package errors."""


class InputError(FlipwideError):
    """A precondition on user-supplied data failed (bad ids, overlapping
    balls, twins where none are allowed, malformed files)."""


class BudgetExceeded(FlipwideError):
    """A configured budget ran out before the computation finished.

    ``partial`` carries whatever state was reached, so callers can inspect
    or report it. ``diagnostic`` is a short human-readable hint.
    """

    def __init__(self, message, partial=None, diagnostic=None):
        super().__init__(message)
        self.partial = partial
        self.diagnostic = diagnostic


class ExtractionShortfall(FlipwideError):
    """Extraction finished but the surviving sequence is shorter than the
    requested target. ``achieved`` is the (sound) subsequence that was
    reached, ``blocking_pattern`` the pattern whose refinement first pushed
    the length under the target, or None if the input was already too short.
    """

    def __init__(self, message, achieved, blocking_pattern=None):
        super().__init__(message)
        self.achieved = achieved
        self.blocking_pattern = blocking_pattern


class InternalInvariantError(FlipwideError):
    """An invariant the algorithm is supposed to maintain was violated.

    Reaching this means a bug or an input outside the supported classes that
    slipped past the preconditions; it is never a user error.
    """
