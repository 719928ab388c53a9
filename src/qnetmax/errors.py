"""Exception hierarchy shared across the package.

Everything raised on bad input derives from :class:`QnetmaxError`, so callers
(including the CLI) can catch one type and map it to a diagnostic.
"""

from __future__ import annotations


class QnetmaxError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(QnetmaxError, ValueError):
    """A domain value failed one of its invariants."""


class NotHermitianError(ValidationError):
    """Density matrix is not Hermitian within tolerance."""


class TraceNotOneError(ValidationError):
    """Density matrix trace differs from one beyond tolerance."""


class NotPSDError(ValidationError):
    """Density matrix has a negative eigenvalue beyond tolerance."""


class ParameterOutOfRangeError(ValidationError):
    """A family parameter lies outside its admissible interval."""


class ClosedFormExceededError(ValidationError):
    """An optimizer value beats its closed form; carries best_value, closed_form, gap."""

    def __init__(self, best_value: float, closed_form: float, gap: float):
        super().__init__(
            f"numerical value {best_value!r} exceeds closed form {closed_form!r} by {-gap:.3e}"
        )
        self.best_value = float(best_value)
        self.closed_form = float(closed_form)
        self.gap = float(gap)


class StateFormatError(QnetmaxError, ValueError):
    """A state document does not follow the JSON state schema."""


class SettingsFormatError(QnetmaxError, ValueError):
    """A settings document does not follow the JSON settings schema."""


class EmptyNetworkError(QnetmaxError, ValueError):
    """A network operation was asked to run on zero sources."""


class SettingsArityMismatchError(ValidationError):
    """Settings describe a different number of branches than there are sources."""


class MissingInputTupleError(QnetmaxError, KeyError):
    """An outcome distribution has no row for the requested input tuple."""


class UnknownSuiteError(QnetmaxError, ValueError):
    """The verification suite name is not one of the known suites."""


class NoConvergenceError(QnetmaxError, RuntimeError):
    """The optimizer hit its iteration cap before meeting the tolerance.

    Carries the best certificate found so far in ``certificate``.
    """

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate
