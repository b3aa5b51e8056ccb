"""Error taxonomy shared across the package.

Exit-code mapping used by the CLI:
  DomainError / ValidationError / SchemaError -> 1
  AccuracyError                               -> 2
  IncompletenessError                         -> 3
"""

from __future__ import annotations


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation (pole, bad range)."""


class ValidationError(ValueError):
    """A structural invariant of loaded data is violated; names the invariant."""


class SchemaError(ValueError):
    """A document cannot be parsed against the expected schema."""


class AccuracyError(RuntimeError):
    """A numerical routine could not certify the requested tolerance.

    Carries the best available estimate so callers can decide whether to
    proceed anyway.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class IncompletenessError(ValueError):
    """Required data is missing.  ``gaps`` lists what would be needed; a run
    of consecutive n is kept as the range it is given as, however long."""

    def __init__(self, message: str, gaps=None):
        super().__init__(message)
        self.gaps = gaps if isinstance(gaps, range) else list(gaps) if gaps is not None else []
