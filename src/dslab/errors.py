"""Shared exception types."""


class BudgetError(ValueError):
    """An exact computation would exceed its configured budget.

    ``best_found`` carries the best certified value obtained before the
    budget ran out ("unknown >= best_found"), when that makes sense.
    """

    def __init__(self, message: str, best_found=None):
        super().__init__(message)
        self.best_found = best_found


class RealizabilityError(ValueError):
    """A labeled sample admits no consistent hypothesis, so the requested
    operation is undefined."""


class CertificateError(RuntimeError):
    """A certificate the computation claims failed its explicit check.

    Raised in place of an ``assert`` so the check survives ``python -O``;
    the CLI reports it as a failed verdict (exit 2), not as breakage.
    """
