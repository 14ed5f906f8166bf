"""Shared exception types."""


class BudgetError(ValueError):
    """An exact computation would exceed its budget: the spanning check's matrix
    budget, or a fixed limit of ``mu_prime``, ``hclass.walk``, a generator or the cover."""


class RealizabilityError(ValueError):
    """A labeled sample admits no consistent hypothesis, so the requested
    operation is undefined."""


class CertificateError(RuntimeError):
    """A certificate the computation claims failed its explicit check.

    Raised in place of an ``assert`` so the check survives ``python -O``;
    the CLI reports it as a failed verdict (exit 2), not as breakage.
    """
