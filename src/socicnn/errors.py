"""Exception types shared across the package."""


class SocIcnnError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(SocIcnnError, ValueError):
    """A parameter set, descriptor, config field or argument breaks its rule:
    every refusal of a bad number, point, object or config field but a
    non-finite one (``NonFiniteError``).

    The ``code`` attribute carries a stable machine-readable tag, one of:
    ``dimension-mismatch``, ``negativity``, ``nonpositive-alpha``,
    ``negative-lambda``, ``invalid-descriptor``, ``non-finite``.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class NonFiniteError(SocIcnnError, ValueError):
    """An input vector or an evaluated value is NaN or infinite."""


class InfeasibleBranchError(SocIcnnError, ValueError):
    """A multiplier branch violates its feasibility constraints beyond tolerance."""


class DegenerateInputError(SocIcnnError, ValueError):
    """The input sits on a kink, so a single-valued quantity is undefined there."""


class SolveFailureError(SocIcnnError, RuntimeError):
    """A damped second-order system unexpectedly failed to factor."""


class ConstructionError(SocIcnnError, RuntimeError):
    """A routine could not build what it promises: an optimal branch, or
    enough margin-gated sample points."""
