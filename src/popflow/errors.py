"""Shared exception hierarchy.

Every domain failure raised by this package derives from PopflowError so
callers (notably the CLI) can separate modelling problems from plain bugs
or bad invocations.
"""


class PopflowError(Exception):
    """Base class for all domain errors raised by popflow."""


class SchemaError(PopflowError):
    """A case document is missing a field or has one of the wrong type.

    Carries the path of the offending element, e.g. ``buses[2].v_min``.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class ValidationError(PopflowError):
    """A structurally well-formed case violates a model invariant."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class NonConvergence(PopflowError):
    """Newton iteration exhausted max_iter without meeting tolerance."""

    def __init__(self, iterations: int, mismatch: float, context: str = ""):
        self.iterations = iterations
        self.mismatch = mismatch
        msg = f"power flow did not converge after {iterations} iterations (max mismatch {mismatch:.3e} pu)"
        if context:
            msg += f" [{context}]"
        super().__init__(msg)


class SingularJacobian(PopflowError):
    """LU factorization of the Newton Jacobian failed."""


class Infeasible(PopflowError):
    """Dispatch constraints cannot all be satisfied."""


class DispatchStalled(PopflowError):
    """The dispatch active-set iteration hit its round cap without an optimum."""


class NotPositiveDefinite(PopflowError):
    """A correlation matrix has no Cholesky factor."""

    def __init__(self, group: str):
        self.group = group
        super().__init__(f"correlation matrix for group {group!r} is not positive definite")


class DimensionMismatch(PopflowError):
    """Array shapes do not line up with the model or case."""


class NonFiniteGradient(PopflowError):
    """A gradient array contains NaN or infinity."""


class NonFiniteLoss(PopflowError):
    """Training loss became NaN or infinite (divergence)."""


class FormatVersionMismatch(PopflowError):
    """A checkpoint was written by an unsupported format version."""


class CorruptFile(PopflowError):
    """A checkpoint failed its structural or checksum verification."""


class TooManyRejections(PopflowError):
    """More than half of the oracle labelling attempts failed."""
