"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """Operands live in different ambient dimensions."""


class SingularSystemError(ValueError):
    """Linear system is singular up to the conditioning tolerance."""


class InconsistentSystemError(ValueError):
    """Linear constraint system admits no solution within tolerance."""


class PreconditionError(ValueError):
    """A documented precondition of an operation was violated."""


class ProblemFormatError(ValueError):
    """A problem or report file failed validation; carries the field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class NonFiniteIterateError(ValueError):
    """An iterate of the splitting orbit overflowed to inf or nan."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(
            f"iterate x_{step + 1} is not finite: the orbit overflowed float64"
        )
