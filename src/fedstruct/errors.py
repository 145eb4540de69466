"""Exception types shared across the package."""


class ContractError(ValueError):
    """An argument violates an operation's contract (shape, range, or type)."""


class DegenerateInputError(ValueError):
    """Input is structurally degenerate (zero rows, collapsed descriptors, ...).

    Raised by the loss kernels when a value or gradient is mathematically
    undefined or numerically meaningless; the training loop treats it as a
    signal to skip the offending term, not as a crash.
    """


class NumericFailureError(ArithmeticError):
    """A numerical routine produced non-finite values or failed to converge."""


class PartitionFailureError(RuntimeError):
    """A data partition could not satisfy its validity constraints."""
