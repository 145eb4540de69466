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


class ReplicaFailure(NumericFailureError):
    """Some replicas of a lockstep stack failed a numeric check.

    `failures` maps each failed replica's position in the stack to its
    message; for a stack of one the exception reads as that message.
    """

    def __init__(self, failures: dict[int, str]):
        super().__init__(next(iter(failures.values())))
        self.failures = failures


class PartitionFailureError(RuntimeError):
    """A data partition could not satisfy its validity constraints."""
