"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input or parameter lies outside the declared domain of an operation."""


class UnknownModelError(KeyError):
    """A model identifier is not present in the registry."""


class NotConvergedError(RuntimeError):
    """An iterative procedure exhausted its iteration or time budget."""


class SeparationError(RuntimeError):
    """Binary-response fit diverged: the classes are (quasi-)separable."""


class UnattainableRiskError(ValueError):
    """The requested response probability exceeds the supremum of the curve."""

    def __init__(self, message, supremum):
        super().__init__(message)
        self.supremum = supremum
