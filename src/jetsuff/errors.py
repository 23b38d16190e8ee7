"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """Malformed or out-of-contract input (bad dimensions, NaN entries, ...)."""


class ConvergenceError(RuntimeError):
    """An iterative procedure failed to reach its target tolerance."""


class CalibrationError(RuntimeError):
    """Constant calibration could not satisfy the required bounds."""


class CoveringViolationError(RuntimeError):
    """No minor is active at a point off the singular set.

    This falsifies the minor lower bound numerically; the offending point
    is carried in ``args``.
    """


class FieldBoundError(CoveringViolationError):
    """The trivializing field broke its bound |W| <= C'' dist(x, Z) at a point."""


class DomainExitError(RuntimeError):
    """A trajectory left the working ball during integration."""


class ConstructionError(RuntimeError):
    """The perturbation construction violated one of its invariants."""


class MinorIdentityError(RuntimeError):
    """Computed minors broke an identity that holds exactly: a nonzero
    maximal minor whose (m-1)-subminors all vanish, or g' = 0 with nu > 0."""
