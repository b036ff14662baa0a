"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Array shapes are incompatible with the requested operation."""


class DegenerateEquationError(ValueError):
    """An equation row has zero norm, so its projection is undefined."""


class AncestryError(ValueError):
    """The first node is not an ancestor of the second in the tree."""


class CycleError(ValueError):
    """A relation or edge set that must be acyclic contains a cycle."""


class ApplicabilityError(ValueError):
    """A structure-specific formula was applied outside its domain."""


class PreconditionError(ValueError):
    """A caller-side contract was violated (e.g. non-orthonormal basis)."""


class InvalidNetworkError(ValueError):
    """A network failed validation; carries the violation report."""

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = list(violations)


class PartitionError(ValueError):
    """A subnetwork partition is structurally unusable."""


class NonContractionError(RuntimeError):
    """The iteration matrix is not a contraction on the relevant subspace."""


class DivergenceError(RuntimeError):
    """Iterates blew up; carries the last finite iterate and the route that ran the passes."""

    def __init__(self, message, last_iterate=None, iteration=0, route=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.iteration = iteration
        self.route = route


class NumericalFailureError(RuntimeError):
    """A numerical routine failed to converge."""
