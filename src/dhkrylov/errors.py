"""Exception types shared across the package."""


class DhKrylovError(Exception):
    """Base class for all package errors."""


class DimensionError(DhKrylovError):
    """Operands have incompatible or non-square shapes."""


class StructureError(DhKrylovError):
    """A matrix violates a required algebraic structure (Hermitian, skew, ...)."""


class DefinitenessError(DhKrylovError):
    """A matrix violates a required definiteness contract."""


class ParameterError(DhKrylovError, ValueError):
    """A solver parameter (tolerance, iteration limit, solver name) is invalid."""


class ModelError(DhKrylovError):
    """Invalid parameters passed to a model generator."""


class ConsistencyError(DhKrylovError):
    """Initial value inconsistent with the algebraic constraints of a DAE."""


class SingularHermitianPartError(DhKrylovError):
    """The Hermitian part is singular; route the solve through the Schur path."""


class SchurReductionError(DhKrylovError):
    """A Schur complement in the block diagonalization is numerically singular."""

    def __init__(self, message, block_index=None):
        super().__init__(message)
        self.block_index = block_index


class SolverError(DhKrylovError):
    """An iterative solve failed in a way that is not a plain non-convergence."""
