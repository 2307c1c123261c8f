"""Exception types shared across the package."""


class QgrassError(Exception):
    """Base class for all package errors."""


class InvalidInputError(QgrassError, ValueError):
    """Malformed or out-of-range input value."""


class DomainError(QgrassError, ValueError):
    """Input is well-formed but outside the domain of the operation."""


class NotInImageError(QgrassError, ValueError):
    """A sequence is not in the image of the lattice embedding."""


class NotInInitialAlgebraError(QgrassError):
    """A monomial admits no factorization into generator leading monomials.

    Carries the offending monomial as a witness.  Only
    straighten.factor_initial raises it; subduction looks its leads up in
    the subduction table and never factors a monomial.
    """

    def __init__(self, monomial):
        super().__init__("monomial is not in the initial algebra")
        self.monomial = monomial


class SagbiFailureError(QgrassError):
    """Subduction of a generator product left a nonzero remainder."""

    def __init__(self, pair, witness):
        super().__init__("subduction left a nonzero remainder")
        self.pair = pair
        self.witness = witness


class InternalInconsistencyError(QgrassError):
    """A structural invariant that should hold mathematically was violated."""
