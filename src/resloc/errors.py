"""Exception types raised by the exact-arithmetic kernel and the geometry layers.

Everything derives from ReslocError so callers (and the CLI) can catch the
mathematical failures in one place.  Plain ValueError / TypeError are reserved
for programmer errors: wrong argument types, broken contracts between modules.
"""


class ReslocError(Exception):
    """Base class for all mathematical errors raised by this package."""


class RingMismatch(ReslocError):
    """Two ring elements from different coefficient rings were combined."""


class NotInvertible(ReslocError):
    """Laurent element has no inverse with finitely many terms."""


class NotExponentiable(ReslocError):
    """Series has a constant term with a nonzero scalar part; exp would diverge."""


class RepeatedWeight(ReslocError):
    """Torus weight vector contains a repeated entry, so fixed points collide."""


class NotSymmetric(ReslocError):
    """Polynomial is not symmetric; carries a witness transposition."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class RankDeficient(ReslocError):
    """Linear system does not determine every unknown."""

    def __init__(self, message, free_unknowns=()):
        super().__init__(message)
        self.free_unknowns = tuple(free_unknowns)


class Inconsistent(ReslocError):
    """Linear system has contradictory equations."""


class MissingZetaEntry(ReslocError):
    """Pushforward table lookup inside the valid band found no entry."""


class NotDivisible(ReslocError):
    """Class is not divisible by the hyperplane class times the degree."""


class NormalizationFailed(ReslocError):
    """Mirror normalization left terms that the ansatz cannot remove."""


class DegenerateSystem(ReslocError):
    """Per-order mirror correction solve is singular."""


class NoRelationFound(ReslocError):
    """Quantum multiplication matrix produced no ring relation in range."""


class TauSyntaxError(ReslocError):
    """Symmetric-polynomial expression failed to parse; carries the position."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position
