"""Exception hierarchy.

Input-validation failures (bad polytopes, triangulations, divisors, signs,
cells outside their domain) derive from InputError; failures of internal
mathematical invariants (a boundary that does not square to zero, a
quotient that is not free) derive from InternalCheckError.  The CLI maps the
former to exit code 1 and the latter to exit code 2.
"""


class TropmirrorError(Exception):
    pass


class InputError(TropmirrorError):
    pass


class InternalCheckError(TropmirrorError):
    pass


# lattice geometry
class NotReflexive(InputError):
    pass


# exact linear algebra
class DimensionMismatch(InternalCheckError):
    """Matrix shapes disagree; only ever on internal data."""


class MembershipViolation(InputError):
    pass


class Unsolvable(InputError):
    """The diamond system has no solution: the poset is not a CW poset."""


class FreenessError(InternalCheckError):
    """A cosheaf value that must be a free module has torsion."""


# triangulations
class RankUnsupported(InputError):
    pass


class NotInTriangulation(InputError):
    pass


# posets
class NotDualPair(InputError):
    pass


class NotInJ(InputError):
    pass


class PosetInvalid(InternalCheckError):
    """Gradedness or thinness failed; names the offending interval."""


# cosheaves / chains
class UnsupportedCell(InputError):
    pass


class BoundarySquareNonzero(InternalCheckError):
    pass


# mirror transfer
class SupportViolation(InputError):
    pass


class NotAClosedChain(InputError):
    pass


class RayNotInFan(InputError):
    pass


# patchworking
class VerdictMismatch(InternalCheckError):
    """A connectedness verdict disagrees with the component count b0."""


# mirror pairs
class MirrorSideFreed(InternalCheckError):
    """A side's weak link to its mirror outlived the mirror side."""


class HypothesisFails(TropmirrorError):
    """The homology-vanishing hypothesis of the connectedness criterion fails.

    Carries the offending (k, dimension) pair.  The CLI maps this to exit
    code 3.
    """

    def __init__(self, k, dim):
        self.k = k
        self.dim = dim
        super().__init__(f"vanishing hypothesis fails: H_n(F_{k}) has dimension {dim}")
