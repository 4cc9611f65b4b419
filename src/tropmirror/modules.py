"""Unimodular frames and free quotients of submodules of Z^m.

A Frame is a unimodular coordinate system on the quotient of Z^m by a
direct summand; it is the one place that builds such coordinates, for the
cosheaf strata and for the free quotients alike.

A FreeQuotient is a span of rows inside a fixed free ambient module, modulo
a second span that must sit inside the first.  The row spans are exact
submodules (never saturated), so membership means integral membership.  It
is the computational form used by the cosheaf machinery: it fixes a
canonical basis of sub/quo once and turns "reduce an ambient vector to
quotient coordinates" into fast exact back-substitution.  Quotients with
torsion raise FreenessError; every cosheaf value in this artifact is free,
and that fact is load-bearing (tensoring with any ring preserves the
presentations), so it is checked rather than assumed.
"""

from .errors import FreenessError, MembershipViolation
from .intlinalg import (
    hnf_basis,
    identity,
    inverse_unimodular,
    pivots,
    solve_hnf,
    unimodular_completion,
    vec_mat,
)


class Frame:
    """Unimodular coordinates on the quotient of Z^m by the span of ``gens``.

    Q (m x (m-k)) projects, R ((m-k) x m) lifts.  The generators are a
    stratum span (part of a lattice basis for unimodular central
    triangulations) or, in sub-lattice coordinates, the span a free
    quotient divides out; a span that is not a direct summand raises
    FreenessError.
    """

    __slots__ = ("gens", "m", "k", "Q", "R")

    def __init__(self, gens, m):
        self.gens = tuple(gens)
        self.m = m
        self.k = len(self.gens)
        if not self.gens:
            self.Q = self.R = identity(m)  # shared: nothing mutates either
            return
        # unimodular completion: G V = [I | 0] exactly when the span is a
        # direct summand, and then inv(V) = [G; R] with R the lift
        V = unimodular_completion(self.gens)
        if V is None:
            raise FreenessError(f"span {self.gens} is not a direct summand of Z^{m}")
        self.Q = [row[self.k :] for row in V]
        self.R = inverse_unimodular(V)[self.k :]


class FreeQuotient:
    """sub/quo presentation of a free quotient module with a fixed basis.

    ``sub_rows`` span a submodule S of Z^ambient, ``quo_rows`` a submodule Q
    of S; the object models S/Q.  ``frame`` is the Frame of Q written in
    S-coordinates: its Q projects S-coordinates onto the quotient basis and
    its R lifts that basis back.  Quotients with torsion raise
    FreenessError.
    """

    __slots__ = ("ambient", "sub", "sub_pivots", "rank", "frame")

    def __init__(self, ambient, sub_rows, quo_rows=()):
        self.ambient = ambient
        self.sub = hnf_basis(list(sub_rows))
        self.sub_pivots = pivots(self.sub)
        coords = [self._sub_coords(row) for row in quo_rows]
        self.frame = Frame(hnf_basis(coords), len(self.sub))
        self.rank = len(self.sub) - self.frame.k

    def content(self):
        """Everything ``reduce`` and ``rep`` read, as one hashable tuple:
        quotients with equal content are interchangeable."""
        return (
            self.ambient,
            _frozen(self.sub),
            _frozen(self.frame.Q),
            _frozen(self.frame.R),
        )

    def _sub_coords(self, vec):
        c = solve_hnf(self.sub, self.sub_pivots, vec)
        if c is None:
            raise MembershipViolation("vector is not in the submodule")
        return c

    def reduce(self, vec):
        """Quotient coordinates of an ambient vector in the submodule; with
        nothing divided out they are its sub-lattice coordinates."""
        coords = self._sub_coords(vec)
        if not self.frame.k:
            return tuple(coords)
        return tuple(vec_mat(coords, self.frame.Q))

    def rep(self, i):
        """Ambient representative of the i-th canonical basis class; with
        nothing divided out it is the i-th sub-lattice basis row."""
        if not self.frame.k:
            return tuple(self.sub[i])
        return tuple(vec_mat(self.frame.R[i], self.sub))


def _frozen(rows):
    return tuple(map(tuple, rows))
