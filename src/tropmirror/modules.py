"""Free quotients of submodules of Z^m.

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
    inverse_unimodular,
    pivots,
    solve_hnf,
    unimodular_completion,
)


class FreeQuotient:
    """sub/quo presentation of a free quotient module with a fixed basis.

    ``sub_rows`` span a submodule S of Z^ambient, ``quo_rows`` a submodule Q
    of S; the object models S/Q.  Writing Q in S-coordinates as the rows of
    C, freeness means C has a unimodular completion V with C V = [I | 0];
    the rows of inv(V) then split S-coordinates into Q and a canonical
    complement, which becomes the basis of the quotient.  Quotients with
    torsion raise FreenessError.
    """

    __slots__ = ("ambient", "sub", "sub_pivots", "rank", "_V", "_reps_sub")

    def __init__(self, ambient, sub_rows, quo_rows=()):
        self.ambient = ambient
        self.sub = hnf_basis(list(sub_rows))
        self.sub_pivots = pivots(self.sub)
        r = len(self.sub)
        coords = []
        for row in quo_rows:
            c = solve_hnf(self.sub, self.sub_pivots, row)
            if c is None:
                raise MembershipViolation("quotient span escapes the submodule")
            coords.append(c)
        coords = hnf_basis(coords)
        if not coords:
            self._V = None
            self._reps_sub = [
                [1 if j == i else 0 for j in range(r)] for i in range(r)
            ]
            self.rank = r
            return
        # coords has full row rank after the HNF pass
        self._V = unimodular_completion(coords)
        if self._V is None:
            raise FreenessError("quotient has torsion")
        self._reps_sub = inverse_unimodular(self._V)[len(coords) :]
        self.rank = r - len(coords)

    def content(self):
        """Everything ``reduce`` and ``rep`` read, as one hashable tuple:
        quotients with equal content are interchangeable."""
        V = None if self._V is None else _frozen(self._V)
        return (self.ambient, _frozen(self.sub), _frozen(self._reps_sub), V)

    def _sub_coords(self, vec):
        c = solve_hnf(self.sub, self.sub_pivots, vec)
        if c is None:
            raise MembershipViolation("vector is not in the submodule")
        return c

    def reduce(self, vec):
        """Quotient coordinates of an ambient vector in the submodule."""
        c = self._sub_coords(vec)
        if self._V is None:
            return tuple(c)
        r = len(self.sub)
        t = [sum(c[i] * self._V[i][j] for i in range(r)) for j in range(r)]
        return tuple(t[r - self.rank :])

    def rep(self, i):
        """Ambient representative of the i-th canonical basis class."""
        w = self._reps_sub[i]
        out = [0] * self.ambient
        for j, a in enumerate(w):
            if a:
                row = self.sub[j]
                for t in range(self.ambient):
                    out[t] += a * row[t]
        return tuple(out)


def _frozen(rows):
    return tuple(map(tuple, rows))
