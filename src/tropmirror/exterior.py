"""Integral exterior algebra on a rank-m lattice, in Pluecker coordinates.

A degree-p element is a dense coordinate vector over the lexicographic list
of p-subsets of {0..m-1}.  The two lattices M and N are both Z^m in the
standard dual bases, so contraction of an N-side multivector against the
M-side volume form is index bookkeeping with signs.

Sign conventions (they matter for the mirror round trip):
* wedge carries the shuffle sign: (u ^ z)_K = sum_t (-1)^t u_{K_t} z_{K - K_t};
* contraction by a single vector obeys the Leibniz rule,
  iota_v(f_{j1} ^ ... ^ f_{jk}) = sum_t (-1)^t <v, f_{jt}> f_{J minus jt};
* contraction by a wedge word applies the rightmost factor first,
  iota_{a ^ b} = iota_a . iota_b, so against the volume form
  iota_{e_I}(e_0 ^ ... ^ e_{m-1}) = (-1)^(sum I) e_{I^c}  (``star``).
"""

from functools import lru_cache
from itertools import combinations

from .intlinalg import det


@lru_cache(maxsize=None)
def index_sets(m, p):
    """Lexicographic p-subsets of range(m), the Pluecker coordinate order."""
    if p < 0 or p > m:
        return ()
    return tuple(combinations(range(m), p))


@lru_cache(maxsize=None)
def index_pos(m, p):
    return {I: i for i, I in enumerate(index_sets(m, p))}


def dim_wedge(m, p):
    return len(index_sets(m, p))


def wedge_matrix(A, p):
    """Matrix of the induced map Lambda^p(x -> x.A) in Pluecker coordinates.

    A maps Z^m -> Z^q by right multiplication; by Cauchy-Binet the induced
    map sends coordinate I to sum_J det(A[I, J]) J.  Row I is therefore the
    wedge of the rows of A indexed by I: the p x p minors of those rows.
    """
    q = len(A[0]) if A else 0
    return [
        [det([[A[i][j] for j in J] for i in I]) for J in index_sets(q, p)]
        for I in index_sets(len(A), p)
    ]


def wedge_vector(u, z, m, p):
    """u ^ z for a vector u of length m and a degree-p vector z."""
    pos = index_pos(m, p)
    out = []
    for K in index_sets(m, p + 1):
        c = 0
        for t, k in enumerate(K):
            if u[k]:
                s = u[k] * z[pos[K[:t] + K[t + 1 :]]]
                c += -s if t & 1 else s
        out.append(c)
    return out


def star(z, m, k):
    """iota_z(e_0 ^ ... ^ e_{m-1}) for a degree-k vector z, by the sign rule
    e_I -> (-1)^(sum I) e_{I^c}."""
    pos = index_pos(m, m - k)
    out = [0] * len(pos)
    for I, c in zip(index_sets(m, k), z):
        if c:
            out[pos[tuple(j for j in range(m) if j not in I)]] = -c if sum(I) & 1 else c
    return out
