"""Integral exterior algebra on a rank-m lattice, in Pluecker coordinates.

Degree-p elements are stored either as sparse dicts {index tuple: int} with
strictly increasing index tuples, or as dense coordinate vectors over the
lexicographic list of p-subsets of {0..m-1}.  The two lattices M and N are
both Z^m in the standard dual bases, so contraction of an N-side multivector
against an M-side form is index bookkeeping with signs.

Sign conventions (they matter for the mirror round trip):
* wedge carries the shuffle sign;
* contraction by a single vector obeys the Leibniz rule,
  iota_v(f_{j1} ^ ... ^ f_{jk}) = sum_t (-1)^t <v, f_{jt}> f_{J minus jt};
* contraction by a wedge word applies the rightmost factor first:
  iota_{a ^ b} = iota_a . iota_b.
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


def coeffs_to_vector(coeffs, m, p):
    pos = index_pos(m, p)
    v = [0] * len(pos)
    for I, c in coeffs.items():
        v[pos[I]] = c
    return v


def vector_to_coeffs(vec, m, p):
    sets = index_sets(m, p)
    return {sets[i]: c for i, c in enumerate(vec) if c}


def shuffle_sign(I, J):
    """Sign of the permutation sorting the concatenation of disjoint I, J."""
    inv = 0
    for i in I:
        for j in J:
            if j < i:
                inv += 1
    return -1 if inv & 1 else 1


def wedge_coeffs(a, b):
    """Wedge of sparse multivectors (dicts index-tuple -> int)."""
    out = {}
    for I, ca in a.items():
        si = set(I)
        for J, cb in b.items():
            if si & set(J):
                continue
            K = tuple(sorted(I + J))
            c = out.get(K, 0) + shuffle_sign(I, J) * ca * cb
            if c:
                out[K] = c
            else:
                out.pop(K, None)
    return out


def wedge_rows(rows, m):
    """Pluecker coordinates of row_1 ^ ... ^ row_p (dense vector)."""
    p = len(rows)
    sets = index_sets(m, p)
    out = []
    for J in sets:
        out.append(det([[r[j] for j in J] for r in rows]))
    return out


def wedge_matrix(A, p):
    """Matrix of the induced map Lambda^p(x -> x.A) in Pluecker coordinates.

    A maps Z^m -> Z^q by right multiplication; by Cauchy-Binet the induced
    map sends coordinate I to sum_J det(A[I, J]) J.
    """
    m = len(A)
    q = len(A[0]) if A else 0
    rowsets = index_sets(m, p)
    colsets = index_sets(q, p)
    W = []
    for I in rowsets:
        row = []
        for J in colsets:
            row.append(det([[A[i][j] for j in J] for i in I]))
        W.append(row)
    return W


def contract_vector(x, coeffs):
    """Interior product of the vector x (length m) against a sparse form."""
    out = {}
    for J, c in coeffs.items():
        for t, j in enumerate(J):
            if x[j]:
                K = J[:t] + J[t + 1 :]
                s = -1 if t & 1 else 1
                v = out.get(K, 0) + s * x[j] * c
                if v:
                    out[K] = v
                else:
                    out.pop(K, None)
    return out


def contract_word(xs, coeffs):
    """iota_{x_1 ^ ... ^ x_k}, rightmost factor applied first."""
    for x in reversed(xs):
        coeffs = contract_vector(x, coeffs)
    return coeffs


def contract_multivector(w, m, coeffs):
    """Contraction by a sparse degree-k multivector on the dual side."""
    out = {}
    unit = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    for I, c in w.items():
        part = contract_word([unit[i] for i in I], coeffs)
        for K, v in part.items():
            nv = out.get(K, 0) + c * v
            if nv:
                out[K] = nv
            else:
                out.pop(K, None)
    return out


def top_form(m):
    """The volume form: coefficient +1 on {0..m-1} in the standard basis."""
    return {tuple(range(m)): 1}
