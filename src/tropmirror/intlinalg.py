"""Exact linear algebra over Z and F2.

Everything here runs on Python's arbitrary-precision integers, so overflow is
impossible by construction.  Conventions:

* vectors are tuples/lists of ints and act on the LEFT of matrices
  (``x . A``), so the row space of A is the module its rows generate;
* dense matrices are lists of row lists;
* sparse matrices are lists of ``{col: value}`` row dicts, used for the
  boundary matrices;
* F2 matrices pack each row into one int, bit j = column j.

Hermite form is row-style (pivots positive, zeros below, reduced above)
and the one dense elimination over Z.  It carries its transform as extra
columns of one work matrix, so each elementary operation is written once
and the transform comes along with it.  ``unimodular_completion`` reads a
unimodular V with C*V = [I | 0] off the Hermite form of C's transpose: the
coordinates of cosheaf frames and free quotients.  Sparse matrices go
through one structured elimination on a copy of the rows that leaves its
input untouched: unit pivots, found through a column index, while any row
holds a +-1, then gcd descent on the remainder.  ``sparse_rank`` counts the
diagonal it leaves and ``sparse_elementary_divisors`` repairs its
divisibility.  Over Z, ``solve_hnf`` is the one exact solver:
back-substitution over an HNF basis and its ``pivots``.  Over F2,
``F2Space`` is the one leading-bit reduction that can solve for
combinations; it tracks the combination behind each basis row as rows are
added.  Its ``reduce`` stops at the first leading bit that is not a pivot,
so it decides membership but is not a normal form: two members of one
coset can reduce to different rows.  ``f2_combine`` is the packed product
of a 0/1 row vector with a matrix.  ``f2_rank`` is a lean
rank-only pass kept as an independent route for cross-checks, and
``f2_cleared_ranks`` the same pass over every boundary of a complex at once,
each row named by its position, so a subcomplex is ranked in its parent's
numbering, top degree down, skipping the rows that the degree above pairs
(clearing: Chen-Kerber, "Persistent homology computation with a twist",
2011; Bauer-Kerber-Reininghaus, "Clear and compress", 2014).
"""

from collections import defaultdict
from heapq import heapify, heappop, heappush
from math import gcd
from operator import mul

from .errors import DimensionMismatch


# ---------------------------------------------------------------------------
# dense helpers

def identity(n):
    """The n x n identity."""
    rows = [[0] * n for _ in range(n)]
    for i, r in enumerate(rows):
        r[i] = 1
    return rows


def mat_mul(A, B):
    if A and B and len(A[0]) != len(B):
        raise DimensionMismatch(f"{len(A[0])} vs {len(B)}")
    n = len(B[0]) if B else 0
    out = []
    for row in A:
        acc = [0] * n
        for i, a in enumerate(row):
            if a:
                Bi = B[i]
                for j in range(n):
                    if Bi[j]:
                        acc[j] += a * Bi[j]
        out.append(acc)
    return out


def vec_mat(v, A):
    if len(v) != len(A):
        raise DimensionMismatch(f"{len(v)} vs {len(A)}")
    n = len(A[0]) if A else 0
    acc = [0] * n
    for i, a in enumerate(v):
        if a:
            Ai = A[i]
            for j in range(n):
                if Ai[j]:
                    acc[j] += a * Ai[j]
    return acc


def dot(u, v):
    return sum(map(mul, u, v))


def primitive(v):
    """Divide a nonzero integer vector by the gcd of its entries."""
    g = 0
    for a in v:
        g = gcd(g, a)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(a // g for a in v)


# ---------------------------------------------------------------------------
# Hermite normal form

def row_hermite(A, transform=False):
    """Row Hermite normal form.

    Returns H (and U with U*A = H, det U = +-1, when ``transform``).  H is in
    echelon form: pivots positive, zero entries below each pivot, entries
    above a pivot reduced into [0, pivot).  Zero rows are collected at the
    bottom.  With ``transform`` the work rows are [A | I]: pivots are sought
    in the first n columns only, every operation acts on whole rows, and U
    is read off the last m columns.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    z = [0] * m if transform else []
    H = [[*r, *z] for r in A]
    for i in range(len(z)):
        H[i][n + i] = 1
    w = n + len(z)
    row = 0
    for col in range(n):
        for i in range(row, m):
            if H[i][col]:
                break
        else:
            continue  # no pivot in this column
        # clear the column below `row` by gcd descent
        while True:
            nz = [i for i in range(row, m) if H[i][col]]
            if len(nz) == 1:
                piv = nz[0]
                break
            nz.sort(key=lambda i: abs(H[i][col]))
            p = nz[0]
            for i in nz[1:]:
                q = H[i][col] // H[p][col]
                if q:
                    Hi, Hp = H[i], H[p]
                    for j in range(col, w):
                        Hi[j] -= q * Hp[j]
        H[row], H[piv] = H[piv], H[row]
        if H[row][col] < 0:
            H[row] = [-a for a in H[row]]
        p = H[row][col]
        for i in range(row):
            q = H[i][col] // p
            if q:
                Hi, Hr = H[i], H[row]
                for j in range(col, w):
                    Hi[j] -= q * Hr[j]
        row += 1
        if row == m:
            break
    if transform:
        return [r[:n] for r in H], [r[n:] for r in H]
    return H


def hnf_basis(rows):
    """Canonical (HNF) basis of the row span; zero rows dropped."""
    if not rows:
        return []
    H = row_hermite(rows)
    return [r for r in H if any(r)]


def rank_int(rows):
    return len(hnf_basis(rows))


def left_kernel(A):
    """Basis of {x : x.A = 0}; saturated, in HNF."""
    H, U = row_hermite(A, transform=True)
    ker = [U[i] for i in range(len(A)) if not any(H[i])]
    return hnf_basis(ker)


def pivots(H):
    """Column of the leading entry of each nonzero row of an echelon form."""
    piv = []
    for r in H:
        for j, a in enumerate(r):
            if a:
                piv.append(j)
                break
    return piv


def solve_hnf(H, piv, b):
    """Coefficients of b over the nonzero HNF rows H, whose ``pivots`` are
    ``piv``, or None.

    Integral back-substitution; None when b is outside the row span over Z.
    """
    v = list(b)
    coeffs = [0] * len(H)
    for i, j in enumerate(piv):
        if v[j] % H[i][j]:
            return None
        q = v[j] // H[i][j]
        coeffs[i] = q
        if q:
            Hi = H[i]
            for t in range(len(v)):
                v[t] -= q * Hi[t]
    if any(v):
        return None
    return coeffs


def inverse_unimodular(E):
    """Exact inverse of a square matrix with det +-1."""
    n = len(E)
    H, U = row_hermite(E, transform=True)
    if [r[i] for i, r in enumerate(H)] != [1] * n or any(
        H[i][j] for i in range(n) for j in range(n) if i != j
    ):
        raise ValueError("matrix is not unimodular")
    return U


def unimodular_completion(C):
    """V with det V = +-1 and C*V = [I | 0] for a nonempty C, or None.

    With U*C^T = H the row Hermite form of the transpose, V = U^T whenever
    the top k rows of H are the identity (k = len(C)), and then inv(V)
    starts with the rows of C (Cohen, "A Course in Computational Algebraic
    Number Theory", 2.4).  None when the rows of C are dependent, do not
    span a direct summand, or outnumber the columns.
    """
    H, U = row_hermite([list(col) for col in zip(*C)], transform=True)
    if H[: len(C)] != identity(len(C)):
        return None
    return [list(col) for col in zip(*U)]


def det(A):
    """Integer determinant (fraction-free Gaussian elimination, Bareiss)."""
    n = len(A)
    if n == 0:
        return 1
    M = [list(r) for r in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


# ---------------------------------------------------------------------------
# sparse routines for boundary matrices

def _sparse_axpy(row, pivot, q, rid, cols):
    """row -= q * pivot on {col: val} dicts; cols[j] (the ids of the rows
    holding column j) gains or loses ``rid`` as an entry appears or vanishes."""
    for j, v in pivot.items():
        new = row.get(j, 0) - q * v
        if new:
            if j not in row:
                cols[j].add(rid)
            row[j] = new
        elif j in row:
            del row[j]
            cols[j].discard(rid)


def _heap_key(row, rid):
    """Rows holding a unit entry first, then shorter rows."""
    return (1 not in row.values() and -1 not in row.values(), len(row), rid)


def _sparse_diagonal(rows):
    """Diagonal left by structured elimination on a copy of ``rows``.

    A column index (column -> ids of the rows holding it) finds the rows to
    clear, and a heap keyed by (no unit entry, length) with lazy
    invalidation picks each pivot row.  Unit pivots come first: the
    shortest row holding a +-1, on its unit column with the fewest rows
    (Markowitz), clears that column in one pass.  Once no row holds a unit,
    gcd descent runs on the remainder: row operations clear the pivot
    column, swapping in any smaller remainder as pivot, and column
    operations, which touch only the pivot row, reduce that row.  Every
    pivot ends alone in its row and column.  The entries are positive and
    their count is the rank over Q.
    """
    active = {}
    cols = defaultdict(set)
    for rid, r in enumerate(rows):
        if r:
            active[rid] = dict(r)
            for j in r:
                cols[j].add(rid)
    heap = [_heap_key(r, rid) for rid, r in active.items()]
    heapify(heap)
    diag = []
    while active:
        key = heappop(heap)
        pid = key[2]
        pr = active.get(pid)
        if pr is None or _heap_key(pr, pid) != key:
            continue  # stale: the row is gone or has changed since the push
        if key[0]:
            col = min(pr, key=lambda j: (abs(pr[j]), j))
        else:
            col = min((j for j, v in pr.items() if v in (1, -1)),
                      key=lambda j: (len(cols[j]), j))
        while True:
            # clear the pivot column with row operations
            while True:
                p = pr[col]
                for rid in list(cols[col]):
                    if rid != pid:
                        r = active[rid]
                        q = r[col] // p
                        if q:
                            _sparse_axpy(r, pr, q, rid, cols)
                            if r:
                                heappush(heap, _heap_key(r, rid))
                            else:
                                del active[rid]
                if len(cols[col]) == 1:
                    break
                # every remainder is smaller than p: the least becomes pivot,
                # and the next pass changes the old pivot row and pushes it
                pid = min((rid for rid in cols[col] if rid != pid),
                          key=lambda rid: abs(active[rid][col]))
                pr = active[pid]
            # column operations only touch the pivot row here
            p = pr[col]
            for j, v in list(pr.items()):
                if j != col and v // p:
                    v %= p
                    if v:
                        pr[j] = v
                    else:
                        del pr[j]
                        cols[j].discard(pid)
            if len(pr) == 1:
                break
            col = min((j for j in pr if j != col), key=lambda j: (abs(pr[j]), j))
        diag.append(abs(pr[col]))
        del active[pid]
        cols[col].discard(pid)
    return diag


def sparse_rank(rows):
    """Rank over Q of a sparse integer matrix."""
    return len(_sparse_diagonal(rows))


def sparse_elementary_divisors(rows):
    """Nonzero elementary divisors d1 | d2 | ... of a sparse integer matrix.

    Repairs divisibility on the diagonal pairwise, diag(a, b) ~ diag(gcd,
    lcm).  The repair never changes a unit, so it runs on the others only.
    """
    diag = _sparse_diagonal(rows)
    units = [d for d in diag if d == 1]
    rest = [d for d in diag if d != 1]
    for i in range(len(rest)):
        for j in range(i + 1, len(rest)):
            if rest[j] % rest[i]:
                g = gcd(rest[i], rest[j])
                rest[i], rest[j] = g, rest[i] // g * rest[j]
    return units + sorted(rest)


# ---------------------------------------------------------------------------
# F2 (bit-packed rows)

def f2_pack(row):
    x = 0
    for j, a in enumerate(row):
        if a & 1:
            x |= 1 << j
    return x


def f2_combine(mask, rows):
    """XOR of the rows whose index bit is set in ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out ^= rows[low.bit_length() - 1]
        mask ^= low
    return out


def f2_rank(rows):
    basis = {}  # leading bit -> row
    rank = 0
    for r in rows:
        while r:
            lead = r.bit_length() - 1
            if lead in basis:
                r ^= basis[lead]
            else:
                basis[lead] = r
                rank += 1
                break
    return rank


def f2_cleared_ranks(rows):
    """The F2 rank of every boundary of a complex whose square vanishes.

    ``rows[q]`` lists the rows of D_q as (position, packed row) pairs in
    increasing position, the bits of each row naming positions in degree
    q - 1.  Positions may leave gaps, as when the rows are those of the
    basis vectors of a subcomplex kept in a wider numbering.  Each degree
    is read once, so it may be a generator packing its rows as they are
    read; between degrees only the ranks and the set of leading bits are
    kept, not the reduced rows.

    Degrees go top down, and each is ``f2_rank``'s pass: rows in position
    order, pivot on the highest bit.  A leading bit j of the reduced
    D_{q+1} marks a vector e_j + (lower terms) in the image of D_{q+1};
    since D_{q+1} D_q = 0, the row at position j of D_q is then a sum of
    rows at lower positions, and it is skipped.  Replacing each such e_j by
    its image vector is a triangular change of basis, so the rows left span
    the image of D_q and every rank is exact.  The caller must have checked
    the square.
    """
    ranks = {}
    cleared = {}
    for q in sorted(rows, reverse=True):
        skip = cleared.get(q, ())
        basis = {}  # leading bit -> row
        for i, r in rows[q]:
            if i in skip:
                continue
            while r:
                lead = r.bit_length() - 1
                b = basis.get(lead)
                if b is None:
                    basis[lead] = r
                    break
                r ^= b
        ranks[q] = len(basis)
        cleared[q - 1] = set(basis)
    return ranks


class F2Space:
    """Row space over F2 with membership tests and coordinate solving.

    The reduction keeps one basis row per leading bit, together with the
    combination of inserted rows behind it (bit i = the i-th inserted row),
    tracked from the first ``add`` so that ``solve`` is one more reduction.
    """

    def __init__(self, rows=()):
        self._basis = {}  # leading bit -> row
        self._combs = {}  # leading bit -> combination bitmask
        self._added = 0  # rows inserted so far
        for r in rows:
            self.add(r)

    def add(self, row):
        """Insert a row; returns True if it enlarged the space."""
        basis, combs = self._basis, self._combs
        comb = 1 << self._added
        self._added += 1
        r = row
        while r:
            lead = r.bit_length() - 1
            b = basis.get(lead)
            if b is None:
                basis[lead] = r
                combs[lead] = comb
                return True
            r ^= b
            comb ^= combs[lead]
        return False

    @property
    def rank(self):
        return len(self._basis)

    def reduce(self, row):
        basis = self._basis
        r = row
        while r:
            b = basis.get(r.bit_length() - 1)
            if b is None:
                break
            r ^= b
        return r

    def contains(self, row):
        return self.reduce(row) == 0

    def pivot_rows(self):
        """The basis rows, ascending by leading bit."""
        return [self._basis[lead] for lead in sorted(self._basis)]

    def solve(self, row):
        """Bitmask over inserted rows expressing ``row``, or None."""
        basis, combs = self._basis, self._combs
        r = row
        comb = 0
        while r:
            lead = r.bit_length() - 1
            b = basis.get(lead)
            if b is None:
                return None
            r ^= b
            comb ^= combs[lead]
        return comb
