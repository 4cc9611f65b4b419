"""Exact linear algebra over Z and F2.

Everything here runs on Python's arbitrary-precision integers, so overflow is
impossible by construction.  Conventions:

* vectors are tuples/lists of ints and act on the LEFT of matrices
  (``x . A``), so the row space of A is the module its rows generate;
* dense matrices are lists of row lists;
* sparse matrices are lists of ``{col: value}`` row dicts (used only for
  the rank/elementary-divisor routines on larger boundary matrices);
* F2 matrices pack each row into one int, bit j = column j.

Hermite form is row-style (pivots positive, zeros below, reduced above);
Smith form returns unimodular U, V with U*A*V = S and a divisibility chain
on the diagonal.
"""

from math import gcd

from .errors import DimensionMismatch


# ---------------------------------------------------------------------------
# dense helpers

def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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
    return sum(a * b for a, b in zip(u, v))


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
    bottom.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    H = [list(r) for r in A]
    U = identity(m) if transform else None
    row = 0
    for col in range(n):
        piv = None
        for i in range(row, m):
            if H[i][col]:
                piv = i
                break
        if piv is None:
            continue
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
                    for j in range(col, n):
                        Hi[j] -= q * Hp[j]
                    if transform:
                        Ui, Up = U[i], U[p]
                        for j in range(m):
                            Ui[j] -= q * Up[j]
        if piv != row:
            H[row], H[piv] = H[piv], H[row]
            if transform:
                U[row], U[piv] = U[piv], U[row]
        if H[row][col] < 0:
            H[row] = [-a for a in H[row]]
            if transform:
                U[row] = [-a for a in U[row]]
        p = H[row][col]
        for i in range(row):
            q = H[i][col] // p
            if q:
                Hi, Hr = H[i], H[row]
                for j in range(n):
                    Hi[j] -= q * Hr[j]
                if transform:
                    Ui, Ur = U[i], U[row]
                    for j in range(m):
                        Ui[j] -= q * Ur[j]
        row += 1
        if row == m:
            break
    if transform:
        return H, U
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


def _pivots(H):
    piv = []
    for r in H:
        for j, a in enumerate(r):
            if a:
                piv.append(j)
                break
    return piv


def solve_hnf(H, pivots, b):
    """Coefficients of b over the nonzero HNF rows H, or None.

    Integral back-substitution; None when b is outside the row span over Z.
    """
    v = list(b)
    coeffs = [0] * len(H)
    for i, j in enumerate(pivots):
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


def solve_left(A, b):
    """Some x with x.A = b over Z, or None if no integral solution."""
    if len(b) != (len(A[0]) if A else len(b)):
        raise DimensionMismatch("vector length does not match matrix")
    H, U = row_hermite(A, transform=True)
    Hnz = [r for r in H if any(r)]
    c = solve_hnf(Hnz, _pivots(Hnz), b)
    if c is None:
        return None
    x = [0] * len(A)
    for i, q in enumerate(c):
        if q:
            Ui = U[i]
            for j in range(len(A)):
                x[j] += q * Ui[j]
    return x


def inverse_unimodular(E):
    """Exact inverse of a square matrix with det +-1."""
    n = len(E)
    H, U = row_hermite(E, transform=True)
    if [r[i] for i, r in enumerate(H)] != [1] * n or any(
        H[i][j] for i in range(n) for j in range(n) if i != j
    ):
        raise ValueError("matrix is not unimodular")
    return U


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
# Smith normal form (dense, with transforms)

def smith(A):
    """Smith normal form with transforms: U*A*V = S, det U, det V = +-1.

    The diagonal of S is nonnegative with d1 | d2 | ... .
    """
    m = len(A)
    n = len(A[0]) if m else 0
    S = [list(r) for r in A]
    U = identity(m)
    V = identity(n)

    def row_op(i, p, q):  # row i -= q * row p
        Si, Sp = S[i], S[p]
        for j in range(n):
            Si[j] -= q * Sp[j]
        Ui, Up = U[i], U[p]
        for j in range(m):
            Ui[j] -= q * Up[j]

    def col_op(j, p, q):  # col j -= q * col p
        for i in range(m):
            S[i][j] -= q * S[i][p]
        for i in range(n):
            V[i][j] -= q * V[i][p]

    def swap_rows(i, p):
        S[i], S[p] = S[p], S[i]
        U[i], U[p] = U[p], U[i]

    def swap_cols(j, p):
        for row in S:
            row[j], row[p] = row[p], row[j]
        for row in V:
            row[j], row[p] = row[p], row[j]

    t = 0
    while True:
        # locate a nonzero entry at or after (t, t)
        pos = None
        for i in range(t, m):
            for j in range(t, n):
                if S[i][j]:
                    pos = (i, j)
                    break
            if pos:
                break
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        while True:
            moved = False
            for i in range(t + 1, m):
                if S[i][t]:
                    q = S[i][t] // S[t][t]
                    row_op(i, t, q)
                    if S[i][t]:
                        swap_rows(t, i)
                        moved = True
            for j in range(t + 1, n):
                if S[t][j]:
                    q = S[t][j] // S[t][t]
                    col_op(j, t, q)
                    if S[t][j]:
                        swap_cols(t, j)
                        moved = True
            if not moved and all(S[i][t] == 0 for i in range(t + 1, m)) and all(
                S[t][j] == 0 for j in range(t + 1, n)
            ):
                break
        # make sure the pivot divides the rest of the matrix
        p = S[t][t]
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if S[i][j] % p:
                    bad = i
                    break
            if bad:
                break
        if bad is not None:
            row_op(t, bad, -1)  # pivot row absorbs the non-divisible row
            continue
        t += 1
        if t == min(m, n):
            break
    for i in range(min(m, n)):
        if S[i][i] < 0:
            S[i] = [-a for a in S[i]]
            U[i] = [-a for a in U[i]]
    return S, U, V


# ---------------------------------------------------------------------------
# sparse routines for boundary matrices

def _sparse_axpy(row, pivot, q):
    """row -= q * pivot on {col: val} dicts."""
    for j, v in pivot.items():
        new = row.get(j, 0) - q * v
        if new:
            row[j] = new
        else:
            row.pop(j, None)


def sparse_rank(rows):
    """Rank over Q of a sparse integer matrix; destructive on its input."""
    active = [r for r in rows if r]
    rank = 0
    while active:
        # pivot row: prefer unit entries, then short rows
        pr = min(
            active,
            key=lambda r: (min(abs(v) for v in r.values()) != 1, len(r)),
        )
        col = min(pr, key=lambda j: (abs(pr[j]), j))
        while True:
            others = [r for r in active if r is not pr and col in r]
            if not others:
                break
            for r in others:
                q = r[col] // pr[col]
                if q:
                    _sparse_axpy(r, pr, q)
            rem = [r for r in active if r is not pr and r.get(col)]
            if rem:
                cand = min(rem, key=lambda r: abs(r[col]))
                if abs(cand[col]) < abs(pr[col]):
                    pr = cand
        rank += 1
        active = [r for r in active if r is not pr and r]
    return rank


def sparse_elementary_divisors(rows):
    """Nonzero elementary divisors (with d1 | d2 | ...) of a sparse matrix.

    Destructive on its input.  Diagonalizes by alternating gcd descent on the
    pivot row and column, then repairs divisibility on the collected diagonal.
    """
    active = [dict(r) for r in rows if r]
    diag = []
    while active:
        pr = min(
            active,
            key=lambda r: (min(abs(v) for v in r.values()) != 1, len(r)),
        )
        col = min(pr, key=lambda j: (abs(pr[j]), j))
        while True:
            # clear the pivot column with row operations
            while True:
                others = [r for r in active if r is not pr and col in r]
                if not others:
                    break
                for r in others:
                    q = r[col] // pr[col]
                    if q:
                        _sparse_axpy(r, pr, q)
                rem = [r for r in active if r is not pr and r.get(col)]
                if rem:
                    cand = min(rem, key=lambda r: abs(r[col]))
                    if abs(cand[col]) < abs(pr[col]):
                        pr = cand
                else:
                    break
            # column operations only touch the pivot row here
            p = pr[col]
            rest = {j: v for j, v in pr.items() if j != col}
            if not rest:
                break
            for j, v in list(rest.items()):
                q = v // p
                if q:
                    pr[j] = v - q * p
                    if not pr[j]:
                        del pr[j]
            rest = {j: v for j, v in pr.items() if j != col}
            if not rest:
                break
            col = min(rest, key=lambda j: (abs(rest[j]), j))
        diag.append(abs(pr[col]))
        active = [r for r in active if r is not pr and r]
    # repair divisibility pairwise: diag(a, b) ~ diag(gcd, lcm)
    diag = [d for d in diag if d]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            if diag[j] % diag[i]:
                g = gcd(diag[i], diag[j])
                diag[i], diag[j] = g, diag[i] // g * diag[j]
    return sorted(diag)


# ---------------------------------------------------------------------------
# F2 (bit-packed rows)

def f2_pack(row):
    x = 0
    for j, a in enumerate(row):
        if a & 1:
            x |= 1 << j
    return x


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


class F2Space:
    """Row space over F2 with membership tests and coordinate solving."""

    def __init__(self, rows=()):
        self._basis = {}  # leading bit -> (row, combination bitmask)
        self._n = 0
        for r in rows:
            self.add(r)

    def add(self, row):
        """Insert a row; returns True if it enlarged the space."""
        comb = 1 << self._n
        self._n += 1
        r = row
        while r:
            lead = r.bit_length() - 1
            if lead in self._basis:
                br, bc = self._basis[lead]
                r ^= br
                comb ^= bc
            else:
                self._basis[lead] = (r, comb)
                return True
        return False

    @property
    def rank(self):
        return len(self._basis)

    def reduce(self, row):
        r = row
        while r:
            lead = r.bit_length() - 1
            if lead not in self._basis:
                break
            r ^= self._basis[lead][0]
        return r

    def contains(self, row):
        return self.reduce(row) == 0

    def solve(self, row):
        """Bitmask over inserted rows expressing ``row``, or None."""
        r = row
        comb = 0
        while r:
            lead = r.bit_length() - 1
            if lead not in self._basis:
                return None
            br, bc = self._basis[lead]
            r ^= br
            comb ^= bc
        return comb


def f2_solve_rows(rows, target):
    """Coefficients c (0/1 list) with sum c_i rows_i = target, or None."""
    space = F2Space()
    for r in rows:
        space.add(r)
    comb = space.solve(target)
    if comb is None:
        return None
    # the combination mask refers to inserted rows, but reductions mixed in
    # earlier rows; F2Space tracks exact combinations, so unpack directly
    return [(comb >> i) & 1 for i in range(len(rows))]


def f2_left_kernel(rows):
    """Basis (bitmasks over row indices) of {x : sum x_i rows_i = 0}."""
    basis = {}
    kernel = []
    for i, r in enumerate(rows):
        comb = 1 << i
        while r:
            lead = r.bit_length() - 1
            if lead in basis:
                br, bc = basis[lead]
                r ^= br
                comb ^= bc
            else:
                basis[lead] = (r, comb)
                break
        else:
            kernel.append(comb)
    return kernel
