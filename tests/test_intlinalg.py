import random

import pytest

from tropmirror.errors import DimensionMismatch, InternalCheckError
from tropmirror.intlinalg import (
    F2Space,
    det,
    f2_combine,
    f2_pack,
    f2_rank,
    hnf_basis,
    identity,
    inverse_unimodular,
    left_kernel,
    mat_mul,
    row_hermite,
    smith,
    solve_left,
    sparse_elementary_divisors,
    sparse_rank,
    vec_mat,
)


def random_matrix(rng, m, n, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def test_hermite_identity():
    H, U = row_hermite(identity(3), transform=True)
    assert H == identity(3)
    assert mat_mul(U, identity(3)) == H


def test_hermite_transform_property():
    assert row_hermite([[2, 4], [6, 8]]) == [[2, 0], [0, 4]]
    rng = random.Random(7)
    for _ in range(40):
        A = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        H, U = row_hermite(A, transform=True)
        assert mat_mul(U, A) == H
        assert det(U) in (1, -1)
        # echelon shape: pivots positive, strictly right-moving
        last = -1
        for row in H:
            nz = [j for j, a in enumerate(row) if a]
            if not nz:
                continue
            assert nz[0] > last
            assert row[nz[0]] > 0
            last = nz[0]


def test_smith_identity_and_zero():
    S, U, V = smith(identity(4))
    assert S == identity(4)
    Z = [[0, 0], [0, 0]]
    S, U, V = smith(Z)
    assert S == Z


def test_smith_frozen_example():
    # gcd of entries 2, |det| = 8: invariants 2, 4
    A = [[2, 4], [6, 8]]
    S, U, V = smith(A)
    assert mat_mul(mat_mul(U, A), V) == S
    assert det(U) in (1, -1) and det(V) in (1, -1)
    assert [S[0][0], S[1][1]] == [2, 4]


def test_smith_random_properties():
    rng = random.Random(11)
    for _ in range(30):
        A = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        S, U, V = smith(A)
        assert mat_mul(mat_mul(U, A), V) == S
        assert det(U) in (1, -1) and det(V) in (1, -1)
        d = [S[i][i] for i in range(min(len(S), len(S[0])))]
        for a, b in zip(d, d[1:]):
            if b:
                assert a != 0 and b % a == 0
        # off-diagonal zero
        for i, row in enumerate(S):
            for j, a in enumerate(row):
                if i != j:
                    assert a == 0


def test_sparse_matches_dense():
    rng = random.Random(13)
    cases = [  # the gcd/lcm repair with units present, and a zero row
        ([[1, 0, 0], [0, 2, 0], [0, 0, 3]], [1, 1, 6]),
        ([[4, 0], [0, 6]], [2, 12]),
        ([[2, 4, 0], [0, 0, 0], [6, 8, 2]], [2, 2]),
    ]
    for _ in range(30):
        A = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), -3, 3)
        cases.append((A, None))
    for A, expected in cases:
        sp = [{j: a for j, a in enumerate(row) if a} for row in A]
        before = [dict(r) for r in sp]
        divisors = sparse_elementary_divisors(sp)
        assert sparse_rank(sp) == len(hnf_basis(A)) == len(divisors)
        assert sp == before  # neither routine touches its input
        S, _, _ = smith(A)
        dense = sorted(S[i][i] for i in range(min(len(A), len(A[0]))) if S[i][i])
        assert divisors == dense == (expected or dense)
        # over F2 only the odd divisors survive
        assert f2_rank([f2_pack(row) for row in A]) == sum(d % 2 for d in divisors)


def test_solve_left():
    assert solve_left(identity(3), [4, -1, 2]) == [4, -1, 2]
    assert solve_left([[2]], [3]) is None  # no integral solution
    x = solve_left([[2, 0], [3, 1]], [7, 1])
    assert x is not None and vec_mat(x, [[2, 0], [3, 1]]) == [7, 1]
    # every consistent random system solves exactly
    rng = random.Random(31)
    for _ in range(20):
        A = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), -3, 3)
        b = vec_mat([rng.randint(-3, 3) for _ in A], A)
        x = solve_left(A, b)
        assert x is not None and vec_mat(x, A) == b
    # shapes only ever disagree on internal data: exit code 2, not 1
    assert issubclass(DimensionMismatch, InternalCheckError)
    with pytest.raises(DimensionMismatch):
        solve_left([[1, 2]], [1, 2, 3])


def test_kernel_saturated():
    K = left_kernel([[1], [1]])
    assert K == [[1, -1]]
    K = left_kernel([[2], [4]])
    # kernel of (x, y) -> 2x + 4y is generated by (2, -1)
    assert K == [[2, -1]]


def test_inverse_unimodular():
    rng = random.Random(3)
    E = [[1, 2, 0], [0, 1, 5], [0, 0, 1]]
    assert mat_mul(E, inverse_unimodular(E)) == identity(3)
    with pytest.raises(ValueError):
        inverse_unimodular([[2, 0], [0, 1]])


def test_f2_basic():
    rows = [f2_pack([1, 1, 0]), f2_pack([0, 1, 1]), f2_pack([1, 0, 1])]
    assert f2_rank(list(rows)) == 2
    assert F2Space([0b11]).solve(0b11) == 0b1
    # over F2, [[1,1]] x = [1] has a witness
    assert F2Space([0b01, 0b10]).solve(0b01) == 0b01
    assert F2Space([0b01, 0b10]).solve(0b100) is None
    space = F2Space()
    assert [space.add(r) for r in rows] == [True, True, False]
    # the dependent third row is the XOR of the first two
    assert space.solve(rows[2]) == 0b011
    assert f2_combine(0b011, rows) == rows[2]


def test_f2_space_solve_tracking():
    rng = random.Random(5)
    for _ in range(20):
        rows = [rng.getrandbits(12) for _ in range(8)]
        space = F2Space(rows)
        # any combination must be solvable and reproduce itself
        target = 0
        picks = [i for i in range(8) if rng.random() < 0.5]
        for i in picks:
            target ^= rows[i]
        comb = space.solve(target)
        assert comb is not None
        acc = 0
        for i in range(8):
            if (comb >> i) & 1:
                acc ^= rows[i]
        assert acc == target
