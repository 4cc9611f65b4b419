import hashlib
import random
from functools import reduce
from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropmirror.cosheaves import CosheafEvaluator
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
    pivots,
    row_hermite,
    solve_hnf,
    sparse_elementary_divisors,
    sparse_rank,
    unimodular_completion,
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


def test_completion_identity():
    for n in (1, 3, 4):
        assert unimodular_completion(identity(n)) == identity(n)


def test_completion_frozen_example():
    assert unimodular_completion([[2, -1]]) == [[0, 1], [-1, 2]]
    # not a direct summand, dependent rows, more rows than columns
    for C in ([[2, 4]], [[1, 0], [2, 0]], [[1], [1]]):
        assert unimodular_completion(C) is None


def test_completion_random_properties():
    # the leading rows of a unimodular matrix span a direct summand, so
    # every prefix completes: C V = [I | 0] with det V = +-1
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 5)
        _, E = row_hermite(random_matrix(rng, n, n), transform=True)
        for k in range(1, n + 1):
            V = unimodular_completion(E[:k])
            assert det(V) in (1, -1)
            assert mat_mul(E[:k], V) == [r + [0] * (n - k) for r in identity(k)]


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_normal_forms_frozen():
    """HNF with U is fixed bit for bit: cosheaf frames and quotient bases
    take their coordinates from its unimodular completions, and with those
    the transfer chains and every report that prints them."""
    mats = [identity(3), identity(4), [[0, 0], [0, 0]], [[2, 4], [6, 8]]]
    rng = random.Random(7)  # the matrices of test_hermite_transform_property
    mats += [
        random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5)) for _ in range(40)
    ]
    rng = random.Random(11)
    mats += [
        random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4)) for _ in range(30)
    ]
    forms = [row_hermite(A, transform=True) for A in mats]
    assert _digest(forms) == (
        "075f164284db9142e1b635ec79d0fa30315d6c0833eab608fe9fccfc82c787d0"
    )


def test_k3_frames_and_values_frozen(k3_pair):
    """Every value stratum's frame (Q, R) and every (tag, p, cell)'s value
    content for the K3 pair's base multitangent and refined mirror_ext
    complexes; the latter reach the Frame of a nonzero quotient span.  The
    complexes build frames only where a nonzero value reads them, so every
    cell's frame is asked for here."""
    rows = []
    for side in (k3_pair.side_a, k3_pair.side_b):
        ev = CosheafEvaluator(side.ambient, side.newton)
        for p in range(side.n + 1):
            ev.chain_complex(side.base_poset, "multitangent", p)
            ev.chain_complex(side.refined_poset, "mirror_ext", p)
        for tag, poset in (("multitangent", side.base_poset),
                           ("mirror_ext", side.refined_poset)):
            for c in poset.cells:
                ev.frame(ev.value_stratum(tag, c))
        rows.append(sorted((gens, f.Q, f.R) for gens, f in ev._frames.items()))
        rows.append([
            (tag, p, c.key, repr(ev.value(tag, p, c).content()))
            for tag, poset in (("multitangent", side.base_poset),
                               ("mirror_ext", side.refined_poset))
            for p in range(side.n + 1)
            for c in poset.cells
        ])
    assert _digest(rows) == (
        "84108f4fbe3003814e48dc7e73be9bdd272b4b8f24df99a99e538b158ff16666"
    )


def _dense_divisors(A):
    """Nonzero elementary divisors of A as determinantal divisors: row
    Hermite forms of A and of its transposes alternate until no entry is
    left off the diagonal, and with e that diagonal, D_k is the gcd of the
    products of the k-subsets of e and d_k = D_k / D_(k-1)."""
    H = hnf_basis(A)
    while any(a for i, row in enumerate(H) for j, a in enumerate(row) if i != j):
        H = hnf_basis([list(col) for col in zip(*H)])
    e = [row[i] for i, row in enumerate(H)]
    D = [1] + [
        reduce(gcd, map(prod, combinations(e, k))) for k in range(1, len(e) + 1)
    ]
    return [b // a for a, b in zip(D, D[1:])]


def _check_sparse(A, expected=None):
    sp = [{j: a for j, a in enumerate(row) if a} for row in A]
    before = [dict(r) for r in sp]
    divisors = sparse_elementary_divisors(sp)
    assert sparse_rank(sp) == len(hnf_basis(A)) == len(divisors)
    assert sp == before  # neither routine touches its input
    dense = _dense_divisors(A)
    assert divisors == dense == (expected or dense)
    # over F2 only the odd divisors survive
    assert f2_rank([f2_pack(row) for row in A]) == sum(d % 2 for d in divisors)


def test_sparse_matches_dense():
    rng = random.Random(13)
    cases = [  # the gcd/lcm repair with units present, and a zero row
        ([[1, 0, 0], [0, 2, 0], [0, 0, 3]], [1, 1, 6]),
        ([[4, 0], [0, 6]], [2, 12]),
        ([[2, 4, 0], [0, 0, 0], [6, 8, 2]], [2, 2]),
        # the second row has no unit until the first pivot leaves it {1: 1}
        ([[1, 1, 0], [2, 3, 0], [0, 2, 4]], [1, 1, 4]),
        # the unit pivot leaves the non-unit remainder 4, 6: repaired to 2, 12
        ([[1, 3, 0], [3, 13, 0], [0, 0, 6]], [1, 2, 12]),
    ]
    for _ in range(30):
        A = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), -3, 3)
        cases.append((A, None))
    for A, expected in cases:
        _check_sparse(A, expected)


@st.composite
def _sparse_matrices(draw):
    """Sparse integer matrices, about half of their entries zero; about half
    of the draws hold no +-1 at all, so the elimination runs on gcd descent
    alone."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    values = [0] * 8 + [2, -2, 3, -4, 6, 9]
    if draw(st.booleans()):
        values += [1, -1]
    entries = st.sampled_from(values)
    return [[draw(entries) for _ in range(n)] for _ in range(m)]


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(_sparse_matrices())
def test_sparse_elimination_properties(A):
    _check_sparse(A)


def test_solve_hnf():
    assert solve_hnf(identity(3), [0, 1, 2], [4, -1, 2]) == [4, -1, 2]
    assert solve_hnf([[2]], [0], [3]) is None  # no integral solution
    H = hnf_basis([[2, 0], [3, 1]])
    x = solve_hnf(H, pivots(H), [7, 1])
    assert x is not None and vec_mat(x, H) == [7, 1]
    # every consistent random system over an HNF basis solves exactly, and
    # only with the coefficients that built its right-hand side
    rng = random.Random(31)
    for _ in range(20):
        H = hnf_basis(random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), -3, 3))
        c = [rng.randint(-3, 3) for _ in H]
        b = vec_mat(c, H) if H else []
        assert solve_hnf(H, pivots(H), b) == c
    # shapes only ever disagree on internal data: exit code 2, not 1
    assert issubclass(DimensionMismatch, InternalCheckError)
    with pytest.raises(DimensionMismatch):
        vec_mat([1, 2, 3], [[1, 2]])


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


_F2_OPS = st.lists(
    st.tuples(st.sampled_from(["add", "solve", "contains", "reduce", "rank"]),
              st.integers(0, 255)),
    max_size=40,
)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.lists(st.integers(0, 255), max_size=6), _F2_OPS, _F2_OPS)
def test_f2_space_interleavings_match_independent_oracles(initial, before, after):
    # any interleaving of adds and queries answers as the rows inserted so
    # far dictate: rank and membership by f2_rank, combinations by XOR
    space, inserted = F2Space(initial), list(initial)
    for op, row in before + [("solve", initial[-1] if initial else 0)] + after:
        if op == "add":
            assert space.add(row) == (f2_rank(inserted + [row]) > f2_rank(inserted))
            inserted.append(row)
        elif op == "solve":
            comb = space.solve(row)
            assert (comb is not None) == space.contains(row)
            if comb is not None:
                assert comb >> len(inserted) == 0
                assert f2_combine(comb, inserted) == row
        elif op == "contains":
            assert space.contains(row) == (f2_rank(inserted + [row]) == f2_rank(inserted))
        elif op == "reduce":
            r = space.reduce(row)
            assert space.contains(r ^ row)
            assert r == 0 or not space.contains(r)
        else:
            assert space.rank == f2_rank(inserted)
    piv = space.pivot_rows()
    leads = [r.bit_length() - 1 for r in piv]
    assert 0 not in piv and leads == sorted(set(leads))
    assert len(piv) == space.rank == f2_rank(inserted) == f2_rank(piv)
