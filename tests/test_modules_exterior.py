import random

import pytest

from tropmirror.errors import FreenessError, MembershipViolation
from hypothesis import given, settings
from hypothesis import strategies as st

from tropmirror.exterior import (
    dim_wedge,
    index_pos,
    index_sets,
    star,
    wedge_matrix,
    wedge_vector,
)
from tropmirror.intlinalg import hnf_basis, left_kernel, mat_mul, rank_int, vec_mat
from tropmirror.modules import FreeQuotient


# -- free quotients -------------------------------------------------------------

def test_index_two_sublattice_membership():
    m = FreeQuotient(2, [(2, 0)])
    assert m.reduce((4, 0)) == (2,)
    with pytest.raises(MembershipViolation):
        m.reduce((1, 0))


def test_quotient_escape_raises():
    with pytest.raises(MembershipViolation):
        FreeQuotient(2, [(2, 0)], [(1, 0)])


def test_free_quotient_reduce_rep_roundtrip():
    fq = FreeQuotient(2, [(1, 0), (0, 1)], [(1, 1)])
    assert fq.rank == 1
    for i in range(fq.rank):
        coords = fq.reduce(fq.rep(i))
        expected = tuple(1 if j == i else 0 for j in range(fq.rank))
        assert coords == expected
    # (1, 1) dies in the quotient
    assert fq.reduce((1, 1)) == (0,)


def test_free_quotient_torsion_rejected():
    with pytest.raises(FreenessError):
        FreeQuotient(2, [(1, 0), (0, 1)], [(2, 0)])


def _random_unimodular(rng, r):
    """A product of random elementary row operations on the r x r identity."""
    W = [[int(i == j) for j in range(r)] for i in range(r)]
    for _ in range(3 * r):
        i, j = rng.randrange(r), rng.randrange(r)
        if i == j:
            W[i] = [-x for x in W[i]]
        else:
            c = rng.randint(-2, 2)
            W[i] = [x + c * y for x, y in zip(W[i], W[j])]
            W[i], W[j] = W[j], W[i]
    return W


def test_free_quotient_random_properties():
    # the first k rows of W.S, with W unimodular, span a direct summand of
    # the span of S, so the quotient is free of rank r - k.  With k = 0 the
    # frame is the identity, and rep skips the product with its lift
    rng = random.Random(17)
    identity_frames = 0
    for _ in range(100):
        a = rng.randint(1, 5)
        r = rng.randint(1, a)
        S = [[rng.randint(-3, 3) for _ in range(a)] for _ in range(r)]
        if rank_int(S) < r:
            continue
        k = rng.randint(0, r)
        quo = [tuple(row) for row in mat_mul(_random_unimodular(rng, r), S)[:k]]
        fq = FreeQuotient(a, [tuple(row) for row in S], quo)
        assert fq.rank == r - k
        identity_frames += not k
        for i in range(fq.rank):
            assert fq.reduce(fq.rep(i)) == tuple(int(j == i) for j in range(fq.rank))
            if not k:  # the identity frame's lift, written out
                assert fq.rep(i) == tuple(vec_mat(fq.frame.R[i], fq.sub)), i
        for row in quo:
            assert fq.reduce(row) == (0,) * fq.rank
        for _ in range(3):
            x, y = ([rng.randint(-3, 3) for _ in range(r)] for _ in range(2))
            u, v = vec_mat(x, S), vec_mat(y, S)
            total = fq.reduce([s + t for s, t in zip(u, v)])
            assert total == tuple(s + t for s, t in zip(fq.reduce(u), fq.reduce(v)))
        if k:
            with pytest.raises(FreenessError):
                FreeQuotient(a, S, [tuple(2 * c for c in quo[0])] + quo[1:])
    assert identity_frames


# -- exterior algebra ----------------------------------------------------------

def _unit(m, k, I):
    z = [0] * dim_wedge(m, k)
    z[index_pos(m, k)[I]] = 1
    return z


def _contract(x, z, m, k):
    """iota_x of a degree-k vector by the Leibniz rule (the test's oracle):
    iota_x(f_J) = sum_t (-1)^t x_{J_t} f_{J minus J_t}."""
    pos = index_pos(m, k - 1)
    out = [0] * len(pos)
    for J, c in zip(index_sets(m, k), z):
        for t, j in enumerate(J):
            out[pos[J[:t] + J[t + 1 :]]] += (-1) ** t * x[j] * c
    return out


def _contract_word(I, z, m, k):
    """iota_{e_I} applied rightmost factor first."""
    for i in reversed(I):
        z = _contract(_unit(m, 1, (i,)), z, m, k)
        k -= 1
    return z


def test_wedge_basis_vectors():
    e0, e1 = (1, 0), (0, 1)
    assert wedge_vector(e0, e1, 2, 1) == [1]
    assert wedge_vector(e1, e0, 2, 1) == [-1]
    v = (1, 1)
    assert wedge_vector(v, v, 2, 1) == [0]


def test_wedge_degree_overflow():
    # past the top degree every wedge vanishes
    assert wedge_vector((1, 0), [1], 2, 2) == []


def test_contraction_leibniz_degree_two():
    # iota_{f1*}(f1 ^ f2) = f2 and iota_{f2*}(f1 ^ f2) = -f1
    f12 = _unit(3, 2, (0, 1))
    assert _contract((1, 0, 0), f12, 3, 2) == [0, 1, 0]
    assert _contract((0, 1, 0), f12, 3, 2) == [-1, 0, 0]


def test_contraction_round_trip_sign_n1():
    # iota_{f1* ^ f2*}(f1 ^ f2) = -1 at rank 2: matches (-1)^(n(n+5)/2), n=1
    assert star([1], 2, 2) == [-1]


def test_contraction_word_order():
    # iota_{a ^ b} = iota_a . iota_b (rightmost first)
    omega = [1]
    a, b = (1, 0, 0), (0, 1, 0)
    expected = _contract(a, _contract(b, omega, 3, 3), 3, 2)
    assert star(wedge_vector(a, b, 3, 1), 3, 2) == expected


def test_star_is_rightmost_first_contraction():
    # iota_{e_I}(e_0 ^ ... ^ e_{m-1}) for every e_I at m <= 4
    for m in range(1, 5):
        for k in range(m + 1):
            for I in index_sets(m, k):
                assert star(_unit(m, k, I), m, k) == _contract_word(I, [1], m, m)


def test_kernel_of_contraction_is_annihilator_wedge():
    # brute force over rank 3: iota_v w = 0 iff w is in Lambda^2 of v-perp
    rng = random.Random(2)
    for _ in range(10):
        v = [rng.randint(-2, 2) for _ in range(3)]
        if not any(v):
            continue
        perp = left_kernel([[a] for a in v])
        basis = hnf_basis(wedge_matrix(perp, 2))
        # every element of the annihilator wedge contracts to zero
        for row in basis:
            assert not any(_contract(v, row, 3, 2))
        # and the kernel has no more: the integral kernel of the contraction
        # matrix on Pluecker coordinates must span the same module
        rows = [_contract(v, _unit(3, 2, I), 3, 2) for I in index_sets(3, 2)]
        assert left_kernel(rows) == basis


def test_wedge_matrix_cauchy_binet():
    rng = random.Random(9)
    for _ in range(10):
        A = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(4)]
        W = wedge_matrix(A, 2)
        u = [rng.randint(-2, 2) for _ in range(4)]
        v = [rng.randint(-2, 2) for _ in range(4)]
        lhs = wedge_matrix([vec_mat(u, A), vec_mat(v, A)], 2)[0]
        rhs = vec_mat(wedge_matrix([u, v], 2)[0], W)
        assert lhs == rhs


def test_dim_wedge():
    assert dim_wedge(4, 2) == 6
    assert dim_wedge(3, 0) == 1
    assert dim_wedge(2, 3) == 0


# -- properties (fixed seed, small budget) ---------------------------------------

_entries = st.integers(-3, 3)


@st.composite
def _vectors(draw):
    """(m, p, u, V): a vector u and p vectors V in Z^m, 1 <= p < m <= 5."""
    m = draw(st.integers(2, 5))
    p = draw(st.integers(1, m - 1))
    row = st.lists(_entries, min_size=m, max_size=m)
    return m, p, draw(row), draw(st.lists(row, min_size=p, max_size=p))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(_vectors())
def test_wedge_vector_is_laplace_expansion(data):
    m, p, u, V = data
    assert wedge_vector(u, wedge_matrix(V, p)[0], m, p) == wedge_matrix([u] + V, p + 1)[0]


@st.composite
def _forms(draw):
    """(m, k, z): a degree-k vector in Pluecker coordinates, m <= 5."""
    m = draw(st.integers(1, 5))
    k = draw(st.integers(0, m))
    n = dim_wedge(m, k)
    return m, k, draw(st.lists(_entries, min_size=n, max_size=n))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(_forms())
def test_star_twice_is_a_sign(data):
    m, k, z = data
    sign = -1 if m * (m - 1) // 2 % 2 else 1
    assert star(star(z, m, k), m, m - k) == [sign * c for c in z]
