import random
from itertools import combinations

import pytest

from tropmirror.errors import FreenessError, MembershipViolation
from tropmirror.exterior import (
    contract_multivector,
    contract_vector,
    contract_word,
    dim_wedge,
    index_sets,
    top_form,
    wedge_coeffs,
    wedge_matrix,
    wedge_rows,
)
from tropmirror.intlinalg import hnf_basis, left_kernel, vec_mat
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


# -- exterior algebra ----------------------------------------------------------

def test_wedge_basis_vectors():
    e0, e1 = {(0,): 1}, {(1,): 1}
    assert wedge_coeffs(e0, e1) == {(0, 1): 1}
    assert wedge_coeffs(e1, e0) == {(0, 1): -1}
    v = {(0,): 1, (1,): 1}
    assert wedge_coeffs(v, v) == {}


def test_wedge_degree_overflow():
    # past the top degree every wedge vanishes
    assert wedge_coeffs(top_form(2), {(0,): 1}) == {}


def test_contraction_leibniz_degree_two():
    # iota_{f1*}(f1 ^ f2) = f2 and iota_{f2*}(f1 ^ f2) = -f1
    assert contract_vector((1, 0, 0), {(0, 1): 1}) == {(1,): 1}
    assert contract_vector((0, 1, 0), {(0, 1): 1}) == {(0,): -1}


def test_contraction_round_trip_sign_n1():
    # iota_{f1* ^ f2*}(f1 ^ f2) = -1 at rank 2: matches (-1)^(n(n+5)/2), n=1
    assert contract_multivector({(0, 1): 1}, 2, top_form(2)) == {(): -1}


def test_contraction_word_order():
    # iota_{a ^ b} = iota_a . iota_b (rightmost first)
    omega = top_form(3)
    a, b = (1, 0, 0), (0, 1, 0)
    expected = contract_vector(a, contract_vector(b, omega))
    assert contract_word([a, b], omega) == expected
    ab = wedge_coeffs({(0,): 1}, {(1,): 1})
    assert contract_multivector(ab, 3, omega) == expected


def test_kernel_of_contraction_is_annihilator_wedge():
    # brute force over rank 3: iota_v w = 0 iff w is in Lambda^2 of v-perp
    rng = random.Random(2)
    for _ in range(10):
        v = [rng.randint(-2, 2) for _ in range(3)]
        if not any(v):
            continue
        perp = left_kernel([[a] for a in v])
        basis = hnf_basis([wedge_rows(list(sub), 3) for sub in combinations(perp, 2)])
        # every element of the annihilator wedge contracts to zero
        for row in basis:
            w = dict(zip(index_sets(3, 2), row))
            w = {k: c for k, c in w.items() if c}
            assert not contract_vector(v, w)
        # and the kernel has no more: the integral kernel of the contraction
        # matrix on Pluecker coordinates must span the same module
        columns = index_sets(3, 1)
        rows = []
        for I in index_sets(3, 2):
            image = contract_vector(v, {I: 1})
            rows.append([image.get(J, 0) for J in columns])
        assert left_kernel(rows) == basis


def test_wedge_matrix_cauchy_binet():
    rng = random.Random(9)
    for _ in range(10):
        A = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(4)]
        W = wedge_matrix(A, 2)
        u = [rng.randint(-2, 2) for _ in range(4)]
        v = [rng.randint(-2, 2) for _ in range(4)]
        lhs = wedge_rows([vec_mat(u, A), vec_mat(v, A)], 3)
        rhs = vec_mat(wedge_rows([u, v], 4), W)
        assert lhs == rhs


def test_dim_wedge():
    assert dim_wedge(4, 2) == 6
    assert dim_wedge(3, 0) == 1
    assert dim_wedge(2, 3) == 0
