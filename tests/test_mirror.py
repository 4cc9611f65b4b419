import gc
import random
import weakref

import pytest

from conftest import CUBIC_DUAL_VERTS, CUBIC_VERTS
from tropmirror.chains import dense_block
from tropmirror.errors import (
    InputError,
    InternalCheckError,
    MirrorSideFreed,
    RayNotInFan,
    SupportViolation,
)
from tropmirror.intlinalg import mat_mul
from tropmirror import mirror
from tropmirror.lattice import LatticePolytope
from tropmirror.mirror import (
    chain_degree,
    contraction_matrix,
    contraction_sign,
    correction_operator,
    divisor_restriction,
    is_null_class,
    sphere_cycle,
    transfer_class,
)
from tropmirror.pairs import MirrorPair
from tropmirror.patchwork import connectedness_verdict, delta1, signs_from_divisor
from tropmirror.triangulate import generate_central

RNG = random.Random(2024)


def random_infinity_chain(side, p, q, rng):
    """A random chain supported at infinity with quotient coefficients."""
    poset = side.refined_poset
    ev = side.evaluator
    chain = {}
    for c in poset.cells:
        if c.dim == q and poset.at_infinity(c):
            rank = ev.value("quotient", p, c).rank
            if rank and rng.random() < 0.6:
                coords = tuple(rng.randint(0, 1) for _ in range(rank))
                if any(coords):
                    chain[c.key] = coords
    return chain


def test_contraction_sign_values():
    assert contraction_sign(1) == -1
    assert contraction_sign(2) == -1
    assert contraction_sign(3) == 1


def test_correction_operator_is_section(cubic_pair):
    # project(boundary(correction(gamma))) = gamma for random infinity chains
    side = cubic_pair.side_a
    poset = side.refined_poset
    for p in (0, 1):
        CQ = side.complex("refined", "quotient", p)
        for trial in range(20):
            q = RNG.choice([d for d in range(poset.max_dim)])
            gamma = random_infinity_chain(side, p, q, RNG)
            if not gamma:
                continue
            beta = correction_operator(side, gamma, p, tag="quotient")
            bvec = CQ.chain_to_packed(beta, q + 1)
            d = CQ.packed_to_chain(CQ.f2_boundary(bvec, q + 1), q)
            dinf = {
                k: v
                for k, v in d.items()
                if poset.at_infinity(poset.cells[poset.cell_index[k]])
            }
            assert dinf == gamma


def test_correction_operator_zero_and_support(cubic_pair):
    side = cubic_pair.side_a
    assert correction_operator(side, {}, 1) == {}
    poset = side.refined_poset
    sphere_cell = next(c for c in poset.cells if poset.on_sphere(c))
    with pytest.raises(SupportViolation):
        correction_operator(side, {sphere_cell.key: (1,)}, 0, tag="quotient")



def test_non_cell_key_is_a_support_violation(cubic_pair):
    # a key that names no poset cell is an input error (exit 1), not a
    # bare KeyError, wherever a chain is read
    side = cubic_pair.side_a
    bogus = {(((5, 5),), ((7, 7),)): (1,)}
    eps = signs_from_divisor(side, [(-1, 2)])
    for call in (
        lambda: transfer_class(side, bogus, 0),
        lambda: is_null_class(side.mirror, bogus, 0),
        lambda: delta1(side, eps, bogus, 0),
        lambda: correction_operator(side, bogus, 0),
    ):
        with pytest.raises(SupportViolation, match="is not a"):
            call()


def _fresh_cubic_side():
    """Side a of a cubic pair of its own.  A side keeps the transfer's cell
    maps once read, so a doctored map on the shared pair would hide behind
    maps cached by earlier tests, or stay cached for later ones."""
    T = generate_central(LatticePolytope(CUBIC_VERTS))
    Tdual = generate_central(LatticePolytope(CUBIC_DUAL_VERTS))
    return MirrorPair(T, Tdual).side_a


def _singular_value_map(monkeypatch, target, src):
    """Make the cellwise map out of ``src`` on side ``target`` zero mod 2."""
    real = mirror._value_map

    def value_map(side, s, dst, p):
        matrix = real(side, s, dst, p)
        if side is not target or s != src:
            return matrix

        def doubled(cell):
            rows, key = matrix(cell)
            return [[2 * a for a in row] for row in rows], key

        return doubled

    monkeypatch.setattr(mirror, "_value_map", value_map)


def test_singular_transition_map_is_an_internal_error(monkeypatch):
    side = _fresh_cubic_side()
    gamma = {}
    while not gamma:
        gamma = random_infinity_chain(side, 0, 0, RNG)
    monkeypatch.setattr(
        mirror, "dense_block", lambda block, width: [[0] * width for _ in block]
    )
    with pytest.raises(
        InternalCheckError, match="cellwise transition map is not invertible mod 2"
    ):
        correction_operator(side, gamma, 0, tag="quotient")


def test_singular_surjection_fails_to_lift(monkeypatch):
    side = _fresh_cubic_side()
    _singular_value_map(monkeypatch, side.mirror, "multitangent")
    with pytest.raises(
        InternalCheckError, match="surjection onto the mirror cosheaf failed to lift"
    ):
        transfer_class(side, sphere_cycle(side), 0)


def test_singular_kernel_inclusion_rejects_the_lift_defect(monkeypatch):
    # the fundamental class of the cubic leaves a lift defect to correct
    side = _fresh_cubic_side()
    _singular_value_map(monkeypatch, side.mirror, "kernel")
    with pytest.raises(InternalCheckError, match="lift defect is not a kernel chain"):
        transfer_class(side, sphere_cycle(side), 0)


def test_boundary_of_correction_hits_sphere(cubic_pair):
    # for a closed infinity cycle gamma, boundary(L gamma) = gamma + sphere part
    side = cubic_pair.side_a
    poset = side.refined_poset
    p = 0
    CQ = side.complex("refined", "mirror_ext", p)
    # closed chains at infinity: the infinity parts of quotient boundaries
    # that are cycles (the quotient complex is acyclic, so every cycle is a
    # boundary)
    CQq = side.complex("refined", "quotient", p)
    found = 0
    for q in range(poset.max_dim):
        rows = CQq.f2_rows(q + 1) if (q + 1) in CQq.D else []
        for r in rows[:10]:
            if r == 0:
                continue
            gamma = CQq.packed_to_chain(r, q)
            ginf = {
                k: v
                for k, v in gamma.items()
                if poset.at_infinity(poset.cells[poset.cell_index[k]])
            }
            if not ginf or not CQq.f2_is_cycle(CQq.chain_to_packed(ginf, q), q):
                continue
            found += 1
            beta = correction_operator(side, ginf, p, tag="quotient")
            bvec = CQ.chain_to_packed(beta, q + 1)
            d = CQ.packed_to_chain(CQ.f2_boundary(bvec, q + 1), q)
            for k, v in d.items():
                cell = poset.cells[poset.cell_index[k]]
                if poset.at_infinity(cell):
                    assert ginf.get(k) == v
                else:
                    assert poset.on_sphere(cell)
    assert found


def test_contraction_roundtrip_epsilon(cubic_pair, k3_pair):
    for pair in (cubic_pair, k3_pair):
        side = pair.side_a
        n = side.n
        eps = contraction_sign(n)
        poset = side.refined_poset
        for cell in poset.cells:
            if not poset.on_sphere(cell):
                continue
            for p in range(n + 1):
                Vx = side.evaluator.value("mirror", p, cell)
                if Vx.rank == 0:
                    continue
                A, mkey = contraction_matrix(side, p, cell)
                mcell = side.mirror.refined_poset.cells[
                    side.mirror.refined_poset.cell_index[mkey]
                ]
                B, back = contraction_matrix(side.mirror, n - p, mcell)
                assert back == cell.key
                prod = mat_mul(A, B)
                expected = [
                    [eps if i == j else 0 for j in range(Vx.rank)]
                    for i in range(Vx.rank)
                ]
                assert prod == expected, (cell, p)


def test_contraction_vertex_independence(cubic_pair, k3_pair):
    for pair in (cubic_pair, k3_pair):
        side = pair.side_a
        poset = side.refined_poset
        for cell in poset.cells:
            if not poset.on_sphere(cell) or len(cell.tau) < 2:
                continue
            for p in range(side.n + 1):
                if side.evaluator.value("mirror", p, cell).rank == 0:
                    continue
                mats = [
                    contraction_matrix(side, p, cell, vertex=v)[0]
                    for v in cell.tau
                ]
                for m2 in mats[1:]:
                    assert m2 == mats[0], (cell, p)


def test_contraction_naturality(cubic_pair):
    # the contraction commutes with the mirror-cosheaf maps on sphere covers
    side = cubic_pair.side_a
    mirror = side.mirror
    poset = side.refined_poset
    mposet = mirror.refined_poset
    for p in range(side.n + 1):
        for (yi, xi) in poset.covers:
            y, x = poset.cells[yi], poset.cells[xi]
            if not (poset.on_sphere(y) and poset.on_sphere(x)):
                continue
            if side.evaluator.value("mirror", p, x).rank == 0:
                continue
            Ax, kx = contraction_matrix(side, p, x)
            Ay, ky = contraction_matrix(side, p, y)
            m_side = dense_block(
                side.evaluator.map_matrix("mirror", p, y, x),
                side.evaluator.value("mirror", p, y).rank,
            )
            my = mposet.cells[mposet.cell_index[ky]]
            mx = mposet.cells[mposet.cell_index[kx]]
            m_mirror = dense_block(
                mirror.evaluator.map_matrix("mirror", side.n - p, my, mx),
                mirror.evaluator.value("mirror", side.n - p, my).rank,
            )
            assert mat_mul(Ax, m_mirror) == mat_mul(m_side, Ay), (x.key, y.key, p)


def test_sphere_cycle_closed_and_fundamental(cubic_pair, k3_pair):
    for pair in (cubic_pair, k3_pair):
        for side in pair.sides:
            S = sphere_cycle(side)
            cx = side.complex("refined", "multitangent", 0)
            n = side.n
            vec = cx.chain_to_packed(S, n)
            assert cx.f2_is_cycle(vec, n)
            assert not cx.f2_is_boundary(vec, n)


def test_transfer_fundamental_class_nonzero(cubic_pair, k3_pair):
    for pair in (cubic_pair, k3_pair):
        side = pair.side_a
        S = sphere_cycle(side)
        out = transfer_class(side, S, 0)
        n = side.n
        assert chain_degree(side.mirror.refined_poset, out) == n
        assert not is_null_class(side.mirror, out, n, kind="refined")


def test_chain_coefficients_must_match_the_value_rank(cubic_pair):
    # a coefficient tuple with more or fewer entries than its cell's value
    # rank is an input error wherever a chain is packed: one entry too many
    # would set a bit of the next cell, and 40 would run past dim(q)
    side = cubic_pair.side_a
    eps = signs_from_divisor(side, [])
    S = sphere_cycle(side)
    cx = side.complex("refined", "multitangent", 0)
    first, last = list(S)[0], list(S)[-1]
    assert cx.ranks[side.refined_poset.cell_index[first]] == 1
    for key, coords in ((last, (1,) * 40), (first, (1, 0)), (first, ())):
        bad = {**S, key: coords}
        for run in (
            lambda: cx.chain_to_packed(bad, side.n),
            lambda: transfer_class(side, bad, 0),
            lambda: is_null_class(side, bad, 0, kind="refined"),
            lambda: delta1(side, eps, bad, 0),
        ):
            with pytest.raises(InputError, match="value rank"):
                run()


def test_transfer_involution_on_generators(cubic_pair):
    side = cubic_pair.side_a
    mirror = side.mirror
    n = side.n
    for p in range(n + 1):
        cx = side.complex("refined", "multitangent", p)
        for q in range(n + 1):
            for rep in cx.f2_homology_generators(q):
                gamma = cx.packed_to_chain(rep, q)
                out = transfer_class(side, gamma, p)
                back = transfer_class(mirror, out, n - p)
                diff = cx.chain_to_packed(back, q) ^ rep
                assert cx.f2_is_boundary(diff, q), (p, q)


def test_transfer_involution_k3_spot_checks(k3_pair):
    # a few generators in every wedge degree, including the 20-dimensional
    # middle group
    side = k3_pair.side_a
    mirror = side.mirror
    n = side.n
    for p in range(n + 1):
        cx = side.complex("refined", "multitangent", p)
        for q in range(n + 1):
            gens = cx.f2_homology_generators(q)
            for rep in gens[:3]:
                gamma = cx.packed_to_chain(rep, q)
                out = transfer_class(side, gamma, p)
                back = transfer_class(mirror, out, n - p)
                diff = cx.chain_to_packed(back, q) ^ rep
                assert cx.f2_is_boundary(diff, q), (p, q)


def test_transfer_well_defined_up_to_boundary(cubic_pair):
    # adding a boundary to the input changes the output by a boundary
    side = cubic_pair.side_a
    n = side.n
    p = 1
    cx = side.complex("refined", "multitangent", p)
    cxm = side.mirror.complex("refined", "multitangent", n - p)
    rng = random.Random(7)
    for q in range(n + 1):
        gens = cx.f2_homology_generators(q)
        if not gens or (q + 1) not in cx.D:
            continue
        rows = cx.f2_rows(q + 1)
        for rep in gens[:2]:
            base_out = transfer_class(side, cx.packed_to_chain(rep, q), p)
            bvec = base_out and cxm.chain_to_packed(base_out, q)
            for _ in range(5):
                pert = rep
                for r in rows:
                    if rng.random() < 0.3:
                        pert ^= r
                out2 = transfer_class(side, cx.packed_to_chain(pert, q), p)
                v2 = cxm.chain_to_packed(out2, q)
                assert cxm.f2_is_boundary(v2 ^ (bvec or 0), q)


def test_divisor_restriction_cubic_examples(cubic_pair):
    side = cubic_pair.side_a
    # D7 = a vertex ray of the Newton triangle, D8 = the adjacent interior
    # boundary point of the same facet
    d7 = (-1, 2)
    d8 = (-1, 1)
    both = divisor_restriction(side, [d7, d8])
    assert len(both) == 1  # one point on the mirror curve
    assert not is_null_class(side.mirror, both, side.n - 1)
    only8 = divisor_restriction(side, [d8])
    assert only8 == {}  # interior rays blow down to vertices
    only7 = divisor_restriction(side, [d7])
    assert len(only7) == 1
    with pytest.raises(RayNotInFan):
        divisor_restriction(side, [(5, 5)])


def _divisor_restriction_by_scan(side, rays):
    """The divisor chain found by scanning every mirror base-poset cell for
    each ray, in sorted ray order (the coefficients are rank one)."""
    poset = side.mirror.base_poset
    o = side.mirror.ambient.origin
    chain = {}
    for v in sorted(set(map(tuple, rays))):
        tau = tuple(sorted((o, v)))
        for cell in poset.cells:
            if cell.tau == tau and len(cell.sigma) == 2:
                if chain.pop(cell.key, None) is None:
                    chain[cell.key] = (1,)
    return chain


def test_divisor_restriction_matches_full_scan(cubic_pair, k3_pair):
    # the per-tau cell index gives the chain of a scan over every cell,
    # keys in the same order, on random divisors of both corpus pairs
    rng = random.Random(17)
    for side in (cubic_pair.side_a, k3_pair.side_a, k3_pair.side_b):
        rays = side.newton.rays()
        for _ in range(12):
            sub = [v for v in rays if rng.random() < 0.5]
            got = divisor_restriction(side, sub)
            want = _divisor_restriction_by_scan(side, sub)
            assert list(got.items()) == list(want.items()), sub


def test_divisor_restriction_closed_and_parity_oracle(cubic_pair):
    # n = 1: the class in H_0 equals the parity of the incidence count
    side = cubic_pair.side_a
    rng = random.Random(3)
    rays = side.newton.rays()
    cxm = side.mirror.complex("base", "multitangent", 0)
    for _ in range(20):
        sub = [v for v in rays if rng.random() < 0.5]
        chain = divisor_restriction(side, sub)
        q = chain_degree(side.mirror.base_poset, chain)
        if chain:
            assert cxm.f2_is_cycle(cxm.chain_to_packed(chain, q), q)
        parity = len(chain) % 2
        null = is_null_class(side.mirror, chain, 0)
        assert null == (parity == 0)


def test_is_null_class_basics(cubic_pair):
    side = cubic_pair.side_a
    assert is_null_class(side.mirror, {}, 0)
    # sum of two copies of the same cycle is null
    d7 = (-1, 2)
    c = divisor_restriction(side, [d7])
    doubled = dict(c)
    for k, v in c.items():
        doubled[k] = tuple(a ^ b for a, b in zip(doubled[k], v))
    doubled = {k: v for k, v in doubled.items() if any(v)}
    assert is_null_class(side.mirror, doubled, 0)


def test_divisor_interior_only_gives_zero_chain(cubic_pair):
    side = cubic_pair.side_a
    verts = set(side.newton.polytope.vertices)
    interior_rays = [v for v in side.newton.rays() if v not in verts]
    assert divisor_restriction(side, interior_rays) == {}


def test_dropped_pair_is_freed_without_the_collector():
    # side a holds side b, side b links back weakly: no cycle is left
    T = generate_central(LatticePolytope(CUBIC_VERTS))
    Tdual = generate_central(LatticePolytope(CUBIC_DUAL_VERTS))
    enabled = gc.isenabled()
    gc.disable()
    try:
        pair = MirrorPair(T, Tdual)
        assert pair.side_a.mirror is pair.side_b
        assert pair.side_b.mirror is pair.side_a
        # fill both sides' caches through a verdict, which reads the mirror
        connectedness_verdict(pair.side_a, pair.side_a.newton.rays()[:2])
        refs = [weakref.ref(s) for s in pair.sides]
        del pair
        assert [r() for r in refs] == [None, None]
        # a side a kept alone keeps its mirror, whose link back still works
        side = MirrorPair(T, Tdual).side_a
        assert side.mirror.mirror is side
        # a side b kept alone finds its link dead and says so
        side = MirrorPair(T, Tdual).side_b
        with pytest.raises(MirrorSideFreed):
            side.mirror
    finally:
        if enabled:
            gc.enable()
    assert issubclass(MirrorSideFreed, InternalCheckError)
