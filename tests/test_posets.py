import copy
import random

import pytest

from tropmirror.errors import NotDualPair, PosetInvalid
from tropmirror.intlinalg import dot
from tropmirror.lattice import LatticePolytope
from tropmirror.posets import (
    Cell,
    CellPoset,
    _diamonds,
    balanced_signature,
    build_base_poset,
    build_refined_poset,
    gauge_twist,
    mirror_cell_refined,
)
from tropmirror.triangulate import CentralTriangulation, generate_central

from conftest import CUBIC_DUAL_VERTS, CUBIC_VERTS, first_kind, in_j0ub


def counts_by_dim(poset):
    out = {}
    for c in poset.cells:
        out[c.dim] = out.get(c.dim, 0) + 1
    return out


def brute_force_min_face(polytope, gens):
    """Independent oracle: the largest face on which every generator of the
    cone attains the polytope maximum (the dual of the smallest normal cone)."""
    best = None
    for f in polytope.faces:
        ok = True
        for u in gens:
            m = max(dot(u, v) for v in polytope.vertices)
            if any(dot(u, x) != m for x in f.lattice_points):
                ok = False
                break
        if ok and (best is None or f.dim > best.dim):
            best = f
    return best


def test_cubic_base_poset_counts(cubic_pair):
    poset = cubic_pair.side_a.base_poset
    assert counts_by_dim(poset) == {2: 10, 1: 30, 0: 21}
    # Euler characteristic of the ball
    assert 10 - 30 + 21 == 1
    # the sphere part has one top cell per boundary lattice point, at the
    # top grade n of the support subposet
    sphere_edges = [
        c for c in poset.cells if poset.on_sphere(c) and len(c.sigma) == 2
    ]
    assert len(sphere_edges) == 9
    assert all(c.dim == 1 for c in sphere_edges)
    # a cell with a maximal simplex second coordinate sits in degree 0
    top_sigma = next(c for c in poset.cells if len(c.sigma) == 3)
    assert top_sigma.dim == 0


def test_single_diamond_signature():
    from tropmirror.posets import balanced_signature
    from test_cosheaves import FakePoset

    poset = FakePoset([0, 1, 1, 2], [(0, 1), (0, 2), (1, 3), (2, 3)])
    sig = balanced_signature(poset)
    minus = sum(1 for v in sig.values() if v == -1)
    assert minus in (1, 3)


def test_cubic_refined_poset_counts(cubic_pair):
    poset = cubic_pair.side_a.refined_poset
    assert counts_by_dim(poset) == {2: 12, 1: 36, 0: 24}
    js = [c for c in poset.cells if poset.on_sphere(c)]
    jinf = [c for c in poset.cells if poset.at_infinity(c)]
    j0ub = [c for c in poset.cells if in_j0ub(poset, c)]
    assert len(js) == 24 and len(jinf) == 24 and len(j0ub) == 24
    # the refinement splits radial edges at the three corners, so the cells
    # with a 1-simplex second coordinate number 15, not 9
    assert len([c for c in js if len(c.sigma) == 2]) == 15
    # top-sigma sphere cells do biject with the maximal boundary simplices
    assert len([c for c in js if len(c.sigma) == 3]) == 9


def test_membership_against_brute_force_oracle(cubic_pair, diamond_pair, k3_pair):
    # re-derive membership from scratch and compare the cells and covers
    for pair in (cubic_pair, diamond_pair, k3_pair):
        for side in pair.sides:
            check_base_membership(side)


def check_base_membership(side):
    poset = side.base_poset
    delta = side.newton.polytope
    origin = side.newton.origin
    expected = set()
    for tau in side.ambient.simplices:
        if origin not in tau:
            continue
        gens = [p for p in tau if p != origin]
        face = brute_force_min_face(delta, gens)
        if face is None:
            continue
        for sigma in side.newton.simplices:
            if set(sigma) <= set(face.lattice_points):
                expected.add((tau, sigma))
    assert expected == {c.key for c in poset.cells} == set(poset.cell_index)
    # the cells' dims and the covers are consistent
    for c in poset.cells:
        assert c.dim == (side.rank - (len(c.tau) - 1)) - (len(c.sigma) - 1)
    for yi, xi in poset.covers:
        assert poset.cells[xi].dim - poset.cells[yi].dim == 1


def test_refined_membership_against_oracle(cubic_pair, diamond_pair, k3_pair):
    for pair in (cubic_pair, diamond_pair, k3_pair):
        for side in pair.sides:
            check_refined_membership(side)


def check_refined_membership(side):
    poset = side.refined_poset
    delta = side.newton.polytope
    o = side.newton.origin
    expected = set()
    for tau in side.ambient.simplices:
        if tau == (o,):
            continue
        gens = [p for p in tau if p != o]
        face = brute_force_min_face(delta, gens)
        if face is None:
            continue
        points = set(face.lattice_points)
        for sigma in side.newton.simplices:
            if o in sigma and (o in tau or len(sigma) == 1):
                continue
            if {p for p in sigma if p != o} <= points:
                expected.add((tau, sigma))
    assert expected == set(poset.cell_index)


def test_infinity_parts_agree(cubic_pair):
    base = cubic_pair.side_a.base_poset
    refined = cubic_pair.side_a.refined_poset
    base_inf = {c.key for c in base.cells if base.at_infinity(c)}
    refined_inf = {c.key for c in refined.cells if refined.at_infinity(c)}
    assert base_inf == refined_inf


def test_covers_change_dim_by_one(cubic_pair, k3_pair):
    for pair in (cubic_pair, k3_pair):
        for kind in ("base", "refined"):
            poset = pair.side_a.poset(kind)
            for (yi, xi) in poset.covers:
                assert poset.cells[xi].dim - poset.cells[yi].dim == 1


def test_cover_consistency(cubic_pair):
    # covers of a cell are exactly the admissible one-vertex growths
    poset = cubic_pair.side_a.base_poset
    for x in poset.cells:
        got = {poset.cells[yi].key for yi in poset.below[x.index]}
        expected = set()
        for tau2 in poset.ambient.cofaces.get(x.tau, ()):
            if (tau2, x.sigma) in poset.cell_index:
                expected.add((tau2, x.sigma))
        for sigma2 in poset.newton.cofaces.get(x.sigma, ()):
            if (x.tau, sigma2) in poset.cell_index:
                expected.add((x.tau, sigma2))
        assert got == expected


def _set_difference_covers(poset):
    """The covers and default signs recomputed from coface sets and set
    differences: per cell, its tau-cofaces and then its sigma-cofaces, each
    in ``cofaces`` order; the sign is (-1)^(position of the added vertex in
    the grown simplex), times (-1)^(rank - dim tau) when sigma grows."""
    covers, sign = [], {}
    for x in poset.cells:
        for tau2 in poset.ambient.cofaces[x.tau]:
            if (tau2, x.sigma) in poset.cell_index:
                covers.append((poset.cell_index[tau2, x.sigma], x.index))
        for sigma2 in poset.newton.cofaces[x.sigma]:
            if (x.tau, sigma2) in poset.cell_index:
                covers.append((poset.cell_index[x.tau, sigma2], x.index))
    for yi, xi in covers:
        y, x = poset.cells[yi], poset.cells[xi]
        if y.tau != x.tau:
            (new,) = set(y.tau) - set(x.tau)
            sign[yi, xi] = (-1) ** y.tau.index(new)
        else:
            (new,) = set(y.sigma) - set(x.sigma)
            codim_tau = poset.rank - (len(x.tau) - 1)
            sign[yi, xi] = (-1) ** (y.sigma.index(new) + codim_tau)
    return covers, sign


def test_covers_and_signs_match_set_difference_oracle(cubic_pair, k3_pair, cy3_pair):
    # covers are found on simplex ids with signs from stored positions; the
    # cover order, the signs and the lists below each cell are those of the
    # set-difference rule, on both posets of every side
    for pair in (cubic_pair, k3_pair, cy3_pair):
        for side in pair.sides:
            for kind in ("base", "refined"):
                poset = side.poset(kind)
                covers, sign = _set_difference_covers(poset)
                assert poset.covers == covers, kind
                assert poset.sign == sign, kind
                # each cover is one tuple, shared by the covers and the signs
                assert all(a is b for a, b in zip(poset.sign, poset.covers)), kind
                below = {c.index: [] for c in poset.cells}
                for yi, xi in covers:
                    below[xi].append(yi)
                assert poset.below == below, kind


def test_not_dual_pair_rejected():
    T = generate_central(LatticePolytope(CUBIC_VERTS))
    bad = generate_central(LatticePolytope([(1, 0), (0, 1), (-1, 0), (0, -1)]))
    with pytest.raises(NotDualPair):
        build_base_poset(bad, T)
    # the polytopes are dual, but a triangulation vertex lies outside its
    # polytope, where the pairing bound <u, x> <= 1 no longer holds
    Tdual = generate_central(LatticePolytope(CUBIC_DUAL_VERTS))
    outside = CentralTriangulation(
        T.polytope, T.boundary_simplices + [((2, -1), (3, -2))]
    )
    for ambient, newton in ((Tdual, outside), (outside, Tdual)):
        for build in (build_base_poset, build_refined_poset):
            with pytest.raises(NotDualPair, match="vertices outside"):
                build(ambient, newton)


def test_pair_rejects_invalid_triangulation():
    from tropmirror.errors import InputError
    from tropmirror.pairs import MirrorPair

    P = LatticePolytope(CUBIC_VERTS)
    T = generate_central(P)
    Tdual = generate_central(P.dual())
    broken = CentralTriangulation(P, T.boundary_simplices[1:])
    with pytest.raises(InputError):
        MirrorPair(broken, Tdual)


def test_side_refuses_an_unknown_poset_kind(monkeypatch):
    # a kind other than "base" or "refined" is refused as CellPoset refuses
    # it, before a poset is built or cached; the two kinds still build once
    from tropmirror import pairs
    from tropmirror.mirror import sphere_cycle

    side = pairs.MirrorPair(
        generate_central(LatticePolytope(CUBIC_VERTS)),
        generate_central(LatticePolytope(CUBIC_DUAL_VERTS)),
    ).side_a
    built = []
    for name in ("build_base_poset", "build_refined_poset"):
        real = getattr(pairs, name)
        monkeypatch.setattr(pairs, name, lambda *a, real=real: built.append(real) or real(*a))
    for kind in ("refind", "Base", None):
        with pytest.raises(ValueError, match=str(kind)):
            side.poset(kind)
    with pytest.raises(ValueError, match="bogus"):
        sphere_cycle(side, kind="bogus")
    assert built == [] and side._posets == {}
    assert side.poset("refined") is side.refined_poset
    assert side.poset("base") is side.base_poset
    assert built == [build_refined_poset, build_base_poset]


def test_pairing_identity_on_sphere_cells(cubic_pair, k3_pair):
    # on first-kind cells every stratum generator pairs to 1 with the
    # boundary part of sigma
    for pair in (cubic_pair, k3_pair):
        for side in pair.sides:
            poset = side.refined_poset
            o = side.newton.origin
            for c in poset.cells:
                if not first_kind(poset, c):
                    continue
                for u in c.tau:
                    for x in c.sigma:
                        if x != o:
                            assert dot(u, x) == 1


def test_base_mirror_map_is_dim_preserving_order_iso(cubic_pair):
    # on the part at infinity the refined map is the base map
    # (tau, sigma) -> (sigma_hat, tau_inf)
    side_a, side_b = cubic_pair.sides
    pa = side_a.base_poset
    pb = side_b.base_poset
    ja = side_a.refined_poset
    jb = side_b.refined_poset
    inf_a = [c for c in pa.cells if pa.at_infinity(c)]
    image = {}
    for c in inf_a:
        key = mirror_cell_refined(ja, c.key)
        assert key == (pa.newton.sigma_hat(c.sigma), pa.ambient.sigma_infty(c.tau))
        assert key in pb.cell_index
        target = pb.cells[pb.cell_index[key]]
        assert pb.at_infinity(target)
        assert target.dim == c.dim
        image[c.key] = key
        # involution
        assert mirror_cell_refined(jb, key) == c.key
    # order preservation, checked exhaustively on comparable pairs
    for c in inf_a:
        for d in inf_a:
            le = set(d.tau) <= set(c.tau) and set(d.sigma) <= set(c.sigma)
            ic, id_ = image[c.key], image[d.key]
            le_img = set(id_[0]) <= set(ic[0]) and set(id_[1]) <= set(ic[1])
            assert le == le_img


def test_refined_mirror_map(cubic_pair, k3_pair):
    for pair in (cubic_pair, k3_pair):
        side_a, side_b = pair.sides
        ja = side_a.refined_poset
        jb = side_b.refined_poset
        for c in ja.cells:
            key = mirror_cell_refined(ja, c.key)
            assert key in jb.cell_index
            target = jb.cells[jb.cell_index[key]]
            assert target.dim == c.dim
            # involution, case by case
            assert mirror_cell_refined(jb, key) == c.key
            # sphere part maps to sphere part, infinity to infinity
            assert ja.on_sphere(c) == jb.on_sphere(target)
            assert ja.at_infinity(c) == jb.at_infinity(target)
        # the boundary x boundary case is the swap
        for c in ja.cells:
            if in_j0ub(ja, c):
                assert mirror_cell_refined(ja, c.key) == (c.sigma, c.tau)
    # cells outside the refined poset are rejected
    from tropmirror.errors import NotInJ

    ja = cubic_pair.side_a.refined_poset
    with pytest.raises(NotInJ):
        mirror_cell_refined(ja, (((0, 0),), ((0, 0),)))


def diamonds_balanced(poset, sig):
    """Whether the four cover signs of every length-2 interval multiply to
    -1 under ``sig``: each interval [y, x] found by walking ``poset.below``
    two steps down from x, apart from the package's diamond map."""
    for xi, lows in poset.below.items():
        product = {}
        for zi in lows:
            for yi in poset.below[zi]:
                product[yi] = product.get(yi, 1) * sig[yi, zi] * sig[zi, xi]
        if any(p != -1 for p in product.values()):
            return False
    return True


def test_default_signature_balanced_and_solver_agrees(cubic_pair):
    for kind in ("base", "refined"):
        poset = cubic_pair.side_a.poset(kind)
        assert diamonds_balanced(poset, poset.sign)
        solved = balanced_signature(poset)
        assert diamonds_balanced(poset, solved)
        rng = random.Random(17)
        order = list(range(len(poset.covers)))
        rng.shuffle(order)
        solved2 = balanced_signature(poset, variable_order=order)
        assert diamonds_balanced(poset, solved2)


def test_gauge_twist_stays_balanced(cubic_pair):
    poset = cubic_pair.side_a.base_poset
    rng = random.Random(23)
    gauge = {c.index: rng.choice((1, -1)) for c in poset.cells}
    twisted = gauge_twist(poset, poset.sign, gauge)
    assert diamonds_balanced(poset, twisted)
    # the check can fail: one flipped cover sign unbalances a diamond
    cover = diamond_cover(poset)
    assert not diamonds_balanced(poset, {**twisted, cover: -twisted[cover]})


# -- structural verification rejects broken posets ------------------------------

def corruptible(poset):
    """A shallow copy whose covers and signs can be broken without touching
    the shared fixture."""
    bad = copy.copy(poset)
    bad.below = {xi: list(lows) for xi, lows in poset.below.items()}
    bad.sign = dict(poset.sign)
    return bad


def diamond_cover(poset):
    """A cover (z, x) with some y below z, so that it lies in a diamond."""
    return next(
        (zi, xi)
        for xi, lows in poset.below.items()
        for zi in lows
        if poset.below[zi]
    )


def test_verify_rejects_flipped_sign(cubic_pair):
    bad = corruptible(cubic_pair.side_a.base_poset)
    bad._verify()
    cover = diamond_cover(bad)
    bad.sign[cover] = -bad.sign[cover]
    with pytest.raises(PosetInvalid, match="unbalanced"):
        bad._verify()


def test_verify_rejects_dropped_cover(cubic_pair):
    bad = corruptible(cubic_pair.side_a.base_poset)
    zi, xi = diamond_cover(bad)
    bad.below[xi].remove(zi)
    with pytest.raises(PosetInvalid):
        bad._verify()


def hand_built(cells, covers, sign):
    """A CellPoset over the given cells (sorted by grade) and covers."""
    poset = CellPoset.__new__(CellPoset)
    poset.cells = cells
    for i, c in enumerate(cells):
        c.index = i
    poset.covers = covers
    poset.below = {i: [y for (y, x) in covers if x == i] for i in range(len(cells))}
    poset.sign = sign
    return poset


def test_verify_rejects_comparable_cells_without_chain():
    # two comparable cells three grades apart and no covers at all
    o = (0, 0, 0)
    top = Cell((o,), (o,), 3)
    bottom = Cell((o,), (o, (1, 0, 0), (0, 1, 0), (0, 0, 1)), 3)
    assert top.dim - bottom.dim == 3
    bad = hand_built([bottom, top], [], {})
    with pytest.raises(PosetInvalid, match="no chain between"):
        bad._verify()


def test_verify_rejects_interval_with_one_interior_cell():
    # a chain y < z < x whose single path carries sign -1: balanced and
    # joined by covers, but not thin
    o = (0, 0)
    cells = [
        Cell((o,), (o, (1, 0), (0, 1)), 2),
        Cell((o,), (o, (1, 0)), 2),
        Cell((o,), (o,), 2),
    ]
    bad = hand_built(cells, [(0, 1), (1, 2)], {(0, 1): -1, (1, 2): 1})
    with pytest.raises(PosetInvalid, match="has 1 interior elements"):
        bad._verify()


O2, E1, E2 = (0, 0), (1, 0), (0, 1)


def fan_interval(chain_signs):
    """[y, x] in rank 2 with one interior cell per entry of chain_signs,
    the sign of the chain through it, carried by its lower cover."""
    mids = [
        Cell((O2,), (O2, E1), 2),
        Cell((O2,), (O2, E2), 2),
        Cell((O2, E1), (O2,), 2),
        Cell((O2, E2), (O2,), 2),
    ][: len(chain_signs)]
    cells = [Cell((O2,), (O2, E1, E2), 2), *mids, Cell((O2,), (O2,), 2)]
    top = len(cells) - 1
    covers, sign = [], {}
    for z, s in enumerate(chain_signs, start=1):
        covers += [(0, z), (z, top)]
        sign[0, z], sign[z, top] = s, 1
    return hand_built(cells, covers, sign)


@pytest.mark.parametrize(
    "chain_signs, message",
    [
        ((1, -1, -1), "has 3 interior elements"),
        ((1, -1, 1, -1), "has 4 interior elements"),
    ],
)
def test_verify_rejects_interval_with_extra_interior_cells(chain_signs, message):
    # the one-pass count sees three chains, one of sign +1 and two of -1,
    # or two of each sign, and the diamond map words it
    bad = fan_interval(chain_signs)
    assert not bad._thin_and_balanced()
    with pytest.raises(PosetInvalid, match=message):
        bad._verify()


def test_verify_rejects_two_one_chain_intervals_of_opposite_signs():
    # [y1, x] and [y2, x] each hold one cell, the first reached by a chain
    # of sign +1 and the second by one of -1, and both covers into x carry
    # -1: one chain of each sign below x, but into different intervals
    cells = [
        Cell((O2, E2), (O2, E1), 2),
        Cell((O2, E1), (O2, E2), 2),
        Cell((O2,), (O2, E1), 2),
        Cell((O2,), (O2, E2), 2),
        Cell((O2,), (O2,), 2),
    ]
    sign = {(0, 2): -1, (1, 3): 1, (2, 4): -1, (3, 4): -1}
    bad = hand_built(cells, list(sign), sign)
    assert not bad._thin_and_balanced()
    with pytest.raises(PosetInvalid, match="has 1 interior elements"):
        bad._verify()


def test_verify_rejects_sign_outside_plus_minus_one(cubic_pair):
    # a 0 put where a -1 was must not be counted as a -1
    bad = corruptible(cubic_pair.side_a.base_poset)
    cover = next(
        (zi, xi)
        for xi, lows in bad.below.items()
        for zi in lows
        if bad.below[zi] and bad.sign[zi, xi] == -1
    )
    bad.sign[cover] = 0
    assert not bad._thin_and_balanced()
    with pytest.raises(PosetInvalid, match="unbalanced"):
        bad._verify()


def test_verify_rejects_flipped_sign_on_cy3(cy3_pair):
    # one flipped cover sign among side b's 6,705 base cells
    bad = corruptible(cy3_pair.side_b.base_poset)
    assert bad._thin_and_balanced()
    cover = diamond_cover(bad)
    bad.sign[cover] = -bad.sign[cover]
    assert not bad._thin_and_balanced()
    with pytest.raises(PosetInvalid, match="unbalanced"):
        bad._verify()


def test_verify_rejects_cover_listed_twice(cubic_pair):
    bad = corruptible(cubic_pair.side_a.base_poset)
    zi, xi = diamond_cover(bad)
    bad.below[xi].append(zi)
    assert not bad._thin_and_balanced()
    with pytest.raises(PosetInvalid, match="interior elements"):
        bad._verify()


def test_diamond_map_oracle_and_cell_order(cubic_pair, k3_pair, cy3_pair):
    # the diamond map as an oracle for the one-pass count: two interior
    # cells in every length-2 interval and a balanced default signature;
    # and the cells, placed without a sort, are in (dim, tau, sigma) order
    for pair in (cubic_pair, k3_pair, cy3_pair):
        for side in pair.sides:
            for kind in ("base", "refined"):
                poset = side.poset(kind)
                diamonds = _diamonds(poset)
                assert diamonds, kind
                assert all(len(mids) == 2 for mids in diamonds.values()), kind
                assert diamonds_balanced(poset, poset.sign), kind
                order = sorted(poset.cells, key=lambda c: (c.dim, c.tau, c.sigma))
                assert poset.cells == order, kind
                assert [c.index for c in poset.cells] == list(range(len(order)))
