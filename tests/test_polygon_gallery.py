"""Every reflexive polygon found in a small box drives the full pipeline.

The n = 1 theory is completely checkable: every dual pair of reflexive
polygons carries the elliptic-curve table [[1,1],[1,1]] on both sides, and
for every divisor class the mirror-class verdict must agree with the
component count of the patchworked curve.  The box search below finds
representatives of the reflexive-polygon classes (up to the dihedral
symmetries of the box) and runs all of them.
"""

from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import divisor_class_count, integer_lift, phase_masks, rows_betti, rows_euler
from tropmirror.intlinalg import sparse_elementary_divisors
from tropmirror.lattice import LatticePolytope
from tropmirror.pairs import MirrorPair
from tropmirror.patchwork import (
    PhaseCell,
    PhaseData,
    PhaseFrame,
    RealComplex,
    connectedness_verdict,
    divisor_class_representatives,
    mask_to_rays,
    real_betti,
    sample_divisor_classes,
    signs_from_divisor,
)
from tropmirror.triangulate import generate_central, validate


def _dihedral(v):
    x, y = v
    return [
        (x, y), (-x, y), (x, -y), (-x, -y),
        (y, x), (-y, x), (y, -x), (-y, -x),
    ]


def _strict_hull_size(points):
    """Number of strict vertices of the convex hull of distinct 2-D points
    (Andrew's monotone chain; collinear points are dropped)."""
    pts = sorted(points)

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])
            ) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return len(chain(pts)) + len(chain(reversed(pts)))


def reflexive_polygons_in_box(bound=2):
    """Distinct (up to box symmetries) reflexive polygons with vertices in
    the given box.  Boundary lattice points are primitive, so only primitive
    candidates matter."""
    candidates = [
        (x, y)
        for x in range(-bound, bound + 1)
        for y in range(-bound, bound + 1)
        if (x, y) != (0, 0) and gcd(abs(x), abs(y)) == 1
    ]
    found = {}
    for k in (3, 4, 5, 6):
        for sub in combinations(candidates, k):
            if _strict_hull_size(sub) != k:
                continue  # some point is not a vertex: its hull comes up elsewhere
            try:
                P = LatticePolytope(sub)
            except ValueError:
                continue
            if set(P.vertices) != set(sub):
                continue  # the same hull shows up from its own vertex set
            if not P.is_reflexive():
                continue
            canon = min(
                tuple(sorted(t[i] for t in map(_dihedral, P.vertices)))
                for i in range(8)
            )
            if canon not in found:
                found[canon] = P
    return [found[k] for k in sorted(found)]


@pytest.fixture(scope="module")
def gallery():
    polys = reflexive_polygons_in_box()
    assert len(polys) >= 12  # the classification has 16 classes in total
    return polys


@pytest.fixture(scope="module")
def gallery_sides(gallery):
    """The Newton side of each gallery polygon's mirror pair."""
    return [MirrorPair(generate_central(P), generate_central(P.dual())).side_a
            for P in gallery]


def test_gallery_pairs_are_elliptic(gallery):
    for P in gallery:
        T = generate_central(P)
        Tdual = generate_central(P.dual())
        assert validate(T).ok and validate(Tdual).ok
        pair = MirrorPair(T, Tdual)
        for side in pair.sides:
            table = side.hodge_table("z")
            assert table["ranks"] == [[1, 1], [1, 1]], P
            assert all(t == [] for row in table["torsion"] for t in row)


def test_gallery_transfer_and_first_differential(gallery, gallery_sides):
    # involution of the class transfer and the first-differential/divisor
    # identity across the whole polygon landscape
    from tropmirror.mirror import divisor_restriction, sphere_cycle, transfer_class
    from tropmirror.patchwork import delta1

    for P, side in zip(gallery, gallery_sides):
        n = side.n
        for p in range(n + 1):
            cx = side.complex("refined", "multitangent", p)
            for q in range(n + 1):
                for rep in cx.f2_homology_generators(q)[:2]:
                    gamma = cx.packed_to_chain(rep, q)
                    out = transfer_class(side, gamma, p)
                    back = transfer_class(side.mirror, out, n - p)
                    diff = cx.chain_to_packed(back, q) ^ rep
                    assert cx.f2_is_boundary(diff, q), (P, p, q)
        cxm = side.mirror.complex("refined", "multitangent", n - 1)
        S = sphere_cycle(side)
        masks = sample_divisor_classes(side, 4, seed=5)
        for mask in masks:
            rays = mask_to_rays(side, mask)
            eps = signs_from_divisor(side, rays)
            d1S = delta1(side, eps, S, 0)
            moved = transfer_class(side, d1S, 1) if d1S else {}
            dx = divisor_restriction(side, rays)
            v1 = cxm.chain_to_packed(moved, n - 1) if moved else 0
            v2 = cxm.chain_to_packed(dx, n - 1) if dx else 0
            assert cxm.f2_is_boundary(v1 ^ v2, n - 1), (P, rays)


def test_gallery_verdicts_match_components(gallery, gallery_sides):
    for P, side in zip(gallery, gallery_sides):
        nrays = len(side.newton.rays())
        if nrays <= 7:
            masks = divisor_class_representatives(side)
        else:
            masks = sample_divisor_classes(side, 16, seed=1)
        for mask in masks:
            rays = mask_to_rays(side, mask)
            verdict = connectedness_verdict(side, rays)
            pd = PhaseData(side, side.base_poset, signs_from_divisor(side, rays))
            b0 = RealComplex(pd).component_count()
            assert b0 in (1, 2), (P, rays)
            assert (verdict == "connected") == (b0 == 1), (P, rays)


def test_gallery_divisor_class_counts(gallery_sides):
    # one representative per F2 divisor class on both sides of every pair
    for side in gallery_sides:
        for s in (side, side.mirror):
            assert len(divisor_class_representatives(s)) == divisor_class_count(s), s.newton


@settings(max_examples=64, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_arbitrary_signs_on_gallery_curves(gallery_sides, data):
    # any signs on the lattice points of any gallery polygon, not only
    # divisor-induced ones: the patchworked curve has genus 1, so by
    # Harnack it is one or two circles (b0 == b1 in {1, 2}), and the sign
    # complex has Euler characteristic 0
    side = gallery_sides[data.draw(st.integers(0, len(gallery_sides) - 1), label="polygon")]
    points = sorted(side.newton.polytope.lattice_points)
    bits = data.draw(st.lists(st.integers(0, 1), min_size=len(points), max_size=len(points)),
                     label="signs")
    eps = dict(zip(points, bits))
    b0, b1 = real_betti(side, eps)  # both routes and the component count agree
    assert b0 == b1 and b0 in (1, 2), (b0, b1)
    assert rows_euler(PhaseData(side, side.base_poset, eps).sign_complex()) == 0


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_cross_ring_ranks_on_gallery_complexes(gallery_sides, data):
    # either side of any gallery pair, on either poset: on a fresh
    # multitangent complex per p, the cleared F2 rank of every boundary is
    # its number of odd elementary divisors and its Q rank the number of
    # divisors, and the F2, Q and Z tables agree, with no torsion
    side = gallery_sides[data.draw(st.integers(0, len(gallery_sides) - 1), label="polygon")]
    side = data.draw(st.sampled_from([side, side.mirror]), label="side")
    poset = side.poset(data.draw(st.sampled_from(["base", "refined"]), label="poset"))
    for p in range(side.rank):
        cx = side.evaluator.chain_complex(poset, "multitangent", p)
        hf, hq = cx.homology("f2"), cx.homology("q")
        for q, rows in cx.D.items():
            divisors = sparse_elementary_divisors(rows)
            assert cx.rank_boundary(q, "f2") == sum(d & 1 for d in divisors), (p, q)
            assert cx.rank_boundary(q, "q") == len(divisors), (p, q)
        hz = cx.homology("z")
        assert not hz.has_torsion(), p
        ranks = [[h.rank(q) for q in cx.degrees] for h in (hf, hq, hz)]
        assert ranks[0] == ranks[1] == ranks[2], p


@settings(max_examples=48, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_restricted_sign_complex_matches_per_class_assembly(cubic_pair, gallery_sides, data):
    # any signs on the cubic or a gallery polygon, on either poset: the
    # frame's point rows restricted to the phase points give the F2 Betti
    # numbers and Euler characteristic of the signed integer complex
    # assembled for this class alone, every memoized PhaseCell equals one
    # that a fresh frame builds, and the frame's point row of each of its
    # points lies in the phase points of the degree below: the span the
    # sign complex keeps is closed under the boundary
    sides = [cubic_pair.side_a] + gallery_sides
    side = sides[data.draw(st.integers(0, len(sides) - 1), label="polygon")]
    kind = data.draw(st.sampled_from(["base", "refined"]), label="poset")
    points = sorted(side.newton.polytope.lattice_points)
    bits = data.draw(st.lists(st.integers(0, 1), min_size=len(points), max_size=len(points)),
                     label="signs")
    eps = dict(zip(points, bits))
    poset = side.poset(kind)
    pd = PhaseData(side, poset, eps)
    cx, oracle = pd.sign_complex(), integer_lift(pd)
    h = oracle.homology("f2")
    prows, offset, masks = pd.frame.point_rows, pd.frame.offset, phase_masks(pd)
    assert rows_betti(prows, cx) == [h.rank(q) for q in oracle.degrees]
    assert rows_euler(cx) == oracle.euler_characteristic()
    fresh = PhaseFrame(side.evaluator, poset)
    for c, (_, _, edges) in zip(poset.cells, fresh.cells):
        memo = pd.phase_cell(c.index)
        # the same-sign edges, read off the signs
        bits = [bit for ((a, b), _, _), bit in zip(edges, fresh.edge_bits[c.index])
                if eps[a] == eps[b]]
        built = fresh.cell_phase(c.index, sum(bits))
        # levels, lifts, frame positions and the real complex's incidences
        # are filled on use, so earlier examples may have filled the
        # memoized record's; the gather above filled the positions of each
        # record with edges, and of no other
        filled = ("levels", "lifts", "up", "down", "positions")
        slots = [a for a in PhaseCell.__slots__ if a not in filled]
        assert [getattr(memo, a) for a in slots] == [getattr(built, a) for a in slots], c.index
        gathered = [offset[c.index] + s for s in memo.points] if edges else None
        assert memo.positions == gathered, c.index
        rows = prows.get(c.dim)
        for s in memo.points if rows else ():  # 0-cells have no rows
            assert rows[offset[c.index] + s] & ~masks[c.dim - 1] == 0, (c.index, s)
