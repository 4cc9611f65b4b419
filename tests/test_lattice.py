import gc
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CUBIC_VERTS
from tropmirror.errors import NotReflexive
from tropmirror.intlinalg import dot
from tropmirror.lattice import LatticePolytope


def test_cubic_is_reflexive(cubic):
    assert cubic.is_reflexive()
    assert cubic.interior_lattice_points() == [(0, 0)]


def test_unit_square_not_reflexive():
    P = LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert not P.is_reflexive()


def test_twice_square_not_reflexive():
    # facet x = 2 gives <v, .> <= 2 with no integral rescaling
    P = LatticePolytope([(2, 2), (2, -2), (-2, 2), (-2, -2)])
    assert not P.is_reflexive()


def test_cubic_dual(cubic, cubic_dual):
    assert cubic.dual() == cubic_dual
    assert cubic.dual().dual() == cubic


def test_dual_not_reflexive_raises():
    with pytest.raises(NotReflexive):
        LatticePolytope([(0, 0), (1, 0), (0, 1)]).dual()


def test_cube_dual_is_octahedron_brute_force(cube, octahedron):
    assert cube.dual() == octahedron
    assert cube.dual().dual() == cube
    # independent oracle: enumerate all lattice points u in a box with
    # <u, v> <= 1 for every cube point v, and compare hulls
    box = range(-2, 3)
    sat = [
        (x, y, z)
        for x in box
        for y in box
        for z in box
        if all(dot((x, y, z), v) <= 1 for v in cube.lattice_points)
    ]
    oracle = LatticePolytope(sat)
    assert oracle == octahedron


def test_lattice_point_counts(cubic, cube):
    assert len(cubic.lattice_points) == 10
    assert len(cube.lattice_points) == 27


def test_polytope_with_lattice_points_is_freed_without_the_collector():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        P = LatticePolytope(CUBIC_VERTS)
        assert P.lattice_points[:3] == ((-1, -1), (-1, 0), (-1, 1))
        del P
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_face_counts_match_normal_fan(cubic, cubic_dual):
    # the normal fan of a reflexive polytope is the fan over the faces of its
    # dual: d-faces match (rank - d)-cones, i.e. (rank - 1 - d)-faces of the
    # dual, and the whole polytope matches the zero cone
    n = cubic.rank
    for d in range(n):
        assert len(cubic.faces_of_dim(d)) == len(cubic_dual.faces_of_dim(n - 1 - d))
    assert len(cubic.faces_of_dim(n)) == 1


def test_reflexive_pairing_bound(cubic, cubic_dual):
    # the bound the two inequality systems actually give is <u, v> <= 1
    # (the pairing is unbounded below: <(-1,0), (2,-1)> = -2 already here)
    for u in cubic_dual.lattice_points:
        for v in cubic.lattice_points:
            assert dot(u, v) <= 1


def test_vertices_detected():
    P = LatticePolytope([(0, 0), (2, 0), (0, 2), (1, 1), (2, 2)])
    assert (1, 1) not in P.vertices
    assert set(P.vertices) == {(0, 0), (2, 0), (0, 2), (2, 2)}


def test_random_3d_face_lattices_are_spheres():
    # the boundary complex of any 3-polytope satisfies V - E + F = 2, and
    # proper faces nest consistently; a wrong or missing facet breaks this
    import random

    rng = random.Random(123)
    built = 0
    while built < 15:
        pts = {
            (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
            for _ in range(rng.randint(4, 10))
        }
        try:
            P = LatticePolytope(sorted(pts), 3)
        except ValueError:
            continue
        built += 1
        f = [len(P.faces_of_dim(d)) for d in range(3)]
        assert f[0] - f[1] + f[2] == 2, (pts, f)
        assert f[0] == len(P.vertices)
        # every proper face is an intersection of the facets containing it
        for face in P.faces:
            if face.dim == 3:
                continue
            pts_common = None
            for i in face.facet_indices:
                v, c = P.facets[i]
                on = {p for p in P.lattice_points if sum(a * b for a, b in zip(v, p)) == c}
                pts_common = on if pts_common is None else pts_common & on
            assert pts_common == set(face.lattice_points)


# -- the facet search against a per-subset brute force ---------------------------

def _det(m):
    """Determinant by cofactor expansion along the first row."""
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
    )


def _brute_force_facets(points):
    """(primitive outer normal, offset) of every facet of conv(points), sorted.

    Every rank-subset of the points is tried on its own: its normal is the
    cofactor vector of its difference rows, zero when it is degenerate, and
    the hyperplane is kept when every point lies on one side of it and some
    point off it.  Empty when the points are not full-dimensional.
    """
    pts = sorted(set(points))
    r = len(pts[0])
    facets = set()
    for sub in combinations(pts, r):
        rows = [[a - b for a, b in zip(p, sub[0])] for p in sub[1:]]
        v = [(-1) ** j * _det([row[:j] + row[j + 1 :] for row in rows]) for j in range(r)]
        g = gcd(*v)
        if g == 0:
            continue
        v = tuple(a // g for a in v)
        c = dot(v, sub[0])
        vals = [dot(v, p) for p in pts]
        if max(vals) == c > min(vals):
            facets.add((v, c))
        elif min(vals) == c < max(vals):
            facets.add((tuple(-a for a in v), -c))
    return sorted(facets)


def _spans(vectors, r):
    """Whether the vectors span a rank-r space: some r of them are independent."""
    return any(_det([list(v) for v in sub]) for sub in combinations(vectors, r))


CUBE4_VERTS = list(product((-1, 1), repeat=4))
CELL16_VERTS = [tuple(s * (i == j) for j in range(4)) for i in range(4) for s in (1, -1)]
# the quintic pair (Batyrev): the Newton simplex of the quintic threefold,
# with 126 lattice points, and its dual, the unimodular simplex
QUINTIC_VERTS = [
    (4, -1, -1, -1), (-1, 4, -1, -1), (-1, -1, 4, -1), (-1, -1, -1, 4),
    (-1, -1, -1, -1),
]
QUINTIC_DUAL_VERTS = [
    (-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1), (1, 1, 1, 1),
]


def test_rank_four_facets_match_brute_force():
    for points, dual_points in (
        (CUBE4_VERTS, CELL16_VERTS),
        (CELL16_VERTS, CUBE4_VERTS),
        (QUINTIC_VERTS, QUINTIC_DUAL_VERTS),
        (QUINTIC_DUAL_VERTS, QUINTIC_VERTS),
    ):
        P = LatticePolytope(points)
        assert P.facets == _brute_force_facets(points)
        assert P.vertices == tuple(sorted(points))
        assert P.dual() == LatticePolytope(dual_points)


@st.composite
def _point_sets(draw):
    r = draw(st.sampled_from((2, 3, 4)))
    point = st.tuples(*[st.integers(-3, 3)] * r)
    return draw(st.lists(point, min_size=r + 1, max_size=10, unique=True))


@settings(max_examples=80, deadline=None)
@given(_point_sets())
def test_facet_search_matches_brute_force(points):
    expected = _brute_force_facets(points)
    if not expected:
        with pytest.raises(ValueError, match="not full-dimensional"):
            LatticePolytope(points)
        return
    P = LatticePolytope(points)
    assert P.facets == expected
    # a vertex lies on rank facets with independent normals; the brute force
    # facets decide which points those are
    for p in set(points):
        on = [v for v, c in expected if dot(v, p) == c]
        assert (p in P.vertices) == _spans(on, P.rank)
