from itertools import combinations, product

import pytest

from tropmirror.errors import NotInTriangulation, RankUnsupported
from tropmirror.intlinalg import det
from tropmirror.lattice import LatticePolytope
from tropmirror.triangulate import (
    CentralTriangulation,
    generate_central,
    normalized_volume,
    validate,
)

from conftest import CUBE_VERTS, CUBIC_VERTS, OCTA_VERTS, cy3_triangulations


@pytest.fixture(scope="module")
def cubic_tri():
    return generate_central(LatticePolytope(CUBIC_VERTS))


@pytest.fixture(scope="module")
def cube_tri():
    return generate_central(LatticePolytope(CUBE_VERTS))


@pytest.fixture(scope="module")
def octa_tri():
    return generate_central(LatticePolytope(OCTA_VERTS))


def test_cubic_has_nine_maximal_triangles(cubic_tri):
    # 9 boundary lattice points on a reflexive polygon: 9 primitive segments
    assert len(cubic_tri.boundary_simplices) == 9


def test_octahedron_has_eight_tetrahedra(octa_tri):
    assert len(octa_tri.boundary_simplices) == 8


def test_cube_has_48_tetrahedra(cube_tri):
    # 6 facets x 8 unimodular triangles per 3x3 lattice square
    assert len(cube_tri.boundary_simplices) == 48


def test_generated_triangulations_validate(cubic_tri, cube_tri, octa_tri):
    for tri in (cubic_tri, cube_tri, octa_tri):
        report = validate(tri)
        assert report.ok, report.entries


def test_vertices_are_all_lattice_points(cubic_tri, cube_tri):
    for tri in (cubic_tri, cube_tri):
        assert set(tri.vertices) == set(tri.polytope.lattice_points)


def test_merged_segment_caught():
    P = LatticePolytope(CUBIC_VERTS)
    good = generate_central(P)
    # merge the two segments at (-1, 0): the result skips a lattice point
    bad = []
    for s in good.boundary_simplices:
        if (-1, 0) in s:
            continue
        bad.append(s)
    bad.append(((-1, -1), (-1, 1)))
    report = validate(CentralTriangulation(P, bad))
    codes = report.codes()
    assert "NotUnimodular" in codes
    assert "UnusedLatticePoint" in codes


def test_non_central_input_caught():
    P = LatticePolytope(CUBIC_VERTS)
    good = generate_central(P)
    bad = list(good.boundary_simplices)
    bad[0] = ((0, 0), (-1, -1))  # passes through the origin
    report = validate(CentralTriangulation(P, bad))
    assert "NotCentral" in report.codes()


def test_rank_four_unsupported():
    # the 4-cube is reflexive but generation is restricted to rank <= 3
    verts = [
        (a, b, c, d)
        for a in (-1, 1)
        for b in (-1, 1)
        for c in (-1, 1)
        for d in (-1, 1)
    ]
    with pytest.raises(RankUnsupported):
        generate_central(LatticePolytope(verts))


def _cross_polytope_4():
    """The 16-cell and its central triangulation: one of +-e_i for each i."""
    units = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    P = LatticePolytope([tuple(s * x for x in u) for u in units for s in (1, -1)])
    simplices = [
        [tuple(s[i] * x for x in units[i]) for i in range(4)]
        for s in product((1, -1), repeat=4)
    ]
    return P, simplices


def test_four_cube_normalized_volume():
    verts = list(product((-1, 1), repeat=4))
    assert normalized_volume(LatticePolytope(verts)) == 384


def test_rank_four_covering_checked():
    P, simplices = _cross_polytope_4()
    report = validate(CentralTriangulation(P, simplices))
    assert report.ok, report.entries
    assert report.notes == ["convexity: not checked (not required downstream)"]
    # a duplicated boundary simplex covers part of the sphere twice
    report = validate(CentralTriangulation(P, simplices + simplices[:1]))
    assert "NotCovering" in report.codes()


def test_sigma_hat_and_infty(cubic_tri):
    o = cubic_tri.origin
    radial = ((-1, -1), o)
    assert radial in cubic_tri.simplices
    # 0 in sigma: sigma_hat = sigma
    assert cubic_tri.sigma_hat(radial) == tuple(sorted(radial))
    assert cubic_tri.sigma_infty(radial) == ((-1, -1),)
    # 0 not in sigma: sigma_infty = sigma
    seg = cubic_tri.boundary_simplices[0]
    assert cubic_tri.sigma_infty(seg) == seg
    assert set(cubic_tri.sigma_hat(seg)) == set(seg) | {o}
    # the zero simplex has no boundary part
    with pytest.raises(NotInTriangulation):
        cubic_tri.sigma_infty((o,))


def test_volume_partition(cubic_tri, cube_tri, octa_tri):
    for tri in (cubic_tri, cube_tri, octa_tri):
        total = sum(
            abs(det([list(p) for p in s])) for s in tri.boundary_simplices
        )
        assert total == normalized_volume(tri.polytope)


def test_polygon_triangulator_random_property():
    # full lattice triangulations of random convex polygons: all points
    # used, every triangle empty (area 1/2), total area matches
    import random

    from tropmirror.triangulate import _cross, _triangulate_polygon

    rng = random.Random(77)
    for _ in range(25):
        pts = {(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(rng.randint(4, 12))}
        try:
            P = LatticePolytope(sorted(pts), 2)
        except ValueError:
            continue
        lattice = sorted(P.lattice_points)
        tris = _triangulate_polygon(lattice)
        used = set()
        double_area = 0
        for t in tris:
            used.update(t)
            a = _cross(t[0], t[1], t[2])
            assert abs(a) == 1, t  # empty lattice triangle
            double_area += abs(a)
        assert used == set(lattice)
        assert double_area == _polygon_double_area(P)


def _polygon_double_area(P):
    from tropmirror.triangulate import _cross, _hull_ccw

    hull = _hull_ccw(list(P.vertices))
    return sum(
        abs(_cross(hull[0], a, b)) for a, b in zip(hull[1:], hull[2:])
    )


def test_json_roundtrip(cubic_tri):
    data = cubic_tri.to_dict()
    back = CentralTriangulation.from_dict(data)
    assert back.boundary_simplices == cubic_tri.boundary_simplices
    assert back.polytope == cubic_tri.polytope


def _reference_closure(tri):
    """The face closure with every face re-sorted on its own: each subset of
    each top simplex, in unsorted input order, is sorted again, then grouped
    by dimension and linked to its cofaces by dropping one vertex."""
    simplices = set()
    for beta in tri.boundary_simplices:
        top = (tri.origin,) + beta[::-1]
        for k in range(1, len(top) + 1):
            for face in combinations(top, k):
                simplices.add(tuple(sorted(tuple(p) for p in face)))
    by_dim = {}
    for s in simplices:
        by_dim.setdefault(len(s) - 1, set()).add(s)
    cofaces = {s: set() for s in simplices}
    for s in simplices:
        if len(s) >= 2:
            for i in range(len(s)):
                cofaces[s[:i] + s[i + 1 :]].add(s)
    return simplices, by_dim, cofaces


def test_face_closure_matches_reference(cube_tri, octa_tri):
    for tri in (cube_tri, octa_tri, *cy3_triangulations()):
        simplices, by_dim, cofaces = _reference_closure(tri)
        assert tri.simplices == simplices
        assert tri.by_dim == by_dim
        assert tri.cofaces == cofaces
        assert tri.vertices == sorted(s[0] for s in by_dim[0])
