"""Input generators for the benchmark.

Everything here is built from the seed or from fixed constructions, never
read from the repository's tests, so a change to the tests cannot change
what the benchmark runs.
"""

import json
from itertools import combinations, permutations
from math import factorial, gcd

from tropmirror import triangulate
from tropmirror.lattice import LatticePolytope
from tropmirror.triangulate import CentralTriangulation

CUBIC_VERTS = [(-1, -1), (-1, 2), (2, -1)]
CUBE_VERTS = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
QUARTIC_VERTS = [(-1, -1, -1), (3, -1, -1), (-1, 3, -1), (-1, -1, 3)]
# the cubic triangle times an interval: reflexive, with square side facets
PRISM_VERTS = [(x, y, z) for (x, y) in CUBIC_VERTS for z in (-1, 1)]
# reflexive_polygons_in_box() output, fixed here because the search takes
# seconds; a self-test checks that the two agree.
BOX_POLYGONS = [
    [(-2, -1), (-1, -1), (-1, 0), (1, 0), (1, 1)],
    [(-2, -1), (-1, -1), (-1, 0), (1, 0), (1, 1), (2, 1)],
    [(-2, -1), (-1, -1), (-1, 0), (1, 0), (2, 1)],
    [(-2, -1), (-1, -1), (-1, 0), (1, 1), (2, 1)],
    [(-2, -1), (-1, -1), (-1, 0), (2, 1)],
    [(-2, -1), (-1, -1), (0, 1), (1, 0)],
    [(-2, -1), (-1, -1), (0, 1), (1, 0), (1, 1)],
    [(-2, -1), (-1, -1), (0, 1), (1, 0), (2, 1)],
    [(-2, -1), (-1, -1), (0, 1), (2, 1)],
    [(-2, -1), (-1, -1), (1, 0), (1, 1)],
    [(-2, -1), (-1, -1), (1, 0), (1, 2)],
    [(-2, -1), (-1, -1), (1, 1), (2, 1)],
    [(-2, -1), (-1, 0), (0, -1), (1, 0), (1, 1)],
    [(-2, -1), (-1, 0), (0, -1), (1, 1)],
    [(-2, -1), (-1, 0), (0, -1), (2, 1)],
    [(-2, -1), (-1, 0), (1, -1), (1, 1)],
    [(-2, -1), (-1, 0), (1, 0), (1, 1)],
    [(-2, -1), (-1, 0), (1, 0), (2, 1)],
    [(-2, -1), (0, -1), (0, 1), (1, 0)],
    [(-2, -1), (0, -1), (0, 1), (1, 0), (1, 1)],
    [(-2, -1), (0, -1), (0, 1), (1, 1)],
    [(-2, -1), (0, -1), (0, 1), (2, 1)],
    [(-2, -1), (0, -1), (1, 0), (1, 1)],
    [(-2, -1), (0, -1), (1, 0), (1, 2)],
    [(-2, -1), (0, -1), (1, 1)],
    [(-2, -1), (0, -1), (1, 2)],
    [(-2, -1), (0, 1), (1, -1)],
    [(-2, -1), (0, 1), (1, -1), (1, 0)],
    [(-2, -1), (0, 1), (1, -1), (1, 1)],
    [(-2, -1), (0, 1), (1, 0)],
    [(-2, -1), (0, 1), (1, 0), (1, 1)],
    [(-2, -1), (0, 1), (2, -1)],
    [(-2, -1), (1, -1), (1, 1)],
    [(-2, -1), (1, -1), (1, 2)],
    [(-2, -1), (1, 0), (1, 1)],
    [(-1, -1), (-1, 0), (0, -1), (0, 1), (1, 0)],
    [(-1, -1), (-1, 0), (0, -1), (0, 1), (1, 0), (1, 1)],
    [(-1, -1), (-1, 0), (0, -1), (0, 1), (1, 1)],
    [(-1, -1), (-1, 0), (0, -1), (1, 1)],
    [(-1, -1), (-1, 0), (0, 1), (1, -1)],
    [(-1, -1), (-1, 0), (0, 1), (1, -1), (1, 0)],
    [(-1, -1), (-1, 0), (0, 1), (1, -1), (1, 1)],
    [(-1, -1), (-1, 0), (0, 1), (1, 0)],
    [(-1, -1), (-1, 0), (1, -1), (1, 1)],
    [(-1, -1), (-1, 0), (1, 0), (1, 1)],
    [(-1, -1), (-1, 1), (1, -1), (1, 1)],
    [(-1, -1), (-1, 1), (1, 0)],
    [(-1, -1), (0, 1), (1, 0)],
    [(-1, 0), (0, -1), (0, 1), (1, 0)],
]


# -- rank 4: the 4-cube [-1,1]^4 and the 16-cell ------------------------------

def hypercube_boundary_simplices(rank=4):
    """Freudenthal (Kuhn) triangulation of every facet of [-1,1]^rank.

    Each facet is a (rank-1)-cube of side 2, cut into unit cubes, and each
    unit cube into (rank-1)! simplices along the all-ones diagonal.  All
    facets use the same coordinate order, so shared faces agree.
    """
    out = []
    for axis in range(rank):
        free = [i for i in range(rank) if i != axis]
        for side in (-1, 1):
            for corner in _grid((-1, 0), len(free)):
                for order in permutations(range(len(free))):
                    point = list(corner)
                    chain = [tuple(point)]
                    for k in order:
                        point[k] += 1
                        chain.append(tuple(point))
                    out.append(tuple(_embed(c, axis, side) for c in chain))
    return out


def cross_polytope_boundary_simplices(rank=4):
    """The facets of the cross-polytope conv(+-e_i): one simplex per sign vector."""
    out = []
    for signs in _grid((-1, 1), rank):
        out.append(tuple(
            tuple(s if j == i else 0 for j in range(rank))
            for i, s in enumerate(signs)
        ))
    return out


def hypercube_normalized_volume(rank):
    """rank! * vol([-1,1]^rank), by the product formula."""
    return factorial(rank) * 2 ** rank


def cross_polytope_normalized_volume(rank):
    """rank! * vol(conv(+-e_i)) = 2^rank: one unit simplex per orthant."""
    return 2 ** rank


def cy3_triangulations(rank=4):
    """(cube triangulation, 16-cell triangulation) as CentralTriangulations.

    Raises ValueError when a simplex count differs from the normalized
    volume computed by formula; validate() cannot check covering at rank 4.
    """
    cube_s = hypercube_boundary_simplices(rank)
    cross_s = cross_polytope_boundary_simplices(rank)
    for name, got, want in (
        ("hypercube", len(cube_s), hypercube_normalized_volume(rank)),
        ("cross-polytope", len(cross_s), cross_polytope_normalized_volume(rank)),
    ):
        if got != want:
            raise ValueError(f"{name}: {got} simplices, normalized volume {want}")
    cube = LatticePolytope(list(_grid((-1, 1), rank)), rank)
    cross = cube.dual()
    return CentralTriangulation(cube, cube_s), CentralTriangulation(cross, cross_s)


def _grid(values, k):
    if k == 0:
        return [()]
    return [(v,) + rest for v in values for rest in _grid(values, k - 1)]


def _embed(point, axis, value):
    point = list(point)
    point.insert(axis, value)
    return tuple(point)


# -- rank 2 and 3 corpus ---------------------------------------------------------

def _dihedral(v):
    x, y = v
    return [
        (x, y), (-x, y), (x, -y), (-x, -y),
        (y, x), (-y, x), (y, -x), (-y, -x),
    ]


def reflexive_polygons_in_box(bound=2):
    """Reflexive polygons with vertices in the box, one per box symmetry class."""
    candidates = [
        (x, y)
        for x in range(-bound, bound + 1)
        for y in range(-bound, bound + 1)
        if (x, y) != (0, 0) and gcd(abs(x), abs(y)) == 1
    ]
    found = {}
    for k in (3, 4, 5, 6):
        for sub in combinations(candidates, k):
            try:
                P = LatticePolytope(sub)
            except ValueError:
                continue
            if set(P.vertices) != set(sub) or not P.is_reflexive():
                continue
            canon = min(
                tuple(sorted(t[i] for t in map(_dihedral, P.vertices)))
                for i in range(8)
            )
            found.setdefault(canon, P)
    return [found[k] for k in sorted(found)]


def corpus_polytopes():
    """(name, Newton polytope) for every corpus pair, smallest first."""
    out = [
        (f"polygon{i:02d}", LatticePolytope(v)) for i, v in enumerate(BOX_POLYGONS)
    ]
    out.append(("prism", LatticePolytope(PRISM_VERTS)))
    out.append(("cube", LatticePolytope(CUBE_VERTS)))
    out.append(("quartic", LatticePolytope(QUARTIC_VERTS)))
    return out


def triangulate_pair(P):
    """(T, Tdual): central triangulations of P and of its dual."""
    return triangulate.generate_central(P), triangulate.generate_central(P.dual())


def write_triangulation(tri, path):
    with open(path, "w") as fh:
        json.dump(tri.to_dict(), fh, sort_keys=True)

