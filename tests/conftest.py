from itertools import permutations, product

import pytest

from tropmirror.chains import ChainComplex
from tropmirror.intlinalg import det, f2_cleared_ranks, f2_pack, f2_rank
from tropmirror.lattice import LatticePolytope
from tropmirror.triangulate import CentralTriangulation, generate_central
from tropmirror.pairs import MirrorPair

# the corpus: a plane cubic pair, its all-even companion, and the 3d K3 pair
CUBIC_VERTS = [(-1, -1), (-1, 2), (2, -1)]
CUBIC_DUAL_VERTS = [(1, 1), (-1, 0), (0, -1)]
DIAMOND_VERTS = [(1, 0), (0, 1), (-1, 0), (0, -1)]
SQUARE_VERTS = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
CUBE_VERTS = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
OCTA_VERTS = [
    (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
]


@pytest.fixture(scope="session")
def cubic():
    return LatticePolytope(CUBIC_VERTS)


@pytest.fixture(scope="session")
def cubic_dual():
    return LatticePolytope(CUBIC_DUAL_VERTS)


@pytest.fixture(scope="session")
def cube():
    return LatticePolytope(CUBE_VERTS)


@pytest.fixture(scope="session")
def octahedron():
    return LatticePolytope(OCTA_VERTS)


@pytest.fixture(scope="session")
def cubic_pair():
    """Pair (Delta=cubic triangle, Delta_dual=small triangle), n = 1."""
    T = generate_central(LatticePolytope(CUBIC_VERTS))
    Tdual = generate_central(LatticePolytope(CUBIC_DUAL_VERTS))
    return MirrorPair(T, Tdual)


@pytest.fixture(scope="session")
def diamond_pair():
    """Pair (Delta=diamond, Delta_dual=square): every patchworking splits."""
    T = generate_central(LatticePolytope(DIAMOND_VERTS))
    Tdual = generate_central(LatticePolytope(SQUARE_VERTS))
    return MirrorPair(T, Tdual)


@pytest.fixture(scope="session")
def k3_pair():
    """Pair (Delta=cube with 48 tetrahedra, Delta_dual=octahedron with 8)."""
    T = generate_central(LatticePolytope(CUBE_VERTS))
    Tdual = generate_central(LatticePolytope(OCTA_VERTS))
    return MirrorPair(T, Tdual)


@pytest.fixture(scope="session")
def quartic_pair():
    """The 35-point quartic simplex and its 5-point dual."""
    quartic = LatticePolytope([(-1, -1, -1), (3, -1, -1), (-1, 3, -1), (-1, -1, 3)])
    T = generate_central(quartic)
    Tdual = generate_central(quartic.dual())
    return MirrorPair(T, Tdual)


def cy3_triangulations():
    """(16-cell, 4-cube) central triangulations of the CY3 pair.  The 16-cell
    has one boundary simplex per sign vector; each facet of [-1,1]^4 is cut
    into unit cubes and each of those into 3! simplices along the all-ones
    diagonal (Freudenthal), in one coordinate order for all facets so that
    shared faces agree."""
    units = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    cross = [
        [tuple(s[i] * x for x in units[i]) for i in range(4)]
        for s in product((1, -1), repeat=4)
    ]
    cube = []
    for axis, side in product(range(4), (-1, 1)):
        free = [i for i in range(4) if i != axis]
        for corner in product((-1, 0), repeat=3):
            for order in permutations(free):
                point = [side] * 4
                for i, c in zip(free, corner):
                    point[i] = c
                chain = [tuple(point)]
                for i in order:
                    point[i] += 1
                    chain.append(tuple(point))
                cube.append(chain)
    P = LatticePolytope(list(product((-1, 1), repeat=4)))
    return CentralTriangulation(P.dual(), cross), CentralTriangulation(P, cube)


@pytest.fixture(scope="session")
def cy3_pair():
    """The 16-cell / 4-cube CY3 pair, the 16-cell as side a's Newton side."""
    return MirrorPair(*cy3_triangulations())


def lattice_map(M):
    """The map x -> M x of lattice points (as column vectors)."""
    return lambda x: tuple(sum(m * a for m, a in zip(row, x)) for row in M)


def inverse_transpose(G):
    """G^{-T} of an integer matrix with det +-1, by cofactors."""
    d = det(G)
    assert d in (1, -1), d
    n = len(G)
    return [
        [
            (-1) ** (i + j)
            * d
            * det([r[:j] + r[j + 1 :] for k, r in enumerate(G) if k != i])
            for j in range(n)
        ]
        for i in range(n)
    ]


def move_triangulation(tri, M):
    """tri moved by x -> M x: its polytope's vertices and each boundary
    simplex's points are mapped; nothing is regenerated, since
    generate_central breaks ties in lexicographic order, which M does not
    keep."""
    move = lattice_map(M)
    polytope = LatticePolytope([move(v) for v in tri.polytope.vertices], tri.rank)
    return CentralTriangulation(
        polytope, [[move(p) for p in s] for s in tri.boundary_simplices]
    )


def moved_pair(pair, G):
    """The pair moved by G on side a's Newton side and by G^{-T} on its
    dual, so that every pairing <u, x> between the two sides is kept."""
    return MirrorPair(
        move_triangulation(pair.side_a.newton, G),
        move_triangulation(pair.side_a.ambient, inverse_transpose(G)),
    )


def integer_lift(pd):
    """The sign complex of one class assembled on its own, as an integer
    complex: its cells' phase points numbered cell by cell, unit blocks per
    frame cover with the poset's signature, and its own square check over
    Z."""
    cells = [pd.phase_cell(ci) for ci in range(len(pd.poset.cells))]
    index = [{s: i for i, s in enumerate(pc.points)} for pc in cells]
    blocks = {
        (yi, xi): [((index[yi][images[s]], 1),) for s in cells[xi].points]
        for yi, xi, images in pd.frame.covers
    }
    ranks = [len(pc.points) for pc in cells]
    return ChainComplex(pd.poset, ranks, blocks, pd.poset.sign)


def rows_betti(rows, positions):
    """F2 Betti numbers, degree by degree, of the subcomplex kept at
    ``positions`` (per degree q, its increasing positions, such as
    ``PhaseData.sign_complex()`` returns) of a complex whose D_q has the
    packed row ``rows[q][i]`` at position i, for each degree q >= 1 in
    ``rows`` (degree 0 has no rows): the dimension less the cleared ranks
    of the two boundaries."""
    r = f2_cleared_ranks(
        {q: zip(positions[q], map(rows[q].__getitem__, positions[q])) for q in rows}
    )
    return [len(p) - r.get(q, 0) - r.get(q + 1, 0) for q, p in enumerate(positions)]


def rows_euler(positions):
    """The Euler characteristic of a complex given as its positions per
    degree."""
    return sum((-1) ** q * len(p) for q, p in enumerate(positions))


def phase_masks(pd):
    """{q: the phase sets of the q-cells, shifted to their frame offsets and
    ORed}: a class's phase points in the frame's numbering."""
    masks = dict.fromkeys(pd.poset.cells_by_dim, 0)
    for c in pd.poset.cells:
        masks[c.dim] |= pd.phase_cell(c.index).bits << pd.frame.offset[c.index]
    return masks


def divisor_class_count(side):
    """The number of F2 divisor classes, 2^(rays - rank of the pairing),
    the pairing's row i being coordinate i of every ray mod 2."""
    rays = side.newton.rays()
    rank = f2_rank([f2_pack([v[i] for v in rays]) for i in range(side.rank)])
    return 1 << (len(rays) - rank)


def ray_mask(side, rays):
    """The mask over ``side.newton.rays()`` of a list of distinct rays."""
    return sum(1 << side.newton.rays().index(v) for v in rays)


# the cell flags and the collapse map that only tests read, on the refined
# poset; a sphere-part cell has the Newton origin in sigma
def first_kind(poset, cell):
    return poset.newton.origin in cell.sigma


def in_j0ub(poset, cell):
    """A finite unbounded cell: no origin in tau or in sigma."""
    return poset.newton.origin not in cell.sigma and poset.ambient.origin not in cell.tau


def phi(poset, key):
    """The collapse to the base poset: (tau, sigma) -> (0, sigma) off infinity."""
    tau, sigma = key
    return key if poset.ambient.origin in tau else ((poset.ambient.origin,), sigma)
