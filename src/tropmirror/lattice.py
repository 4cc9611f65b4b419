"""Exact lattice-polytope and face calculus for reflexive pairs.

Points are tuples of ints; a polytope of rank >= 2 stores its vertices, its
facet inequalities and all of its lattice points.  Facets are found among the
hyperplanes spanned by rank-subsets of the defining points, each hyperplane
tested once (a subset that lies in a hyperplane already tested is skipped),
with no floating point anywhere.
The face lattice, built on demand by closing the facets under intersection,
serves faces_of_dim and the independent test oracles; the cell posets find
their faces through the duality pairing instead.

For a reflexive polytope every facet inequality normalizes to <v, x> <= 1
with v integral; the dual polytope is the convex hull of those facet
normals.
"""

from itertools import combinations, product

from .errors import NotReflexive
from .intlinalg import dot, left_kernel, primitive, rank_int


def _as_point(p):
    # type, not value: JSON true and 2.0 compare equal to 1 and 2
    t = tuple(p)
    if any(type(a) is not int for a in t):
        raise ValueError(f"non-integer coordinate in {p}")
    return t


class Face:
    """A face of a lattice polytope: vertex set, lattice points, dimension."""

    __slots__ = ("vertices", "lattice_points", "dim", "facet_indices")

    def __init__(self, vertices, lattice_points, dim, facet_indices):
        self.vertices = tuple(sorted(vertices))
        self.lattice_points = tuple(sorted(lattice_points))
        self.dim = dim
        self.facet_indices = frozenset(facet_indices)

    def __repr__(self):
        return f"Face(dim={self.dim}, vertices={list(self.vertices)})"

    def __eq__(self, other):
        return isinstance(other, Face) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)


def _affine_rank(points):
    if not points:
        return -1
    base = points[0]
    diffs = [[a - b for a, b in zip(p, base)] for p in points[1:]]
    return rank_int(diffs)


class LatticePolytope:
    """Full-dimensional lattice polytope with exact face data."""

    def __init__(self, points, rank=None):
        pts = sorted({_as_point(p) for p in points})
        if not pts:
            raise ValueError("empty point set")
        self.rank = rank if rank is not None else len(pts[0])
        if self.rank < 2:
            raise ValueError(f"rank {self.rank} is below 2")
        if any(len(p) != self.rank for p in pts):
            raise ValueError("points of mixed rank")
        if _affine_rank(pts) != self.rank:
            raise ValueError("polytope is not full-dimensional")
        self._facets = self._find_facets(pts)
        self.vertices = self._find_vertices(pts)
        self._lattice_points = None
        self._faces = None

    # -- construction -------------------------------------------------------
    def _find_facets(self, pts):
        """All facet inequalities (normal, offset) with primitive normals, sorted.

        Every hyperplane spanned by ``rank`` of the points is tested once.
        Rank-subsets of point indices are walked in lexicographic order,
        grouped by their first rank - 1 points (the head).  A last point on a
        hyperplane already tested through the whole head is skipped: the
        subset lies in that hyperplane, so it spans it or is degenerate.  A
        new hyperplane costs one normal and one pass of <v, p> over the
        points, which gives both side bounds and the points on it.
        """
        planes = []  # per tested hyperplane: bit mask of the points on it
        through = [0] * len(pts)  # per point: bit mask of tested hyperplanes
        facets = []
        for head in combinations(range(len(pts)), self.rank - 1):
            base = pts[head[0]]
            rows = [[a - b for a, b in zip(pts[i], base)] for i in head[1:]]
            known = ~0  # tested hyperplanes through every head point
            for i in head:
                known &= through[i]
            skip = 0  # the points on them
            while known:
                low = known & -known
                skip |= planes[low.bit_length() - 1]
                known ^= low
            for j in range(head[-1] + 1, len(pts)):
                if skip >> j & 1:
                    continue
                last = [a - b for a, b in zip(pts[j], base)]
                ker = left_kernel([list(col) for col in zip(*rows, last)])
                if len(ker) != 1:
                    continue
                v = primitive(ker[0])
                vals = [dot(v, p) for p in pts]
                c = vals[head[0]]
                on = 0
                for i, x in enumerate(vals):
                    if x == c:
                        on |= 1 << i
                        through[i] |= 1 << len(planes)
                planes.append(on)
                skip |= on
                if max(vals) == c:
                    facets.append((v, c))
                elif min(vals) == c:
                    facets.append((tuple(-a for a in v), -c))
        return sorted(facets)

    def _find_vertices(self, pts):
        verts = []
        for p in pts:
            active = [v for (v, c) in self._facets if dot(v, p) == c]
            if rank_int([list(v) for v in active]) == self.rank:
                verts.append(p)
        return tuple(sorted(verts))

    # -- basic queries -------------------------------------------------------
    @property
    def facets(self):
        """List of (primitive normal, offset) inequalities <v, x> <= c."""
        return list(self._facets)

    def contains(self, p):
        return all(dot(v, p) <= c for (v, c) in self._facets)

    @property
    def lattice_points(self):
        if self._lattice_points is None:
            box = [range(min(c), max(c) + 1) for c in zip(*self.vertices)]
            # product walks the box in lexicographic, hence sorted, order
            self._lattice_points = tuple(filter(self.contains, product(*box)))
        return self._lattice_points

    def interior_lattice_points(self):
        return [
            p
            for p in self.lattice_points
            if all(dot(v, p) < c for (v, c) in self._facets)
        ]

    # -- face lattice --------------------------------------------------------
    def _build_faces(self):
        pts = self.lattice_points
        vset = set(self.vertices)
        seen = {frozenset(pts)}
        seen.update(
            frozenset(p for p in pts if dot(v, p) == c) for (v, c) in self._facets
        )
        # close under intersection
        queue = list(seen)
        while queue:
            a = queue.pop()
            for b in list(seen):
                inter = a & b
                if inter and inter not in seen:
                    seen.add(inter)
                    queue.append(inter)
        faces = []
        for ptset in seen:
            fverts = tuple(sorted(p for p in ptset if p in vset))
            if not fverts:
                continue
            dim = _affine_rank(list(ptset))
            full_idx = {
                i
                for i, (v, c) in enumerate(self._facets)
                if all(dot(v, p) == c for p in ptset)
            }
            faces.append(Face(fverts, ptset, dim, full_idx))
        faces.sort(key=lambda f: (f.dim, f.vertices))
        self._faces = faces

    @property
    def faces(self):
        if self._faces is None:
            self._build_faces()
        return list(self._faces)

    def faces_of_dim(self, d):
        return [f for f in self.faces if f.dim == d]

    # -- reflexivity and duality ---------------------------------------------
    def is_reflexive(self):
        return all(c == 1 for (_, c) in self._facets)

    def dual(self):
        """The dual reflexive polytope {u : <u, x> <= 1 for all x}."""
        if not self.is_reflexive():
            raise NotReflexive(f"{self} is not reflexive")
        return LatticePolytope([v for (v, _) in self._facets], rank=self.rank)

    def __eq__(self, other):
        return (
            isinstance(other, LatticePolytope)
            and self.rank == other.rank
            and self.vertices == other.vertices
        )

    def __hash__(self):
        return hash((self.rank, self.vertices))

    def __repr__(self):
        return f"LatticePolytope(rank={self.rank}, vertices={list(self.vertices)})"
