"""Unimodular central triangulations of reflexive polytopes.

A central triangulation cones a triangulation of the boundary to the origin;
for a reflexive polytope the facets sit at lattice height 1, so a boundary
triangulation that uses every lattice point of a facet and is unimodular
inside the facet's affine lattice cones to a unimodular triangulation of the
whole polytope.

Generation is supported for rank <= 3 (segments of polygon edges; for
3-polytopes each facet is triangulated by inserting all of its lattice
points into a vertex fan, and a lattice triangle with no extra lattice
points is automatically unimodular).  Rank-4 triangulations must be supplied
by the caller and are validated only: unimodular facet triangulations need
not exist there and cannot be silently fabricated.

Simplices are sorted tuples of lattice points.
"""

from functools import cached_property
from itertools import combinations

from .errors import (
    InternalCheckError,
    NotInTriangulation,
    NotReflexive,
    RankUnsupported,
)
from .intlinalg import det, dot, left_kernel, pivots, solve_hnf
from .lattice import LatticePolytope, _affine_rank, _as_point


def simplex(points):
    return tuple(sorted(tuple(p) for p in points))


class ValidationReport:
    def __init__(self):
        self.entries = []
        self.notes = ["convexity: not checked (not required downstream)"]

    def add(self, code, detail):
        self.entries.append((code, detail))

    @property
    def ok(self):
        return not self.entries

    def codes(self):
        return sorted({code for code, _ in self.entries})

    def to_dict(self):
        return {
            "valid": self.ok,
            "violations": [{"code": c, "detail": d} for c, d in self.entries],
            "notes": self.notes,
        }

    def __repr__(self):
        status = "valid" if self.ok else f"invalid {self.codes()}"
        return f"ValidationReport({status})"


class CentralTriangulation:
    """Boundary simplices of a unimodular central triangulation.

    ``boundary_simplices`` are the maximal simplices of the induced
    triangulation of the boundary sphere; the maximal simplices of T itself
    are their cones to the origin.  ``simplices`` holds every face of those
    cones (including the faces through 0) and ``vertices`` their points,
    sorted; the simplex ids and their coface lists are built on first read.
    """

    def __init__(self, polytope, boundary_simplices):
        self.polytope = polytope
        self.rank = polytope.rank
        self.origin = (0,) * self.rank
        self.boundary_simplices = sorted(simplex(s) for s in boundary_simplices)
        self._face_simplices = {}
        self._build()

    def _build(self):
        """All faces of the cones over the boundary simplices: the k-subsets
        of a sorted cone, taken in order, are sorted faces."""
        simplices, points = set(), set()
        for beta in self.boundary_simplices:
            cone = simplex(beta + (self.origin,))
            points.update(cone)
            for k in range(1, len(cone) + 1):
                simplices.update(combinations(cone, k))
        self.simplices = simplices
        self.vertices = sorted(points)

    @cached_property
    def simplex_ids(self):
        """(order, ids, up): all simplices sorted, each one's id (its
        position in ``order``, so comparing ids compares simplices), and per
        id the (coface id, position in the coface of the vertex it adds) of
        each of its cofaces, in increasing coface id; built on first read.
        Coface c lists itself under c less its i-th vertex, for each i."""
        order = sorted(self.simplices)
        ids = {s: i for i, s in enumerate(order)}
        up = [[] for _ in order]
        for c, s in enumerate(order):
            if len(s) > 1:
                for i in range(len(s)):
                    up[ids[s[:i] + s[i + 1 :]]].append((c, i))
        return order, ids, up

    def face_simplices(self, face):
        """(inside, plain): the ids, ascending, of the simplices whose
        vertices other than the origin all lie in ``face`` (a frozenset of
        lattice points), and of those among them that miss the origin.

        The plain ones grow from the face's vertices along the cofaces that
        add a face vertex; every other one is the origin's or the cone over a
        plain one.  Cached per face, so the posets over one triangulation
        share the search.
        """
        found = self._face_simplices.get(face)
        if found is None:
            order, ids, up = self.simplex_ids
            o = self.origin
            plain = {ids[(v,)] for v in face if v != o and (v,) in ids}
            coned = {ids[(o,)]}
            stack = list(plain)
            while stack:
                for c, pos in up[stack.pop()]:
                    v = order[c][pos]
                    if v == o:
                        coned.add(c)
                    elif c not in plain and v in face:
                        plain.add(c)
                        stack.append(c)
            found = self._face_simplices[face] = (sorted(plain | coned), sorted(plain))
        return found

    # -- simplex calculus ----------------------------------------------------
    def sigma_hat(self, s):
        """conv(0, s), the simplex cut out of the polytope by the cone over s."""
        return simplex(set(s) | {self.origin})

    def sigma_infty(self, s):
        """The boundary part of s: s minus the origin, or s itself."""
        if s == (self.origin,):
            raise NotInTriangulation("the zero simplex has no boundary part")
        if self.origin in s:
            return tuple(p for p in s if p != self.origin)
        return s

    def rays(self):
        """Primitive ray generators = boundary lattice points, sorted."""
        return [p for p in self.vertices if p != self.origin]

    # -- serialization ---------------------------------------------------------
    def to_dict(self):
        return {
            "polytope": {
                "rank": self.rank,
                "vertices": [list(v) for v in self.polytope.vertices],
            },
            "boundary_simplices": [
                [list(p) for p in s] for s in self.boundary_simplices
            ],
        }

    @classmethod
    def from_dict(cls, data):
        poly = LatticePolytope(data["polytope"]["vertices"], data["polytope"]["rank"])
        simplices = [[_as_point(p) for p in s] for s in data["boundary_simplices"]]
        wrong = sorted({p for s in simplices for p in s if len(p) != poly.rank})
        if wrong:
            raise ValueError(f"boundary points {wrong} do not have {poly.rank} coordinates")
        return cls(poly, simplices)

    def __repr__(self):
        return (
            f"CentralTriangulation(rank={self.rank}, "
            f"{len(self.boundary_simplices)} maximal boundary simplices)"
        )


# ---------------------------------------------------------------------------
# generation

def generate_central(P):
    """Unimodular central triangulation of a reflexive polytope of rank <= 3.

    Triangulates each facet using all of its lattice points (pulling all
    points in deterministically, lexicographic order for ties) and cones to
    the origin.  Raises RankUnsupported at rank >= 4.
    """
    if not P.is_reflexive():
        raise NotReflexive("central triangulations are built for reflexive polytopes")
    if P.rank == 2:
        boundary = []
        for (v, c) in P.facets:
            # lexicographic order is monotone along the edge
            pts = sorted(p for p in P.lattice_points if dot(v, p) == c)
            for a, b in zip(pts, pts[1:]):
                boundary.append(simplex([a, b]))
        return CentralTriangulation(P, boundary)
    if P.rank == 3:
        boundary = []
        for (v, c) in P.facets:
            boundary.extend(_triangulate_facet_3d(P, v, c))
        return CentralTriangulation(P, boundary)
    raise RankUnsupported(
        f"automatic triangulation supports rank <= 3, got {P.rank}; supply one"
    )


def _triangulate_facet_3d(P, v, c):
    """Full lattice triangulation of the facet <v, .> = c of a 3-polytope."""
    pts3 = [p for p in P.lattice_points if dot(v, p) == c]
    base = min(pts3)
    kernel = left_kernel([[a] for a in v])  # HNF basis of the facet-plane lattice
    kpiv = pivots(kernel)
    plane = {}
    for p in pts3:
        rel = [a - b for a, b in zip(p, base)]
        coeff = solve_hnf(kernel, kpiv, rel)
        if coeff is None:
            raise InternalCheckError("facet point outside facet-plane lattice")
        plane[tuple(coeff)] = p
    tris2d = _triangulate_polygon(sorted(plane))
    return [simplex([plane[q] for q in tri]) for tri in tris2d]


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_ccw(points):
    """Convex hull of 2D lattice points in ccw order (monotone chain)."""
    pts = sorted(points)
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _triangulate_polygon(points):
    """Triangulate a 2D lattice polygon using every one of its points.

    Fan from the first hull vertex, then insert the remaining points one at a
    time (splitting the containing triangle, or the two triangles sharing an
    edge).  Every point ends up a vertex, so each final triangle is empty and
    therefore unimodular in the plane lattice.
    """
    hull = _hull_ccw(points)
    v0 = hull[0]
    tris = []
    for a, b in zip(hull[1:], hull[2:]):
        tris.append((v0, a, b))
    rest = [p for p in points if p not in hull]
    for q in sorted(rest):
        placed = False
        for idx, t in enumerate(tris):
            s0 = _cross(t[0], t[1], q)
            s1 = _cross(t[1], t[2], q)
            s2 = _cross(t[2], t[0], q)
            if s0 < 0 or s1 < 0 or s2 < 0:
                continue
            zeros = [s0 == 0, s1 == 0, s2 == 0]
            if sum(zeros) == 0:
                tris[idx : idx + 1] = [
                    (t[0], t[1], q),
                    (t[1], t[2], q),
                    (t[2], t[0], q),
                ]
                placed = True
                break
            if sum(zeros) == 1:
                e = zeros.index(True)
                a, b = t[e], t[(e + 1) % 3]
                opp = t[(e + 2) % 3]
                new = [(a, q, opp), (q, b, opp)]
                # the edge may be shared with one other triangle
                other = None
                for jdx, u in enumerate(tris):
                    if jdx != idx and a in u and b in u:
                        other = jdx
                        break
                if other is not None:
                    u = tris[other]
                    opp2 = next(x for x in u if x not in (a, b))
                    # the neighbor traverses the shared edge backwards, so
                    # its pieces swap a and b to stay counterclockwise
                    new += [(q, a, opp2), (b, q, opp2)]
                    for jdx in sorted((idx, other), reverse=True):
                        del tris[jdx]
                else:
                    del tris[idx]
                tris.extend(new)
                placed = True
                break
            # two zeros would mean q equals a vertex; points are distinct
        if not placed:
            raise InternalCheckError(f"point {q} not located in any triangle")
    return tris


# ---------------------------------------------------------------------------
# validation

def normalized_volume(P):
    """(rank)! times the Euclidean volume, via a pulling triangulation.

    Independent of any stored triangulation: uses vertices only (see
    ``_pulling``), at any rank.
    """
    return sum(
        abs(det([[a - b for a, b in zip(p, s[0])] for p in s[1:]]))
        for s in _pulling(P, tuple(P.vertices), P.rank)
    )


def _pulling(P, face, rank):
    """Simplices (rank + 1 vertices each) triangulating a face of P.

    The face (its vertices, affine rank ``rank``) is coned from its first
    vertex over its sub-faces that miss it; a sub-face is the face's vertices
    on one facet hyperplane of P, of affine rank one less.
    """
    if rank == 0:
        return [face[:1]]
    w = face[0]
    subs = set()
    for v, c in P.facets:
        sub = tuple(p for p in face if dot(v, p) == c)
        if w not in sub and _affine_rank(sub) == rank - 1:
            subs.add(sub)
    return [(w, *s) for sub in sorted(subs) for s in _pulling(P, sub, rank - 1)]


def validate(T):
    """Check centrality, unimodularity, covering, pseudomanifold structure
    and lattice-point usage; every violation becomes a report entry."""
    report = ValidationReport()
    P = T.polytope
    origin = T.origin
    lattice = set(P.lattice_points)
    if tuple(origin) not in lattice or P.interior_lattice_points() != [origin]:
        report.add("NotReflexiveInput", "origin is not the unique interior point")
    used = {origin}
    volume = 0
    for beta in T.boundary_simplices:
        used.update(beta)
        if len(beta) != T.rank:
            report.add("WrongDimension", f"{beta} has {len(beta)} vertices")
            continue
        if origin in beta:
            report.add("NotCentral", f"boundary simplex {beta} passes through 0")
            continue
        if not any(
            all(dot(v, p) == c for p in beta) for (v, c) in P.facets
        ):
            report.add("NotCentral", f"{beta} does not lie in a facet")
        for p in beta:
            if p not in lattice:
                report.add("ExtraVertex", f"{p} is not a lattice point of the polytope")
        d = det([list(p) for p in beta])
        volume += abs(d)
        if abs(d) != 1:
            report.add("NotUnimodular", f"{beta} spans volume {abs(d)}")
    missing = lattice - used
    for p in sorted(missing):
        report.add("UnusedLatticePoint", f"{p} is not a vertex of the triangulation")
    expected = normalized_volume(P)
    if volume != expected:
        report.add(
            "NotCovering",
            f"simplex volumes sum to {volume}, polytope has volume {expected}",
        )
    # boundary pseudomanifold: every ridge in exactly two maximal boundary cells
    ridge_count = {}
    for beta in T.boundary_simplices:
        if len(beta) != T.rank or origin in beta:
            continue
        for i in range(len(beta)):
            ridge = beta[:i] + beta[i + 1 :]
            ridge_count[ridge] = ridge_count.get(ridge, 0) + 1
    for ridge, cnt in sorted(ridge_count.items()):
        if cnt != 2:
            report.add(
                "BadIntersection",
                f"boundary ridge {ridge} lies in {cnt} maximal simplices",
            )
    return report
