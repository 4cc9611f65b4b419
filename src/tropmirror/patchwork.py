"""Combinatorial patchworking: signs, phases, the real complex and the
connectedness criterion.

A sign distribution on the lattice points of the Newton polytope and an F2
toric divisor on its fan encode the same datum (up to one global sign flip,
pinned by giving the origin sign 1); its real phase structure, the edges of
the triangulation whose ends have the same sign, is read off the signs as
one mask (``PhaseData.mask``).  The sign cosheaf assigns to a cell the free
F2 module on its phase set; its homology computes the F2 homology of the
patchworked real hypersurface, and is filtered with multitangent graded
pieces.  The first differential of that filtration, applied to the
fundamental class of the sphere, is mirror to the divisor restriction
class, which decides connectedness.  F2 divisor classes are cosets of the
pairing space (``_pairing_space``: row i is coordinate i of every ray mod
2), each keyed by its normal form (``_normal_form``), and a divisor's signs
read its support from ``mirror.divisor_support``, like its restriction.

Phase sets live in quotient coordinates mod 2 of the same frames the
cosheaf evaluator uses, packed into small ints; cells off infinity pull
their phase data back from the collapsed cell, matching the cosheaf side.
What does not depend on the signs (each cell's frame and edge parities,
each cover's map between frames, and the packed boundary rows of the sign
cosheaf's F2 complex over every frame point, built on first read and
square-checked mod 2 there) is a PhaseFrame, built once per side and poset
kind.  It numbers the edges of its cells once, so a cell's edge phases
are one int mask, over that numbering, with no bit off the cell's edges.
A sign distribution only picks the points each cell keeps, and what
depends only on a cell's edge phases is one record in the frame, a
PhaseCell per (cell, edge-phase mask): the packed phase set, the list of
its points read off those bits, and the filtration levels with their
generators and the F2 spaces they span, built once per record and p on
first use, so classes that agree on a cell share them all.  A level
concatenates per-edge generator lists, which depend on the signs only
through the edge's phase: the frame keeps each list once per (frame of the
value stratum, p = 1 edge basis, cell value, p, edge phase), the first
three keyed by identity, as the evaluator interns them.  A record's edge
phases fix those of every cell above it, whose edges are some of its own
(its mask, masked to their edges, is theirs), so the frame checks the
transport when it builds the record (each cover carries the phase points
above, the phase bits of the cell above under that mask, into the
record's phase set), once for every class that reads it.  That makes each
sign complex a subcomplex of the frame's, with no assembly or square check
of its own.  A record keeps its points' frame positions too, built on the
first gather that reads it, so ``PhaseData.sign_complex`` is one list per
degree, the concatenated positions of its records, and ``real_betti``
ranks the frame's point rows at those positions with one cleared pass
(``f2_cleared_ranks``), from degree 1 up: degree 0 has no rows and only
counts its points.  A sign distribution keeps only its edge phases, as one
mask over every edge, computed once from the signs; a cell's record is
keyed by that mask masked to the cell's edges.  A cell with no edges has
no phase points under any signs, so the Betti routes resolve only the
cells with edges, which the frame lists once per degree: one list of
records per degree (``PhaseData.degree_records``), which the sign complex
and the real complex both read; ``delta1`` resolves only the cells it
lifts and those its boundary touches, and never gathers.  The whole sign
route has one numbering, the frame's ``chains.CellLayout`` of 2^qd points
per cell with edges: a point s of cell ci sits at ``offset[ci] + s`` in
the phase sets, the sign complex's positions and their cleared ranks, and
a filtration indicator has bit s for point s.  ``delta1`` walks the
chain's cells in its complex's layout, lifts by shifts into the frame's,
and walks the boundary's cells in the frame's layout back into the next
level's complex.  Both Betti routes cross-check each other: the sign
complex's ranks come from the frame's rows at the gathered positions, and
the real complex has a numbering of its own, apart from the layout: point
s of cell ci is ``real_start[ci] + s``, the cells of a degree at the
stride of its widest frame.  A record's edge phases fix
those of the cells above it, so its real cells' incidences are the same
for every class that reads it: its incidence list (``real_pairs``, one
flat int array of the two ends of each real edge of a 1-cell, or of each
real facet of an (n-1)-cell, in turn, over the covers the frame groups
once per cell) is built on first read and kept in the record, and the
check that each has exactly two ends runs then, once per record, like
the transport check.  Per class the real complex concatenates its
records' lists and ranks its edge and facet boundaries as graphs by one
union-find over the pairs each; only the middle degrees take packed
boundary rows, packed per class (``real_rows``), where a face's point t
is numbered by the count of its phase points below t.  Every sweep row
runs both routes through ``real_betti`` and reads its b0 off the Betti
vector; ``with_betti`` only decides whether the row shows that vector.
"""

import random
from array import array
from functools import cache, cached_property
from itertools import combinations

from .chains import CellLayout, check_f2_square_zero
from .errors import (
    HypothesisFails,
    InputError,
    InternalCheckError,
    NotAClosedChain,
    VerdictMismatch,
)
from .intlinalg import F2Space, dot, f2_cleared_ranks, f2_combine, f2_pack, f2_rank
from .exterior import wedge_matrix
from .mirror import chain_degree, divisor_restriction, divisor_support, is_null_class


# ---------------------------------------------------------------------------
# signs <-> divisors

def signs_from_divisor(side, rays):
    """Sign distribution with origin sign 1 and boundary signs = the F2
    coefficients of the divisor that lists ``rays``."""
    eps = {p: 0 for p in side.newton.polytope.lattice_points}
    eps[side.newton.origin] = 1
    for v in divisor_support(side, rays):
        eps[v] = 1
    return eps


def _check_signs(side, eps):
    """A sign distribution gives every lattice point of the Newton polytope,
    and nothing else, the sign 0 or 1, an int: True and 1.0 compare equal
    to 1 but are refused, like anything else, with an InputError."""
    points = set(side.newton.polytope.lattice_points)
    missing, outside = points - eps.keys(), eps.keys() - points
    if missing:
        raise InputError(f"signs miss lattice points {sorted(missing)}")
    if outside:
        raise InputError(f"signs name points outside the Newton polytope {sorted(outside)}")
    bad = sorted(p for p, b in eps.items() if type(b) is not int or b not in (0, 1))
    if bad:
        raise InputError(f"signs other than the integer 0 or 1 at {bad}")


def divisor_from_signs(side, eps):
    """Rays whose sign matches the origin's."""
    _check_signs(side, eps)
    o = side.newton.origin
    return sorted(v for v in side.newton.rays() if eps[v] == eps[o])


# ---------------------------------------------------------------------------
# divisor classes

# the most rays or lattice points whose 2^k subsets a sweep enumerates
ENUMERATION_LIMIT = 16


def _check_enumerable(count, what):
    if count > ENUMERATION_LIMIT:
        raise InputError(f"{2 ** count} {what} is too many to enumerate; sample instead")


def _pairing_space(side):
    """(rays, space): the Newton rays and the F2 span of the pairing with
    M, whose row i is coordinate i of every ray mod 2."""
    rays = side.newton.rays()
    return rays, F2Space(f2_pack([v[i] for v in rays]) for i in range(side.rank))


def mask_to_rays(side, mask):
    rays = side.newton.rays()
    return [rays[i] for i in range(len(rays)) if (mask >> i) & 1]


def _normal_form(space, mask):
    """The one mask of the class mask + span with no pivot bit of ``space``
    set: each pivot bit cleared top down.  ``F2Space.reduce`` stops at the
    first leading bit that is not a pivot, so it is no class key."""
    for row in reversed(space.pivot_rows()):
        if (mask >> (row.bit_length() - 1)) & 1:
            mask ^= row
    return mask


def divisor_class_representatives(side):
    """The normal-form masks of all F2 divisor classes."""
    rays, space = _pairing_space(side)
    _check_enumerable(len(rays), "divisors")
    return sorted({_normal_form(space, mask) for mask in range(1 << len(rays))})


def sample_divisor_classes(side, count, seed):
    """Deterministic sample of ``count`` distinct divisor classes, or of all
    of them if there are fewer: for each class, the reduction of the first
    mask drawn in it."""
    rays, space = _pairing_space(side)
    count = min(count, 1 << (len(rays) - space.rank))
    rng = random.Random(seed)
    first = {}  # normal form -> first reduced draw
    budget = 100 * count
    while len(first) < count and budget:
        budget -= 1
        mask = space.reduce(rng.getrandbits(len(rays)))
        first.setdefault(_normal_form(space, mask), mask)
    return sorted(first.values())


# ---------------------------------------------------------------------------
# phase data on a poset

class PhaseFrame:
    """Sign-independent phase geometry of one poset, built once per side.

    ``cells[ci]`` is (stratum, qd, edges): the value stratum, whose frame
    carries the cell's values, its quotient rank m - len(stratum), and per
    edge of sigma (sorted endpoints, the parity mask ``rdm`` of its
    direction in frame coordinates, the packed set of points s with s.rdm
    odd).  Only a cell with edges reads its frame.  The frame numbers the
    edges of all its cells once: edge j has the endpoints ``edge_ends[j]``,
    ``edge_bits[ci]`` holds 1 << j for each edge of cell ci in its edge
    order, and ``edge_mask[ci]`` is their sum.  ``covers`` lists (y, x,
    images) for each cover y below x where both cells have edges:
    ``images[s]`` is the point s of the frame of x carried into the frame
    of y, one list shared by every cover between the same two interned
    frames (``point_images``).

    The frame numbers every point s of every cell with edges, its
    ``layout``: 2^qd points per cell, starting at ``offset[ci]`` within its
    degree.  ``point_rows`` holds the sign cosheaf's F2 complex over all of
    them as packed boundary rows per degree: per cover, point s of x has
    the single bit of its image in y.  They are built on first read, once
    per side and poset kind, and their square is checked mod 2 then; a sign
    distribution's complex is their restriction to the phase points.
    ``edged[q]`` lists the q-cells with edges in poset order, the only
    cells with phase points.  The real complex has its own numbering,
    ``real_start``, and reads the covers as the frame groups them per
    cell, ``_below`` and ``_above`` (above yi, the pairs (xi, images)):
    through each record's incidence list (``real_pairs``) and, in the
    middle degrees, the rows ``real_rows`` packs per class.

    What depends only on a cell's edge phases is one PhaseCell per (ci,
    mask), ``mask`` the phases as a mask over the edge numbering with no
    bit off ci's edges, from ``cell_phase``, which checks the transport
    from the cells above ci, read off their phase bits, when it builds one.
    x's edges are some of y's when y is below x, so y's mask masked by
    ``edge_mask[x]`` is x's, and a cover above y needs no more.  ``level``
    fills a record's filtration levels on first use, one per record and p.
    Each record holds its own point list, read off its phase bits, and the
    sign complex's gather fills in their frame positions.
    """

    def __init__(self, evaluator, poset):
        self.evaluator = evaluator
        self.poset = poset
        self._proj = {}  # (frame x, frame y) -> point images
        self._phase_cells = {}  # (ci, its edge-phase mask) -> PhaseCell
        self._edge_gens = {}  # (frame, ids of edge basis and value), p, te -> generators
        self.cells = []
        # one numbering of the edges of every cell (number: edge -> 1 << j,
        # one int per edge): edge j is edge_ends[j]; edge_bits[ci] is 1 << j
        # per edge of cells[ci], in its edge order, and edge_mask[ci] their sum
        number, self.edge_bits, self.edge_mask = {}, [], []
        for cell in poset.cells:
            stratum = evaluator.value_stratum("multitangent", cell)
            qd = evaluator.m - len(stratum)
            edges = []
            if len(cell.sigma) > 1:  # only a cell with edges reads its frame
                fr = evaluator.frame(stratum)
                for a, b in combinations(cell.sigma, 2):
                    d = tuple(x - y for x, y in zip(b, a))
                    rdm = f2_pack([dot(r, d) for r in fr.R])
                    odd = f2_pack([bin(s & rdm).count("1") for s in range(1 << qd)])
                    edges.append(((min(a, b), max(a, b)), rdm, odd))
            bits = tuple([number.setdefault(e, 1 << len(number)) for e, _, _ in edges])
            self.cells.append((stratum, qd, edges))
            self.edge_bits.append(bits)
            self.edge_mask.append(sum(bits))
        self.edge_ends = list(number)
        self.layout = CellLayout(
            poset.cells_by_dim, [1 << qd if edges else 0 for _, qd, edges in self.cells]
        )
        self.offset = self.layout.offset
        # per degree, the cells with edges, the only ones with phase points
        self.edged = [[c for c in cs if self.edge_mask[c]] for cs in poset.cells_by_dim.values()]
        # the real complex's numbering, apart from the layout: point s of
        # cell ci is real_start[ci] + s, the cells of a degree at the stride
        # of its widest frame, real_size[q] ids in degree q
        self.real_start, self.real_size = array("q", [0]) * len(poset.cells), {}
        for q, indices in poset.cells_by_dim.items():
            stride = max(1 << self.cells[ci][1] for ci in indices)
            for i, ci in enumerate(indices):
                self.real_start[ci] = i * stride
            self.real_size[q] = len(indices) * stride
        self.covers = []
        # the covers grouped per cell, in tuples: below xi, its covers; above
        # yi, (xi, images), where x's sigma is a face of y's, so its edges
        # are some of y's and y's edge-phase mask, masked to x's edges, is x's
        below, above = [[] for _ in poset.cells], [[] for _ in poset.cells]
        for (yi, xi) in poset.covers:
            (sx, _, ex), (sy, _, ey) = self.cells[xi], self.cells[yi]
            if ex and ey:
                images = self.point_images(sx, sy)
                self.covers.append((yi, xi, images))
                below[xi].append(self.covers[-1])
                above[yi].append((xi, images))
        self._below, self._above = list(map(tuple, below)), list(map(tuple, above))

    @cached_property
    def point_rows(self):
        """Packed boundary rows per degree q >= 1 of the sign cosheaf's F2
        complex over every frame point, in the frame's numbering, built in
        one pass over the covers and square-checked mod 2."""
        cells, offset = self.poset.cells, self.offset
        rows = {q: [0] * self.layout.size[q] for q in range(1, self.poset.max_dim + 1)}
        for yi, xi, images in self.covers:
            block, oy = rows[cells[xi].dim], offset[yi]
            for i, t in enumerate(images, offset[xi]):
                block[i] ^= 1 << (oy + t)
        check_f2_square_zero(rows)
        return rows

    def point_images(self, sx, sy):
        """The image in the frame of stratum sy of every point of the frame
        of stratum sx.  It reads only the two frames, which the evaluator
        interns, so it is computed once per frame pair.  Shared; callers
        must not mutate it."""
        ev = self.evaluator
        key = (ev.frame(sx), ev.frame(sy))
        if key not in self._proj:
            masks = [f2_pack(row) for row in ev.projection(*key)]
            self._proj[key] = [f2_combine(s, masks) for s in range(1 << len(masks))]
        return self._proj[key]

    def cell_phase(self, ci, mask):
        """The PhaseCell of cell ci under the edge phases ``mask``, a mask
        over the frame's edge numbering with no bit off ci's edges
        (``edge_mask[ci]``), built once per (ci, mask), its points read off
        its phase bits.  Shared; callers must not mutate it.

        The edge phases of ci fix those of every cell x above it, whose
        edges are some of ci's, so the transport is checked here, once per
        record: each cover carries the phase points of x under
        ``mask & edge_mask[x]`` (x's phase bits, with no record of x
        resolved) into the phase set of ci.  Every class that reads this
        record reads x under the same phases, so no class checks it
        again."""
        pc = self._phase_cells.get((ci, mask))
        if pc is None:
            stratum, qd, _ = self.cells[ci]
            bits = self._phase_bits(ci, mask)
            for xi, images in self._above[ci]:
                top = self._phase_bits(xi, mask & self.edge_mask[xi])
                for s, t in enumerate(images):
                    if top >> s & 1 and not bits >> t & 1:
                        raise InternalCheckError("phase transport escaped the target phase set")
            pc = PhaseCell()
            pc.ci, pc.stratum, pc.qd, pc.mask, pc.bits = ci, stratum, qd, mask, bits
            pc.tes = tuple([1 if mask & e else 0 for e in self.edge_bits[ci]])
            pc.points = [s for s in range(1 << qd) if (bits >> s) & 1]
            pc.levels = pc.up = pc.down = pc.positions = None
            self._phase_cells[ci, mask] = pc
        return pc

    def _phase_bits(self, ci, mask):
        """The packed phase set of cell ci under the edge phases ``mask``:
        the points whose parity on some edge matches the edge's phase."""
        _, qd, edges = self.cells[ci]
        full = (1 << (1 << qd)) - 1
        bits = 0
        for (_, _, odd), e in zip(edges, self.edge_bits[ci]):
            bits |= odd if mask & e else full ^ odd
        return bits

    def real_pairs(self, pc, up):
        """The two ends of each real cell (pc.ci, s), s in ``pc.points``, in
        turn in one flat int array, in the real numbering (``real_start``):
        with ``up``, the top points (x, s') with ``images[s'] == s`` over
        the covers above an (n-1)-cell, the two top cells a real facet lies
        in; else the points (y, ``images[s]``) over the covers below a
        1-cell, the two ends of a real edge.  The record's edge phases fix those of
        every x above it, so the array holds for every class that reads the
        record: it is built on first read and kept in the record, and the
        check that each real cell has exactly two ends runs then.  Shared;
        callers must not mutate it."""
        slot = "up" if up else "down"
        pairs = getattr(pc, slot)
        if pairs is None:
            start = self.real_start
            if up:
                ends = {s: [] for s in pc.points}
                for xi, images in self._above[pc.ci]:
                    top = self.cell_phase(xi, pc.mask & self.edge_mask[xi])
                    for s in top.points:
                        ends[images[s]].append(start[xi] + s)
                ends = list(ends.values())
            else:
                below = self._below[pc.ci]
                ends = [[start[yi] + images[s] for yi, _, images in below] for s in pc.points]
            for e in ends:
                if len(e) != 2:
                    more = "more" if len(e) > 2 else "fewer"
                    raise InternalCheckError(f"a real edge or facet has {more} than two ends")
            pairs = array("q", [i for e in ends for i in e])
            setattr(pc, slot, pairs)
        return pairs

    def real_rows(self, faces, cells):
        """The packed boundary rows of the real cells of the records
        ``cells``, point by point in record order, over the real cells of
        ``faces``, all of one class's records one degree below, numbered
        point by point in record order: point t of face record f is
        ``o + popcount(f.bits & ((1 << t) - 1))``, o the points of the
        faces before f.  That numbering follows the class's
        point counts, which keeps the rows as narrow as the class's real
        cells, so the rows are built per class; only the middle degrees
        2..n-1 read them."""
        column, o = {}, 0
        for pc in faces:
            column[pc.ci] = o, pc.bits
            o += len(pc.points)
        rows = []
        for pc in cells:
            below = [(column[yi], images) for yi, _, images in self._below[pc.ci]]
            for s in pc.points:
                row = 0
                for (o, bits), images in below:
                    row |= 1 << (o + (bits & ((1 << images[s]) - 1)).bit_count())
                rows.append(row)
        return rows

    def level(self, pc, p):
        """Filtration level p on the PhaseCell pc, as (generators, indicator
        space, coordinate space), kept in ``pc.levels``.  A generator is
        (indicator, multitangent coordinates), both packed: bit s of an
        indicator is the point s of the cell's frame.  The spaces are the
        F2 spans of the indicators and of the coordinates, rows in generator
        order.  Each is built once per record and p.  Shared; callers may
        solve in the spaces but must not add rows."""
        if pc.levels is None:
            pc.levels = {}
        out = pc.levels.get(p)
        if out is None:
            gens = []
            if pc.bits:
                value = self.evaluator.value("multitangent", p, self.poset.cells[pc.ci])
                for ((a, b), rdm, _), te in zip(self.cells[pc.ci][2], pc.tes):
                    gens += self._edge_generators(pc.stratum, a, b, rdm, value, p, te)
            out = pc.levels[p] = (
                gens, F2Space(ind for ind, _ in gens), F2Space(fc for _, fc in gens)
            )
        return out

    def _edge_generators(self, stratum, a, b, rdm, value, p, te):
        """The level-p generators that the edge (a, b), of parity mask rdm
        in the frame of ``stratum`` and phase te, gives a cell of this
        multitangent value, as (indicator, coordinates) pairs.  They depend
        on the signs only through te, and on the stratum only through its
        frame, so they are computed once per (frame, p = 1 edge basis,
        value, p, te), the first three keyed by identity: the evaluator
        interns them for its life, and the edge basis fixes the edge
        direction, so rdm with it.  Shared; callers must not mutate it."""
        ev = self.evaluator
        B = ev.edge_annihilator_basis(stratum, a, b, 1)
        key = (ev.frame(stratum), id(B), id(value), p, te)
        gens = self._edge_gens.get(key)
        if gens is not None:
            return gens
        gens = []
        w = len(B)
        if p <= w:
            B2 = [f2_pack(row) for row in B]
            # the wedge image of each p-subset of B in value coordinates
            T = [
                f2_pack(value.reduce(row))
                for row in ev.edge_annihilator_basis(stratum, a, b, p)
            ] if value.rank else []
            s0 = rdm & -rdm if te else 0  # lowest bit of rdm pairs to 1
            Wspan = _span(B2)
            for U in _subspaces(w, p):
                # wedge coordinates of the subspace basis over p-subsets
                bits = [[(u >> j) & 1 for j in range(w)] for u in U]
                fcoords = f2_combine(f2_pack(wedge_matrix(bits, p)[0]), T) if T else 0
                U_V = [f2_combine(u, B2) for u in U]
                span = _span(U_V)
                # the cosets of span in s0 + Wspan, by least point
                cosets = {sum(1 << (s0 ^ wv ^ u) for u in span) for wv in Wspan}
                gens += [(ind, fcoords) for ind in sorted(cosets, key=lambda i: i & -i)]
        self._edge_gens[key] = gens
        return gens


class PhaseCell:
    """One cell's phase data under one choice of its edge phases, the one
    record per (cell, edge phases): the cell index ``ci``, the edge phases
    as ``mask``, over the frame's edge numbering and masked to the cell's
    edges, which keys the record, and as ``tes``, one 0/1 per edge in
    ``PhaseFrame.cells[ci]`` edge order, decoded once for ``level``; the
    packed phase set ``bits``, its own list of ``points`` in increasing
    order, read off ``bits``, their frame positions ``offset[ci] + s`` as
    ``positions``, one int list that the first ``PhaseData.sign_complex``
    to read the record builds (None before), and ``levels``, the
    filtration levels by p that ``PhaseFrame.level`` has computed (None
    before the first).  ``up`` and ``down`` hold the incidence lists of its
    real cells, their ends above and below, which ``PhaseFrame.real_pairs``
    builds on first read (None before).  The frame checks the transport from the cells above it,
    read off their phase bits, when it builds one."""

    __slots__ = ("ci", "stratum", "qd", "mask", "tes", "bits", "points", "positions", "levels",
                 "up", "down")


class PhaseData:
    """Phase points of one sign distribution on one of its side's posets.

    It keeps only the distribution's edge phases, as one mask ``mask`` over
    the frame's edge numbering (bit j set when the ends of edge j have the
    same sign), computed once from the checked signs.  Cell ci's record is
    the frame's PhaseCell keyed by ``mask & edge_mask[ci]``: ``phase_cell``
    resolves one cell, ``degree_records`` every cell with edges (the
    frame's ``edged``; a cell without edges has no phase points), once per
    class, as one list per degree, which the sign complex and the real
    complex both read.  The frame checked each record's transport when it
    built it, so the span of the phase points is closed under the boundary
    of the frame's point rows.  The sign complex is that span, returned by
    ``sign_complex`` as the frame positions it keeps, the records' own
    ``positions`` concatenated per degree, built on each call
    (``real_betti`` reads it once per class).
    """

    def __init__(self, side, poset, eps):
        if poset is not side.poset(poset.kind):
            raise ValueError(f"the {poset.kind} poset is not this side's")
        self.side, self.poset = side, poset
        self.frame = side.phase_frame(poset.kind)
        _check_signs(side, eps)
        ends = enumerate(self.frame.edge_ends)
        self.mask = sum(1 << j for j, (a, b) in ends if eps[a] == eps[b])

    def phase_cell(self, ci):
        return self.frame.cell_phase(ci, self.mask & self.frame.edge_mask[ci])

    @cached_property
    def degree_records(self):
        """Per degree q, the records of the q-cells with edges
        (``frame.edged[q]``) in poset order, each read from the frame's
        record index, built there only if missing."""
        frame, mask, get = self.frame, self.mask, self.frame._phase_cells.get
        emask = frame.edge_mask
        keys = [[(ci, mask & emask[ci]) for ci in cis] for cis in frame.edged]
        return [[get(key) or frame.cell_phase(*key) for key in ks] for ks in keys]

    def sign_complex(self):
        """The sign cosheaf's F2 complex as the frame positions of its
        basis: per degree q, one increasing list, the ``positions`` of the
        q-records concatenated in poset order, each record's built on the
        first gather that reads it and kept.  Its rows are the frame's
        point rows at those positions; degree 0 has none.  The list is
        built on each call, so a caller may mutate it."""
        offset, out = self.frame.offset, []
        for pcs in self.degree_records:
            positions = []
            for pc in pcs:
                if pc.positions is None:
                    pc.positions = [offset[pc.ci] + s for s in pc.points]
                positions += pc.positions
            out.append(positions)
        return out


def _span(vectors):
    out = {0}
    for v in vectors:
        out |= {x ^ v for x in out}
    return sorted(out)


@cache
def _subspaces(w, p):
    """All dimension-p subspaces of F2^w as canonical echelon bases,
    computed once per (w, p).  Shared; callers must not mutate it."""
    if p == 0:
        return [()]
    seen = {}
    vectors = list(range(1, 1 << w))
    for combo in combinations(vectors, p):
        space = F2Space(combo)
        if space.rank != p:
            continue
        key = tuple(_span(list(combo)))
        if key not in seen:
            seen[key] = combo
    return sorted(seen.values())


# ---------------------------------------------------------------------------
# the real CW complex

class RealComplex:
    """Cells (poset cell, phase point) with constant F2 coefficients.

    Numbered per degree in the frame's real numbering, not its layout: point
    s of cell ci is ``real_start[ci] + s``; ``dims[q]`` counts the real
    q-cells.  The realization is a closed PL manifold, so every real edge
    has two ends and every real facet lies in two top cells: D_1 and D_n are
    the incidence matrices of two graphs, the primal one on the real
    vertices joined along the real edges and the dual one on the top cells
    joined across the real facets, and over F2 each has rank the number of
    joins a union-find makes.  The edges of both come per record from
    ``PhaseFrame.real_pairs``, which checks the two ends when it builds a
    record's list; each graph is one union-find over the concatenated lists
    of its records.  The middle degrees 2..n-1 (rank 4 only) take the
    boundary rows ``PhaseFrame.real_rows`` packs per class, ranked by
    elimination.  Every degree is resolved and ranked when the complex is
    built, ``ranks[q]`` the rank of D_q.
    """

    def __init__(self, phase_data):
        pd, frame = phase_data, phase_data.frame
        n = self.n = pd.side.n
        records = pd.degree_records[: n + 1]
        self.dims = [sum(len(pc.points) for pc in pcs) for pcs in records]
        self.ranks = {n: _graph_rank(frame, frame.real_size[n], records[n - 1], True)}
        if n > 1:
            self.ranks[1] = _graph_rank(frame, frame.real_size[0], records[1], False)
        for q in range(2, n):
            self.ranks[q] = f2_rank(frame.real_rows(records[q - 1], records[q]))

    def component_count(self):
        """Connected components of the top cells, adjacent along a facet:
        those of the dual graph."""
        return self.dims[self.n] - self.ranks[self.n]

    def betti(self):
        """F2 Betti numbers b_0..b_n of the realization, via the cellular
        complex."""
        r = self.ranks
        return [d - r.get(q, 0) - r.get(q + 1, 0) for q, d in enumerate(self.dims)]


def _graph_rank(frame, size, records, up):
    """F2 rank of the incidence matrix of the graph on the ids 0..size-1
    whose edges are the real cells of ``records``, with the ends their
    ``frame.real_pairs(pc, up)`` lists: the joins that one union-find over
    the concatenated lists makes, the edges of a spanning forest."""
    ends = array("q")
    for pc in records:
        if pc.points:
            ends += frame.real_pairs(pc, up)
    ends = iter(ends)
    parent = list(range(size))
    rank = 0
    for u, v in zip(ends, ends):
        while u != parent[u]:
            parent[u] = u = parent[parent[u]]
        while v != parent[v]:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            rank += 1
    return rank


# ---------------------------------------------------------------------------
# betti numbers, two ways

def real_betti(side, eps):
    """F2 Betti numbers of the patchworked hypersurface, computed both from
    the sign-cosheaf complex and from the real CW complex; the full vectors
    must agree and are returned once.  The real complex's b0 must equal its
    component count, which is its b_n, as Poincare duality mod 2 asks."""
    pd = PhaseData(side, side.base_poset, eps)
    # the frame's point rows at the positions, from degree 1 up: degree 0
    # has no rows and only counts its points
    pos, rows = pd.sign_complex(), pd.frame.point_rows
    r = f2_cleared_ranks({q: zip(pos[q], map(rows[q].__getitem__, pos[q])) for q in rows})
    betti_cosheaf = [len(pos[q]) - r.get(q, 0) - r.get(q + 1, 0) for q in range(side.n + 1)]
    rc = RealComplex(pd)
    betti_real = rc.betti()
    if betti_cosheaf != betti_real:
        raise InternalCheckError(
            f"sign-cosheaf betti {betti_cosheaf} != real-complex betti {betti_real}"
        )
    b0 = rc.component_count()
    if b0 != betti_real[0]:
        raise InternalCheckError(f"component count {b0} != b0 {betti_real[0]}")
    return betti_cosheaf


# ---------------------------------------------------------------------------
# the filtration differential

def delta1(side, eps, chain, p, kind="refined"):
    """First filtration differential on a closed multitangent F2 chain.

    Lift the chain into filtration level p of the sign complex, take the
    boundary there, and read the result in level p+1 through the graded
    identification.  The output class is independent of the lift.  Lift and
    boundary live in the frame's numbering, where a cell's indicators sit
    at its offset and the boundary comes from the frame's point rows; the
    read-back is one packed vector of the level-(p+1) complex, cycle-checked
    there.
    """
    poset = side.poset(kind)
    pd = PhaseData(side, poset, eps)
    CF = side.complex(kind, "multitangent", p)
    q = chain_degree(poset, chain)
    if q is None:
        return {}
    vec = CF.chain_to_packed(chain, q)
    if not CF.f2_is_cycle(vec, q):
        raise NotAClosedChain("filtration differential input is not closed")
    if q == 0:
        return {}  # the boundary of a degree-0 lift is 0
    frame, offset = pd.frame, pd.frame.offset
    lvec = 0
    for ci, fcoords in CF.layout.walk(vec, q):
        gens, _, coord_space = frame.level(pd.phase_cell(ci), p)
        mask = coord_space.solve(fcoords)
        if mask is None:
            raise InternalCheckError(
                "chain coefficient is not in the filtration image"
            )
        lvec |= f2_combine(mask, [ind for ind, _ in gens]) << offset[ci]
    rows = frame.point_rows.get(q)
    bvec = f2_combine(lvec, rows) if rows else 0
    CF1 = side.complex(kind, "multitangent", p + 1)
    out = 0
    for ci, ind in frame.layout.walk(bvec, q - 1):
        pc = pd.phase_cell(ci)
        if ind & ~pc.bits:
            raise InternalCheckError("boundary of the lift escaped the phase sets")
        gens, ind_space, _ = frame.level(pc, p + 1)
        mask = ind_space.solve(ind)
        if mask is None:
            raise InternalCheckError(
                "boundary of the lift escaped the next filtration level"
            )
        out |= f2_combine(mask, [fc for _, fc in gens]) << CF1.offset[ci]
    if out and not CF1.f2_is_cycle(out, q - 1):
        raise InternalCheckError("filtration differential output not closed")
    return CF1.packed_to_chain(out, q - 1)


# ---------------------------------------------------------------------------
# connectedness

def check_vanishing_hypothesis(side):
    """H_n of the middle multitangent cosheaves must vanish mod 2."""
    for k in range(1, side.n):
        dim = side.homology("base", "multitangent", k, "f2").rank(side.n)
        if dim:
            raise HypothesisFails(k, dim)


def connectedness_verdict(side, rays):
    """'connected' iff the mirror divisor restriction class is nonzero.

    The worked cubic example fixes the orientation: a nonzero class means
    one component.  Raises HypothesisFails when the homology-vanishing
    hypothesis is violated (exit code 3 in the CLI).
    """
    check_vanishing_hypothesis(side)
    chain = divisor_restriction(side, rays)
    if is_null_class(side.mirror, chain, side.n - 1):
        return "two_components"
    return "connected"


def check_verdict(verdict, b0):
    """The paper's second theorem on one class: the verdict is 'connected'
    exactly when the real hypersurface has one component (b0 = 1)."""
    if (verdict == "connected") != (b0 == 1):
        raise VerdictMismatch(f"verdict {verdict} but b0 = {b0}")


def sweep_rows(side, masks, with_betti=True):
    """Sweep divisor classes: verdict, b0 and, with ``with_betti``, the
    Betti vector.  Every row is evaluated once, by ``real_betti`` (both
    routes and b0 = b_n), and its verdict checked against its b0;
    ``with_betti`` only shapes the row."""
    rows = []
    for mask in masks:
        rays = mask_to_rays(side, mask)
        eps = signs_from_divisor(side, rays)
        verdict = connectedness_verdict(side, rays)
        row = {
            "divisor": [list(v) for v in rays],
            "class_nonzero": verdict == "connected",
            "verdict": verdict,
        }
        # real_betti checks the component count against b0
        betti = real_betti(side, eps)
        if with_betti:
            row["betti"] = betti
        row["b0"] = betti[0]
        check_verdict(verdict, row["b0"])
        rows.append(row)
    return rows


def raw_sign_sweep(side):
    """Betti vectors for every sign distribution (for the equivalence test);
    more than ENUMERATION_LIMIT lattice points is an input error."""
    points = list(side.newton.polytope.lattice_points)
    _check_enumerable(len(points), "sign distributions")
    rows = []
    for mask in range(1 << len(points)):
        eps = {p: (mask >> i) & 1 for i, p in enumerate(points)}
        rows.append((eps, real_betti(side, eps)))
    return rows
