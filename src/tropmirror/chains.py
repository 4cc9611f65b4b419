"""Cellular chain complexes of cosheaves on graded thin posets.

The complex in degree q is the direct sum of the cosheaf values on the
dimension-q cells; the boundary assembles the cosheaf maps of the cover
relations times the signature signs into one sparse integer matrix per
degree.  Chains are row vectors acting on the left (boundary of v is v.D),
so ranks and kernels of the boundary matrices are row-space computations.

A complex serves every ring: Q uses the ranks of its matrices, F2 reduces
them to packed bit rows, and Z reads both the ranks and the torsion off one
elimination per boundary, its elementary divisors; the square of its
boundary is verified to vanish over Z at construction (hence over every
ring).  That check is what lets the F2 ranks of all degrees come from one
top-down pass that clears the rows the degree above already pairs
(``f2_cleared_ranks``); the odd elementary divisors cross-check them.  The
divisor count gives the Q rank where none is cached; it is not compared
with ``sparse_rank``, which counts the diagonal of the same deterministic
elimination.

Every packed F2 vector here, in ``mirror`` and in ``patchwork`` has one
layout, a CellLayout: per degree, each cell is a block of bits of its own width
(a value rank, or a count of phase points), the blocks laid end to end in
the order of ``cells_by_dim``.  It gives each cell's offset and each
degree's size in one pass, and splits a packed vector into the blocks
that hold a set bit, visiting no other cell.  A chain crosses between a
{cell key: coordinate tuple} dict and a packed vector in one pass each
way: ``pack_chain`` reads its degree, checks each key and coefficient and
packs it; ``packed_to_chain`` reads each tuple from a table per width.

A complex keeps only what is read again.  The rank pass packs each row mod
2 as it reads it and keeps none of them; ``f2_rows`` caches packed rows
for the chain operations that come back to them (boundaries, image
membership, homology generators).  The keys of the integer boundary rows
share one int object per column.

An F2 complex with no signature, such as the sign cosheaf's over every
point of a phase frame, is kept by its owner as packed boundary rows per
degree (-1 = 1 over F2), whose square ``check_f2_square_zero`` verifies mod
2.  The sign complex of one sign distribution is the span of some basis
vectors of such rows, closed under their boundary: its owner lists the
positions of those basis vectors in its numbering, and ranks the rows at
those positions with ``f2_cleared_ranks``, so nothing is renumbered,
assembled or square-checked again.
"""

from functools import cache

from .errors import (
    BoundarySquareNonzero,
    InputError,
    InternalCheckError,
    NotAClosedChain,
    SupportViolation,
)
from .intlinalg import (
    F2Space,
    f2_cleared_ranks,
    f2_combine,
    f2_pack,
    sparse_elementary_divisors,
    sparse_rank,
)

RINGS = ("z", "q", "f2")


def dense_block(block, width):
    """Sparse block rows as a dense integer matrix with ``width`` columns."""
    out = [[0] * width for _ in block]
    for row, entries in zip(out, block):
        for j, a in entries:
            row[j] = a
    return out


@cache
def _coordinate_tuples(width):
    """The 0/1 coordinate tuple of every packed value of ``width`` bits,
    indexed by the value; built once per width.  Shared; callers must not
    mutate it."""
    return [tuple((v >> j) & 1 for j in range(width)) for v in range(1 << width)]


def _square_nonzero(q, i):
    raise BoundarySquareNonzero(f"boundary squared nonzero in degree {q}, row {i}")


def check_f2_square_zero(rows):
    """D_q . D_{q-1} = 0 mod 2 for packed boundary rows ``rows[q]`` per
    degree: for each row of D_q the XOR of the D_{q-1} rows at its set bits
    must be 0."""
    for q, block in rows.items():
        below = rows.get(q - 1)
        if below is None:
            continue
        for i, r in enumerate(block):
            if f2_combine(r, below):
                _square_nonzero(q, i)


def _pack_f2(rows):
    """Rows {column: entry} as packed rows mod 2, one at a time."""
    for row in rows:
        x = 0
        for j, v in row.items():
            if v & 1:
                x |= 1 << j
        yield x


def _check_ring(ring):
    if ring not in RINGS:
        raise ValueError(f"unknown ring {ring!r}")


class HomologySummary:
    """Per-degree free rank and, over Z, the torsion invariants d1 | d2 |..."""

    def __init__(self, data, ring):
        self.ring = ring
        self.data = {q: (int(r), tuple(t)) for q, (r, t) in data.items()}

    def rank(self, q):
        return self.data.get(q, (0, ()))[0]

    def torsion(self, q):
        return list(self.data.get(q, (0, ()))[1])

    @property
    def degrees(self):
        return sorted(self.data)

    def has_torsion(self):
        return any(t for (_, t) in self.data.values())

    def __eq__(self, other):
        return (
            isinstance(other, HomologySummary)
            and self.ring == other.ring
            and self.data == other.data
        )

    def __repr__(self):
        parts = []
        for q in self.degrees:
            r, t = self.data[q]
            parts.append(f"H_{q}={r}" + (f"+{list(t)}" if t else ""))
        return f"HomologySummary({self.ring}: " + ", ".join(parts) + ")"


class CellLayout:
    """Cells as blocks of bits, ``widths[ci]`` bits for cell ci, laid end to
    end per degree in the order of ``cells_by_dim``: the block of ci starts
    at ``offset[ci]`` within its degree, and degree q holds ``size[q]``
    bits.  The offsets come from one pass per degree; ``walk`` lists the
    owning cell of each bit of a degree on its first read of that degree."""

    def __init__(self, cells_by_dim, widths):
        self.cells_by_dim, self.widths = cells_by_dim, widths
        self.offset = offset = [0] * len(widths)
        self.size = {}
        for q, cells in cells_by_dim.items():
            off = 0
            for ci in cells:
                offset[ci] = off
                off += widths[ci]
            self.size[q] = off
        self._owner = {}  # q -> the cell of each bit of degree q

    def walk(self, vec, q):
        """(cell, bits) for each q-cell whose block of the packed vector vec
        holds a set bit, as a list in offset order; bits at or above
        size[q] are ignored.  The top set bit names its cell in the
        degree's table of bit owners, and that block is cleared: the blocks
        come top down and are listed reversed."""
        owner = self._owner.get(q)
        if owner is None:
            owner = self._owner[q] = []
            for ci in self.cells_by_dim.get(q, ()):
                owner += [ci] * self.widths[ci]
        offset, out = self.offset, []
        vec &= (1 << len(owner)) - 1
        while vec:
            ci = owner[vec.bit_length() - 1]
            bits = vec >> offset[ci]
            out.append((ci, bits))
            vec ^= bits << offset[ci]
        out.reverse()
        return out


class ChainComplex:
    """Boundary matrices of a cosheaf on a poset, with homology caches.

    ``ranks``: value rank per cell index, the widths of the complex's
    CellLayout ``layout``: the coordinates of a cell start at ``offset[ci]``
    within its degree, and degree q has ``dim_q[q]`` of them.
    ``sign`` is the signature on the covers, and ``blocks`` maps each cover
    (y below x) to the integer matrix taking x-coordinates to y-coordinates,
    as sparse rows: per x-coordinate, a sequence of (y-coordinate, entry)
    pairs naming each y-coordinate at most once, with a nonzero entry.
    ``D[q]`` holds the boundary rows as {column: entry}, the column keys of
    all rows of a degree taken from one list, so one int object per column.
    The F2 rank pass packs the rows of ``D`` transiently; ``f2_rows``
    packs and caches them for the F2 chain operations, which read them
    again.
    """

    def __init__(self, poset, ranks, blocks, sign):
        self.poset = poset
        self.ranks = ranks = list(ranks)
        self.degrees = list(range(0, poset.max_dim + 1))
        self._boundary_degrees = range(1, poset.max_dim + 1)
        self.cells_q = poset.cells_by_dim
        self.layout = CellLayout(self.cells_q, ranks)
        self.offset = offset = self.layout.offset
        self.dim_q = self.layout.size
        self._rank_cache = {}
        self._f2_cache = {}
        self._f2_space_cache = {}
        cells = poset.cells
        self.D = {q: [{} for _ in range(self.dim_q[q])] for q in self._boundary_degrees}
        # keys from one list per degree, not oy + j: one int object per column
        columns = {q: list(range(self.dim_q[q - 1])) for q in self._boundary_degrees}
        # The row of a coordinate of x gets entries only from the covers
        # (y, x).  Those have distinct y, hence disjoint column ranges
        # [offset[y], offset[y] + rank[y]), and a block row names each
        # y-coordinate once with a nonzero entry, so no two writes meet and
        # each entry is stored as it comes.
        for (yi, xi) in poset.covers:
            rx, ry = ranks[xi], ranks[yi]
            if rx == 0 or ry == 0:
                continue
            s = sign[yi, xi]
            block = blocks[yi, xi]
            ox, oy = offset[xi], offset[yi]
            q = cells[xi].dim
            rows, cols = self.D[q], columns[q][oy : oy + ry]
            for i in range(rx):
                row = rows[ox + i]
                for j, a in block[i]:
                    row[cols[j]] = s * a
        self._check_square_zero()

    # -- structure -------------------------------------------------------------
    def _check_square_zero(self):
        """D_q . D_{q-1} = 0 over Z for every q."""
        for q in self.degrees[2:]:
            Dq, Dq1 = self.D[q], self.D[q - 1]
            for i, row in enumerate(Dq):
                acc = {}
                for k, v in row.items():
                    for j, w in Dq1[k].items():
                        acc[j] = acc.get(j, 0) + v * w
                if any(acc.values()):
                    _square_nonzero(q, i)

    def dim(self, q):
        return self.dim_q.get(q, 0)

    def euler_characteristic(self):
        return sum((-1) ** q * self.dim(q) for q in self.degrees)

    # -- ranks and homology ------------------------------------------------------
    def rank_boundary(self, q, ring):
        _check_ring(ring)
        if q not in self._boundary_degrees or self.dim(q) == 0 or self.dim(q - 1) == 0:
            return 0
        key = (q, "f2" if ring == "f2" else "q")
        if key not in self._rank_cache:
            if ring == "f2":
                rows = {
                    d: enumerate(self._f2_cache[d] if d in self._f2_cache else _pack_f2(self.D[d]))
                    for d in self._boundary_degrees
                }
                for d, rank in f2_cleared_ranks(rows).items():
                    self._rank_cache[d, "f2"] = rank
            else:
                self._rank_cache[key] = sparse_rank(self.D[q])
        return self._rank_cache[key]

    def _elementary_divisors(self, q):
        """Nonzero elementary divisors of D_q, from one elimination.

        Stores the Q rank they give (their count) unless one is cached, and
        checks a cached F2 rank against them: rank over F2 = number of odd
        divisors.  The Q rank is not compared: ``sparse_rank`` counts the
        diagonal of the same elimination, so the two cannot differ.
        """
        key = (q, "z")
        if key not in self._rank_cache:
            divisors = sparse_elementary_divisors(self.D[q])
            self._rank_cache.setdefault((q, "q"), len(divisors))
            odd = sum(d & 1 for d in divisors)
            cached = self._rank_cache.get((q, "f2"), odd)
            if cached != odd:
                raise InternalCheckError(
                    f"rank of D_{q} over f2 is {cached}, "
                    f"but its elementary divisors give {odd}"
                )
            self._rank_cache[key] = divisors
        return self._rank_cache[key]

    def homology(self, ring):
        _check_ring(ring)
        torsion = {}
        if ring == "z":
            for q in self._boundary_degrees:
                torsion[q - 1] = tuple(d for d in self._elementary_divisors(q) if d > 1)
        data = {}
        for q in self.degrees:
            rank = self.dim(q) - self.rank_boundary(q, ring) - self.rank_boundary(
                q + 1, ring
            )
            data[q] = (rank, torsion.get(q, ()))
        return HomologySummary(data, ring)

    # -- F2 chain operations -------------------------------------------------------
    def f2_rows(self, q):
        """Packed rows of D_q mod 2, built on first read and cached for the
        chain operations below, which read them again."""
        if q not in self._f2_cache:
            rows = self.D[q] if q in self._boundary_degrees else ()
            self._f2_cache[q] = list(_pack_f2(rows))
        return self._f2_cache[q]

    def _f2_image_space(self, q):
        if q not in self._f2_space_cache:
            self._f2_space_cache[q] = F2Space(self.f2_rows(q))
        return self._f2_space_cache[q]

    def f2_boundary(self, vec, q):
        """Boundary of a packed degree-q chain, as a packed degree-q-1 chain."""
        rows = self.f2_rows(q)
        return f2_combine(vec, rows) if rows else 0

    def f2_is_cycle(self, vec, q):
        return q == 0 or self.f2_boundary(vec, q) == 0

    def f2_is_boundary(self, vec, q):
        if not self.f2_is_cycle(vec, q):
            raise NotAClosedChain(f"chain in degree {q} is not closed")
        if vec == 0:
            return True
        if q + 1 not in self._boundary_degrees:
            return False
        return self._f2_image_space(q + 1).contains(vec)

    def f2_homology_generators(self, q):
        """Packed cycle representatives of a basis of H_q over F2."""
        if q in self._boundary_degrees and self.dim(q - 1) > 0:
            # solve writes a row over the rows that enlarged the image: one
            # of those is its own solution, and any other row gives the
            # kernel vector of its dependence on the earlier ones
            image = self._f2_image_space(q)
            kernel = (image.solve(r) ^ (1 << i) for i, r in enumerate(self.f2_rows(q)))
            cycles = [v for v in kernel if v]
        else:
            cycles = [1 << i for i in range(self.dim(q))]
        space = F2Space(self.f2_rows(q + 1))
        return [v for v in cycles if space.add(v)]

    # -- chain <-> cell-dict conversion ---------------------------------------------
    def pack_chain(self, chain, q=None):
        """(q, packed vector) of {cell key: 0/1 coordinate tuple}, in one
        pass: every cell must have the degree q, the first cell's unless q
        is given, and a tuple one entry per coordinate of its cell.  The
        empty chain is (q, 0)."""
        poset, ranks, offset = self.poset, self.ranks, self.offset
        index, cells = poset.cell_index, poset.cells
        vec = 0
        for key, coords in chain.items():
            ci = index.get(key)
            if ci is None:
                raise SupportViolation(f"{key} is not a {poset.kind}-poset cell")
            if q is None:
                q = cells[ci].dim
            elif cells[ci].dim != q:
                raise NotAClosedChain(f"chain mixes degrees: {key} is not in {q}")
            if len(coords) != ranks[ci]:
                raise InputError(
                    f"chain coefficient of {key} has {len(coords)} entries, "
                    f"not its value rank {ranks[ci]}"
                )
            vec |= f2_pack(coords) << offset[ci]
        return q, vec

    def chain_to_packed(self, chain, q):
        """{cell key: 0/1 coordinate tuple} -> packed vector in degree q."""
        return self.pack_chain(chain, q)[1]

    def packed_to_chain(self, vec, q):
        """Packed vector in degree q -> {cell key: 0/1 coordinate tuple}, in
        offset order; bits at or above dim(q) are ignored.  Only the cells
        holding a set bit are visited (``CellLayout.walk``), and each tuple
        is read from the table of its width (``_coordinate_tuples``)."""
        cells, ranks = self.poset.cells, self.ranks
        return {
            cells[ci].key: _coordinate_tuples(ranks[ci])[bits]
            for ci, bits in self.layout.walk(vec, q)
        }

    def __repr__(self):
        dims = ", ".join(f"C_{q}={self.dim(q)}" for q in self.degrees)
        return f"ChainComplex({dims})"
