import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropmirror.chains import (
    CellLayout,
    ChainComplex,
    check_f2_square_zero,
    dense_block,
)
from tropmirror.cosheaves import CosheafEvaluator
from conftest import CUBIC_DUAL_VERTS, CUBIC_VERTS, in_j0ub, phi, rows_betti
from tropmirror.errors import BoundarySquareNonzero, FreenessError, InputError, InternalCheckError
from tropmirror.exterior import dim_wedge, wedge_matrix
from tropmirror.intlinalg import (
    det,
    f2_cleared_ranks,
    f2_rank,
    hnf_basis,
    left_kernel,
    mat_mul,
    sparse_elementary_divisors,
    vec_mat,
)
from tropmirror.lattice import LatticePolytope
from tropmirror.modules import Frame, FreeQuotient
from tropmirror.pairs import MirrorPair
from tropmirror.posets import gauge_twist
from tropmirror.triangulate import CentralTriangulation, generate_central, validate

# every tag CosheafEvaluator.value accepts
TAGS = ("multitangent", "kernel", "mirror", "mirror_ext", "quotient")


# -- tiny hand-built complexes (oracle smoke tests) -----------------------------

class FakePoset:
    """Minimal poset stand-in for driving ChainComplex directly."""

    def __init__(self, dims, covers):
        class C:
            __slots__ = ("dim", "index", "key")

            def __init__(self, dim, index):
                self.dim = dim
                self.index = index
                self.key = index

        self.cells = [C(d, i) for i, d in enumerate(dims)]
        self.covers = covers
        self.max_dim = max(dims)
        self.cells_by_dim = {q: [i for i, d in enumerate(dims) if d == q]
                             for q in range(self.max_dim + 1)}
        self.cell_index = {i: i for i in range(len(dims))}
        self.below = {i: [] for i in range(len(dims))}
        for (y, x) in covers:
            self.below[x].append(y)


def test_circle_constant_coefficients():
    # two vertices, two edges
    poset = FakePoset([0, 0, 1, 1], [(0, 2), (1, 2), (0, 3), (1, 3)])
    sign = {(0, 2): 1, (1, 2): -1, (0, 3): 1, (1, 3): -1}
    blocks = {c: [((0, 1),)] for c in poset.covers}
    cx = ChainComplex(poset, [1, 1, 1, 1], blocks, sign)
    for ring in ("z", "q", "f2"):
        h = cx.homology(ring)
        assert h.rank(0) == 1 and h.rank(1) == 1
        assert not h.has_torsion()


def test_interval_constant_coefficients():
    poset = FakePoset([0, 0, 1], [(0, 2), (1, 2)])
    sign = {(0, 2): 1, (1, 2): -1}
    blocks = {c: [((0, 1),)] for c in poset.covers}
    cx = ChainComplex(poset, [1, 1, 1], blocks, sign)
    h = cx.homology("z")
    assert h.rank(0) == 1 and h.rank(1) == 0


def test_torsion_smoke():
    # 0 -> Z --x2--> Z: H_0 = Z/2
    poset = FakePoset([0, 1], [(0, 1)])
    cx = ChainComplex(poset, [1, 1], {(0, 1): [((0, 2),)]}, {(0, 1): 1})
    h = cx.homology("z")
    assert h.rank(0) == 0 and h.torsion(0) == [2]
    assert cx.homology("q").rank(0) == 0
    assert cx.homology("f2").rank(0) == 1  # mod 2 the map dies


def test_z_divisors_checked_against_cached_f2_rank():
    poset = FakePoset([0, 1], [(0, 1)])
    cx = ChainComplex(poset, [1, 1], {(0, 1): [((0, 2),)]}, {(0, 1): 1})
    cx.homology("f2")
    assert cx._rank_cache[(1, "f2")] == 0  # D_1 = (2) has one even divisor
    cx._rank_cache[(1, "f2")] = 1
    with pytest.raises(InternalCheckError):
        cx.homology("z")


def test_f2_form_checks_its_square_mod2():
    # a triangle with constant F2 coefficients, given as packed boundary
    # rows with no signature (edges 01, 12, 02 over the vertices, the face
    # over the three edges): the square vanishes mod 2 and the homology is
    # a point's; dropping one edge from the boundary of the 2-cell leaves an
    # odd square, which the row check refuses
    rows = {1: [0b011, 0b110, 0b101], 2: [0b111]}
    check_f2_square_zero(rows)
    assert rows_betti(rows, [range(3), range(3), range(1)]) == [1, 0, 0]
    with pytest.raises(BoundarySquareNonzero, match="degree 2, row 0"):
        check_f2_square_zero({1: rows[1], 2: [0b011]})


# -- F2 ranks by clearing ------------------------------------------------------------

def _closure(simplices):
    """Every nonempty face of the given simplices, as sorted tuples."""
    out = set()
    for s in simplices:
        s = tuple(sorted(s))
        for k in range(1, len(s) + 1):
            out.update(combinations(s, k))
    return out


def _numbered(faces, rng):
    """The faces by degree, in a random order per degree."""
    by_dim = {}
    for f in sorted(faces):
        by_dim.setdefault(len(f) - 1, []).append(f)
    for numbering in by_dim.values():
        rng.shuffle(numbering)
    return by_dim


@st.composite
def _simplicial_complexes(draw):
    """A random simplicial complex, numbered in a random order per degree,
    and the faces of the subcomplex spanned by some of its top simplices."""
    n = draw(st.integers(1, 9))
    tops = draw(st.lists(
        st.sets(st.integers(0, n - 1), min_size=1, max_size=5), min_size=1, max_size=12
    ))
    keep = draw(st.lists(st.booleans(), min_size=len(tops), max_size=len(tops)))
    by_dim = _numbered(_closure(tops), draw(st.randoms(use_true_random=False)))
    return by_dim, _closure(t for t, k in zip(tops, keep) if k)


def _simplicial_chain_complex(by_dim):
    """The simplicial chain complex with unit values, numbered as given."""
    order = [f for q in sorted(by_dim) for f in by_dim[q]]
    index = {f: i for i, f in enumerate(order)}
    covers, sign = [], {}
    for f in order:
        for i in range(len(f) if len(f) > 1 else 0):
            cover = (index[f[:i] + f[i + 1 :]], index[f])
            covers.append(cover)
            sign[cover] = (-1) ** i
    poset = FakePoset([len(f) - 1 for f in order], covers)
    blocks = {cover: [((0, 1),)] for cover in covers}
    return ChainComplex(poset, [1] * len(order), blocks, sign)


def _check_cleared_ranks(by_dim, sub):
    """Cleared F2 ranks equal f2_rank's in every degree, for the whole
    complex and for the closed span of the faces in ``sub``, whose rows keep
    their positions in the wider numbering."""
    cx = _simplicial_chain_complex(by_dim)
    top = max(by_dim)
    rows = {q: cx.f2_rows(q) for q in range(1, top + 1)}
    plain = {q: f2_rank(r) for q, r in rows.items()}
    assert f2_cleared_ranks({q: enumerate(r) for q, r in rows.items()}) == plain
    # each degree read once, as the rank pass of a complex reads it
    assert f2_cleared_ranks({q: ((i, x) for i, x in enumerate(r)) for q, r in rows.items()}) == plain
    h = cx.homology("f2")
    assert {q: cx.rank_boundary(q, "f2") for q in rows} == plain
    assert [h.rank(q) for q in h.degrees] == [
        cx.dim(q) - plain.get(q, 0) - plain.get(q + 1, 0) for q in range(top + 1)
    ]
    masks = {
        q: sum(1 << i for i, f in enumerate(by_dim[q]) if f in sub)
        for q in range(top + 1)
    }
    kept = {0: {i: 0 for i in range(len(by_dim[0])) if masks[0] >> i & 1}}
    for q in rows:
        kept[q] = {i: r for i, r in enumerate(rows[q]) if masks[q] >> i & 1}
        assert all(r & ~masks[q - 1] == 0 for r in kept[q].values())
    plain_sub = {q: f2_rank(r.values()) for q, r in kept.items()}
    assert f2_cleared_ranks({q: r.items() for q, r in kept.items()}) == plain_sub
    assert f2_cleared_ranks({q: (item for item in r.items()) for q, r in kept.items()}) == plain_sub
    assert [len(kept[q]) for q in range(top + 1)] == [m.bit_count() for m in masks.values()]
    assert rows_betti(rows, [list(kept[q]) for q in range(top + 1)]) == [
        len(kept[q]) - plain_sub[q] - plain_sub.get(q + 1, 0) for q in range(top + 1)
    ]


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(_simplicial_complexes())
def test_cleared_f2_ranks_match_plain_ranks(data):
    # clearing skips the rows of D_q whose index leads a reduced row of
    # D_{q+1}; every rank must still equal f2_rank's
    _check_cleared_ranks(*data)


def test_cleared_f2_ranks_on_subcomplexes_of_a_3_skeleton():
    # spans of 12 of the 70 tetrahedra on 8 vertices, with every face of the
    # 3-skeleton numbered: the kept rows of D_q keep their positions in the
    # wider numbering, with gaps between them
    tets = list(combinations(range(8), 4))
    faces = _closure(tets)
    for seed in range(20):
        rng = random.Random(seed)
        _check_cleared_ranks(_numbered(faces, rng), _closure(rng.sample(tets, 12)))


def test_clearing_skips_the_rows_the_degree_above_pairs():
    # D_2 = (e_0) and D_1 = (e_0): the square is nonzero, so row 0 of D_1 is
    # not a sum of earlier rows, yet clearing skips it, at position 0 as at
    # the gapped positions of a subcomplex in a wider numbering; a rank is
    # exact only on a complex whose square was checked
    rows = {2: [0b1], 1: [0b1]}
    assert {q: f2_rank(r) for q, r in rows.items()} == {2: 1, 1: 1}
    assert f2_cleared_ranks({q: enumerate(r) for q, r in rows.items()}) == {2: 1, 1: 0}
    assert f2_cleared_ranks({2: [(4, 1 << 3)], 1: [(3, 1 << 5)]}) == {2: 1, 1: 0}


def _packed_mod2(rows):
    return [sum(1 << j for j, v in row.items() if v & 1) for row in rows]


def test_cleared_f2_ranks_match_odd_divisors(cubic_pair, k3_pair, cy3_pair):
    # on the cubic, K3 and CY3 16-cell Newton sides, the cleared F2 rank of
    # every boundary of every multitangent complex is the number of odd
    # elementary divisors of its integer elimination; the rank pass packs
    # its rows as it reads them and caches none, and a later f2_rows packs
    # the same rows, whose cleared ranks are the same
    for side in (cubic_pair.side_a, k3_pair.side_a, cy3_pair.side_a):
        ev = CosheafEvaluator(side.ambient, side.newton)
        for p in range(side.rank):
            cx = ev.chain_complex(side.base_poset, "multitangent", p)
            h = cx.homology("f2")
            assert cx._f2_cache == {}, p
            ranks = {}
            for q in range(1, side.rank + 1):
                divisors = sparse_elementary_divisors(cx.D[q])
                ranks[q] = cx.rank_boundary(q, "f2")
                assert ranks[q] == sum(d & 1 for d in divisors), (p, q)
                assert cx.f2_rows(q) == _packed_mod2(cx.D[q]), (p, q)
            assert f2_cleared_ranks({q: enumerate(cx.f2_rows(q)) for q in ranks}) == ranks
            # a second rank pass, now over the cached rows, gives the same table
            cx._rank_cache.clear()
            assert cx.homology("f2") == h, p


def _plain_key_assembly(cx, blocks, sign):
    """D of a complex assembled with a fresh ``oy + j`` key per entry."""
    cells = cx.poset.cells
    D = {q: [{} for _ in range(cx.dim(q))] for q in range(1, cx.poset.max_dim + 1)}
    for (yi, xi), block in blocks.items():
        ox, oy = cx.offset[xi], cx.offset[yi]
        for i, entries in enumerate(block):
            for j, a in entries:
                D[cells[xi].dim][ox + i][oy + j] = sign[yi, xi] * a
    return D


def test_assembly_shares_one_key_object_per_column(cubic_pair, k3_pair):
    # on both sides of the cubic and K3 pairs, every multitangent complex
    # equals an assembly with plain ``oy + j`` keys, and the rows of each
    # degree together use at most one key object per column
    for pair in (cubic_pair, k3_pair):
        for side in pair.sides:
            ev, poset = side.evaluator, side.base_poset
            for p in range(side.rank + 1):
                cx = ev.chain_complex(poset, "multitangent", p)
                blocks = {
                    (yi, xi): ev.map_matrix("multitangent", p, poset.cells[yi], poset.cells[xi])
                    for yi, xi in poset.covers
                    if cx.ranks[yi] and cx.ranks[xi]
                }
                assert cx.D == _plain_key_assembly(cx, blocks, poset.sign), p
                for q, rows in cx.D.items():
                    keys = {id(j) for row in rows for j in row}
                    assert len(keys) <= cx.dim(q - 1), (p, q)


def test_doctored_cleared_f2_rank_is_caught_by_z(k3_pair):
    # the Z elimination cross-checks the cached F2 ranks by its odd divisors:
    # one cleared rank off by one in any degree is refused
    side = k3_pair.side_a
    ev = CosheafEvaluator(side.ambient, side.newton)
    cx = ev.chain_complex(side.base_poset, "multitangent", 1)
    cx.homology("f2")
    clean = dict(cx._rank_cache)
    for q in range(1, side.rank + 1):
        cx._rank_cache = dict(clean)
        cx._rank_cache[q, "f2"] += 1
        with pytest.raises(InternalCheckError, match=f"D_{q} over f2"):
            cx.homology("z")
    cx._rank_cache = dict(clean)
    hz, hf = cx.homology("z"), cx.homology("f2")
    assert [hz.rank(q) for q in hz.degrees] == [hf.rank(q) for q in hf.degrees]


def test_f2_homology_generators_form_a_basis(cubic_pair):
    circle = FakePoset([0, 0, 1, 1], [(0, 2), (1, 2), (0, 3), (1, 3)])
    complexes = [
        ChainComplex(circle, [1, 1, 1, 1], {c: [((0, 1),)] for c in circle.covers},
                     {(0, 2): 1, (1, 2): -1, (0, 3): 1, (1, 3): -1}),
        ChainComplex(FakePoset([0, 1], [(0, 1)]), [1, 1], {(0, 1): [((0, 2),)]},
                     {(0, 1): 1}),
    ]
    side = cubic_pair.side_a
    for kind in ("base", "refined"):
        for p in range(side.n + 1):
            complexes.append(side.complex(kind, "multitangent", p))
    for cx in complexes:
        h = cx.homology("f2")
        for q in cx.degrees:
            gens = cx.f2_homology_generators(q)
            assert len(gens) == h.rank(q), (cx, q)
            assert all(cx.f2_is_cycle(v, q) for v in gens), (cx, q)
            # independent modulo the boundaries
            bounds = cx.f2_rows(q + 1) if (q + 1) in cx.D else []
            assert f2_rank(bounds + gens) == f2_rank(bounds) + len(gens), (cx, q)


def _packed_to_chain_by_shifts(cx, vec, q):
    """The reference: every coordinate of every cell of degree q, read by
    one shift each."""
    out = {}
    for ci in cx.cells_q[q]:
        r = cx.ranks[ci]
        if r == 0:
            continue
        off = cx.offset[ci]
        coords = tuple((vec >> (off + j)) & 1 for j in range(r))
        if any(coords):
            out[cx.poset.cells[ci].key] = coords
    return out


def _random_vectors(rng, d):
    """0, all ones, dense vectors with bits above d, and sparse ones."""
    vecs = [0, (1 << d) - 1] + [rng.getrandbits(d + 4) for _ in range(4)]
    if d:
        vecs += [
            sum(1 << rng.randrange(d) for _ in range(rng.randint(1, 3)))
            for _ in range(4)
        ]
    return vecs


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(st.lists(st.lists(st.integers(0, 3), max_size=6), min_size=1, max_size=4), st.data())
def test_cell_layout_offsets_and_walk(widths_by_dim, data):
    # cells numbered in a drawn order, with zero widths among them: offsets
    # are running sums per degree, and the walk returns the nonzero
    # per-cell slices of a vector (bits above the degree's size included)
    # in offset order
    ids = data.draw(st.permutations(range(sum(map(len, widths_by_dim)))))
    cells_by_dim, widths, it = {}, [0] * len(ids), iter(ids)
    for q, ws in enumerate(widths_by_dim):
        cells_by_dim[q] = [next(it) for _ in ws]
        for ci, w in zip(cells_by_dim[q], ws):
            widths[ci] = w
    layout = CellLayout(cells_by_dim, widths)
    for q, cells in cells_by_dim.items():
        starts = [sum(widths[c] for c in cells[:i]) for i in range(len(cells))]
        assert [layout.offset[ci] for ci in cells] == starts
        assert layout.size[q] == sum(widths[ci] for ci in cells)
        vec = data.draw(st.integers(0, (1 << (layout.size[q] + 3)) - 1))
        slices = [(ci, (vec >> off) & ((1 << widths[ci]) - 1)) for ci, off in zip(cells, starts)]
        assert list(layout.walk(vec, q)) == [(ci, bits) for ci, bits in slices if bits]


def test_packed_to_chain_matches_shift_loop(k3_pair):
    # the bit walk visits only the cells holding a set bit; dense vectors
    # carry bits above dim(q) as well, which are ignored.  The phase frame's
    # numbering, 2^qd points per cell with edges, splits the same way
    rng = random.Random(23)
    for side in (k3_pair.side_a, k3_pair.side_b):
        for tag in ("multitangent", "mirror_ext", "mirror"):
            for p in range(side.n + 1):
                cx = side.complex("refined", tag, p)
                for q in cx.degrees:
                    for vec in _random_vectors(rng, cx.dim(q)):
                        got = cx.packed_to_chain(vec, q)
                        want = _packed_to_chain_by_shifts(cx, vec, q)
                        assert list(got.items()) == list(want.items()), (tag, p, q)
    for side in (k3_pair.side_a, k3_pair.side_b):
        frame = side.phase_frame("refined")
        for q, cells in frame.poset.cells_by_dim.items():
            widths = {ci: 1 << frame.cells[ci][1] if frame.cells[ci][2] else 0 for ci in cells}
            for vec in _random_vectors(rng, frame.layout.size[q]):
                slices = [
                    (ci, (vec >> frame.offset[ci]) & ((1 << w) - 1)) for ci, w in widths.items()
                ]
                assert list(frame.layout.walk(vec, q)) == [s for s in slices if s[1]], q


# -- multitangent values ---------------------------------------------------------

def test_frame_needs_a_direct_summand():
    # the projection Q and lift R come from a unimodular completion of the
    # generators: G Q = 0 and R Q = I; a span that is not a direct summand,
    # or dependent generators, have none
    frame = Frame(((1, 1, 0), (0, 2, 1)), 3)
    assert mat_mul([[1, 1, 0], [0, 2, 1]], frame.Q) == [[0], [0]]
    assert mat_mul(frame.R, frame.Q) == [[1]]
    for gens in (((2, 0, 0),), ((1, 0, 0), (2, 0, 0))):
        with pytest.raises(FreenessError, match="not a direct summand"):
            Frame(gens, 3)


def test_f0_rank_one_everywhere(cubic_pair):
    side = cubic_pair.side_a
    for c in side.base_poset.cells:
        v = side.evaluator.value("multitangent", 0, c)
        assert v.rank == (1 if len(c.sigma) >= 2 else 0)


def test_f1_ranks_on_cubic_cells(cubic_pair):
    side = cubic_pair.side_a
    poset = side.base_poset
    o = side.newton.origin
    for c in poset.cells:
        v = side.evaluator.value("multitangent", 1, c)
        if c.tau == (o,) and len(c.sigma) == 3:
            # maximal triangle: three edge annihilator lines sum to rank 2
            assert v.rank == 2
        if c.tau == (o,) and len(c.sigma) == 2:
            assert v.rank == 1


def test_annihilator_line_example(cubic_pair):
    # edge from (-1,-1) to (-1,0): annihilator spanned by (1,0)
    side = cubic_pair.side_a
    poset = side.base_poset
    cell = poset.cells[poset.cell_index[(((0, 0),), ((-1, -1), (-1, 0)))]]
    v = side.evaluator.value("multitangent", 1, cell)
    assert v.rank == 1
    assert hnf_basis([list(v.rep(0))]) == [[1, 0]]


def _minor_route_sub(ev, p, stratum, sigma):
    """F_p(sigma) built edge by edge: every p-subset of each edge annihilator
    basis, wedged by its p x p minors with one det per minor."""
    Q = ev.frame(stratum).Q
    q = len(Q[0])
    cols = list(combinations(range(q), p))
    if len(sigma) < 2 or not cols:
        return []
    rows = []
    for a, b in combinations(sigma, 2):
        perp = left_kernel([[x - y] for x, y in zip(b, a)])
        B = hnf_basis([vec_mat(list(r), Q) for r in perp])
        for sub in combinations(B, p):
            rows.append([det([[r[j] for j in J] for r in sub]) for J in cols])
    return FreeQuotient(len(cols), rows).sub


def test_multitangent_values_match_minor_route(cubic_pair, k3_pair, quartic_pair):
    for pair in (cubic_pair, k3_pair, quartic_pair):
        for side in pair.sides:
            ev = side.evaluator
            expected = {}
            for poset in (side.base_poset, side.refined_poset):
                for cell in poset.cells:
                    stratum = ev.value_stratum("multitangent", cell)
                    for p in range(ev.m + 1):
                        key = (p, stratum, cell.sigma)
                        if key not in expected:
                            expected[key] = _minor_route_sub(ev, *key)
                        got = ev.value("multitangent", p, cell).sub
                        assert got == expected[key], (cell.key, p)


# -- hodge tables ------------------------------------------------------------------

def test_cubic_hodge_table_all_ones(cubic_pair):
    for side in cubic_pair.sides:
        for ring in ("q", "f2", "z"):
            table = side.hodge_table(ring)
            assert table["ranks"] == [[1, 1], [1, 1]], (ring, table)
            if ring == "z":
                assert all(
                    t == [] for row in table["torsion"] for t in row
                )


def test_sphere_class_is_rank_one(cubic_pair):
    # H_n of the degree-0 cosheaf is the fundamental class of the sphere
    side = cubic_pair.side_a
    assert side.homology("base", "multitangent", 0, "z").rank(side.n) == 1


def test_refinement_invariance(cubic_pair):
    # same homology on the base poset and on its refinement
    side = cubic_pair.side_a
    for p in range(side.n + 1):
        for ring in ("z", "f2"):
            hb = side.homology("base", "multitangent", p, ring)
            hr = side.homology("refined", "multitangent", p, ring)
            for q in range(side.n + 2):
                assert hb.rank(q) == hr.rank(q), (p, q, ring)
                assert hb.torsion(q) == hr.torsion(q)


def test_sphere_subcomplex_homology(cubic_pair):
    # constant coefficients on the sphere part: homology of the n-sphere,
    # both in the base poset and in its refinement
    for kind, tag in (("base", "multitangent"), ("refined", "mirror")):
        side = cubic_pair.side_a
        poset = side.poset(kind)
        if kind == "base":
            keep = {c.index for c in poset.cells if poset.on_sphere(c)}
            ranks = [
                side.evaluator.value(tag, 0, c).rank if c.index in keep else 0
                for c in poset.cells
            ]
            blocks = {}
            for (yi, xi) in poset.covers:
                if ranks[yi] and ranks[xi]:
                    blocks[(yi, xi)] = [((0, 1),)]
            cx = ChainComplex(poset, ranks, blocks, poset.sign)
        else:
            cx = side.evaluator.chain_complex(poset, tag, 0)
        h = cx.homology("z")
        assert h.rank(side.n) == 1 and h.rank(0) == 1
        assert not h.has_torsion()
        assert all(h.rank(q) == 0 for q in range(1, side.n))


def test_exactness_ranks_cellwise(cubic_pair):
    # rank M + rank Q = rank M_ext and rank R + rank M_ext = rank F, cellwise,
    # with vanishing composites
    side = cubic_pair.side_a
    poset = side.refined_poset
    ev = side.evaluator
    for p in range(side.n + 2):
        for c in poset.cells:
            vF = ev.value("multitangent", p, c)
            vR = ev.value("kernel", p, c)
            vM = ev.value("mirror", p, c)
            vMD = ev.value("mirror_ext", p, c)
            vQ = ev.value("quotient", p, c)
            assert vM.rank + vQ.rank == vMD.rank, (p, c)
            assert vR.rank + vMD.rank == vF.rank, (p, c)


def test_mirror_equals_multitangent_on_short_radial_cells(cubic_pair, k3_pair):
    # on sphere cells whose sigma is a radial edge the quotient is trivial
    for pair in (cubic_pair, k3_pair):
        side = pair.side_a
        poset = side.refined_poset
        ev = side.evaluator
        for c in poset.cells:
            if poset.on_sphere(c) and len(c.sigma) == 2:
                for p in range(side.n + 1):
                    vM = ev.value("mirror", p, c)
                    vF = ev.multitangent_value(p, (), c.sigma)
                    assert vM.rank == vF.rank
                    if vF.rank:
                        assert [vM.rep(i) for i in range(vM.rank)] == [
                            vF.rep(i) for i in range(vF.rank)
                        ]


def test_kernel_value_unchanged_by_radial_closure(cubic_pair):
    # the kernel cosheaf takes the same value at (tau, sigma) and at
    # (tau, sigma with the origin adjoined)
    side = cubic_pair.side_a
    poset = side.refined_poset
    ev = side.evaluator
    o = side.newton.origin
    for c in poset.cells:
        if not in_j0ub(poset, c):
            continue
        hat = poset.cell_index.get((c.tau, side.newton.sigma_hat(c.sigma)))
        if hat is None:
            continue
        for p in range(side.n + 2):
            a = ev.value("kernel", p, c)
            b = ev.value("kernel", p, poset.cells[hat])
            assert a.sub == b.sub


def test_unbounded_part_bijection(cubic_pair):
    # the finite unbounded cells biject with the cells at infinity by
    # adjoining the origin to tau
    side = cubic_pair.side_a
    poset = side.refined_poset
    j0ub = {c.key for c in poset.cells if in_j0ub(poset, c)}
    jinf = {c.key for c in poset.cells if poset.at_infinity(c)}
    image = {(side.ambient.sigma_hat(tau), sigma) for (tau, sigma) in j0ub}
    assert image == jinf


def test_acyclicity_quotient_and_kernel(cubic_pair):
    side = cubic_pair.side_a
    for tag in ("quotient", "kernel"):
        for p in range(side.n + 2):
            for ring in ("z", "f2"):
                h = side.homology("refined", tag, p, ring)
                assert all(h.rank(q) == 0 for q in h.degrees), (tag, p, ring)
                assert not h.has_torsion(), (tag, p, ring)


def test_ftom_isomorphism_summaries(cubic_pair):
    # F, mirror_ext and mirror complexes have equal homology in every degree
    side = cubic_pair.side_a
    for p in range(side.n + 1):
        for ring in ("z", "f2"):
            hs = [
                side.homology("refined", tag, p, ring)
                for tag in ("multitangent", "mirror_ext", "mirror")
            ]
            for q in range(side.n + 2):
                assert hs[0].rank(q) == hs[1].rank(q) == hs[2].rank(q)
                assert hs[0].torsion(q) == hs[1].torsion(q) == hs[2].torsion(q)


def test_mirror_pair_homology_equality(cubic_pair, k3_pair):
    # the sphere-part mirror complexes of the two sides are isomorphic in
    # complementary degrees: equal summaries over Z and F2
    for pair in (cubic_pair, k3_pair):
        n = pair.n
        for p in range(n + 1):
            for ring in ("z", "f2"):
                ha = pair.side_a.homology("refined", "mirror", p, ring)
                hb = pair.side_b.homology("refined", "mirror", n - p, ring)
                for q in range(n + 2):
                    assert ha.rank(q) == hb.rank(q), (p, q, ring)
                    assert ha.torsion(q) == hb.torsion(q)


def test_collapse_map_order_preserving(cubic_pair, k3_pair):
    # the surjection refined -> base (forgetting the split at infinity)
    # preserves the order on every cover
    for pair in (cubic_pair, k3_pair):
        refined = pair.side_a.refined_poset
        base = pair.side_a.base_poset
        for (yi, xi) in refined.covers:
            fy = phi(refined, refined.cells[yi].key)
            fx = phi(refined, refined.cells[xi].key)
            assert fy in base.cell_index and fx in base.cell_index
            assert set(fx[0]) <= set(fy[0]) and set(fx[1]) <= set(fy[1])


def test_sphere_f2_homology(cubic_pair, k3_pair):
    # constant mod-2 coefficients on the sphere part: mod-2 homology of the
    # n-sphere in every degree
    for pair in (cubic_pair, k3_pair):
        side = pair.side_a
        cx = side.evaluator.chain_complex(side.refined_poset, "mirror", 0)
        h = cx.homology("f2")
        n = side.n
        expected = [1] + [0] * (n - 1) + [1]
        assert [h.rank(q) for q in range(n + 1)] == expected


def test_functoriality_diamonds_commute(cubic_pair):
    # cosheaf maps compose path-independently through every diamond
    side = cubic_pair.side_a
    poset = side.refined_poset
    ev = side.evaluator
    for tag, p in (("multitangent", 1), ("mirror_ext", 1), ("kernel", 1)):
        for xi, lows in poset.below.items():
            for zi in lows:
                for yi in poset.below[zi]:
                    mids = [m for m in poset.below[xi] if yi in poset.below[m]]
                    paths = []
                    for m in mids:
                        a = dense_block(
                            ev.map_matrix(tag, p, poset.cells[m], poset.cells[xi]),
                            ev.value(tag, p, poset.cells[m]).rank,
                        )
                        b = dense_block(
                            ev.map_matrix(tag, p, poset.cells[yi], poset.cells[m]),
                            ev.value(tag, p, poset.cells[yi]).rank,
                        )
                        if a and b and a[0] is not None:
                            paths.append(mat_mul(a, b) if a and b else None)
                    if len(paths) == 2 and paths[0] and paths[1]:
                        assert paths[0] == paths[1]


def test_quartic_pair_k3_diamond(quartic_pair):
    # an independent K3 pair: both sides carry the same diamond, and the
    # auxiliary cosheaves stay acyclic
    expected = [[1, 0, 1], [0, 20, 0], [1, 0, 1]]
    for side in quartic_pair.sides:
        assert side.hodge_table("q")["ranks"] == expected
    table = quartic_pair.side_a.hodge_table("z")
    assert all(t == [] for row in table["torsion"] for t in row)
    for tag in ("quotient", "kernel"):
        for p in range(4):
            h = quartic_pair.side_a.homology("refined", tag, p, "z")
            assert all(h.rank(q) == 0 for q in h.degrees)
            assert not h.has_torsion()


def test_quartic_pair_transfer_and_verdicts(quartic_pair):
    from tropmirror.mirror import is_null_class, sphere_cycle, transfer_class
    from tropmirror.patchwork import (
        PhaseData,
        RealComplex,
        connectedness_verdict,
        sample_divisor_classes,
        mask_to_rays,
        signs_from_divisor,
    )

    side = quartic_pair.side_a
    n = side.n
    S = sphere_cycle(side)
    out = transfer_class(side, S, 0)
    assert not is_null_class(side.mirror, out, n, kind="refined")
    for mask in sample_divisor_classes(side, 10, seed=3):
        rays = mask_to_rays(side, mask)
        verdict = connectedness_verdict(side, rays)
        pd = PhaseData(side, side.base_poset, signs_from_divisor(side, rays))
        b0 = RealComplex(pd).component_count()
        assert b0 in (1, 2)
        assert (verdict == "connected") == (b0 == 1)


def test_pyramid_pair_with_two_sided_facet_interiors():
    # a K3 pair where BOTH polytopes have facet-interior lattice points, so
    # facet-interior divisor rays blow down on either side
    from tropmirror.mirror import divisor_restriction
    from tropmirror.patchwork import (
        PhaseData,
        RealComplex,
        connectedness_verdict,
        sample_divisor_classes,
        mask_to_rays,
        signs_from_divisor,
    )

    P = LatticePolytope([(-1, -1, 1), (-1, 2, 1), (2, -1, 1), (0, 0, -1)])
    pair = MirrorPair(generate_central(P), generate_central(P.dual()))
    expected = [[1, 0, 1], [0, 20, 0], [1, 0, 1]]
    for side in pair.sides:
        assert side.hodge_table("q")["ranks"] == expected
    for side in pair.sides:
        verts = set(side.newton.polytope.vertices)
        facets = side.newton.polytope.facets
        interior = [
            v
            for v in side.newton.rays()
            if sum(
                1
                for (nv, c) in facets
                if sum(a * b for a, b in zip(nv, v)) == c
            )
            == 1
        ]
        assert interior, "corpus choice lost its facet-interior points"
        assert divisor_restriction(side, interior) == {}
        # verdicts still agree with the component counts
        for mask in sample_divisor_classes(side, 8, seed=11):
            rays = mask_to_rays(side, mask)
            verdict = connectedness_verdict(side, rays)
            pd = PhaseData(side, side.base_poset, signs_from_divisor(side, rays))
            b0 = RealComplex(pd).component_count()
            assert (verdict == "connected") == (b0 == 1)


def test_no_mod2_jumps_on_corpus(cubic_pair, k3_pair):
    # integral homology of the corpus pairs is torsion-free, so the F2
    # tables agree with the rational ones (this also backs the vanishing
    # hypothesis used by the connectedness verdicts)
    for pair in (cubic_pair, k3_pair):
        for side in pair.sides:
            assert side.hodge_table("f2")["ranks"] == side.hodge_table("q")["ranks"]


def test_euler_characteristic_identity(cubic_pair):
    side = cubic_pair.side_a
    for p in range(side.n + 1):
        cx = side.complex("base", "multitangent", p)
        h = cx.homology("q")
        lhs = cx.euler_characteristic()
        rhs = sum((-1) ** q * h.rank(q) for q in h.degrees)
        assert lhs == rhs


def test_signature_independence(cubic_pair):
    # F2: an independently solved diamond signature gives the same summary;
    # Z: gauge twists of the default signature give the same summary
    from tropmirror.posets import balanced_signature

    side = cubic_pair.side_a
    poset = side.base_poset
    ev = side.evaluator
    rng = random.Random(41)
    for p in (0, 1):
        base = side.homology("base", "multitangent", p, "f2")
        base_z = side.homology("base", "multitangent", p, "z")
        order = list(range(len(poset.covers)))
        rng.shuffle(order)
        solved = balanced_signature(poset, variable_order=order)
        cx2 = ev.chain_complex(poset, "multitangent", p, sign=solved)
        assert cx2.homology("f2") == base
        gauge = {c.index: rng.choice((1, -1)) for c in poset.cells}
        cx3 = ev.chain_complex(
            poset, "multitangent", p, sign=gauge_twist(poset, poset.sign, gauge)
        )
        assert cx3.homology("z") == base_z
        # and one full solver solution checked over Z as well: on the full
        # poset the 2-cells pin the sphere orientation down
        cx4 = ev.chain_complex(poset, "multitangent", p, sign=solved)
        assert cx4.homology("z") == base_z


# -- interned values and cached maps ----------------------------------------------

def _direct_evaluator(side):
    """An evaluator that builds every value straight from its rows: no
    interning, so each value key gets its own FreeQuotient."""
    ev = CosheafEvaluator(side.ambient, side.newton)
    ev._module = lambda ambient, sub_rows, quo_rows=(): FreeQuotient(
        ambient, sub_rows, quo_rows
    )
    return ev


def _direct_block(ev, direct, p, y, x):
    """Vy.reduce(rep_i(Vx) . W) for every basis element of Vx, no cache;
    x and y are (tag, cell) pairs."""
    (xtag, xc), (ytag, yc) = x, y
    Vx, Vy = direct.value(xtag, p, xc), direct.value(ytag, p, yc)
    sx, sy = ev.value_stratum(xtag, xc), ev.value_stratum(ytag, yc)
    W = None if sx == sy else wedge_matrix(ev.projection(ev.frame(sx), ev.frame(sy)), p)
    rows = []
    for i in range(Vx.rank):
        a = Vx.rep(i) if W is None else vec_mat(Vx.rep(i), W)
        rows.append([(j, v) for j, v in enumerate(Vy.reduce(a)) if v])
    return rows


def test_interned_values_and_maps_match_direct_construction(
    cubic_pair, k3_pair, quartic_pair
):
    for pair in (cubic_pair, k3_pair, quartic_pair):
        for side in pair.sides:
            ev = side.evaluator
            direct = _direct_evaluator(side)
            by_content = {}
            for kind in ("base", "refined"):
                poset = side.poset(kind)
                for tag in TAGS:
                    for p in range(side.rank + 1):
                        ranks = []
                        for c in poset.cells:
                            v, d = ev.value(tag, p, c), direct.value(tag, p, c)
                            assert (v.ambient, v.sub) == (d.ambient, d.sub), (tag, p, c.key)
                            assert [v.rep(i) for i in range(v.rank)] == [
                                d.rep(i) for i in range(d.rank)
                            ], (tag, p, c.key)
                            # values with equal content are one object
                            assert by_content.setdefault(v.content(), v) is v
                            ranks.append(v.rank)
                        blocks = {
                            (yi, xi): _direct_block(
                                ev, direct, p, (tag, poset.cells[yi]), (tag, poset.cells[xi])
                            )
                            for (yi, xi) in poset.covers
                            if ranks[yi] and ranks[xi]
                        }
                        cx = ev.chain_complex(poset, tag, p)
                        expected = ChainComplex(poset, ranks, blocks, poset.sign)
                        assert cx.D == expected.D, (kind, tag, p)
                # the same-cell maps that the mirror transfer reads
                for src, dst in (("multitangent", "mirror_ext"), ("kernel", "multitangent")):
                    for p in range(side.rank + 1):
                        for c in poset.cells:
                            x, y = ev.cell_value(src, p, c), ev.cell_value(dst, p, c)
                            assert [list(r) for r in ev.value_map(x, y, p)] == _direct_block(
                                ev, direct, p, (dst, c), (src, c)
                            ), (kind, src, p, c.key)


def test_k3_cover_maps_are_computed_once(k3_pair, monkeypatch):
    # most covers of the K3 base complexes share a (source, target, wedge)
    # triple, so far fewer rows are reduced than the covers carry
    reduced = []
    reduce = FreeQuotient.reduce
    monkeypatch.setattr(
        FreeQuotient, "reduce", lambda self, vec: reduced.append(1) or reduce(self, vec)
    )
    rows = 0
    for side in k3_pair.sides:
        ev = CosheafEvaluator(side.ambient, side.newton)
        poset = side.base_poset
        for p in range(side.n + 1):
            ranks = [ev.value("multitangent", p, c).rank for c in poset.cells]
            rows += sum(ranks[x] for (y, x) in poset.covers if ranks[y] and ranks[x])
            ev.chain_complex(poset, "multitangent", p)
    assert 0 < len(reduced) * 10 < rows, (len(reduced), rows)


def _direction_set(sigma):
    dirs = set()
    for a, b in combinations(sigma, 2):
        d = tuple(x - y for x, y in zip(b, a))
        dirs.add(max(d, tuple(-x for x in d)))
    return frozenset(dirs)


def _class_pairs(ev, poset, ranks):
    """The covers at which chain_complex asks map_matrix: the first cover,
    in poset order, of each (class of y, class of x) with both ranks
    nonzero, a class being a (frame of the value stratum, edge-direction
    set)."""
    cls = [
        (ev.frame(ev.value_stratum("multitangent", c)), _direction_set(c.sigma))
        for c in poset.cells
    ]
    seen, first = set(), []
    for (y, x) in poset.covers:
        if ranks[y] and ranks[x] and (cls[y], cls[x]) not in seen:
            seen.add((cls[y], cls[x]))
            first.append((y, x))
    return first


def test_k3_multitangent_values_keyed_by_edge_directions(k3_pair, monkeypatch):
    # on the K3 base posets, for every p: cells with equal (frame, edge
    # direction set) carry one value object, each value equals the module
    # spanned by its own cell's edge rows, and assembly asks map_matrix once
    # per (class of y, class of x) pair whose two ranks are nonzero
    calls = []
    map_matrix = CosheafEvaluator.map_matrix
    monkeypatch.setattr(
        CosheafEvaluator,
        "map_matrix",
        lambda self, tag, p, y, x: calls.append((y.index, x.index))
        or map_matrix(self, tag, p, y, x),
    )
    asked = covers = 0
    for side in k3_pair.sides:
        ev = CosheafEvaluator(side.ambient, side.newton)
        poset = side.base_poset
        for p in range(side.rank + 1):
            by_key = {}
            ranks = []
            for c in poset.cells:
                stratum = ev.value_stratum("multitangent", c)
                v = ev.value("multitangent", p, c)
                assert by_key.setdefault((ev.frame(stratum), _direction_set(c.sigma)), v) is v
                amb = dim_wedge(ev.m - len(stratum), p)
                if len(c.sigma) < 2 or amb == 0:
                    direct = FreeQuotient(max(amb, 1), [])
                elif p == 0:
                    direct = FreeQuotient(1, [(1,)])
                else:
                    direct = FreeQuotient(amb, [
                        row
                        for a, b in combinations(c.sigma, 2)
                        for row in ev.edge_annihilator_basis(stratum, a, b, p)
                    ])
                assert v.content() == direct.content(), (p, c.key)
                ranks.append(v.rank)
            assert len(by_key) < len(poset.cells)
            calls.clear()
            ev.chain_complex(poset, "multitangent", p)
            assert calls == _class_pairs(ev, poset, ranks), p
            asked += len(calls)
            covers += sum(1 for (y, x) in poset.covers if ranks[y] and ranks[x])
    assert 0 < asked < covers, (asked, covers)


def _class_key(ev, stratum, sigma):
    """A multitangent cell class: (frame of the value stratum, edge-direction
    set), or (stratum length, no directions) for a cell without edges."""
    dirs = _direction_set(sigma)
    return (ev.frame(stratum) if dirs else len(stratum), dirs)


def test_multitangent_values_looked_up_once_per_cell_class(cubic_pair, k3_pair, monkeypatch):
    # one chain_complex call asks for one multitangent value per cell
    # class, whatever the cell count
    calls = []
    value = CosheafEvaluator.multitangent_value
    monkeypatch.setattr(
        CosheafEvaluator,
        "multitangent_value",
        lambda self, p, stratum, sigma: calls.append(
            (p, *_class_key(self, stratum, sigma))
        ) or value(self, p, stratum, sigma),
    )
    for pair in (cubic_pair, k3_pair):
        for side in pair.sides:
            ev = CosheafEvaluator(side.ambient, side.newton)
            for kind in ("base", "refined"):
                poset = side.poset(kind)
                classes = {
                    _class_key(ev, ev.value_stratum("multitangent", c), c.sigma)
                    for c in poset.cells
                }
                assert len(classes) < len(poset.cells)
                for p in range(side.rank):
                    calls.clear()
                    ev.chain_complex(poset, "multitangent", p)
                    assert len(calls) == len(classes), (kind, p)
                    assert set(calls) == {(p, *k) for k in classes}, (kind, p)


# -- frames keyed by content ----------------------------------------------------------

def _strata(ev, posets):
    """Every cell's stratum over the posets, each distinct one once, in
    first-seen order."""
    return list(dict.fromkeys(ev.stratum_gens(c.tau) for poset in posets for c in poset.cells))


def test_interned_frames_match_fresh_frames(cubic_pair, k3_pair, cy3_pair):
    # strata share one Frame exactly when their (k, Q, R) agree: on CY3
    # side a, 1,697 strata have far fewer distinct frames, and some of
    # them have equal Q but different R
    for side, posets in (
        (cubic_pair.side_a, ("base", "refined")),
        (k3_pair.side_a, ("base", "refined")),
        (cy3_pair.side_a, ("base",)),
    ):
        ev = CosheafEvaluator(side.ambient, side.newton)
        strata = _strata(ev, [side.poset(kind) for kind in posets])
        for gens in strata:
            fr, fresh = ev.frame(gens), Frame(gens, ev.m)
            assert (fr.k, fr.Q, fr.R) == (fresh.k, fresh.Q, fresh.R), gens
        if side is cy3_pair.side_a:
            distinct = {id(ev.frame(gens)) for gens in strata}
            assert len(distinct) < len(strata) // 4, (len(distinct), len(strata))


def test_shared_blocks_match_fresh_cover_maps(k3_pair, cy3_pair):
    # each cover's block in D equals its own map built from scratch: the two
    # cells' values from a direct evaluator and R_x.Q_y from fresh Frames of
    # their strata, whatever class pair the assembly shared the block with
    for side, ps in (
        (k3_pair.side_a, range(4)),
        (k3_pair.side_b, range(4)),
        (cy3_pair.side_a, (1,)),
    ):
        poset = side.base_poset
        ev = CosheafEvaluator(side.ambient, side.newton)
        direct = _direct_evaluator(side)
        frames = {}

        def fresh(stratum):
            if stratum not in frames:
                frames[stratum] = Frame(stratum, ev.m)
            return frames[stratum]

        for p in ps:
            values = [direct.value("multitangent", p, c) for c in poset.cells]
            strata = [ev.value_stratum("multitangent", c) for c in poset.cells]
            blocks = {}
            for (yi, xi) in poset.covers:
                Vx, Vy = values[xi], values[yi]
                if not (Vx.rank and Vy.rank):
                    continue
                fx, fy = fresh(strata[xi]), fresh(strata[yi])
                W = wedge_matrix(mat_mul(fx.R, fy.Q), p)
                blocks[yi, xi] = [
                    [(j, v) for j, v in enumerate(Vy.reduce(vec_mat(Vx.rep(i), W))) if v]
                    for i in range(Vx.rank)
                ]
            expected = ChainComplex(poset, [v.rank for v in values], blocks, poset.sign)
            assert ev.chain_complex(poset, "multitangent", p).D == expected.D, p


# -- frames only where a nonzero value reads them ---------------------------------

def test_cy3_frames_built_only_for_cells_with_edges(cy3_pair):
    # after the four base multitangent complexes of CY3 side a, the
    # evaluator holds the frames of the value strata of cells with edges
    # and no others: a cell without edges has the zero value for every p
    side = cy3_pair.side_a
    poset = side.base_poset
    ev = CosheafEvaluator(side.ambient, side.newton)
    for p in range(side.n + 1):
        ev.chain_complex(poset, "multitangent", p)
    read = {ev.value_stratum("multitangent", c) for c in poset.cells if len(c.sigma) > 1}
    strata = {ev.value_stratum("multitangent", c) for c in poset.cells}
    assert set(ev._frames) == read
    assert (len(read), len(strata)) == (521, 1697)
    # every class with a nonzero value carries the frame of its stratum, as
    # a fresh Frame builds it; a zero value carries none
    _, reps = ev._cell_classes(poset, "multitangent")
    nonzero = 0
    for p in range(side.n + 1):
        for c in reps:
            value, fr = ev.cell_value("multitangent", p, c)
            stratum = ev.value_stratum("multitangent", c)
            if not value.rank:
                assert fr is None, (p, c.key)
                continue
            nonzero += 1
            fresh = Frame(stratum, ev.m)
            assert fr is ev.frame(stratum)
            assert (fr.k, fr.Q, fr.R) == (fresh.k, fresh.Q, fresh.R), (p, c.key)
    assert nonzero


def test_non_summand_strata_are_refused(k3_pair):
    # a zero value reads no frame, so a stratum that is not a direct
    # summand would pass unseen there: ev.frame still refuses one where it
    # is read, and validate, which every MirrorPair runs, refuses the
    # non-unimodular simplex that would carry it
    side = k3_pair.side_a
    ev = CosheafEvaluator(side.ambient, side.newton)
    for gens in (((2, 0, 0),), ((1, 1, 0), (1, -1, 0))):
        with pytest.raises(FreenessError):
            ev.frame(gens)
        assert gens not in ev._frames
    P = LatticePolytope(CUBIC_VERTS)
    # merge the two segments at (-1, 0): (-1, -1), (-1, 1) spans index 2
    bad = [s for s in generate_central(P).boundary_simplices if (-1, 0) not in s]
    bad.append(((-1, -1), (-1, 1)))
    T = CentralTriangulation(P, bad)
    with pytest.raises(FreenessError):
        Frame(((-1, -1), (-1, 1)), 2)
    assert "NotUnimodular" in validate(T).codes()
    with pytest.raises(InputError, match="NotUnimodular"):
        MirrorPair(T, generate_central(LatticePolytope(CUBIC_DUAL_VERTS)))
