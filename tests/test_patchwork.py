import copy
import hashlib
import random
from functools import partial
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CUBE_VERTS,
    CUBIC_DUAL_VERTS,
    CUBIC_VERTS,
    OCTA_VERTS,
    divisor_class_count,
    face_closure,
    integer_lift,
    phase_masks,
    ray_mask,
    rows_betti,
    rows_euler,
)
from tropmirror import patchwork
from tropmirror.errors import (
    BoundarySquareNonzero,
    InputError,
    InternalCheckError,
    RayNotInFan,
)
from tropmirror.exterior import wedge_matrix
from tropmirror.intlinalg import F2Space, f2_combine, f2_pack, f2_rank, mat_mul
from tropmirror.lattice import LatticePolytope
from tropmirror.mirror import (
    divisor_restriction,
    divisor_support,
    is_null_class,
    sphere_cycle,
    transfer_class,
)
from tropmirror.pairs import MirrorPair
from tropmirror.patchwork import (
    PhaseData,
    PhaseFrame,
    RealComplex,
    connectedness_verdict,
    delta1,
    divisor_class_representatives,
    divisor_from_signs,
    mask_to_rays,
    real_betti,
    sample_divisor_classes,
    signs_from_divisor,
    sweep_rows,
)
from tropmirror.triangulate import generate_central

D7 = (-1, 2)   # a vertex ray of the cubic Newton triangle
D8 = (-1, 1)   # the adjacent interior boundary point of the same facet


# -- conversions ---------------------------------------------------------------

def test_all_equal_signs_give_full_divisor(cubic_pair):
    side = cubic_pair.side_a
    eps = {p: 1 for p in side.newton.polytope.lattice_points}
    assert divisor_from_signs(side, eps) == sorted(side.newton.rays())


def test_sign_distributions_are_checked(cubic_pair):
    # signs give each lattice point of the Newton polytope, and nothing
    # else, the integer 0 or 1: a missing point, an extra point, the sign 2
    # and, in place of D7's sign 1, True and 1.0, which compare equal to 1,
    # are input errors for every library entry that reads signs
    side = cubic_pair.side_a
    good = signs_from_divisor(side, [D7])
    missing = dict(good)
    del missing[D8]
    cases = [
        ("miss", missing),
        ("outside", {**good, (5, 5): 0}),
        ("0 or 1", {**good, D8: 2}),
        ("0 or 1", {**good, D7: True}),
        ("0 or 1", {**good, D7: 1.0}),
    ]
    for message, eps in cases:
        for run in (
            lambda: real_betti(side, eps),
            lambda: divisor_from_signs(side, eps),
            lambda: delta1(side, eps, sphere_cycle(side), 0),
        ):
            with pytest.raises(InputError, match=message):
                run()
    assert real_betti(side, good) == [1, 1]


def signs_from_phases(side, edge_ends, mask):
    """Signs propagated from the origin (sign 1) along the edges
    ``edge_ends``, edge j joining two ends of the same sign when bit j of
    ``mask`` is set, as ``PhaseData.mask`` reads them; None when two paths
    disagree."""
    adjacency = {}
    for j, (a, b) in enumerate(edge_ends):
        same = mask >> j & 1
        adjacency.setdefault(a, []).append((b, same))
        adjacency.setdefault(b, []).append((a, same))
    eps = {side.newton.origin: 1}
    queue = [side.newton.origin]
    while queue:
        a = queue.pop()
        for b, same in adjacency[a]:
            sign = eps[a] ^ 1 ^ same
            if b not in eps:
                eps[b] = sign
                queue.append(b)
            elif eps[b] != sign:
                return None
    return eps


def test_sign_phase_roundtrip(cubic_pair):
    # the edge phases PhaseData keeps, one bit per edge of the Newton
    # triangulation, obey the simplex rule (0 or 2 edges of phase 0 in each
    # 2-simplex) and propagate back to the signs, up to the global flip
    side = cubic_pair.side_a
    rng = random.Random(5)
    pts = side.newton.polytope.lattice_points
    for _ in range(10):
        eps = {p: rng.randint(0, 1) for p in pts}
        pd = PhaseData(side, side.base_poset, eps)
        ends = pd.frame.edge_ends
        by_dim = face_closure(side.newton.simplices)[0]
        assert set(ends) == by_dim[1]
        phase = {e: pd.mask >> j & 1 for j, e in enumerate(ends)}
        for tri in by_dim[2]:
            assert sum(phase[e] == 0 for e in combinations(tri, 2)) in (0, 2), tri
        back = signs_from_phases(side, ends, pd.mask)
        flip = 1 ^ eps[side.newton.origin]
        assert all(back[p] == eps[p] ^ flip for p in pts)


def test_divisor_sign_roundtrip(cubic_pair):
    side = cubic_pair.side_a
    rays = [D7, D8, (1, 0)]
    eps = signs_from_divisor(side, rays)
    assert sorted(divisor_from_signs(side, eps)) == sorted(rays)


def test_repeated_ray_cancels_everywhere(cubic_pair):
    # over F2 a ray listed twice cancels: the signs, the divisor mask, the
    # divisor restriction and so the verdict all read one support, and the
    # component count agrees with the verdict
    side = cubic_pair.side_a
    for rays, support in (([D7, D7], []), ([D7, D8, D7], [D8]), ([D7, D8, D8], [D7])):
        assert divisor_support(side, rays) == set(support)
        eps = signs_from_divisor(side, rays)
        assert eps == signs_from_divisor(side, support)
        assert divisor_restriction(side, rays) == divisor_restriction(side, support)
        verdict = connectedness_verdict(side, rays)
        assert verdict == connectedness_verdict(side, support)
        assert (verdict == "connected") == (real_betti(side, eps)[0] == 1), rays
    for bad in ([(5, 5)], [D7, (0, 0)]):
        with pytest.raises(RayNotInFan):
            signs_from_divisor(side, bad)
        with pytest.raises(RayNotInFan):
            divisor_restriction(side, bad)


def test_invalid_phase_structure_rejected(cubic_pair):
    # flipping any one edge's phase makes some triangle carry an odd number
    # of zero edges, and the propagation meets a contradiction
    side = cubic_pair.side_a
    eps = {p: 0 for p in side.newton.polytope.lattice_points}
    pd = PhaseData(side, side.base_poset, eps)
    ends = pd.frame.edge_ends
    assert signs_from_phases(side, ends, pd.mask) is not None
    for j in range(len(ends)):
        assert signs_from_phases(side, ends, pd.mask ^ 1 << j) is None, ends[j]


def test_linear_shift_gives_equivalent_divisors(cubic_pair):
    side = cubic_pair.side_a
    _, space = patchwork._pairing_space(side)
    key = partial(patchwork._normal_form, space)
    rng = random.Random(11)
    pts = side.newton.polytope.lattice_points
    for _ in range(10):
        eps = {p: rng.randint(0, 1) for p in pts}
        xi = [rng.randint(0, 1) for _ in range(side.rank)]
        shifted = {
            p: eps[p] ^ (sum(x * a for x, a in zip(xi, p)) & 1) for p in pts
        }
        d1 = divisor_from_signs(side, eps)
        d2 = divisor_from_signs(side, shifted)
        assert key(ray_mask(side, d1)) == key(ray_mask(side, d2))


def test_cubic_has_128_divisor_classes(cubic_pair):
    reps = divisor_class_representatives(cubic_pair.side_a)
    assert len(reps) == 128


def test_sampling_is_deterministic(k3_pair):
    side = k3_pair.side_a
    a = sample_divisor_classes(side, 20, seed=7)
    b = sample_divisor_classes(side, 20, seed=7)
    assert a == b and len(a) == 20


PRISM_VERTS = [(-1, -1, -1), (-1, -1, 1), (-1, 2, -1), (-1, 2, 1), (2, -1, -1), (2, -1, 1)]


def test_divisor_classes_are_distinct_classes(cubic_pair, k3_pair):
    # one mask per class, also where the pairing's leading-bit reduction
    # leaves two masks of one class apart, as on the prism's dual side
    prism = LatticePolytope(PRISM_VERTS)
    side = MirrorPair(generate_central(prism.dual()), generate_central(prism)).side_a
    reps = divisor_class_representatives(side)
    assert len(reps) == divisor_class_count(side) == 4
    _, space = patchwork._pairing_space(side)
    for a, b in combinations(reps, 2):
        assert not space.contains(a ^ b), (mask_to_rays(side, a), mask_to_rays(side, b))
    assert len(sample_divisor_classes(side, 10, 0)) == 4
    for side in (*cubic_pair.sides, k3_pair.side_b):
        assert len(divisor_class_representatives(side)) == divisor_class_count(side)


def test_oversized_sample_stops_at_the_class_count(cubic_pair, monkeypatch):
    # asking for more classes than there are returns every class without
    # drawing until the budget of 100 draws per asked class runs out
    draws = []

    class CountingRandom(random.Random):
        def getrandbits(self, k):
            draws.append(k)
            return super().getrandbits(k)

    monkeypatch.setattr(patchwork.random, "Random", CountingRandom)
    side = cubic_pair.side_a
    assert sample_divisor_classes(side, 5000, 0) == divisor_class_representatives(side)
    assert len(draws) < 10_000


# -- phase sets and the sign complex ------------------------------------------------

def test_phase_set_sizes_on_edges(cubic_pair, k3_pair):
    # for dim sigma = 1 the phase set is an affine space of dimension n - dim tau
    for pair in (cubic_pair, k3_pair):
        side = pair.side_a
        poset = side.base_poset
        eps = signs_from_divisor(side, [])
        pd = PhaseData(side, poset, eps)
        for c in poset.cells:
            if len(c.sigma) != 2:
                continue
            pc = pd.phase_cell(c.index)
            assert len(pc.points) == 1 << (side.n - (len(c.tau) - 1))


def _transport_list(pd):
    """(y, s2, x, s) for every phase point s of every cell x and each cover
    y below x, read off the frame's covers: s is carried to s2."""
    return [
        (yi, images[s], xi, s)
        for yi, xi, images in pd.frame.covers
        for s in pd.phase_cell(xi).points
    ]


def test_transport_list_matches_frame_product(cubic_pair, k3_pair):
    # both Betti routes read the transport from the frame's covers, so it is
    # checked here against R_x.Q_y mod 2 formed from the evaluator's frames
    cubic, k3 = cubic_pair.side_a, k3_pair.side_a
    for side, kind in ((cubic, "base"), (k3, "base"), (cubic, "refined")):
        poset = side.poset(kind)
        rays = side.newton.rays()
        eps_a = signs_from_divisor(side, rays[::2])
        eps_b = signs_from_divisor(side, rays[1:2])
        pd = PhaseData(side, poset, eps_a)
        seen = []
        for yi, s2, xi, s in _transport_list(pd):
            px, py = pd.phase_cell(xi), pd.phase_cell(yi)
            fx = side.evaluator.frame(px.stratum)
            fy = side.evaluator.frame(py.stratum)
            bits = [[(s >> j) & 1 for j in range(px.qd)]]
            assert s2 == f2_pack(mat_mul(mat_mul(bits, fx.R), fy.Q)[0])
            assert s in px.points and s2 in py.points
            seen.append((yi, xi, s))
        # one entry per phase point of every cover between nonempty cells
        expected = [
            (yi, xi, s)
            for yi, xi in poset.covers
            if pd.phase_cell(yi).points
            for s in pd.phase_cell(xi).points
        ]
        assert sorted(seen) == sorted(expected)
        # one sign-independent frame per (side, poset kind), and no state
        # leaks from one class into the next
        pd_b = PhaseData(side, poset, eps_b)
        pd_a = PhaseData(side, poset, eps_a)
        assert pd_b.frame is pd.frame is pd_a.frame is side.phase_frame(kind)
        assert _transport_list(pd_b) != _transport_list(pd)
        assert _transport_list(pd_a) == _transport_list(pd)
        for ci in range(len(poset.cells)):
            assert pd_a.phase_cell(ci).points == pd.phase_cell(ci).points


def test_cover_images_shared_per_frame_pair(cubic_pair, k3_pair):
    # each cover's image list is the image of every point of the frame of x
    # under the evaluator's projection rows mod 2, and two covers share one
    # list exactly when they join the same two frames
    cubic, k3 = cubic_pair.side_a, k3_pair.side_a
    for side, kind in ((cubic, "base"), (cubic, "refined"), (k3, "base")):
        frame = side.phase_frame(kind)
        lists = {}  # (frame x, frame y) -> ids of the image lists of its covers
        for yi, xi, images in frame.covers:
            (sx, qx, _), (sy, _, _) = frame.cells[xi], frame.cells[yi]
            ev = side.evaluator
            fx, fy = ev.frame(sx), ev.frame(sy)
            masks = [f2_pack(row) for row in ev.projection(fx, fy)]
            assert images == [f2_combine(s, masks) for s in range(1 << qx)]
            lists.setdefault((fx, fy), set()).add(id(images))
        assert all(len(ids) == 1 for ids in lists.values()), kind
        assert len(set().union(*lists.values())) == len(lists), kind
        assert len(lists) < len(frame.covers), kind


def _edge_phases(frame, ci, eps):
    """Same-sign indicator of each edge of cell ci, in frame edge order."""
    return tuple(1 ^ eps[a] ^ eps[b] for (a, b), _, _ in frame.cells[ci][2])


def _edge_phase_mask(frame, ci, eps):
    """The same-sign edges of cell ci as a mask over the frame's edge
    numbering, read straight from the signs."""
    edges = frame.cells[ci][2]
    return sum(bit for ((a, b), _, _), bit in zip(edges, frame.edge_bits[ci]) if eps[a] == eps[b])


def _phase_points_directly(frame, ci, eps):
    _, qd, edges = frame.cells[ci]
    full = (1 << (1 << qd)) - 1
    bits = 0
    for (_, _, odd), te in zip(edges, _edge_phases(frame, ci, eps)):
        bits |= odd if te else full ^ odd
    return [s for s in range(1 << qd) if bits >> s & 1]


def _frame_offsets(frame):
    """Where each cell's 2^qd frame points start within its degree, counted
    from the frame's cells (cells with no edges have no points)."""
    offset, used = [], {}
    for c, (_, qd, edges) in zip(frame.poset.cells, frame.cells):
        offset.append(used.get(c.dim, 0))
        used[c.dim] = offset[-1] + (1 << qd if edges else 0)
    return offset


def _sign_boundary_assembled_per_point(pd):
    """The sign complex's boundary rows with signature signs, built without
    the frame's point complex: one setdefault append per entry of the
    transport list, then an accumulating get/add/pop per entry.  One row
    per phase point, cell by cell and point by point; columns in frame
    numbering."""
    offset = _frame_offsets(pd.frame)
    targets = {}
    for yi, s2, xi, s in _transport_list(pd):
        targets.setdefault((xi, s), []).append((yi, s2))
    D = {q: [] for q in range(1, pd.poset.max_dim + 1)}
    for c in pd.poset.cells:
        if c.dim == 0:
            continue
        for s in pd.phase_cell(c.index).points:
            row = {}
            for yi, s2 in targets.get((c.index, s), ()):
                k = offset[yi] + s2
                v = row.get(k, 0) + pd.poset.sign[yi, c.index]
                if v:
                    row[k] = v
                else:
                    row.pop(k, None)
            D[c.dim].append(row)
    return D


def _packed_mod2(D):
    """{q: integer dict rows} reduced mod 2 and packed, per degree."""
    return {
        q: [sum(1 << j for j, v in row.items() if v & 1) for row in rows]
        for q, rows in D.items()
    }


def _class_results(side, poset, eps, fresh_results, first_levels):
    """Generators, points and sign boundary of one class, each checked
    against a frame built for this class alone.

    A fresh frame computes each (cell, p, edge phases) level the first
    time any class meets it, asked in descending p so that a record that
    forgot p or the edge phases answers differently from the shared frame;
    later meetings compare against that first answer.  The shared frame's
    level for a key must hold F2 spaces that span the fresh generators when
    first met, sit in its PhaseCell's ``levels``, and be the same object at
    every later meeting.  The sign boundary's packed rows must equal the
    per-point reference reduced mod 2.
    """
    pd = PhaseData(side, poset, eps)
    frame = side.phase_frame(poset.kind)
    assert pd.frame is frame
    fresh = PhaseFrame(side.evaluator, poset)
    levels = range(side.n + 2)
    gens, points = {}, {}
    for ci in range(len(poset.cells)):
        tes = _edge_phases(frame, ci, eps)
        pc = pd.phase_cell(ci)
        assert (pc.ci, pc.tes) == (ci, tes)
        assert pc.mask == _edge_phase_mask(frame, ci, eps)
        built = fresh.cell_phase(ci, _edge_phase_mask(fresh, ci, eps))
        assert built.levels is None
        for p in reversed(levels):
            key = (ci, p, tes)
            if key not in fresh_results:
                fresh_results[key] = fresh.level(built, p)[0]
        for p in levels:
            level = frame.level(pc, p)
            # copies, so that a later class mutating a shared list shows
            gens[ci, p] = list(level[0])
            assert gens[ci, p] == fresh_results[ci, p, tes], (ci, p, tes)
            if (ci, p, tes) not in first_levels:
                first_levels[ci, p, tes] = level
                fresh_gens = fresh_results[ci, p, tes]
                assert [s.pivot_rows() for s in level[1:]] == [
                    F2Space(ind for ind, _ in fresh_gens).pivot_rows(),
                    F2Space(fc for _, fc in fresh_gens).pivot_rows(),
                ], (ci, p, tes)
            assert level is first_levels[ci, p, tes]
            assert pc.levels[p] is level
        points[ci] = list(pc.points)
        assert pc.points == built.points
        assert pc.points == _phase_points_directly(frame, ci, eps)
    cx, prows = pd.sign_complex(), frame.point_rows
    reference = _packed_mod2(_sign_boundary_assembled_per_point(pd))
    rows = {q: [prows[q][i] for i in cx[q]] for q in reference}
    assert rows == reference
    return gens, points, rows


def test_frame_memo_matches_fresh_frames(k3_pair):
    # the frame's PhaseCells and their levels against per-class frames, on
    # every cubic class (both posets) and 20 sampled K3 classes; the cubic
    # pair is built here so that its refined frame starts empty
    cubic = MirrorPair(
        generate_central(LatticePolytope(CUBIC_VERTS)),
        generate_central(LatticePolytope(CUBIC_DUAL_VERTS)),
    ).side_a
    k3 = k3_pair.side_a
    runs = [
        (cubic, "refined", divisor_class_representatives(cubic)),
        (cubic, "base", divisor_class_representatives(cubic)),
        (k3, "base", sample_divisor_classes(k3, 20, seed=3)),
    ]
    for side, kind, masks in runs:
        poset = side.poset(kind)
        fresh_results, first_levels = {}, {}
        signs = [signs_from_divisor(side, mask_to_rays(side, m)) for m in masks]
        first = _class_results(side, poset, signs[0], fresh_results, first_levels)
        for eps in signs[1:]:
            _class_results(side, poset, eps, fresh_results, first_levels)
        # classes A, B, ..., A: the records give A the same answers again
        again = _class_results(side, poset, signs[0], fresh_results, first_levels)
        assert again == first
        if (side, kind) == (cubic, "refined"):
            calls = (len(masks) + 1) * len(poset.cells) * (side.n + 2)
            phase_cells = side.phase_frame(kind)._phase_cells.values()
            keys = sum(len(pc.levels) for pc in phase_cells)
            assert keys == len(first_levels)
            assert 3 * keys < calls, (keys, calls)
            # a PhaseCell is shared by every class with the same phases on
            # the cell's own edges
            assert 3 * len(phase_cells) < len(masks) * len(poset.cells), len(phase_cells)


def test_records_keyed_by_edge_phase_mask(cubic_pair, k3_pair):
    # a class's records, resolved once per degree for exactly the cells
    # with edges (a simplex of two or more points) in poset order, are
    # keyed by its edge-phase mask, on every cubic class and 20 sampled
    # K3 classes: each record's edge phases are those read straight from
    # the signs, two classes share a cell's record exactly when they agree
    # on the cell's edges, and over each cover y below x, y's mask masked
    # to x's edges resolves x's own record
    cubic, k3 = cubic_pair.side_a, k3_pair.side_a
    runs = [
        (cubic, divisor_class_representatives(cubic)),
        (k3, sample_divisor_classes(k3, 20, seed=3)),
    ]
    for side, masks in runs:
        poset, frame = side.base_poset, side.phase_frame("base")
        seen = {}  # (ci, edge phases read from the signs) -> record
        for mask in masks:
            eps = signs_from_divisor(side, mask_to_rays(side, mask))
            pd = PhaseData(side, poset, eps)
            records = [pc for pcs in pd.degree_records for pc in pcs]
            assert len(pd.degree_records) == len(poset.cells_by_dim)
            assert [pc.ci for pc in records] == [
                ci
                for q in sorted(poset.cells_by_dim)
                for ci in poset.cells_by_dim[q]
                if len(poset.cells[ci].sigma) > 1
            ]
            for pc in records:
                tes = _edge_phases(frame, pc.ci, eps)
                assert pc.tes == tes, (mask, pc.ci)
                assert pc.mask == _edge_phase_mask(frame, pc.ci, eps), (mask, pc.ci)
                assert pd.phase_cell(pc.ci) is pc
                assert seen.setdefault((pc.ci, tes), pc) is pc, (mask, pc.ci)
            for yi, xi, _ in frame.covers:
                key = pd.phase_cell(yi).mask & frame.edge_mask[xi]
                own = seen[xi, _edge_phases(frame, xi, eps)]
                assert frame.cell_phase(xi, key) is own, (mask, yi, xi)
        # classes that differ on one of a cell's edges have two records
        assert len({id(pc) for pc in seen.values()}) == len(seen)
        assert len(seen) > len({ci for ci, _ in seen}), "no cell met two phase choices"


def test_phase_data_refuses_a_foreign_poset(cubic_pair):
    # phase data reads the frame of its side's own poset of the kind asked,
    # so a poset of another side, even an equal one, is refused
    side, other = cubic_pair.side_a, _scratch_side("cubic")
    eps = signs_from_divisor(side, [D7])
    for kind in ("base", "refined"):
        with pytest.raises(ValueError, match="not this side's"):
            PhaseData(side, other.poset(kind), eps)
        assert PhaseData(side, side.poset(kind), eps).poset is side.poset(kind)


def _bits(r):
    return [j for j in range(r.bit_length()) if r >> j & 1]


def test_sign_complex_matches_integer_lift(cubic_pair, k3_pair):
    # the restriction of the frame's point rows against the signed
    # integer lift, on every cubic class (both posets) and 10 sampled K3
    # classes: the sign complex is the frame positions offset + point of
    # the phase points, the lift passes its Z square check, and its rows
    # reduced mod 2, with each coordinate (cell, point) mapped to its frame
    # position, are the frame's point rows at those positions bit for bit
    # (degree 0 has no rows)
    cubic, k3 = cubic_pair.side_a, k3_pair.side_a
    runs = [
        (cubic, "base", divisor_class_representatives(cubic)),
        (cubic, "refined", divisor_class_representatives(cubic)),
        (k3, "base", sample_divisor_classes(k3, 10, seed=5)),
    ]
    for side, kind, masks in runs:
        poset = side.poset(kind)
        offset = _frame_offsets(side.phase_frame(kind))
        assert side.phase_frame(kind).offset == offset
        prows = side.phase_frame(kind).point_rows
        for mask in masks:
            eps = signs_from_divisor(side, mask_to_rays(side, mask))
            pd = PhaseData(side, poset, eps)
            cx, lift = pd.sign_complex(), integer_lift(pd)
            position = {q: [] for q in lift.degrees}
            for c in poset.cells:
                position[c.dim] += [offset[c.index] + s for s in pd.phase_cell(c.index).points]
            masks = phase_masks(pd)
            assert list(range(len(cx))) == lift.degrees, (kind, mask)
            for q in lift.degrees:
                assert len(cx[q]) == lift.dim(q) == len(position[q]), (kind, mask, q)
                assert cx[q] == _bits(masks[q]) == position[q], (kind, mask, q)
                if q:
                    mapped = [
                        sum(1 << position[q - 1][j] for j in _bits(r)) for r in lift.f2_rows(q)
                    ]
                    assert [prows[q][i] for i in cx[q]] == mapped, (kind, mask, q)
            assert rows_euler(cx) == lift.euler_characteristic()
            h = lift.homology("f2")
            assert rows_betti(prows, cx) == [h.rank(q) for q in lift.degrees], (kind, mask)


def test_sign_complex_keeps_the_frame_rows(cubic_pair):
    # the sign complex keeps the frame's numbering: its positions in each
    # degree are the phase points' frame positions, at which the frame's
    # point rows are its rows (degree 0 has none), and its Betti numbers
    # through degree n are real_betti's (the poset's degree n + 1 keeps no
    # phase points)
    side = cubic_pair.side_a
    eps = signs_from_divisor(side, [D7])
    pd = PhaseData(side, side.base_poset, eps)
    cx = pd.sign_complex()
    assert list(range(len(cx))) == list(pd.poset.cells_by_dim)
    prows, masks = pd.frame.point_rows, phase_masks(pd)
    assert sorted(prows) == list(range(1, len(cx)))
    assert rows_betti(prows, cx)[: side.n + 1] == real_betti(side, eps)
    for q in range(len(cx)):
        assert cx[q] == _bits(masks[q])
    assert any(len(cx[q]) < len(prows[q]) for q in prows)


def test_gathered_records_keep_their_frame_positions(cy3_pair):
    # on every cubic class, 20 sampled K3 classes and 2 sampled CY3 side-a
    # classes: every record a class gathers keeps the frame positions
    # offset + point of its points, a cell with no edges has no phase
    # points, so no record to gather, and real_betti's Betti numbers are
    # those of the frame's point rows restricted to a {position: row} dict
    # built point by point.  The cubic and K3 pairs are fresh, and delta1
    # runs first on their base posets over every class: it builds records
    # but never gathers, so it leaves every record's positions unbuilt, and
    # the gather builds them on its first read
    cubic, k3, cy3 = _scratch_side("cubic"), _scratch_side("k3"), cy3_pair.side_a
    runs = [
        (cubic, divisor_class_representatives(cubic)),
        (k3, sample_divisor_classes(k3, 20, seed=3)),
        (cy3, sample_divisor_classes(cy3, 2, seed=1)),
    ]
    for side, masks in runs:
        poset, frame = side.base_poset, side.phase_frame("base")
        signs = [signs_from_divisor(side, mask_to_rays(side, mask)) for mask in masks]
        if side is not cy3:
            for eps in signs:
                delta1(side, eps, sphere_cycle(side, "base"), 0, kind="base")
            assert frame._phase_cells, "delta1 built no record"
            assert all(pc.positions is None for pc in frame._phase_cells.values())
        prows, offset = frame.point_rows, frame.offset
        edgeless = [ci for ci, c in enumerate(poset.cells) if len(c.sigma) < 2]
        assert edgeless, "no cell without edges"
        for mask, eps in zip(masks, signs):
            pd = PhaseData(side, poset, eps)
            betti = real_betti(side, eps)
            assert all(pd.phase_cell(ci).points == [] for ci in edgeless), mask
            for pcs in pd.degree_records:
                for pc in pcs:
                    assert pc.positions == [offset[pc.ci] + s for s in pc.points], (mask, pc.ci)
            kept = {q: {} for q in poset.cells_by_dim}
            for q, cells in poset.cells_by_dim.items():
                for ci in cells:
                    for s in pd.phase_cell(ci).points:
                        i = offset[ci] + s
                        kept[q][i] = prows[q][i] if q else 0
            rows = {q: kept[q] for q in prows}
            positions = [list(kept[q]) for q in sorted(kept)]
            assert rows_betti(rows, positions)[: side.n + 1] == betti, mask


def test_redirected_sign_row_breaks_square(k3_pair):
    # one cover image of a fresh K3 frame sent to another point of the same
    # face, one whose boundary row differs, before the frame's point rows
    # are built: their mod-2 square check must catch it at that build
    side = k3_pair.side_a
    poset = side.base_poset
    shared = side.phase_frame("base")
    below, offset = shared.point_rows[1], shared.offset
    frame = PhaseFrame(side.evaluator, poset)
    for n, (yi, xi, images) in enumerate(frame.covers):
        if poset.cells[xi].dim != 2:
            continue
        row = below[offset[yi] + images[0]]
        other = [
            t for t in range(1 << frame.cells[yi][1]) if below[offset[yi] + t] != row
        ]
        if other:
            break
    else:
        pytest.fail("no degree-2 cover with a frame point to redirect to")
    images = list(images)
    images[0] = other[0]
    frame.covers[n] = (yi, xi, images)
    with pytest.raises(BoundarySquareNonzero, match="degree 2"):
        frame.point_rows


def test_filtration_rank_identity_and_preservation(cubic_pair):
    # rank K_p/K_{p+1} = rank F_p mod 2 on every cell, every indicator lies
    # in the cell's phase set (bit s is frame point s), and the boundary of
    # a level-p chain stays in level p
    side = cubic_pair.side_a
    poset = side.base_poset
    eps = signs_from_divisor(side, [D7, D8])
    pd = PhaseData(side, poset, eps)
    for c in poset.cells:
        pc = pd.phase_cell(c.index)
        if not pc.points:
            continue
        spaces = {}
        for p in range(side.n + 2):
            gens, spaces[p], _ = pd.frame.level(pc, p)
            for ind, _ in gens:
                assert ind & ~pc.bits == 0, (c, p)
        # K_{n+1} = 0 and K_0 is everything
        assert spaces[side.n + 1].rank == 0
        assert spaces[0].rank == len(pc.points)
        for p in range(side.n + 1):
            f_rank = side.evaluator.value("multitangent", p, c).rank
            assert spaces[p].rank - spaces[p + 1].rank == f_rank, (c, p)
            # nesting
            for ind, _ in pd.frame.level(pc, p + 1)[0]:
                assert spaces[p].contains(ind)
    # preservation by the cosheaf maps: image of level-p generators stays
    # in level p on every cover
    for (yi, xi) in poset.covers:
        px, py = pd.phase_cell(xi), pd.phase_cell(yi)
        if not px.points or not py.points:
            continue
        for p in range(side.n + 1):
            target = pd.frame.level(py, p)[1]
            images = pd.frame.point_images(px.stratum, py.stratum)
            for ind, _ in pd.frame.level(px, p)[0]:
                out = 0
                v = ind
                while v:
                    low = v & (-v)
                    out ^= 1 << images[low.bit_length() - 1]
                    v ^= low
                assert target.contains(out), (xi, yi, p)


def test_well_defined_graded_identification(cubic_pair):
    # generators whose indicator lies in K_{p+1} must carry zero F-coords
    # modulo the image of level p+1: combination check per cell
    side = cubic_pair.side_a
    poset = side.base_poset
    eps = signs_from_divisor(side, [D7])
    pd = PhaseData(side, poset, eps)
    for c in poset.cells:
        pc = pd.phase_cell(c.index)
        if not pc.points:
            continue
        for p in range(side.n + 1):
            gens = pd.frame.level(pc, p)[0]
            if not gens:
                continue
            space = F2Space(g[0] for g in gens)
            # the graded identification must kill level-(p+1) indicators:
            # express each in level-p generators and check zero wedge image
            for ind, _ in pd.frame.level(pc, p + 1)[0]:
                sol = space.solve(ind)
                assert sol is not None
                acc = 0
                for i, (_, gc) in enumerate(gens):
                    if (sol >> i) & 1:
                        acc ^= gc
                assert not acc, (c, p)


# -- real complex and betti -----------------------------------------------------------

class PerPointRealComplex:
    """Reference real complex: a tuple-keyed index over (cell, point) and
    one (y, s2, x, s) transport entry per phase point of every cover."""

    def __init__(self, pd):
        self.n = pd.side.n
        self.cells = []
        index = {}
        for c in pd.poset.cells:
            for s in pd.phase_cell(c.index).points:
                index[(c.index, s)] = len(self.cells)
                self.cells.append((c.index, s, c.dim))
        self.covers = [
            (index[yi, s2], index[xi, s]) for yi, s2, xi, s in _transport_list(pd)
        ]

    def component_count(self):
        parent = {}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        tops = [i for i, (_, _, d) in enumerate(self.cells) if d == self.n]
        for i in tops:
            parent[i] = i
        facet_tops = {}
        for (yi, xi) in self.covers:
            if self.cells[xi][2] == self.n and self.cells[yi][2] == self.n - 1:
                facet_tops.setdefault(yi, []).append(xi)
        for tops_here in facet_tops.values():
            for b in tops_here[1:]:
                ra, rb = find(tops_here[0]), find(b)
                if ra != rb:
                    parent[rb] = ra
        return len({find(i) for i in tops})

    def rows(self):
        """Packed boundary rows per degree, the real q-cells numbered in
        poset cell order."""
        dims = {}
        offs = []
        for (_, _, d) in self.cells:
            offs.append(dims.get(d, 0))
            dims[d] = dims.get(d, 0) + 1
        rows = {q: [0] * dims[q] for q in dims}
        for (yi, xi) in self.covers:
            rows[self.cells[xi][2]][offs[xi]] ^= 1 << offs[yi]
        return rows

    def betti(self):
        rows = self.rows()
        ranks = {q: f2_rank(rows[q]) for q in rows if q > 0}
        return [
            len(rows.get(q, ())) - ranks.get(q, 0) - ranks.get(q + 1, 0)
            for q in range(max(rows, default=-1) + 1)
        ]


def test_real_complex_matches_per_point_reference(cubic_pair, k3_pair, cy3_pair):
    # the compact numbering and the graph ranks of D_1 and D_n against the
    # per-point construction, which eliminates every degree: on every cubic
    # class, 10 K3 classes and 4 fixed classes of CY3 side a, whose degree 2
    # is the one middle degree the real complex still eliminates; its rows
    # from real_rows are the reference's bit for bit, so each face point is
    # numbered by the phase points below it, not merely up to a shift
    cubic, k3, cy3 = cubic_pair.side_a, k3_pair.side_a, cy3_pair.side_a
    runs = [
        (cubic, divisor_class_representatives(cubic)),
        (k3, sample_divisor_classes(k3, 10, seed=5)),
        (cy3, [0, 5, 10, 15]),
    ]
    components = set()
    for side, masks in runs:
        for mask in masks:
            eps = signs_from_divisor(side, mask_to_rays(side, mask))
            pd = PhaseData(side, side.base_poset, eps)
            rc, ref = RealComplex(pd), PerPointRealComplex(pd)
            assert rc.betti() == ref.betti(), mask
            records = [
                [pd.phase_cell(ci) for ci in pd.poset.cells_by_dim[q]] for q in range(side.n)
            ]
            ref_rows = ref.rows()
            for q in range(2, side.n):
                rows = pd.frame.real_rows(records[q - 1], records[q])
                assert rows == ref_rows.get(q, []), (mask, q)
            assert rc.component_count() == ref.component_count(), mask
            components.add(rc.component_count())
    assert components == {1, 2}


def test_escaping_transport_raises(monkeypatch):
    # a class whose phase set on a cell y misses the image of a phase point
    # of a cell x above it: on a scratch pair's frame, y's phase set loses
    # that point as its record is built, and the transport check there
    # refuses the record, memoizes nothing, and stops either Betti route.
    # The check reads the covers, not the point rows: phase data alone
    # does not build them
    side = MirrorPair(
        generate_central(LatticePolytope(CUBIC_VERTS)),
        generate_central(LatticePolytope(CUBIC_DUAL_VERTS)),
    ).side_a
    eps = signs_from_divisor(side, [D7, D8])
    frame = side.phase_frame("base")
    for yi, xi, images in frame.covers:
        xpoints = _phase_points_directly(frame, xi, eps)
        if xpoints:
            break
    else:
        pytest.fail("no cover below a cell with phase points")
    s2 = images[xpoints[-1]]
    assert s2 in _phase_points_directly(frame, yi, eps)
    phase_bits = frame._phase_bits

    def doctored(ci, mask):
        bits = phase_bits(ci, mask)
        return bits & ~(1 << s2) if ci == yi else bits

    monkeypatch.setattr(frame, "_phase_bits", doctored)
    pd = PhaseData(side, side.base_poset, eps)
    with pytest.raises(InternalCheckError, match="phase transport escaped the target phase set"):
        pd.phase_cell(yi)
    assert all(ci != yi for ci, _ in frame._phase_cells)
    assert "point_rows" not in frame.__dict__
    with pytest.raises(InternalCheckError, match="phase transport escaped the target phase set"):
        real_betti(side, eps)


def _scratch_side(name):
    """Side a of a freshly built cubic or K3 pair, whose frame no test has
    read yet."""
    verts = {"cubic": (CUBIC_VERTS, CUBIC_DUAL_VERTS), "k3": (CUBE_VERTS, OCTA_VERTS)}[name]
    return MirrorPair(*(generate_central(LatticePolytope(v)) for v in verts)).side_a


@pytest.mark.parametrize("name", ["cubic", "k3"])
def test_real_complex_needs_two_ends_per_edge_and_facet(name):
    # D_1 and D_n are ranked as graphs, which holds only if every real edge
    # has two ends and every real facet lies in two top cells; the frame
    # checks it once per record, when it builds the record's incidence
    # lists.  On a fresh pair per mutation, before any list is built, one
    # cover below a 1-cell is dropped from the frame's grouped covers (below
    # the 1-cell and above its face), or one cover above an (n-1)-cell is
    # listed twice (in both groups): the real complex raises, and so does
    # real_betti, whose sign route reads the point rows built from the
    # intact covers first.  On K3 the dropped cover is below a real edge,
    # which the primal graph reads
    eps = signs_from_divisor(_scratch_side(name), [])
    intact = _scratch_side(name)
    assert real_betti(intact, eps) == RealComplex(PhaseData(intact, intact.base_poset, eps)).betti()
    for dim_x, twice in ((1, False), (intact.n, True)):
        side = _scratch_side(name)
        frame, cells = side.phase_frame("base"), side.base_poset.cells
        frame.point_rows
        pd = PhaseData(side, side.base_poset, eps)
        yi, xi, _ = next(
            c for c in frame.covers if cells[c[1]].dim == dim_x and pd.phase_cell(c[1]).points
        )
        below, above = list(frame._below[xi]), list(frame._above[yi])
        i = next(i for i, (y, _, _) in enumerate(below) if y == yi)
        j = next(j for j, (x, _) in enumerate(above) if x == xi)
        if twice:
            below.insert(i, below[i])
            above.insert(j, above[j])
        else:
            del below[i], above[j]
        frame._below[xi], frame._above[yi] = tuple(below), tuple(above)
        for build in (lambda: RealComplex(pd), lambda: real_betti(side, eps)):
            with pytest.raises(InternalCheckError, match="two ends"):
                build()
        assert all(pc.up is None for pc in frame._phase_cells.values() if pc.ci == yi)


@pytest.mark.parametrize("name", ["cubic", "k3"])
@pytest.mark.parametrize("top", [True, False])
def test_dropped_phase_point_raises(name, top, monkeypatch):
    # one phase point dropped from one record of a fresh pair, as the
    # record is built: on a top cell, the real facet its image lies on has
    # one top left, and the facet's incidence check fires ("fewer than two
    # ends"); on an (n-1)-cell below a top cell, whose points are all
    # images of top points, the transport check fires ("phase transport
    # escaped").  real_betti and the real complex both raise
    # InternalCheckError, which the CLI reports with exit code 2
    side = _scratch_side(name)
    eps = signs_from_divisor(side, [])
    frame, cells = side.phase_frame("base"), side.base_poset.cells
    pd = PhaseData(side, side.base_poset, eps)
    yi, xi, images = next(
        c for c in frame.covers if cells[c[1]].dim == side.n and pd.phase_cell(c[1]).points
    )
    s = pd.phase_cell(xi).points[0]
    ci, point = (xi, s) if top else (yi, images[s])
    frame._phase_cells.clear()
    phase_bits = frame._phase_bits

    def doctored(cj, mask):
        bits = phase_bits(cj, mask)
        return bits & ~(1 << point) if cj == ci else bits

    monkeypatch.setattr(frame, "_phase_bits", doctored)
    message = "fewer than two ends" if top else "phase transport escaped"
    for build in (
        lambda: real_betti(side, eps),
        lambda: RealComplex(PhaseData(side, side.base_poset, eps)),
    ):
        with pytest.raises(InternalCheckError, match=message):
            build()


def test_incidence_lists_are_shared_per_record(k3_pair, monkeypatch):
    # the real complex reads each record's incidence lists from the frame:
    # sweeping the same K3 classes a second time builds none, and the lists
    # are the same objects.  The real complex does not read the frame's
    # numbering of the sign route: with offset and layout gone and no point
    # rows built, it gives the same Betti numbers
    side = _scratch_side("k3")
    masks = sample_divisor_classes(k3_pair.side_a, 12, seed=9)
    frame = side.phase_frame("base")
    for name in ("offset", "layout"):
        monkeypatch.delattr(frame, name)
    first = [RealComplex(PhaseData(side, side.base_poset, signs_from_divisor(
        side, mask_to_rays(side, m)))).betti() for m in masks]
    assert "point_rows" not in frame.__dict__
    monkeypatch.undo()
    rows = sweep_rows(side, masks)
    assert [row["betti"] for row in rows] == first
    records = list(frame._phase_cells.values())
    built = [(pc.up, pc.down) for pc in records]
    assert any(pc.up is not None for pc in records)
    assert any(pc.down is not None for pc in records)
    calls = []
    real_pairs = frame.real_pairs

    def counted(pc, up):
        calls.append((pc.up if up else pc.down) is None)
        return real_pairs(pc, up)

    monkeypatch.setattr(frame, "real_pairs", counted)
    assert sweep_rows(side, masks) == rows
    assert calls and not any(calls)
    assert list(frame._phase_cells.values()) == records
    assert all(pc.up is up and pc.down is down for pc, (up, down) in zip(records, built))


def test_cubic_connected_example(cubic_pair):
    side = cubic_pair.side_a
    eps = signs_from_divisor(side, [D7, D8])
    assert real_betti(side, eps) == [1, 1]


def test_cubic_disconnected_example(cubic_pair):
    side = cubic_pair.side_a
    eps = signs_from_divisor(side, [D8])
    betti = real_betti(side, eps)
    assert betti[0] == 2


def test_diamond_pair_always_disconnected(diamond_pair):
    # every patchworking of this pair splits: all dual edges have even length
    side = diamond_pair.side_a
    pts = list(side.newton.polytope.lattice_points)
    for mask in range(1 << len(pts)):
        eps = {p: (mask >> i) & 1 for i, p in enumerate(pts)}
        assert real_betti(side, eps)[0] == 2


def test_verdicts_match_figures(cubic_pair):
    side = cubic_pair.side_a
    assert connectedness_verdict(side, [D7, D8]) == "connected"
    assert connectedness_verdict(side, [D8]) == "two_components"
    # divisors supported in facet interiors always disconnect
    verts = set(side.newton.polytope.vertices)
    interior = [v for v in side.newton.rays() if v not in verts]
    assert connectedness_verdict(side, interior) == "two_components"


# -- delta1 and the connectedness criterion ----------------------------------------------

def test_delta1_of_boundary_class_is_null(cubic_pair):
    side = cubic_pair.side_a
    eps = signs_from_divisor(side, [D7, D8])
    cx = side.complex("refined", "multitangent", 0)
    n = side.n
    rows = cx.f2_rows(n + 1) if (n + 1) in cx.D else []
    rng = random.Random(3)
    for r in rows[:5]:
        if not r:
            continue
        chain = cx.packed_to_chain(r, n)
        out = delta1(side, eps, chain, 0)
        assert is_null_class(side, out, 1, kind="refined")


def test_delta1_lift_independence(cubic_pair):
    # two different solves (different generator orders) give homologous output
    side = cubic_pair.side_a
    eps = signs_from_divisor(side, [D7])
    S = sphere_cycle(side)
    out1 = delta1(side, eps, S, 0)
    # perturb the input by a boundary: class output must stay homologous
    cx = side.complex("refined", "multitangent", 0)
    n = side.n
    rows = cx.f2_rows(n + 1) if (n + 1) in cx.D else []
    vec = cx.chain_to_packed(S, n)
    for r in rows[:3]:
        pert = cx.packed_to_chain(vec ^ r, n)
        out2 = delta1(side, eps, pert, 0)
        cx1 = side.complex("refined", "multitangent", 1)
        v1 = cx1.chain_to_packed(out1, n - 1) if out1 else 0
        v2 = cx1.chain_to_packed(out2, n - 1) if out2 else 0
        assert cx1.f2_is_boundary(v1 ^ v2, n - 1)


def test_delta1_on_base_poset_matches_verdict(cubic_pair):
    # the first differential of the fundamental class vanishes exactly when
    # the patchworking splits, computed on the unrefined poset as well
    side = cubic_pair.side_a
    for rays, connected in (([D7], True), ([D8], False), ([D7, D8], True)):
        eps = signs_from_divisor(side, rays)
        S = sphere_cycle(side, kind="base")
        out = delta1(side, eps, S, 0, kind="base")
        nonzero = not is_null_class(side, out, 1, kind="base")
        assert nonzero == connected, rays


def test_delta1_mirror_is_divisor_class_cubic(cubic_pair):
    # the first differential of the fundamental class transfers to the
    # divisor restriction class, for every divisor class
    side = cubic_pair.side_a
    n = side.n
    cxm = side.mirror.complex("refined", "multitangent", n - 1)
    for mask in divisor_class_representatives(side)[:16]:
        rays = mask_to_rays(side, mask)
        eps = signs_from_divisor(side, rays)
        d1S = delta1(side, eps, sphere_cycle(side), 0)
        transferred = transfer_class(side, d1S, 1) if d1S else {}
        dx = divisor_restriction(side, rays)
        v1 = cxm.chain_to_packed(transferred, n - 1) if transferred else 0
        v2 = cxm.chain_to_packed(dx, n - 1) if dx else 0
        assert cxm.f2_is_boundary(v1 ^ v2, n - 1), mask


def test_delta1_of_degree_zero_chain_is_zero(cubic_pair):
    # a degree-0 lift has boundary 0, so its differential is the empty chain
    side = cubic_pair.side_a
    eps = signs_from_divisor(side, [D7])
    for p in (0, 1):
        chain = side.complex("refined", "multitangent", p).packed_to_chain(1, 0)
        assert len(chain) == 1
        assert delta1(side, eps, chain, p) == {}


def test_delta1_internal_checks_each_fire(monkeypatch):
    # each consistency check of delta1 raises when the one datum it guards
    # is broken: the level-p coordinate space, the phase sets of the cells
    # it reads back, the level-p+1 indicator space, and the closedness of
    # the output.  A record keeps its lifts and read-backs once solved, so
    # each break runs on a fresh side whose records no delta1 has solved;
    # after the raise, delta1 on that same side, undoctored, gives what a
    # fresh pair gives: a failed solve is not kept
    eps = signs_from_divisor(_scratch_side("cubic"), [D7])
    S = sphere_cycle(_scratch_side("cubic"))
    want = delta1(_scratch_side("cubic"), eps, S, 0)
    assert want  # the lift has a nonzero boundary

    phase_cell = PhaseData.phase_cell

    def no_phase_set_below(pd, ci):
        pc = phase_cell(pd, ci)
        if pd.poset.cells[ci].dim == pd.side.n - 1:
            pc = copy.copy(pc)
            pc.bits = 0
        return pc

    def broken_level(broken):
        def doctor(side, mp):
            frame = side.phase_frame("refined")
            level = frame.level
            mp.setattr(frame, "level", lambda pc, p: broken(*level(pc, p)))

        return doctor

    breaks = (
        ("chain coefficient is not in the filtration image",
         broken_level(lambda gens, inds, coords: (gens, inds, F2Space()))),
        ("boundary of the lift escaped the phase sets",
         lambda side, mp: mp.setattr(PhaseData, "phase_cell", no_phase_set_below)),
        ("boundary of the lift escaped the next filtration level",
         broken_level(lambda gens, inds, coords: (gens, F2Space(), coords))),
        ("filtration differential output not closed",
         lambda side, mp: mp.setattr(
             side.complex("refined", "multitangent", 1), "f2_is_cycle", lambda vec, q: False
         )),
    )
    for message, doctor in breaks:
        side = _scratch_side("cubic")
        with monkeypatch.context() as mp:
            doctor(side, mp)
            with pytest.raises(InternalCheckError, match=message):
                delta1(side, eps, S, 0)
        assert delta1(side, eps, S, 0) == want, message


def test_delta1_middle_degree_k3(k3_pair):
    # the differential out of the 20-dimensional middle group runs and
    # lands in closed chains of the next wedge degree
    side = k3_pair.side_a
    rays = side.newton.rays()[:3]
    eps = signs_from_divisor(side, rays)
    cx = side.complex("refined", "multitangent", 1)
    gens = cx.f2_homology_generators(1)
    assert len(gens) == 20
    for rep in gens[:3]:
        out = delta1(side, eps, cx.packed_to_chain(rep, 1), 1)
        if out:
            cx2 = side.complex("refined", "multitangent", 2)
            vec = cx2.chain_to_packed(out, 0)
            assert cx2.f2_is_cycle(vec, 0)


def test_delta1_chains_frozen(cubic_pair, k3_pair):
    # the chains delta1 returns, not only their classes, are fixed bit for
    # bit: the fundamental class under the first 16 cubic classes and 8
    # sampled K3 classes, and under each K3 class every fifth degree-1
    # generator at p = 1; 56 outputs.  The generators at p = 1 pin the
    # order of the coset indicators, which picks the lift
    outs = []
    cubic, k3 = cubic_pair.side_a, k3_pair.side_a
    for mask in divisor_class_representatives(cubic)[:16]:
        eps = signs_from_divisor(cubic, mask_to_rays(cubic, mask))
        outs.append(delta1(cubic, eps, sphere_cycle(cubic), 0))
    cx = k3.complex("refined", "multitangent", 1)
    gens = [cx.packed_to_chain(g, 1) for g in cx.f2_homology_generators(1)[::5]]
    for mask in sample_divisor_classes(k3, 8, 0):
        eps = signs_from_divisor(k3, mask_to_rays(k3, mask))
        outs.append(delta1(k3, eps, sphere_cycle(k3), 0))
        outs += [delta1(k3, eps, g, 1) for g in gens]
    digest = hashlib.sha256(repr([sorted(o.items()) for o in outs]).encode())
    assert digest.hexdigest() == (
        "8eb3b0d4a920dc97189b557b8bdf5cf9e29df9a521a78c1e72bf42eed75dd5cc"
    )


def _level_generators_inline(frame, pc, p):
    """The generators of filtration level p on pc, computed edge by edge
    with no memo: the oracle for ``PhaseFrame.level``."""
    ev = frame.evaluator
    gens = []
    if not pc.bits:
        return gens
    value = ev.value("multitangent", p, frame.poset.cells[pc.ci])
    for ((a, b), rdm, _), te in zip(frame.cells[pc.ci][2], pc.tes):
        B = ev.edge_annihilator_basis(pc.stratum, a, b, 1)
        w = len(B)
        if p > w:
            continue
        B2 = [f2_pack(row) for row in B]
        T = [
            f2_pack(value.reduce(row))
            for row in ev.edge_annihilator_basis(pc.stratum, a, b, p)
        ] if value.rank else []
        s0 = rdm & -rdm if te else 0
        Wspan = patchwork._span(B2)
        for U in patchwork._subspaces.__wrapped__(w, p):
            bits = [[(u >> j) & 1 for j in range(w)] for u in U]
            fcoords = f2_combine(f2_pack(wedge_matrix(bits, p)[0]), T) if T else 0
            span = patchwork._span([f2_combine(u, B2) for u in U])
            cosets = {sum(1 << (s0 ^ wv ^ u) for u in span) for wv in Wspan}
            gens += [(ind, fcoords) for ind in sorted(cosets, key=lambda i: i & -i)]
    return gens


def _generator_transfers(side):
    """Up to two F2 homology generators of each (p, q), transferred: chains
    of one degree go through the transfer's cell maps at every p."""
    outs = []
    for p in range(side.n + 1):
        cx = side.complex("refined", "multitangent", p)
        for q in range(side.n + 1):
            for rep in cx.f2_homology_generators(q)[:2]:
                outs.append(transfer_class(side, cx.packed_to_chain(rep, q), p))
    return outs


def _delta1_and_transfers(side, masks):
    """Per class, delta1 of the sphere class and its transfer at p = 1."""
    S = sphere_cycle(side)
    outs = []
    for mask in masks:
        eps = signs_from_divisor(side, mask_to_rays(side, mask))
        d1S = delta1(side, eps, S, 0)
        outs += [d1S, transfer_class(side, d1S, 1) if d1S else {}]
    return outs


@pytest.mark.parametrize("name", ["cubic", "k3", "prism"])
def test_warm_memos_match_fresh_pairs_and_inline_levels(name):
    # the per-side cell maps of the transfer and the frame's per-edge
    # generators are memos: on one warm side, every class gives what a
    # fresh pair gives it, and every level equals its inline computation
    verts = {
        "cubic": (CUBIC_VERTS, CUBIC_DUAL_VERTS),
        "k3": (CUBE_VERTS, OCTA_VERTS),
        "prism": (PRISM_VERTS, None),
    }[name]

    def fresh():
        P = LatticePolytope(verts[0])
        Q = P.dual() if verts[1] is None else LatticePolytope(verts[1])
        return MirrorPair(generate_central(P), generate_central(Q)).side_a

    warm = fresh()
    assert _generator_transfers(warm) == _generator_transfers(fresh())
    masks = sample_divisor_classes(warm, 4, 0)
    outs = _delta1_and_transfers(warm, masks)
    for i, mask in enumerate(masks):
        assert outs[2 * i : 2 * i + 2] == _delta1_and_transfers(fresh(), [mask]), mask
    frame = warm.phase_frame("refined")
    for pc in list(frame._phase_cells.values()):
        for p in range(warm.n + 1):
            assert frame.level(pc, p)[0] == _level_generators_inline(frame, pc, p), (pc.ci, p)


@pytest.mark.parametrize("name", ["cubic", "k3"])
def test_delta1_resolves_only_the_cells_it_reads(name, cubic_pair, k3_pair, monkeypatch):
    # delta1 resolves the records of the chain's cells and of the cells its
    # boundary touches, fewer than the poset has cells; with every record
    # resolved up front, as an eager PhaseData would, its chains are the same
    side = {"cubic": cubic_pair, "k3": k3_pair}[name].side_a
    poset = side.refined_poset
    cx = side.complex("refined", "multitangent", 1)
    inputs = [(sphere_cycle(side), 0)]
    inputs += [(cx.packed_to_chain(g, 1), 1) for g in cx.f2_homology_generators(1)[:2]]
    read, init, phase_cell = set(), PhaseData.__init__, PhaseData.phase_cell

    def recorded(pd, ci):
        read.add(ci)
        return phase_cell(pd, ci)

    def eager(pd, *args):
        init(pd, *args)
        pd.degree_records

    for mask in sample_divisor_classes(side, 3, 1):
        eps = signs_from_divisor(side, mask_to_rays(side, mask))
        for chain, p in inputs:
            with monkeypatch.context() as mp:
                mp.setattr(PhaseData, "phase_cell", recorded)
                read.clear()
                lazy = delta1(side, eps, chain, p)
            with monkeypatch.context() as mp:
                mp.setattr(PhaseData, "__init__", eager)
                assert delta1(side, eps, chain, p) == lazy, (mask, p)
            q = side.complex("refined", "multitangent", p).pack_chain(chain)[0]
            assert {poset.cells[ci].dim for ci in read} <= {q, q - 1}, (mask, p)
            assert 0 < len(read) < len(poset.cells), (mask, p)


def test_cubic_sweep_exhaustive(cubic_pair):
    side = cubic_pair.side_a
    masks = divisor_class_representatives(side)
    rows = sweep_rows(side, masks, with_betti=False)
    assert len(rows) == 128
    for row in rows:
        assert row["b0"] in (1, 2)
        expected = "connected" if row["b0"] == 1 else "two_components"
        assert row["verdict"] == expected
        assert row["class_nonzero"] == (row["b0"] == 1)
    # --no-betti only shapes the report: each row is the Betti row without
    # its Betti vector
    full = sweep_rows(side, masks, with_betti=True)
    assert rows == [{k: v for k, v in row.items() if k != "betti"} for row in full]


def _splitting_kernel(side):
    """A basis of the kernel of divisor class -> mirror class, as masks over
    the free rays (those that are no pivot of the pairing space, so each
    class has one mask on them, its normal form).  Each free ray's
    ``divisor_restriction`` is packed at degree n - 1 of the mirror's base
    complex and reduced against that complex's boundary rows, with the
    combinations of the rays inserted before it tracked: a ray that the
    boundaries and earlier rays span (a ray with an empty restriction
    among them) closes one kernel vector."""
    rays, pairing = patchwork._pairing_space(side)
    pivots = {row.bit_length() - 1 for row in pairing.pivot_rows()}
    free = [i for i in range(len(rays)) if i not in pivots]
    mirror, q = side.mirror, side.n - 1
    cx = mirror.complex("base", "multitangent", q)
    boundaries = cx.f2_rows(q + 1)
    space = F2Space(boundaries)
    kernel = []
    for j, i in enumerate(free):
        chain = divisor_restriction(side, [rays[i]])
        degree, vec = cx.pack_chain(chain)
        assert degree in (q, None)  # None: empty
        comb = space.solve(vec)
        if comb is not None:
            earlier = comb >> len(boundaries)
            kernel.append(
                (1 << i) | sum(1 << free[k] for k in range(j) if (earlier >> k) & 1)
            )
        space.add(vec)
    return kernel


def _span(basis):
    span = {0}
    for b in basis:
        span |= {m ^ b for m in span}
    return span


def test_splitting_kernel_matches_brute_force_on_cubic(cubic_pair):
    # the classes that split are exactly the span of the kernel basis
    side = cubic_pair.side_a
    kernel = _splitting_kernel(side)
    assert len(kernel) == 6
    masks = divisor_class_representatives(side)
    assert len(masks) == 128
    split = {m for m in masks if connectedness_verdict(side, mask_to_rays(side, m)) == "two_components"}
    assert len(split) == 1 << len(kernel)
    assert split == _span(kernel)


def test_every_k3_splitting_class_has_two_components(k3_pair):
    # the paper's second theorem on the whole kernel: 2^6 classes, each two
    # spheres
    side = k3_pair.side_a
    kernel = _splitting_kernel(side)
    assert len(kernel) == 6
    classes = sorted(_span(kernel))
    for row in sweep_rows(side, classes):
        assert row["verdict"] == "two_components", row["divisor"]
        assert row["betti"] == [2, 20, 2], row["divisor"]


def _splitting_sweep_masks(side, kernel, seed):
    """(8 fixed sums of kernel basis vectors, 8 fixed classes outside the
    kernel), as normal forms drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    span = _span(kernel)
    sums = []
    while len(sums) < 8:
        mask = 0
        for k in rng.sample(kernel, rng.randint(2, len(kernel))):
            mask ^= k
        if mask not in sums:
            sums.append(mask)
    rays, space = patchwork._pairing_space(side)
    outside = []
    while len(outside) < 8:
        mask = patchwork._normal_form(space, rng.getrandbits(len(rays)))
        if mask not in span and mask not in outside:
            outside.append(mask)
    return sums, outside


@pytest.mark.parametrize("name, dim", [("prism", 8), ("quartic", 12)])
def test_splitting_kernel_splits_and_its_complement_connects(name, dim, quartic_pair):
    # the paper's second theorem on a whole subspace: the kernel basis and
    # fixed sums of it split RX, fixed classes outside the kernel connect
    if name == "prism":
        P = LatticePolytope(PRISM_VERTS)
        side = MirrorPair(generate_central(P), generate_central(P.dual())).side_a
    else:
        side = quartic_pair.side_a
    kernel = _splitting_kernel(side)
    assert len(kernel) == dim
    sums, outside = _splitting_sweep_masks(side, kernel, seed=0)
    for row in sweep_rows(side, kernel + sums):
        assert row["verdict"] == "two_components", row["divisor"]
    for row in sweep_rows(side, outside):
        assert row["verdict"] == "connected", row["divisor"]


def test_sweep_rows_obey_duality_euler_and_hodge_bound(cubic_pair, k3_pair):
    # RX is a closed n-manifold filtered with the multitangent cosheaves mod
    # 2, so on every row b_q = b_(n-q), chi(RX) is the alternating sum of
    # the side's F2 Hodge table h[p][q] = dim H_q(F_p), and b_q <= sum_p
    # h[p][q] (Renaudineau-Shaw); all 128 cubic classes, 20 K3 classes
    cubic, k3 = cubic_pair.side_a, k3_pair.side_a
    for side, masks in (
        (cubic, divisor_class_representatives(cubic)),
        (k3, sample_divisor_classes(k3, 20, seed=3)),
    ):
        table = side.hodge_table("f2")["ranks"]
        chi = sum((-1) ** q * h for row in table for q, h in enumerate(row))
        bound = [sum(row[q] for row in table) for q in range(side.n + 1)]
        rows = sweep_rows(side, masks)
        assert len(rows) == len(masks)
        for row in rows:
            b = row["betti"]
            assert b == b[::-1], row["divisor"]
            assert sum((-1) ** q * x for q, x in enumerate(b)) == chi, row["divisor"]
            assert all(x <= y for x, y in zip(b, bound)), (b, bound)


def test_equivalent_divisors_same_betti(cubic_pair):
    side = cubic_pair.side_a
    rng = random.Random(13)
    rays = side.newton.rays()
    for _ in range(6):
        d = [v for v in rays if rng.random() < 0.5]
        xi = [rng.randint(0, 1) for _ in range(side.rank)]
        eps = signs_from_divisor(side, d)
        shifted = {
            p: eps[p] ^ (sum(x * a for x, a in zip(xi, p)) & 1)
            for p in eps
        }
        assert real_betti(side, eps) == real_betti(side, shifted)


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=10, max_size=10))
def test_arbitrary_sign_distributions(cubic_pair, bits):
    # any signs on the ten cubic lattice points, not only divisor-induced
    side = cubic_pair.side_a
    points = sorted(side.newton.polytope.lattice_points)
    assert len(points) == len(bits)
    eps = dict(zip(points, bits))
    betti = real_betti(side, eps)  # both routes and the component count agree
    pd = PhaseData(side, side.base_poset, eps)
    euler = sum((-1) ** q * b for q, b in enumerate(betti))
    assert euler == rows_euler(pd.sign_complex())
    for ci in range(len(side.base_poset.cells)):
        assert pd.phase_cell(ci).points == _phase_points_directly(pd.frame, ci, eps)
