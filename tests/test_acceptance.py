"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Every tolerance is exact; the stated runtime budgets are
asserted with the wall clock.
"""

import random
import time

from tropmirror.intlinalg import mat_mul
from tropmirror.lattice import LatticePolytope
from tropmirror.pairs import MirrorPair
from tropmirror.mirror import (
    contraction_matrix,
    contraction_sign,
    divisor_restriction,
    is_null_class,
    sphere_cycle,
    transfer_class,
)
from tropmirror.patchwork import (
    PhaseData,
    RealComplex,
    _normal_form,
    _pairing_space,
    check_vanishing_hypothesis,
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
from tropmirror.posets import balanced_signature, gauge_twist

from conftest import cy3_triangulations, ray_mask, rows_betti

D7 = (-1, 2)
D8 = (-1, 1)


def _verdict(number, ok, detail):
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_cubic_mirror_pair(cubic_pair):
    start = time.time()
    ok = True
    for side in cubic_pair.sides:
        for ring in ("q", "f2", "z"):
            table = side.hodge_table(ring)
            ok = ok and table["ranks"] == [[1, 1], [1, 1]]
            if ring == "z":
                ok = ok and all(
                    t == [] for row in table["torsion"] for t in row
                )
    # mirror equality across the pair, all three rings
    n = cubic_pair.n
    for ring in ("q", "f2", "z"):
        ta = cubic_pair.side_a.hodge_table(ring)
        tb = cubic_pair.side_b.hodge_table(ring)
        ok = ok and all(
            ta["ranks"][p][q] == tb["ranks"][n - p][q]
            for p in range(n + 1)
            for q in range(n + 1)
        )
    elapsed = time.time() - start
    ok = ok and elapsed < 5
    _verdict(1, ok, f"cubic tables all ones, equal over q/f2/z, {elapsed:.2f}s < 5s")


def test_criterion_2_k3_hodge_tables(k3_pair):
    start = time.time()
    expected = [[1, 0, 1], [0, 20, 0], [1, 0, 1]]
    ok = True
    for side in k3_pair.sides:
        for ring in ("q", "z"):
            table = side.hodge_table(ring)
            ok = ok and table["ranks"] == expected
            if ring == "z":
                ok = ok and all(
                    t == [] for row in table["torsion"] for t in row
                )
    elapsed = time.time() - start
    ok = ok and elapsed < 300
    _verdict(2, ok, f"K3 diamond (1,0,1;0,20,0;1,0,1) both sides, {elapsed:.1f}s < 300s")


def test_criterion_3_acyclicity(cubic_pair, k3_pair):
    ok = True
    for pair in (cubic_pair, k3_pair):
        for side in pair.sides:
            for tag in ("quotient", "kernel"):
                for p in range(side.n + 2):
                    for ring in ("z", "f2"):
                        h = side.homology("refined", tag, p, ring)
                        ok = ok and all(h.rank(q) == 0 for q in h.degrees)
                        ok = ok and not h.has_torsion()
    _verdict(3, ok, "quotient and kernel cosheaves acyclic over Z and F2, both pairs")


def test_criterion_4_exact_sequences(cubic_pair, k3_pair):
    ok = True
    checked = 0
    for pair in (cubic_pair, k3_pair):
        for side in pair.sides:
            poset = side.refined_poset
            ev = side.evaluator
            for p in range(side.n + 2):
                for c in poset.cells:
                    vF = ev.value("multitangent", p, c)
                    vR = ev.value("kernel", p, c)
                    vM = ev.value("mirror", p, c)
                    vMD = ev.value("mirror_ext", p, c)
                    vQ = ev.value("quotient", p, c)
                    ok = ok and vM.rank + vQ.rank == vMD.rank
                    ok = ok and vR.rank + vMD.rank == vF.rank
                    # zero composites: R -> F -> M_ext dies in the quotient,
                    # and M and Q never live on the same cell
                    if vR.rank and vMD.rank:
                        for i in range(vR.rank):
                            ok = ok and not any(vMD.reduce(vR.rep(i)))
                    ok = ok and not (vM.rank and vQ.rank)
                    checked += 1
    _verdict(4, ok, f"rank additivity and zero composites on {checked} cell/degree pairs")


def test_criterion_5_contraction_round_trip(cubic_pair, k3_pair):
    ok = True
    cells = 0
    for pair in (cubic_pair, k3_pair):
        for side in pair.sides:
            n = side.n
            eps = contraction_sign(n)
            poset = side.refined_poset
            for cell in poset.cells:
                if not poset.on_sphere(cell):
                    continue
                cells += 1
                for p in range(n + 1):
                    Vx = side.evaluator.value("mirror", p, cell)
                    if Vx.rank == 0:
                        continue
                    mats = [
                        contraction_matrix(side, p, cell, vertex=v)[0]
                        for v in cell.tau
                    ]
                    ok = ok and all(m == mats[0] for m in mats[1:])
                    A, mkey = contraction_matrix(side, p, cell)
                    mposet = side.mirror.refined_poset
                    mcell = mposet.cells[mposet.cell_index[mkey]]
                    B, back = contraction_matrix(side.mirror, n - p, mcell)
                    ident = [
                        [eps if i == j else 0 for j in range(Vx.rank)]
                        for i in range(Vx.rank)
                    ]
                    ok = ok and back == cell.key and mat_mul(A, B) == ident
    _verdict(5, ok, f"epsilon round trip and vertex independence on {cells} sphere cells")


def test_criterion_6_patchworking_figures(cubic_pair, diamond_pair):
    start = time.time()
    side = cubic_pair.side_a
    b_connected = real_betti(side, signs_from_divisor(side, [D7, D8]))
    b_split = real_betti(side, signs_from_divisor(side, [D8]))
    ok = b_connected[0] == 1 and b_split[0] == 2
    dside = diamond_pair.side_a
    pts = list(dside.newton.polytope.lattice_points)
    for mask in range(1 << len(pts)):
        eps = {p: (mask >> i) & 1 for i, p in enumerate(pts)}
        ok = ok and real_betti(dside, eps)[0] == 2
    elapsed = time.time() - start
    ok = ok and elapsed < 15
    _verdict(
        6,
        ok,
        f"figures: D7+D8 connected, D8 split, companion pair always split "
        f"(all {1 << len(pts)} sign choices), {elapsed:.2f}s",
    )


def test_criterion_7_connectedness_exhaustive(cubic_pair, k3_pair):
    start = time.time()
    side = cubic_pair.side_a
    masks = divisor_class_representatives(side)
    agree = 0
    for mask in masks:
        rays = mask_to_rays(side, mask)
        verdict = connectedness_verdict(side, rays)
        pd = PhaseData(side, side.base_poset, signs_from_divisor(side, rays))
        b0 = RealComplex(pd).component_count()
        if b0 in (1, 2) and (verdict == "connected") == (b0 == 1):
            agree += 1
    cubic_ok = agree == 128 == len(masks)
    cubic_time = time.time() - start
    start = time.time()
    kside = k3_pair.side_a
    check_vanishing_hypothesis(kside)  # raises on failure
    kmasks = sample_divisor_classes(kside, 200, seed=20240808)
    # make sure the splitting branch is also exercised at this scale: the
    # zero class and a facet-interior divisor both disconnect
    facet_interior = [
        v
        for v in kside.newton.rays()
        if sum(
            1
            for (nv, c) in kside.newton.polytope.facets
            if sum(a * b for a, b in zip(nv, v)) == c
        )
        == 1
    ]
    extra = [[], facet_interior]
    kagree = 0
    ksplit = 0
    jobs = [mask_to_rays(kside, m) for m in kmasks] + extra
    for rays in jobs:
        verdict = connectedness_verdict(kside, rays)
        pd = PhaseData(kside, kside.base_poset, signs_from_divisor(kside, rays))
        b0 = RealComplex(pd).component_count()
        if b0 in (1, 2) and (verdict == "connected") == (b0 == 1):
            kagree += 1
        if verdict == "two_components":
            ksplit += 1
    k3_time = time.time() - start
    ok = (
        cubic_ok
        and kagree == len(jobs)
        and ksplit >= 2
        and cubic_time < 120
        and k3_time < 1800
    )
    _verdict(
        7,
        ok,
        f"cubic {agree}/128 in {cubic_time:.1f}s; "
        f"K3 {kagree}/{len(jobs)} classes (incl. {ksplit} split) in {k3_time:.1f}s",
    )


def test_criterion_8_mirror_of_delta1(cubic_pair, k3_pair):
    ok = True
    side = cubic_pair.side_a
    n = side.n
    cxm = side.mirror.complex("refined", "multitangent", n - 1)
    S = sphere_cycle(side)
    for mask in divisor_class_representatives(side):
        rays = mask_to_rays(side, mask)
        eps = signs_from_divisor(side, rays)
        d1S = delta1(side, eps, S, 0)
        moved = transfer_class(side, d1S, 1) if d1S else {}
        dx = divisor_restriction(side, rays)
        v1 = cxm.chain_to_packed(moved, n - 1) if moved else 0
        v2 = cxm.chain_to_packed(dx, n - 1) if dx else 0
        ok = ok and cxm.f2_is_boundary(v1 ^ v2, n - 1)
    kside = k3_pair.side_a
    kn = kside.n
    kcxm = kside.mirror.complex("refined", "multitangent", kn - 1)
    kS = sphere_cycle(kside)
    kmasks = sample_divisor_classes(kside, 50, seed=7)
    for mask in kmasks:
        rays = mask_to_rays(kside, mask)
        eps = signs_from_divisor(kside, rays)
        d1S = delta1(kside, eps, kS, 0)
        moved = transfer_class(kside, d1S, 1) if d1S else {}
        dx = divisor_restriction(kside, rays)
        v1 = kcxm.chain_to_packed(moved, kn - 1) if moved else 0
        v2 = kcxm.chain_to_packed(dx, kn - 1) if dx else 0
        ok = ok and kcxm.f2_is_boundary(v1 ^ v2, kn - 1)
    _verdict(
        8, ok, "transfer of delta1(S) equals the divisor class: 128 cubic + 50 K3"
    )


def test_criterion_8_at_rank_4(cy3_pair):
    # the same identity on the CY3 16-cell side, n = 3: the zero class has
    # delta1(S) = 0 and a null restriction class; the class of one ray has a
    # nonzero one, the transfer of its delta1(S), and one component
    start = time.time()
    side = cy3_pair.side_a
    n = side.n
    cxm = side.mirror.complex("refined", "multitangent", n - 1)
    S = sphere_cycle(side)
    zero = delta1(side, signs_from_divisor(side, []), S, 0)
    ok = zero == {} and is_null_class(side.mirror, divisor_restriction(side, []), n - 1)
    rays = [(-1, 0, 0, 0)]
    eps = signs_from_divisor(side, rays)
    moved = transfer_class(side, delta1(side, eps, S, 0), 1)
    dx = divisor_restriction(side, rays)
    ok = ok and bool(moved) and bool(dx)
    ok = ok and cxm.f2_is_boundary(
        cxm.chain_to_packed(moved, n - 1) ^ cxm.chain_to_packed(dx, n - 1), n - 1
    )
    ok = ok and not is_null_class(side.mirror, dx, n - 1)
    verdict = connectedness_verdict(side, rays)
    ok = ok and verdict == "connected" and real_betti(side, eps)[0] == 1
    _verdict(
        8, ok, f"at rank 4 on the CY3 16-cell side: the zero class null, the class "
        f"of {rays[0]} the transfer of delta1(S), nonzero and connected, "
        f"{time.time() - start:.1f}s"
    )


def test_criterion_9_raw_sign_sweep(cubic_pair):
    side = cubic_pair.side_a
    pts = list(side.newton.polytope.lattice_points)
    by_class = {}
    # each class keyed by its normal form, the package's class key
    _, space = _pairing_space(side)
    for mask in range(1 << len(pts)):
        eps = {p: (mask >> i) & 1 for i, p in enumerate(pts)}
        d = divisor_from_signs(side, eps)
        canon = _normal_form(space, ray_mask(side, d))
        betti = tuple(real_betti(side, eps))
        by_class.setdefault(canon, set()).add(betti)
    ok = all(len(bettis) == 1 for bettis in by_class.values())
    _verdict(
        9,
        ok,
        f"all {1 << len(pts)} sign distributions: one betti vector per class "
        f"({len(by_class)} classes)",
    )


def test_criterion_10_structural_properties(cubic_pair, k3_pair):
    ok = True
    rng = random.Random(99)
    # boundary squared is checked at construction for every complex; build
    # the full families here so the check actually runs everywhere
    for pair in (cubic_pair, k3_pair):
        for side in pair.sides:
            for kind in ("base", "refined"):
                tags = (
                    ("multitangent",)
                    if kind == "base"
                    else ("multitangent", "mirror", "mirror_ext", "quotient", "kernel")
                )
                for tag in tags:
                    for p in range(side.n + 1):
                        side.complex(kind, tag, p)
    # field Euler characteristics
    for pair in (cubic_pair, k3_pair):
        for side in pair.sides:
            for p in range(side.n + 1):
                cx = side.complex("base", "multitangent", p)
                for ring in ("q", "f2"):
                    h = cx.homology(ring)
                    ok = ok and cx.euler_characteristic() == sum(
                        (-1) ** q * h.rank(q) for q in h.degrees
                    )
    # signature independence: arbitrary diamond solutions over F2, gauge
    # twists over Z
    side = cubic_pair.side_a
    poset = side.base_poset
    order = list(range(len(poset.covers)))
    rng.shuffle(order)
    solved = balanced_signature(poset, variable_order=order)
    for p in (0, 1):
        ref_f2 = side.homology("base", "multitangent", p, "f2")
        ref_z = side.homology("base", "multitangent", p, "z")
        cx = side.evaluator.chain_complex(poset, "multitangent", p, sign=solved)
        ok = ok and cx.homology("f2") == ref_f2
        gauge = {c.index: rng.choice((1, -1)) for c in poset.cells}
        cx2 = side.evaluator.chain_complex(
            poset, "multitangent", p, sign=gauge_twist(poset, poset.sign, gauge)
        )
        ok = ok and cx2.homology("z") == ref_z
    # filtration: indicators inside the phase sets (bit s is frame point s),
    # preservation and graded rank identity on every cell of both pairs, one
    # divisor each; plus the sign/multitangent Euler identity
    for pair, rays in ((cubic_pair, [D7]), (k3_pair, [k3_pair.side_a.newton.rays()[0]])):
        side = pair.side_a
        eps = signs_from_divisor(side, rays)
        pd = PhaseData(side, side.base_poset, eps)
        for c in side.base_poset.cells:
            pc = pd.phase_cell(c.index)
            if not pc.points:
                continue
            prev_rank = None
            for p in range(side.n + 2):
                gens, sp, _ = pd.frame.level(pc, p)
                for ind, _ in gens:
                    ok = ok and not ind & ~pc.bits
                if p <= side.n:
                    f_rank = side.evaluator.value("multitangent", p, c).rank
                    nxt_gens, nxt, _ = pd.frame.level(pc, p + 1)
                    ok = ok and sp.rank - nxt.rank == f_rank
                else:
                    nxt_gens = ()
                for ind, _ in nxt_gens:
                    ok = ok and sp.contains(ind)
        for (yi, xi) in side.base_poset.covers:
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
                    ok = ok and target.contains(out)
        betti_sign = rows_betti(pd.frame.point_rows, pd.sign_complex())
        euler_sign = sum((-1) ** q * b for q, b in enumerate(betti_sign))
        euler_graded = 0
        for p in range(side.n + 1):
            hp = side.homology("base", "multitangent", p, "f2")
            euler_graded += sum((-1) ** q * hp.rank(q) for q in hp.degrees)
        ok = ok and euler_sign == euler_graded
    _verdict(
        10,
        ok,
        "boundary squares vanish, signatures interchangeable, Euler identities, "
        "filtration preserved with graded ranks matching",
    )


def _cy3_pair():
    """The 16-cell / 4-cube CY3 pair, the 16-cell as Newton side."""
    return MirrorPair(*cy3_triangulations())


def test_criterion_11_cy3_cube_side_over_z():
    start = time.time()
    pair = _cy3_pair()
    side = pair.side_b  # Newton polytope: the 4-cube, 6705 base cells
    expected = [[1, 0, 0, 1], [0, 4, 68, 0], [0, 68, 4, 0], [1, 0, 0, 1]]
    table = side.hodge_table("z")
    ok = table["ranks"] == expected
    ok = ok and all(t == [] for row in table["torsion"] for t in row)
    ok = ok and side.hodge_table("q")["ranks"] == expected
    # the mirror: the 16-cell side (3473 base cells) carries the flipped table
    mirrored = [[1, 0, 0, 1], [0, 68, 4, 0], [0, 4, 68, 0], [1, 0, 0, 1]]
    ok = ok and pair.side_a.hodge_table("f2")["ranks"] == mirrored
    elapsed = time.time() - start
    ok = ok and elapsed < 60
    _verdict(
        11, ok, f"CY3 4-cube side over Z and Q, no torsion, 16-cell side over F2 "
        f"mirrored, {elapsed:.1f}s < 60s"
    )


def test_criterion_12_cy3_connectedness():
    # the paper's theorem at n = 3: every divisor class of the 16-cell side,
    # with the verdict from the mirror and the Betti numbers from both routes
    start = time.time()
    side = _cy3_pair().side_a  # Newton polytope: the 16-cell, 3473 base cells
    masks = divisor_class_representatives(side)
    rows = sweep_rows(side, masks, with_betti=True)
    ok = len(rows) == 16
    for mask, row in zip(masks, rows):
        if mask == 0:
            expected = ("two_components", [2, 72, 72, 2])
        else:
            expected = ("connected", [1, 71, 71, 1])
        ok = ok and (row["verdict"], row["betti"]) == expected
    elapsed = time.time() - start
    ok = ok and elapsed < 60
    _verdict(
        12, ok, f"CY3 16-cell side: zero class splits with betti [2, 72, 72, 2], "
        f"the other 15 connect with [1, 71, 71, 1], {elapsed:.1f}s < 60s"
    )
