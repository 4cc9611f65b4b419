"""Explicit chain-level mirror transfer and divisor restriction classes.

All chain surgery here is over F2 (the ring every acceptance check uses).
Chains are dicts {cell key: coordinate tuple} in the canonical bases of the
cosheaf values only at the boundary: ``transfer_class`` packs its input
once and unpacks its output once, and every step in between is a packed
vector in the ``chains.CellLayout`` of one complex.  Every per-cell step is
one ``_cellwise`` pass: it walks the cells of a packed vector in one
layout, each cell's bits go through one integer matrix of the cell mod 2,
applied or solved for, and the result lands at its output cell's offset in
another layout.  A step's matrix depends on the cell and never on the
chain, so its F2 form (packed rows to apply, one F2Space to solve in) is
read once and kept with the output offset in a memo on the side, keyed by
(step, p) and then by input cell index; the sphere cycle's cell keys are
kept on the poset.  The pipeline realizing the mirror isomorphism on a
closed multitangent chain is:

1. one pass applying the surjection onto the extended mirror cosheaf;
2. kill the unbounded part: one solving pass through the block-triangular
   correction operator inverts the part at infinity cellwise (no global
   solve), and one boundary makes the chain supported on the sphere part;
3. one pass applying the contraction against the volume form, moving each
   cell along the mirror cell bijection;
4. lift back through the kernel sequence on the mirror side: one solving
   pass through the surjection, then one pass over the lift's boundary
   defect that writes it in kernel coordinates, corrects it through the
   kernel cosheaf's correction operator and includes it back, the three
   composed into one memo entry per defect cell.

The output is a closed multitangent chain of complementary wedge degree on
the mirror side whose class is independent of every choice made (tested).
"""

from functools import partial

from .chains import dense_block
from .errors import (
    DimensionMismatch,
    InternalCheckError,
    NotAClosedChain,
    RayNotInFan,
    SupportViolation,
    UnsupportedCell,
)
from .exterior import star, wedge_vector
from .intlinalg import F2Space, f2_combine, f2_pack
from .posets import mirror_cell_refined

NOT_INVERTIBLE = "cellwise transition map is not invertible mod 2"


def contraction_sign(n):
    """The sign of the double contraction round trip, (-1)^(n(n+5)/2)."""
    return -1 if (n * (n + 5) // 2) % 2 else 1


def _cellwise(side, step, p, vec, q, src, dst, matrix, solve=None, then=None, sphere=None):
    """Push a packed degree-q F2 chain on the refined poset of ``side``,
    in the layout of the complex ``src``, through one integer matrix per
    cell into the layout of the complex ``dst``.

    ``matrix(cell)`` gives the cell's rows and the key of the output cell.
    A cell's bits c become c . rows, or, when ``solve`` (an error message)
    is given, the x with x . rows = c; bits with no such x raise
    InternalCheckError(solve).  ``then(cell, width)``, if given, composes
    one more F2 map of ``width`` input bits: it gives the map's packed
    rows, the key of its output cell in place of the matrix's, and their
    width.  The result lands at the output cell's offset in ``dst``.  With
    ``sphere`` (an error message), every walked cell must lie on the sphere
    part, or InternalCheckError(sphere) is raised.  The rows are read once
    per input cell index into ``side.cell_maps(step, p)``, in their F2 form
    (packed rows to apply, or their F2Space to solve in), with the composed
    rows and the output offset; the row count, and the output width
    against ``dst``, are checked then (DimensionMismatch).
    """
    poset, memo = side.refined_poset, side.cell_maps(step, p)
    cells, out = poset.cells, 0
    for ci, bits in src.layout.walk(vec, q):
        if sphere is not None and not poset.on_sphere(cells[ci]):
            raise InternalCheckError(sphere)
        entry = memo.get(ci)
        if entry is None:
            cell = cells[ci]
            rows, okey = matrix(cell)
            packed = [f2_pack(r) for r in rows]
            if solve is None:
                if len(rows) != src.ranks[ci]:
                    raise DimensionMismatch(f"{src.ranks[ci]} vs {len(rows)}")
                form, width = packed, len(rows[0])
            else:
                form, width = F2Space(packed), len(rows)
            composed = None
            if then is not None:
                composed, okey, width = then(cell, width)
            oci = dst.poset.cell_index[okey]
            if width != dst.ranks[oci]:
                raise DimensionMismatch(f"{width} vs {dst.ranks[oci]} at {okey}")
            entry = memo[ci] = (form, composed, dst.offset[oci])
        form, composed, off = entry
        if solve is None:
            x = f2_combine(bits, form)
        else:
            x = form.solve(bits)
            if x is None:
                raise InternalCheckError(solve)
        if composed is not None:
            x = f2_combine(x, composed)
        out ^= x << off
    return out


def _value_map(side, src, dst, p):
    """The matrix function of the map value(src) -> value(dst) on each cell
    of ``side``, read from the evaluator's memo of value maps; the output
    cell is the cell itself."""
    ev = side.evaluator

    def matrix(cell):
        x, y = ev.cell_value(src, p, cell), ev.cell_value(dst, p, cell)
        return dense_block(ev.value_map(x, y, p), y[0].rank), cell.key

    return matrix


# ---------------------------------------------------------------------------
# sphere cycles

def sphere_cycle(side, kind="refined"):
    """The fundamental degree-n cycle of the sphere part, over F2, as a
    fresh dict."""
    return dict.fromkeys(side.poset(kind).sphere_cycle_keys, (1,))


# ---------------------------------------------------------------------------
# the block-triangular correction operator

def _correction(side, tag, p):
    """The matrix function of the cellwise inverse of (project . boundary)
    on the unbounded complexes, for the cosheaf ``tag``.

    For the quotient cosheaf the input lives at infinity and the output on
    the finite unbounded part, matched through (tau, sigma) -> (tau minus 0,
    sigma).  For the kernel cosheaf the input lives on the sphere part and
    is matched through (tau, sigma) -> (tau, sigma minus 0).  Each
    coefficient is pulled back through the invertible cellwise cosheaf map,
    whose rows this gives.
    """
    poset = side.refined_poset
    ev = side.evaluator

    def matrix(zcell):
        if tag == "quotient":
            if not poset.at_infinity(zcell):
                raise SupportViolation(f"{zcell.key} is not at infinity")
            xkey = (side.ambient.sigma_infty(zcell.tau), zcell.sigma)
        else:
            if not poset.on_sphere(zcell):
                raise SupportViolation(f"{zcell.key} is not on the sphere part")
            xkey = (zcell.tau, side.newton.sigma_infty(zcell.sigma))
        xcell = poset.cells[poset.cell_index[xkey]]
        width = ev.value(tag, p, zcell).rank
        return dense_block(ev.map_matrix(tag, p, zcell, xcell), width), xkey

    return matrix


def correction_operator(side, vec, q, p):
    """The quotient correction of a packed degree-q chain at infinity, in
    the layout of the refined ``mirror_ext`` complex of ``side`` in wedge
    degree p, as a packed degree-(q+1) chain in the same layout: on each
    cell, the x with x . M = c, M the cellwise quotient map (``_correction``)."""
    CMD = side.complex("refined", "mirror_ext", p)
    return _cellwise(
        side, "quotient", p, vec, q, CMD, CMD, _correction(side, "quotient", p),
        solve=NOT_INVERTIBLE,
    )


def _kernel_correction(side, p):
    """The ``then`` of the lift defect's pass (see ``_cellwise``): the
    kernel correction of a defect cell's kernel coordinates, composed with
    the kernel inclusion at the corrected cell.  The correction's solve is
    composed basis vector by basis vector (F2Space.solve is linear), so a
    map that is not invertible mod 2 raises when the entry is built."""
    correct = _correction(side, "kernel", p)
    include = _value_map(side, "kernel", "multitangent", p)
    poset = side.refined_poset

    def then(zcell, width):
        rows, xkey = correct(zcell)
        xcell = poset.cells[poset.cell_index[xkey]]
        inc, _ = include(xcell)
        if len(inc) != len(rows):
            raise DimensionMismatch(f"{len(rows)} vs {len(inc)}")
        space, inc = F2Space(f2_pack(r) for r in rows), [f2_pack(r) for r in inc]
        composed = []
        for i in range(width):
            x = space.solve(1 << i)
            if x is None:
                raise InternalCheckError(NOT_INVERTIBLE)
            composed.append(f2_combine(x, inc))
        return composed, xkey, side.evaluator.value("multitangent", p, xcell).rank

    return then


# ---------------------------------------------------------------------------
# contraction isomorphism

def contraction_matrix(side, p, cell, vertex=None):
    """Integer matrix of [z] -> [contraction of v wedge z against the volume
    form] from the mirror value at a sphere cell to the complementary-degree
    mirror value at the mirrored cell.  v defaults to the smallest vertex."""
    poset = side.refined_poset
    if not poset.on_sphere(cell):
        raise UnsupportedCell(f"{cell} is not a sphere-part cell")
    n = side.n
    m = side.rank
    v = cell.tau[0] if vertex is None else vertex
    Vx = side.evaluator.value("mirror", p, cell)
    mkey = mirror_cell_refined(poset, cell.key)
    mirror_poset = side.mirror.refined_poset
    mcell = mirror_poset.cells[mirror_poset.cell_index[mkey]]
    Vy = side.mirror.evaluator.value("mirror", n - p, mcell)
    rows = [
        list(Vy.reduce(star(wedge_vector(v, Vx.rep(i), m, p), m, p + 1)))
        for i in range(Vx.rank)
    ]
    return rows, mkey


# ---------------------------------------------------------------------------
# divisor restriction

def divisor_support(side, rays):
    """The support of the F2 toric divisor that lists ``rays``: the rays
    listed an odd number of times (over F2 a ray listed twice cancels).
    Each listed ray must be a ray of the Newton fan of ``side``."""
    support = set()
    boundary_points = set(side.newton.rays())
    for r in rays:
        v = tuple(r)
        if v not in boundary_points:
            raise RayNotInFan(f"{v} is not a ray of the Newton fan")
        support ^= {v}
    return support


def divisor_restriction(side, rays):
    """The mirror-side cycle cut out by an F2 toric divisor.

    ``side`` is the patchworking side (the divisor lives on the fan of its
    Newton triangulation); the output chain lives on the mirror side's
    posets, supported at infinity, with the rank-one generator of each
    incident cell as coefficient.  Degree n-1; closed over F2.
    """
    support = divisor_support(side, rays)
    mirror = side.mirror
    poset = mirror.base_poset
    o = mirror.ambient.origin
    n = side.n
    chain = {}
    # each cell has one tau, so no cell is reached from two support rays
    for v in sorted(support):
        tau = tuple(sorted((o, v)))
        for cell in poset.cells_by_tau.get(tau, ()):
            if len(cell.sigma) == 2:
                val = mirror.evaluator.value("multitangent", n - 1, cell)
                if val.rank != 1:
                    raise InternalCheckError("divisor cell coefficient is not rank one")
                chain[cell.key] = (1,)
    return chain


def is_null_class(side, chain, p, kind="base"):
    """True iff the closed F2 chain bounds in the multitangent complex of
    the given poset kind; the empty chain does."""
    cx = side.complex(kind, "multitangent", p)
    q, vec = cx.pack_chain(chain)
    return q is None or cx.f2_is_boundary(vec, q)


# ---------------------------------------------------------------------------
# the full transfer

def transfer_class(side, chain, p):
    """Transfer a closed F2 multitangent chain to the mirror side.

    Input: degree-q cycle with degree-p multitangent coefficients on the
    refined poset of ``side``.  Output: degree-q cycle with degree-(n-p)
    multitangent coefficients on the refined poset of the mirror side,
    representing the mirror class.  The input is packed once and the output
    unpacked once; each step between is a packed vector.
    """
    poset = side.refined_poset
    n = side.n
    CF = side.complex("refined", "multitangent", p)
    q, vec = CF.pack_chain(chain)
    if q is None:
        return {}
    if not CF.f2_is_cycle(vec, q):
        raise NotAClosedChain("transfer input is not closed")
    CMD = side.complex("refined", "mirror_ext", p)

    # 1. push into the extended mirror cosheaf
    push = _value_map(side, "multitangent", "mirror_ext", p)
    md = _cellwise(side, "push", p, vec, q, CF, CMD, push)

    # 2. cancel the unbounded part through the correction operator
    cells, inf = poset.cells, 0
    for ci, bits in CMD.layout.walk(md, q):
        if poset.at_infinity(cells[ci]):
            inf |= bits << CMD.offset[ci]
    if inf:
        md ^= CMD.f2_boundary(correction_operator(side, inf, q, p), q + 1)

    # 3. contract cellwise along the mirror bijection
    mirror = side.mirror
    CMm = mirror.complex("refined", "mirror", n - p)
    out = _cellwise(
        side, "contract", p, md, q, CMD, CMm, partial(contraction_matrix, side, p),
        sphere="correction left unbounded coefficients",
    )
    if not CMm.f2_is_cycle(out, q):
        raise InternalCheckError("mirrored chain is not closed")

    # 4. lift back through the kernel sequence on the mirror side
    CFm = mirror.complex("refined", "multitangent", n - p)
    uvec = _cellwise(
        mirror, "lift", n - p, out, q, CMm, CFm,
        _value_map(mirror, "multitangent", "mirror_ext", n - p),
        solve="surjection onto the mirror cosheaf failed to lift",
    )
    cvec = CFm.f2_boundary(uvec, q)
    if cvec:
        # write the defect in kernel-cosheaf coordinates (it lives there),
        # correct it and include it back
        uvec ^= _cellwise(
            mirror, "defect", n - p, cvec, q - 1, CFm, CFm,
            _value_map(mirror, "kernel", "multitangent", n - p),
            solve="lift defect is not a kernel chain", then=_kernel_correction(mirror, n - p),
            sphere="lift defect escapes the sphere part",
        )
    if not CFm.f2_is_cycle(uvec, q):
        raise NotAClosedChain("transfer output failed to close")
    return CFm.packed_to_chain(uvec, q)
