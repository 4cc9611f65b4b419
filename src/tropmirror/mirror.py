"""Explicit chain-level mirror transfer and divisor restriction classes.

All chain surgery here is over F2 (the ring every acceptance check uses);
chains are dicts {cell key: coordinate tuple} in the canonical bases of the
cosheaf values.  Every per-cell step is one ``_cellwise`` pass: each
coefficient goes through one integer matrix of its cell mod 2, applied or
solved for, and lands on one output cell.  A step's matrix depends on the
cell and never on the chain, so its F2 form (packed rows to apply, one
F2Space to solve in) is read once and kept in a memo on the side, keyed by
(step, p) and then by input cell key; the sphere cycle's cell keys are kept
on the poset.  The pipeline realizing the mirror isomorphism on a closed
multitangent chain is:

1. one pass applying the surjection onto the extended mirror cosheaf;
2. kill the unbounded part: one solving pass through the block-triangular
   correction operator inverts the part at infinity cellwise (no global
   solve), and one boundary makes the chain supported on the sphere part;
3. one pass applying the contraction against the volume form, moving each
   cell along the mirror cell bijection;
4. lift back through the kernel sequence on the mirror side: one solving
   pass through the surjection, one solving pass that writes the lift's
   boundary defect in kernel coordinates, the correction operator for the
   kernel cosheaf, and one pass applying the kernel inclusion.

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


def contraction_sign(n):
    """The sign of the double contraction round trip, (-1)^(n(n+5)/2)."""
    return -1 if (n * (n + 5) // 2) % 2 else 1


def _cell(poset, key):
    ci = poset.cell_index.get(key)
    if ci is None:
        raise SupportViolation(f"{key} is not a {poset.kind}-poset cell")
    return poset.cells[ci]


def chain_degree(poset, chain):
    degs = {_cell(poset, k).dim for k in chain}
    if len(degs) > 1:
        raise NotAClosedChain(f"chain mixes degrees {sorted(degs)}")
    return degs.pop() if degs else None


def _cellwise(side, step, p, chain, matrix, solve=None):
    """Push an F2 chain on the refined poset of ``side`` through one
    integer matrix per cell.

    ``matrix(cell)`` gives the cell's rows and the key of the output cell.
    Each coefficient c becomes c . rows, or, when ``solve`` (an error
    message) is given, the x with x . rows = c; a coefficient with no such
    x raises InternalCheckError(solve).  Zero results are dropped.  The
    rows are read once per cell into ``side.cell_maps(step, p)``, in their
    F2 form: packed rows to apply, or their F2Space to solve in.
    """
    poset, memo = side.refined_poset, side.cell_maps(step, p)
    out = {}
    for key, coords in chain.items():
        entry = memo.get(key)
        if entry is None:
            rows, okey = matrix(_cell(poset, key))
            packed = [f2_pack(r) for r in rows]
            if solve is None:
                entry = (packed, len(rows[0]) if rows else 0, okey)
            else:
                entry = (F2Space(packed), len(rows), okey)
            memo[key] = entry
        form, width, okey = entry
        if solve is None:
            if len(coords) != len(form):
                raise DimensionMismatch(f"{len(coords)} vs {len(form)}")
            x = f2_combine(f2_pack(coords), form)
        else:
            x = form.solve(f2_pack(coords))
            if x is None:
                raise InternalCheckError(solve)
        if x:
            out[okey] = tuple((x >> i) & 1 for i in range(width))
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


def _require_sphere(poset, chain, message):
    if not all(poset.on_sphere(_cell(poset, k)) for k in chain):
        raise InternalCheckError(message)


# ---------------------------------------------------------------------------
# sphere cycles

def sphere_cycle(side, kind="refined"):
    """The fundamental degree-n cycle of the sphere part, over F2, as a
    fresh dict."""
    return dict.fromkeys(side.poset(kind).sphere_cycle_keys, (1,))


# ---------------------------------------------------------------------------
# the block-triangular correction operator

def correction_operator(side, chain, p, tag="quotient"):
    """Cellwise inverse of (project . boundary) on the unbounded complexes.

    For the quotient cosheaf the input lives at infinity and the output on
    the finite unbounded part, matched through (tau, sigma) -> (tau minus 0,
    sigma).  For the kernel cosheaf the input lives on the sphere part and
    is matched through (tau, sigma) -> (tau, sigma minus 0).  Each
    coefficient is pulled back through the invertible cellwise cosheaf map.
    """
    poset = side.refined_poset
    ev = side.evaluator

    def matrix(zcell):
        if tag == "quotient":
            if not poset.at_infinity(zcell):
                raise SupportViolation(f"{zcell.key} is not at infinity")
            xkey = (side.ambient.sigma_infty(zcell.tau), zcell.sigma)
        elif tag == "kernel":
            if not poset.on_sphere(zcell):
                raise SupportViolation(f"{zcell.key} is not on the sphere part")
            xkey = (zcell.tau, side.newton.sigma_infty(zcell.sigma))
        else:
            raise UnsupportedCell(tag)
        xcell = poset.cells[poset.cell_index[xkey]]
        width = ev.value(tag, p, zcell).rank
        return dense_block(ev.map_matrix(tag, p, zcell, xcell), width), xkey

    return _cellwise(
        side, tag, p, chain, matrix, solve="cellwise transition map is not invertible mod 2"
    )


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
    if not chain:
        return True
    q = chain_degree(side.poset(kind), chain)
    cx = side.complex(kind, "multitangent", p)
    return cx.f2_is_boundary(cx.chain_to_packed(chain, q), q)


# ---------------------------------------------------------------------------
# the full transfer

def transfer_class(side, chain, p):
    """Transfer a closed F2 multitangent chain to the mirror side.

    Input: degree-q cycle with degree-p multitangent coefficients on the
    refined poset of ``side``.  Output: degree-q cycle with degree-(n-p)
    multitangent coefficients on the refined poset of the mirror side,
    representing the mirror class.
    """
    poset = side.refined_poset
    n = side.n
    CF = side.complex("refined", "multitangent", p)
    q = chain_degree(poset, chain)
    if q is None:
        return {}
    if not CF.f2_is_cycle(CF.chain_to_packed(chain, q), q):
        raise NotAClosedChain("transfer input is not closed")
    CMD = side.complex("refined", "mirror_ext", p)

    # 1. push into the extended mirror cosheaf
    push = _value_map(side, "multitangent", "mirror_ext", p)
    md = _cellwise(side, "push", p, chain, push)

    # 2. cancel the unbounded part through the correction operator
    inf_part = {k: v for k, v in md.items() if poset.at_infinity(_cell(poset, k))}
    if inf_part:
        beta = correction_operator(side, inf_part, p, tag="quotient")
        bvec = CMD.chain_to_packed(beta, q + 1)
        corrected_vec = CMD.chain_to_packed(md, q) ^ CMD.f2_boundary(bvec, q + 1)
        md = CMD.packed_to_chain(corrected_vec, q)
    _require_sphere(poset, md, "correction left unbounded coefficients")

    # 3. contract cellwise along the mirror bijection
    mirror = side.mirror
    out = _cellwise(side, "contract", p, md, partial(contraction_matrix, side, p))
    CMm = mirror.complex("refined", "mirror", n - p)
    if not CMm.f2_is_cycle(CMm.chain_to_packed(out, q), q):
        raise InternalCheckError("mirrored chain is not closed")

    # 4. lift back through the kernel sequence on the mirror side
    mposet = mirror.refined_poset
    lift = _cellwise(
        mirror, "lift", n - p, out,
        _value_map(mirror, "multitangent", "mirror_ext", n - p),
        solve="surjection onto the mirror cosheaf failed to lift",
    )
    CFm = mirror.complex("refined", "multitangent", n - p)
    uvec = CFm.chain_to_packed(lift, q)
    cvec = CFm.f2_boundary(uvec, q)
    if cvec:
        c_chain = CFm.packed_to_chain(cvec, q - 1)
        _require_sphere(mposet, c_chain, "lift defect escapes the sphere part")
        # express the defect in kernel-cosheaf coordinates (it lives there)
        inclusion = _value_map(mirror, "kernel", "multitangent", n - p)
        c_kernel = _cellwise(
            mirror, "defect", n - p, c_chain, inclusion,
            solve="lift defect is not a kernel chain",
        )
        r = correction_operator(mirror, c_kernel, n - p, tag="kernel")
        uvec ^= CFm.chain_to_packed(_cellwise(mirror, "include", n - p, r, inclusion), q)
    if not CFm.f2_is_cycle(uvec, q):
        raise NotAClosedChain("transfer output failed to close")
    return CFm.packed_to_chain(uvec, q)
