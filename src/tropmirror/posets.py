"""Graded thin cell posets for a dual pair of central triangulations.

A cell is a pair (tau, sigma) of simplices, tau from the triangulation that
generates the ambient fan, sigma from the Newton-side triangulation, with
sigma in the face of the Newton polytope normal to the cone over tau.  For a
reflexive pair that face is cut out by the duality pairing, so the rule is

    <u, x> = 1 for all nonzero vertices u of tau and x of sigma,

plus where the origins may sit.  The base poset has 0 in tau, and 0 in sigma
only over tau = {0}.  The refined poset splits the cells at infinity along
the sphere of bounded cells and drops the single interior top cell: neither
simplex is {0}, and at most one of them contains 0.  The order is reverse
inclusion in both coordinates and the grading is

    dim(tau, sigma) = (rank - dim tau) - dim sigma.

Cover relations grow exactly one coordinate by one vertex; they are found
on the integer simplex ids of the two triangulations, with the position of
the added vertex read off their coface lists.  The default signature on the
covers is deterministic and orientation-coherent: each coordinate carries
simplicial coboundary signs (position of the new vertex in the sorted
vertex list) and sigma-covers pick up the Koszul factor
(-1)^(rank - dim tau).  It satisfies the diamond condition on every length-2
interval.

Every build re-verifies the poset from one map of its length-2 intervals
(the diamonds), read off the covers below each cell: each diamond has
exactly two interior cells (thinness); each pair comparable by containment
is joined by a chain of covers (bitmasks of the cells reached through covers,
in grade order, against the AND of per-vertex containment masks); and the
default signature multiplies to -1 around each diamond.  balanced_signature
solves the diamond system afresh over F2 when an independent solution is
wanted.
"""

from functools import cached_property

from .errors import NotDualPair, NotInJ, PosetInvalid, Unsolvable
from .intlinalg import F2Space, dot


class Cell:
    """A poset element: simplices stored as sorted tuples of lattice points."""

    __slots__ = ("tau", "sigma", "dim", "index")

    def __init__(self, tau, sigma, rank):
        self.tau = tau
        self.sigma = sigma
        self.dim = (rank - (len(tau) - 1)) - (len(sigma) - 1)
        self.index = None

    @property
    def key(self):
        return (self.tau, self.sigma)

    def __repr__(self):
        return f"Cell(tau={list(self.tau)}, sigma={list(self.sigma)}, dim={self.dim})"


class CellPoset:
    """Cells with covers, grading, flags and the default signature."""

    def __init__(self, ambient_tri, newton_tri, kind):
        if kind not in ("base", "refined"):
            raise ValueError(kind)
        self.ambient = ambient_tri
        self.newton = newton_tri
        self.kind = kind
        self.rank = ambient_tri.rank
        self.n = self.rank - 1
        self._origin_a = ambient_tri.origin
        self._origin_n = newton_tri.origin
        self._build_cells()
        self._build_covers()
        self._verify()

    # -- membership ----------------------------------------------------------
    def _build_cells(self):
        """One pass over the ambient simplices by the pairing rule above.

        The level set {x : <u, x> = 1 for the nonzero u in tau} is the face
        of the Newton polytope normal to the cone over tau, so the Newton
        simplices inside it are found once per face.
        """
        o_a, o_n = self._origin_a, self._origin_n
        base = self.kind == "base"
        points = frozenset(self.newton.polytope.lattice_points)
        level_of = {
            u: frozenset(x for x in points if dot(u, x) == 1)
            for u in self.ambient.vertices
            if u != o_a
        }
        nonzero = [(frozenset(s) - {o_n}, s) for s in self.newton.simplices]
        inside = {}  # level set -> Newton simplices with nonzero vertices in it
        cells = []
        for tau in self.ambient.simplices:
            if (o_a not in tau) if base else tau == (o_a,):
                continue
            level = points.intersection(*(level_of[u] for u in tau if u != o_a))
            if base and not level:
                raise PosetInvalid("ambient cone escapes the coarse fan")
            if level not in inside:
                inside[level] = [s for nz, s in nonzero if nz <= level]
            for sigma in inside[level]:
                if o_n in sigma and (
                    tau != (o_a,) if base else o_a in tau or len(sigma) == 1
                ):
                    continue
                cells.append(Cell(tau, sigma, self.rank))
        cells.sort(key=lambda c: (c.dim, c.tau, c.sigma))
        for i, c in enumerate(cells):
            c.index = i
        self.cells = cells
        self.cell_index = {c.key: c.index for c in cells}
        self.max_dim = max((c.dim for c in cells), default=-1)
        self.cells_by_dim = {q: [] for q in range(self.max_dim + 1)}
        for c in cells:
            self.cells_by_dim[c.dim].append(c.index)

    def _build_covers(self):
        """Covers (y below x) by single-vertex growth, with default signs.

        A cell is keyed by the integer tau id * (number of Newton
        simplices) + sigma id.  Per cell, the tau-cofaces and then the
        sigma-cofaces of its simplices are tried, each in ``cofaces``
        order; a cover's sign is (-1)^(position of the added vertex), times
        (-1)^(rank - dim tau) when sigma grows.
        """
        a_ids, a_up = self.ambient.simplex_ids
        n_ids, n_up = self.newton.simplex_ids
        width = len(n_ids)
        index = {
            a_ids[c.tau] * width + n_ids[c.sigma]: c.index for c in self.cells
        }
        covers = []
        sign = {}
        below = {}
        for x in self.cells:
            xi, t, s = x.index, a_ids[x.tau], n_ids[x.sigma]
            lows = below[xi] = []
            for t2, pos in a_up[t]:
                yi = index.get(t2 * width + s)
                if yi is not None:
                    cover = (yi, xi)
                    covers.append(cover)
                    sign[cover] = -1 if pos & 1 else 1
                    lows.append(yi)
            codim_tau = self.rank - (len(x.tau) - 1)
            for s2, pos in n_up[s]:
                yi = index.get(t * width + s2)
                if yi is not None:
                    cover = (yi, xi)
                    covers.append(cover)
                    sign[cover] = -1 if (pos + codim_tau) & 1 else 1
                    lows.append(yi)
        self.covers = covers
        self.sign = sign
        self.below = below

    @cached_property
    def cells_by_tau(self):
        """tau -> the cells over it, in index order; built on first read."""
        out = {}
        for c in self.cells:
            out.setdefault(c.tau, []).append(c)
        return out

    @cached_property
    def sphere_cycle_keys(self):
        """Keys of the cells of the sphere part's fundamental cycle: the
        n-cells on the sphere whose sigma is an edge; built on first read."""
        return tuple(
            c.key
            for c in self.cells
            if self.on_sphere(c) and len(c.sigma) == 2 and c.dim == self.n
        )

    # -- flags ---------------------------------------------------------------
    def in_support(self, cell):
        """dim sigma >= 1: the support of the multitangent cosheaves."""
        return len(cell.sigma) >= 2

    def at_infinity(self, cell):
        if self.kind == "base":
            return cell.tau != (self._origin_a,)
        return self._origin_a in cell.tau

    def on_sphere(self, cell):
        """Cells of the bounded sphere part."""
        if self.kind == "base":
            return (
                cell.tau == (self._origin_a,)
                and self._origin_n in cell.sigma
                and len(cell.sigma) >= 2
            )
        return self._origin_n in cell.sigma and len(cell.sigma) >= 2

    def first_kind(self, cell):
        """Refined poset: sphere-part cells (0 in sigma)."""
        return self._origin_n in cell.sigma

    def in_j0ub(self, cell):
        return self._origin_n not in cell.sigma and self._origin_a not in cell.tau

    def phi(self, cell_key):
        """Collapse to the base poset: (tau, sigma) -> (0, sigma) off infinity."""
        tau, sigma = cell_key
        if self._origin_a in tau:
            return cell_key
        return ((self._origin_a,), sigma)

    # -- structural checks -----------------------------------------------------
    def _verify(self):
        diamonds = _diamonds(self)
        for (yi, xi), mids in diamonds.items():
            if len(mids) != 2:
                raise PosetInvalid(
                    f"interval [{self.cells[yi]}, {self.cells[xi]}] "
                    f"has {len(mids)} interior elements, expected 2"
                )
        # every comparable pair must be joined by a chain of covers: the
        # containment down-set of x is the AND of per-vertex cell masks, and
        # in grade order reach[x] collects everything below x through covers
        tau_mask, sigma_mask = {}, {}
        for c in self.cells:
            for v in c.tau:
                tau_mask[v] = tau_mask.get(v, 0) | 1 << c.index
            for v in c.sigma:
                sigma_mask[v] = sigma_mask.get(v, 0) | 1 << c.index
        reach = {}
        for x in self.cells:
            r = 0
            for zi in self.below[x.index]:
                r |= reach[zi] | 1 << zi
            reach[x.index] = r
            down = ~(1 << x.index)
            for v in x.tau:
                down &= tau_mask[v]
            for v in x.sigma:
                down &= sigma_mask[v]
            missing = down & ~r
            if missing:
                y = self.cells[missing.bit_length() - 1]
                raise PosetInvalid(f"no chain between {y} and {x}")
        # the default signature must satisfy the diamond condition
        bad = _unbalanced(diamonds, self.sign)
        if bad is not None:
            yi, xi = bad
            raise PosetInvalid(
                f"default signature unbalanced on [{self.cells[yi]}, {self.cells[xi]}]"
            )

    def to_debug_dict(self):
        """Cells with flags and covers, for the independent test oracles."""
        cells = []
        for c in self.cells:
            flags = {
                "support": self.in_support(c),
                "infinity": self.at_infinity(c),
                "sphere": self.on_sphere(c),
            }
            if self.kind == "refined":
                flags["first_kind"] = self.first_kind(c)
                flags["finite_unbounded"] = self.in_j0ub(c)
            cells.append(
                {
                    "tau": [list(p) for p in c.tau],
                    "sigma": [list(p) for p in c.sigma],
                    "dim": c.dim,
                    "flags": flags,
                }
            )
        return {
            "kind": self.kind,
            "cells": cells,
            "covers": [[yi, xi] for (yi, xi) in sorted(self.covers)],
        }

    def __repr__(self):
        return (
            f"CellPoset(kind={self.kind}, {len(self.cells)} cells, "
            f"{len(self.covers)} covers, max_dim={self.max_dim})"
        )


def build_base_poset(ambient_tri, newton_tri):
    """The cell poset of the ambient subdivision induced by the hypersurface."""
    _check_dual_pair(ambient_tri, newton_tri)
    return CellPoset(ambient_tri, newton_tri, "base")


def build_refined_poset(ambient_tri, newton_tri):
    """The refinement that splits cells along the sphere of bounded cells."""
    _check_dual_pair(ambient_tri, newton_tri)
    return CellPoset(ambient_tri, newton_tri, "refined")


def _check_dual_pair(ambient_tri, newton_tri):
    """The facet normals of reflexive P are the vertices of its dual, and the
    pairing rule of the cells needs <u, x> <= 1 on triangulation vertices."""
    P = newton_tri.polytope
    Q = ambient_tri.polytope
    if not (P.is_reflexive() and Q.is_reflexive()) or tuple(
        sorted(v for v, _ in P.facets)
    ) != Q.vertices:
        raise NotDualPair("the two triangulated polytopes are not a dual pair")
    for tri in (ambient_tri, newton_tri):
        if not set(tri.vertices) <= set(tri.polytope.lattice_points):
            raise NotDualPair(
                f"triangulation of {tri.polytope} has vertices outside it"
            )


# ---------------------------------------------------------------------------
# mirror cell maps

def mirror_cell_refined(poset, cell_key):
    """The three-case mirror map on the refined poset."""
    tau, sigma = cell_key
    if cell_key not in poset.cell_index:
        raise NotInJ(f"{cell_key} is not a refined-poset cell")
    o_a, o_n = poset._origin_a, poset._origin_n
    if o_a in tau and o_n not in sigma:
        return (poset.newton.sigma_hat(sigma), poset.ambient.sigma_infty(tau))
    if o_a not in tau and o_n in sigma:
        return (poset.newton.sigma_infty(sigma), poset.ambient.sigma_hat(tau))
    return (sigma, tau)


# ---------------------------------------------------------------------------
# balanced signatures

def _diamonds(poset):
    """Every length-2 interval (y, x), mapped to its interior cells."""
    diamonds = {}
    for xi, lows in poset.below.items():
        for zi in lows:
            for yi in poset.below[zi]:
                diamonds.setdefault((yi, xi), []).append(zi)
    return diamonds


def _unbalanced(diamonds, sig):
    """A diamond whose four covers multiply to +1 under sig, or None."""
    for (yi, xi), mids in diamonds.items():
        prod = 1
        for m in mids:
            prod *= sig[(yi, m)] * sig[(m, xi)]
        if prod != -1:
            return (yi, xi)
    return None


def is_balanced(poset, sig):
    return _unbalanced(_diamonds(poset), sig) is None


def balanced_signature(poset, variable_order=None):
    """Solve the diamond system over F2: one equation per length-2 interval.

    Variables are cover relations (indicator 1 = sign -1); each diamond
    imposes that its four covers carry an odd number of -1.  Deterministic
    for a fixed variable order; free variables are set to 0.  Raises
    Unsolvable when the system has no solution (the poset is then not the
    face poset of a regular CW complex).
    """
    covers = list(poset.covers)
    if variable_order is not None:
        covers = [covers[i] for i in variable_order]
    var_pos = {c: i for i, c in enumerate(covers)}
    diamonds = _diamonds(poset)
    # augmented rows: bit i + 1 is cover i, bit 0 the right-hand side 1
    rows = []
    for (yi, xi), mids in sorted(diamonds.items()):
        mask = 0
        for m in mids:
            mask ^= 1 << var_pos[(yi, m)]
            mask ^= 1 << var_pos[(m, xi)]
        rows.append(mask << 1 | 1)
    space = F2Space(rows)
    if space.contains(1):
        raise Unsolvable("diamond system is inconsistent: not a CW poset")
    # leads are the highest bits of their rows, so ascending order only ever
    # consults bits that are already decided (earlier pivots or free = 0);
    # bit 0 of x stays set so that row & x also picks up the right-hand side
    x = 1
    for row in space.pivot_rows():
        if (row & x).bit_count() & 1:
            x |= 1 << (row.bit_length() - 1)
    sig = {c: -1 if (x >> (i + 1)) & 1 else 1 for i, c in enumerate(covers)}
    if _unbalanced(diamonds, sig) is not None:
        raise Unsolvable("solver produced an unbalanced signature")
    return sig


def gauge_twist(poset, sig, gauge):
    """Twist a signature by a function cell index -> +-1 (stays balanced)."""
    return {
        (yi, xi): sig[(yi, xi)] * gauge[yi] * gauge[xi] for (yi, xi) in poset.covers
    }
