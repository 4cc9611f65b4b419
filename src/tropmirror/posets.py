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
on the integer simplex ids of the two triangulations, tau-cofaces and then
sigma-cofaces, each in increasing coface id, with the position of the added
vertex read off their coface lists.  The default signature on the
covers is deterministic and orientation-coherent: each coordinate carries
simplicial coboundary signs (position of the new vertex in the sorted
vertex list) and sigma-covers pick up the Koszul factor
(-1)^(rank - dim tau).  It satisfies the diamond condition on every length-2
interval.

Cells are found per face of the Newton polytope, from the simplices the
triangulation finds inside that face, and come out in (dim, tau, sigma)
order by integer simplex ids, without a sort.  Every build re-verifies the
poset in one pass over each cell's two-step down paths: every length-2
interval (a diamond) is reached by exactly one chain of sign +1 and one of
sign -1 under the default signature, which is thinness and the diamond
condition at once; and each pair comparable by containment is joined by a
chain of covers (bitmasks of the cells reached through covers, in grade
order, against the AND of per-vertex containment masks).  The map of all
diamonds is built only to word a failure, and by the signature solver:
balanced_signature solves the diamond system afresh over F2 when an
independent solution is wanted.
"""

from collections import defaultdict
from functools import cached_property, partial

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
        self._build_covers(self._build_cells())
        self._verify()

    # -- membership ----------------------------------------------------------
    def _build_cells(self):
        """One pass over the ambient simplices by the pairing rule above.

        The level set {x : <u, x> = 1 for the nonzero u in tau} is the face
        of the Newton polytope normal to the cone over tau; the Newton
        simplices inside it come from ``face_simplices``, which the
        triangulation caches per face.  Taus are taken in id order and the
        sigmas of each in id order, and ids compare as the simplices do, so
        appending each cell to its grade gives the (dim, tau, sigma) order
        without a sort.  Grades run from 0 to rank: the k nonzero vertices
        of tau are linearly independent, so their face has dimension at
        most rank - k, and so has sigma without the origin.  Returns the
        integer keys, tau id * (number of Newton simplices) + sigma id, in
        cell order.
        """
        o_a, o_n = self._origin_a, self._origin_n
        base = self.kind == "base"
        rank = self.rank
        sigmas, n_ids, _ = self.newton.simplex_ids
        width = len(sigmas)
        zero = n_ids[(o_n,)]
        points = frozenset(self.newton.polytope.lattice_points)
        level_of = {
            u: frozenset(x for x in points if dot(u, x) == 1)
            for u in self.ambient.vertices
            if u != o_a
        }
        grades = [([], []) for _ in range(rank + 1)]  # cells and keys per dim
        for t, tau in enumerate(self.ambient.simplex_ids[0]):
            if (o_a not in tau) if base else tau == (o_a,):
                continue
            level = points.intersection(*(level_of[u] for u in tau if u != o_a))
            if base and not level:
                raise PosetInvalid("ambient cone escapes the coarse fan")
            inside, plain = self.newton.face_simplices(level)
            # base: 0 in sigma only over tau = {0}; refined: not over a tau
            # through 0, and sigma = {0} never
            if base:
                ids, skip = (inside if tau == (o_a,) else plain), None
            else:
                ids, skip = (plain, None) if o_a in tau else (inside, zero)
            top = rank - len(tau) + 2  # dim = top - len(sigma)
            for s in ids:
                if s != skip:
                    sigma = sigmas[s]
                    grade_cells, grade_keys = grades[top - len(sigma)]
                    grade_cells.append(Cell(tau, sigma, rank))
                    grade_keys.append(t * width + s)
        cells, keys = [], []
        for grade_cells, grade_keys in grades:
            cells += grade_cells
            keys += grade_keys
        for i, c in enumerate(cells):
            c.index = i
        self.cells = cells
        self.cell_index = {c.key: c.index for c in cells}
        self.max_dim = cells[-1].dim if cells else -1
        self.cells_by_dim = {q: [] for q in range(self.max_dim + 1)}
        for c in cells:
            self.cells_by_dim[c.dim].append(c.index)
        return keys

    def _build_covers(self, keys):
        """Covers (y below x) by single-vertex growth, with default signs.

        A cell is keyed by its integer key from ``_build_cells``.  Per cell,
        the tau-cofaces and then the sigma-cofaces of its simplices are
        tried, each in increasing coface id; a cover's sign is
        (-1)^(position of the added vertex), times (-1)^(rank - dim tau)
        when sigma grows.
        """
        a_up = self.ambient.simplex_ids[2]
        n_up = self.newton.simplex_ids[2]
        width = len(n_up)
        get = {key: i for i, key in enumerate(keys)}.get
        sign = {}
        below = {}
        for x, key in zip(self.cells, keys):
            xi = x.index
            t, s = divmod(key, width)
            lows = below[xi] = []
            for t2, pos in a_up[t]:
                yi = get(t2 * width + s)
                if yi is not None:
                    sign[yi, xi] = -1 if pos & 1 else 1
                    lows.append(yi)
            codim_tau = self.rank - (len(x.tau) - 1)
            for s2, pos in n_up[s]:
                yi = get(t * width + s2)
                if yi is not None:
                    sign[yi, xi] = -1 if (pos + codim_tau) & 1 else 1
                    lows.append(yi)
        # the signs are keyed by the covers, in the order they were found
        self.covers = list(sign)
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

    # -- structural checks -----------------------------------------------------
    def _verify(self):
        """Thinness, chains between comparable cells, and the balance of the
        default signature.  Thinness and balance are one count over the
        two-step down paths; the diamond map is built only to word a
        failure of that count."""
        diamonds = None if self._thin_and_balanced() else _diamonds(self)
        for (yi, xi), mids in (diamonds or {}).items():
            if len(mids) != 2:
                raise PosetInvalid(
                    f"interval [{self.cells[yi]}, {self.cells[xi]}] "
                    f"has {len(mids)} interior elements, expected 2"
                )
        # every comparable pair must be joined by a chain of covers: the
        # containment down-set of x is the AND of per-vertex cell masks, and
        # in grade order reach[x] collects x and everything below it through
        # covers; the masks are packed once, one byte array per vertex
        packed = partial(bytearray, len(self.cells) // 8 + 1)
        tau_bytes, sigma_bytes = defaultdict(packed), defaultdict(packed)
        for c in self.cells:
            byte, bit = c.index >> 3, 1 << (c.index & 7)
            for v in c.tau:
                tau_bytes[v][byte] |= bit
            for v in c.sigma:
                sigma_bytes[v][byte] |= bit
        tau_mask = {v: int.from_bytes(b, "little") for v, b in tau_bytes.items()}
        sigma_mask = {v: int.from_bytes(b, "little") for v, b in sigma_bytes.items()}
        reach = []
        for x in self.cells:
            r = 1 << x.index
            for zi in self.below[x.index]:
                r |= reach[zi]
            reach.append(r)
            down = -1
            for v in x.tau:
                down &= tau_mask[v]
            for v in x.sigma:
                down &= sigma_mask[v]
            missing = down & ~r
            if missing:
                y = self.cells[missing.bit_length() - 1]
                raise PosetInvalid(f"no chain between {y} and {x}")
        # the default signature must satisfy the diamond condition
        bad = None if diamonds is None else _unbalanced(diamonds, self.sign)
        if bad is not None:
            yi, xi = bad
            raise PosetInvalid(
                f"default signature unbalanced on [{self.cells[yi]}, {self.cells[xi]}]"
            )

    def _thin_and_balanced(self):
        """Whether every length-2 interval [y, x] is reached by exactly two
        chains y < z < x, one of sign +1 and one of sign -1.

        Each cover's sign is read once, to file its lower cell under the
        top cell's plus or minus list.  Per x, the chains of sign +1 end in
        ``pos`` and those of sign -1 in ``neg``; the count holds when
        neither repeats a cell and both reach the same cells.  A sign other
        than +-1 fails it.
        """
        sign = self.sign
        plus = [[] for _ in self.cells]
        minus = [[] for _ in self.cells]
        for x, lows in self.below.items():
            for y in lows:
                s = sign[y, x]
                if s == 1:
                    plus[x].append(y)
                elif s == -1:
                    minus[x].append(y)
                else:
                    return False
        for x_plus, x_minus in zip(plus, minus):
            if not (x_plus or x_minus):
                continue
            pos, neg = [], []
            for z in x_plus:
                pos += plus[z]
                neg += minus[z]
            for z in x_minus:
                pos += minus[z]
                neg += plus[z]
            once = set(pos)
            if len(once) != len(pos) or len(neg) != len(pos) or once != set(neg):
                return False
        return True

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
