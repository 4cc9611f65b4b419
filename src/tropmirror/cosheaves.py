"""The five cosheaves on the cell posets and their chain complexes.

Tags:

* ``multitangent``  F_p: sum over edges of sigma of Lambda^p of the edge
  annihilator modulo the stratum span; on refined cells off infinity the
  value is pulled back from the collapsed cell (0, sigma).
* ``kernel``        R_p: stratum span wedge F_{p-1} of the boundary part of
  sigma; supported off infinity.
* ``mirror_ext``    the extension of the mirror cosheaf: the quotient of
  F_p(0, sigma) by R_p off infinity and F_p itself at infinity.
* ``mirror``        M_p: mirror_ext restricted to the sphere part; rank-1
  constant when p = 0 there.
* ``quotient``      Q_p: mirror_ext restricted to cells with sigma on the
  boundary (the unbounded part).

Values are FreeQuotient presentations with canonical HNF bases; values on a
stratum tau live in Lambda^p of the unimodular quotient coordinates of its
``modules.Frame`` (the same frame that gives a free quotient its basis), so
every cosheaf map is a literal integer matrix (and reduces mod 2 for F2
complexes).  Zero values outside a support are materialized as rank-0 blocks
so that one assembly routine serves every complex.

Many strata share their coordinates, so frames are interned by content:
one Frame per distinct (k, Q, R), whose ``gens`` name the first stratum
that built it.  A frame is built only where a nonzero value reads it: a
zero value lives in Lambda^p of m - len(stratum) coordinates, which the
stratum's length gives, since ``triangulate.validate`` (which every
MirrorPair runs) admits only unimodular simplices and so only strata that
are direct summands.  A cell without edges has the zero value for every p,
so its stratum's frame is never built.  Each edge's wedge Lambda^p(edge
annihilator / stratum span) reads only the frame's Q, so it is built once
and cached per (frame, edge direction, p); F_p(sigma) is spanned by the
cached rows of the edges of sigma, so it depends on sigma only through its
set of normalised edge directions (each Newton edge's direction found
once, each sigma's set once) and is computed once per (p, frame, direction
set).  A value depends only on its spans, not on the cell that carries it,
so values are interned: one FreeQuotient per distinct module, one wedge
per distinct frame projection R_x.Q_y, and one sparse matrix per distinct
(source value, target value, projection) triple (``value_map``, which the
mirror transfer reads as well).

The cells of a poset fall into classes whose values agree for every p: for
the multitangent cosheaves a class is a (frame, edge-direction set), or
(stratum length, no directions) for the cells without edges, for the other
tags the cell itself.  The classes are found once per poset and tag, and a
chain complex looks one (value, frame) up per class, the frame None where
the value is zero.  A map reads only those two pairs, so the complex asks
``map_matrix`` once per (class of y, class of x) pair and gives that
block, with each cover's own sign, to every cover of the pair.
``map_matrix`` reads both cells' pairs from a dict keyed by the cell
objects while the complex is assembled, so a call costs two
identity-hashed reads, one wedge lookup keyed by the two interned frames,
and one map lookup.
"""

from itertools import combinations
from operator import neg, sub

from .chains import ChainComplex
from .errors import UnsupportedCell
from .exterior import dim_wedge, wedge_matrix, wedge_vector
from .intlinalg import hnf_basis, left_kernel, mat_mul, vec_mat
from .modules import Frame, FreeQuotient, _frozen

ZERO_STRATUM = ()


def _direction(a, b):
    """The edge direction b - a, normalised up to sign: the larger of d and
    -d, the one whose first nonzero entry is positive."""
    d = tuple(map(sub, b, a))
    for x in d:
        if x:
            return d if x > 0 else tuple(map(neg, d))
    return d


class CosheafEvaluator:
    """Memoized cosheaf values, and maps between them, for one orientation.

    Values are pure functions of their keys; the caches fill on first use.
    Frames are interned by content, so the frame-dependent caches (edge
    rows, multitangent values, cell classes, projection wedges) are keyed
    by the frame, not by the stratum.  Every value is built by ``_module``,
    which returns one object per distinct module, and every frame
    projection's p-wedge is interned by content, so a map is a pure
    function of the identities of (source value, target value, wedge) and
    is computed once per distinct triple: many cells carry equal values,
    and many covers share a map.  Interned objects live as long as the
    evaluator.
    """

    def __init__(self, ambient_tri, newton_tri):
        self.ambient = ambient_tri
        self.newton = newton_tri
        self.m = newton_tri.rank
        self.origin = (0,) * self.m
        self._frames = {}  # stratum -> its Frame, interned by content
        self._frame_contents = {}  # (k, Q, R) -> the one interned Frame
        self._gens = {}  # tau -> its stratum
        self._classes = {}  # (poset, tag) -> (class per cell, representatives)
        self._edge_dirs = {}  # (a, b) -> normalised direction of the edge
        self._directions = {}  # sigma -> frozenset of its edge directions
        # direction set -> its one shared copy: sigmas repeat sets (on the
        # CY3 4-cube side 3,393 sigmas have 673), and copies cost memory
        self._direction_sets = {}
        self._edge_basis = {}  # (frame, edge direction, p) -> rows
        self._projection_wedges = {}  # (frame x, frame y, p) -> interned wedge
        self._wedges = {}  # wedge content -> the one interned copy
        self._values = {}
        self._modules = {}  # (ambient, sub row set, quo row set) -> value
        self._contents = {}  # FreeQuotient content -> the one interned value
        self._maps = {}  # ids of (source, target, wedge or None) -> sparse rows
        # while chain_complex runs: ((tag, p), {cell: (value, frame)})
        self._scope = None

    # -- frames and edge data ---------------------------------------------------
    def frame(self, gens):
        """The Frame of a stratum, one object per distinct (k, Q, R): strata
        with equal coordinates share it, and its ``gens`` name the first
        stratum that built it."""
        fr = self._frames.get(gens)
        if fr is None:
            fr = Frame(gens, self.m)
            key = (fr.k, _frozen(fr.Q), _frozen(fr.R))
            fr = self._frames[gens] = self._frame_contents.setdefault(key, fr)
        return fr

    def stratum_gens(self, tau):
        """Generators of the cone span: nonzero vertices of tau, found once
        per tau."""
        gens = self._gens.get(tau)
        if gens is None:
            gens = self._gens[tau] = tuple(p for p in tau if p != self.origin)
        return gens

    def edge_annihilator_basis(self, stratum, a, b, p):
        """Lambda^p of the HNF basis of (edge direction)-perp / (stratum span),
        in frame coords: the basis itself at p = 1, its p x p minors above."""
        return self._edge_rows(self.frame(stratum), self._edge_direction(a, b), p)

    def _edge_rows(self, fr, d, p):
        """The rows of ``edge_annihilator_basis``, which read only the
        frame's Q: cached per (frame, edge direction, p)."""
        key = (fr, d, p)
        if key not in self._edge_basis:
            if p == 1:
                perp = left_kernel([[x] for x in d])
                proj = [vec_mat(list(r), fr.Q) for r in perp]
                B = hnf_basis(proj)
            else:
                B = wedge_matrix(self._edge_rows(fr, d, 1), p)
            self._edge_basis[key] = _frozen(B)
        return self._edge_basis[key]

    # -- values -----------------------------------------------------------------
    def _module(self, ambient, sub_rows, quo_rows=()):
        """FreeQuotient(ambient, sub_rows, quo_rows), one object per module.

        The reduced HNF is unique per lattice, so a FreeQuotient is a pure
        function of its two spans: a repeated pair of row sets skips the
        elimination, and a new one that yields known content returns the
        object already built.  Rows must be tuples.
        """
        key = (ambient, frozenset(sub_rows), frozenset(quo_rows))
        value = self._modules.get(key)
        if value is None:
            fq = FreeQuotient(ambient, sub_rows, quo_rows)
            value = self._modules[key] = self._contents.setdefault(fq.content(), fq)
        return value

    def _zero(self, ambient_dim):
        return self._module(max(ambient_dim, 1), ())

    def _edge_direction(self, a, b):
        """``_direction(a, b)``, found once per edge: many cells share an
        edge of the Newton triangulation."""
        d = self._edge_dirs.get((a, b))
        if d is None:
            d = self._edge_dirs[a, b] = _direction(a, b)
        return d

    def _edge_directions(self, sigma):
        """The set of edge directions of sigma, found once per sigma; sigmas
        with equal sets share one copy."""
        dirs = self._directions.get(sigma)
        if dirs is None:
            dirs = frozenset(self._edge_direction(a, b) for a, b in combinations(sigma, 2))
            dirs = self._direction_sets.setdefault(dirs, dirs)
            self._directions[sigma] = dirs
        return dirs

    def multitangent_value(self, p, stratum, sigma):
        """F_p on a cell with this stratum and sigma.  It reads sigma only
        through the set of its edge directions and the stratum only through
        its frame's k and Q, so it is computed once per (p, frame, direction
        set).  A zero value (no edges, or p above the quotient rank) builds
        no frame: it lives in Lambda^p of the m - k quotient coordinates,
        and k is the stratum's length, as every stratum is a direct summand
        (``Frame`` checks it where one is built)."""
        dirs = self._edge_directions(sigma)
        amb = dim_wedge(self.m - len(stratum), p)
        if not dirs or amb == 0:
            return self._zero(amb)
        fr = self.frame(stratum)
        key = ("F", p, fr, dirs)
        value = self._values.get(key)
        if value is None:
            if p == 0:
                value = self._module(1, [(1,)])
            else:
                rows = [r for d in dirs for r in self._edge_rows(fr, d, p)]
                value = self._module(amb, rows)
            self._values[key] = value
        return value

    def kernel_rows(self, p, tau, sigma):
        """Span rows of (stratum span) wedge F_{p-1}(0, boundary part of sigma)."""
        if p == 0:
            return []
        sigma_inf = tuple(x for x in sigma if x != self.origin)
        prev = self.multitangent_value(p - 1, ZERO_STRATUM, sigma_inf)
        return [
            tuple(wedge_vector(u, prev.rep(i), self.m, p - 1))
            for u in self.stratum_gens(tau)
            for i in range(prev.rank)
        ]

    def kernel_value(self, p, cell):
        tau, sigma = cell.tau, cell.sigma
        amb = dim_wedge(self.m, p)
        if self.origin in tau or amb == 0:
            return self._zero(amb)
        key = ("R", p, self.stratum_gens(tau), tuple(x for x in sigma if x != self.origin))
        if key not in self._values:
            self._values[key] = self._module(amb, self.kernel_rows(p, tau, sigma))
        return self._values[key]

    def mirror_ext_value(self, p, cell):
        tau, sigma = cell.tau, cell.sigma
        if self.origin in tau:
            return self.multitangent_value(p, self.stratum_gens(tau), sigma)
        key = ("MD", p, self.stratum_gens(tau), sigma)
        if key not in self._values:
            base = self.multitangent_value(p, ZERO_STRATUM, sigma)
            if base.rank == 0:
                self._values[key] = base
            else:
                self._values[key] = self._module(
                    base.ambient, _frozen(base.sub), self.kernel_rows(p, tau, sigma)
                )
        return self._values[key]

    def value(self, tag, p, cell):
        if tag == "multitangent":
            return self.multitangent_value(
                p, self.value_stratum(tag, cell), cell.sigma
            )
        if tag == "kernel":
            return self.kernel_value(p, cell)
        if tag == "mirror_ext":
            return self.mirror_ext_value(p, cell)
        if tag == "mirror":
            if self.origin in cell.sigma and self.origin not in cell.tau:
                return self.mirror_ext_value(p, cell)
            return self._zero(dim_wedge(self.m, p))
        if tag == "quotient":
            if self.origin not in cell.sigma:
                return self.mirror_ext_value(p, cell)
            return self._zero(dim_wedge(self.m, p))
        raise UnsupportedCell(f"unknown cosheaf tag {tag!r}")

    def cell_value(self, tag, p, cell):
        """The (value, frame of the value stratum) pair that maps start and
        end at.  A zero value carries no frame (None): ``value_map`` reads
        a frame only between two nonzero values."""
        value = self.value(tag, p, cell)
        if not value.rank:
            return value, None
        return value, self.frame(self.value_stratum(tag, cell))

    def value_stratum(self, tag, cell):
        """The stratum whose frame's wedge coordinates carry the value on
        this cell."""
        if tag in ("kernel", "mirror"):
            return ZERO_STRATUM
        if self.origin in cell.tau:
            return self.stratum_gens(cell.tau)
        return ZERO_STRATUM

    # -- maps -------------------------------------------------------------------
    @staticmethod
    def projection(fx, fy):
        """R_x.Q_y: frame-x coordinates to frame-y coordinates."""
        return mat_mul(fx.R, fy.Q)

    def _projection_wedge(self, fx, fy, p):
        """Lambda^p of R_x.Q_y for two interned frames, one object per
        distinct matrix; None when the two frames are one, where R.Q is the
        identity.  Frames live as long as the evaluator, so they are keyed
        by identity."""
        if fx is fy:
            return None
        key = (fx, fy, p)
        if key not in self._projection_wedges:
            W = _frozen(wedge_matrix(self.projection(fx, fy), p))
            self._projection_wedges[key] = self._wedges.setdefault(W, W)
        return self._projection_wedges[key]

    def value_map(self, x, y, p):
        """The cosheaf map between two (value, frame) pairs, x to y, as
        sparse rows: per basis element of x's value, the (index, entry)
        pairs of its image in y's value, computed once per distinct triple
        (source value, target value, projection wedge)."""
        (Vx, fx), (Vy, fy) = x, y
        if Vx.rank == 0 or Vy.rank == 0:
            return ((),) * Vx.rank
        W = self._projection_wedge(fx, fy, p)
        key = (id(Vx), id(Vy), id(W))
        rows = self._maps.get(key)
        if rows is None:
            rows = []
            for i in range(Vx.rank):
                a = Vx.rep(i) if W is None else vec_mat(Vx.rep(i), W)
                rows.append(tuple((j, v) for j, v in enumerate(Vy.reduce(a)) if v))
            rows = self._maps[key] = tuple(rows)
        return rows

    def map_matrix(self, tag, p, ycell, xcell):
        """``value_map`` from xcell to ycell, for a cover y below x.

        Inside ``chain_complex`` both cells' (value, frame) pairs come from
        the complex being assembled; other cells are looked up."""
        scope = self._scope
        known = scope[1] if scope is not None and scope[0] == (tag, p) else {}
        x = known.get(xcell) or self.cell_value(tag, p, xcell)
        y = known.get(ycell) or self.cell_value(tag, p, ycell)
        return self.value_map(x, y, p)

    # -- complexes ----------------------------------------------------------------
    def _cell_classes(self, poset, tag):
        """(class index per cell, one representative cell per class) for
        the cells of a poset under one tag, found once per (poset, tag).
        Cells of one class carry the same (value, frame) for every p: a
        multitangent class is a (frame of the value stratum, edge-direction
        set), or (stratum length, no directions) for a cell without edges,
        whose value is zero and reads no frame; under the other tags each
        cell is its own class."""
        key = (poset, tag)
        if key not in self._classes:
            cells = poset.cells
            if tag == "multitangent":
                index, classes, reps = {}, [], []
                for c in cells:
                    dirs = self._edge_directions(c.sigma)
                    stratum = self.value_stratum(tag, c)
                    k = (self.frame(stratum) if dirs else len(stratum), dirs)
                    i = index.get(k)
                    if i is None:
                        i = index[k] = len(reps)
                        reps.append(c)
                    classes.append(i)
            else:
                classes, reps = range(len(cells)), cells
            self._classes[key] = (classes, reps)
        return self._classes[key]

    def chain_complex(self, poset, tag, p, sign=None):
        """The complex of one cosheaf on a poset: the (value, frame) of each
        cell class is looked up once.  A block reads only those two pairs,
        so ``map_matrix`` is asked once per (class of y, class of x) with
        both ranks nonzero, at its first cover in poset order, and every
        cover of that class pair shares the block (``ChainComplex`` applies
        each cover's own sign)."""
        cells = poset.cells
        classes, reps = self._cell_classes(poset, tag)
        values = [self.cell_value(tag, p, c) for c in reps]
        pairs = [values[k] for k in classes]
        ranks = [v.rank for v, _ in pairs]
        blocks, done = {}, {}  # done: (class of y, class of x) -> block
        self._scope = ((tag, p), dict(zip(cells, pairs)))
        try:
            for cover in poset.covers:
                yi, xi = cover
                if ranks[yi] and ranks[xi]:
                    key = (classes[yi], classes[xi])
                    block = done.get(key)
                    if block is None:
                        block = done[key] = self.map_matrix(tag, p, cells[yi], cells[xi])
                    blocks[cover] = block
        finally:
            self._scope = None
        return ChainComplex(poset, ranks, blocks, sign or poset.sign)
