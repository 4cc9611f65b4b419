"""Mirror pairs of triangulated reflexive polytopes and their sides.

A Side fixes one orientation: the Newton-side triangulation T carries the
hypersurface combinatorics and the ambient-side triangulation of the dual
polytope provides the toric fan.  The mirror side swaps the two roles.
Posets, cosheaf complexes, the mirror transfer's per-cell maps and phase
frames are built lazily and cached on the side; a homology summary reads
the ranks its complex caches.

Side a holds side b, and side b links back to side a through a weak
reference, so a dropped pair is freed by reference counting alone, with no
cycle left for the collector.  A pair's side a keeps its mirror alive.
"""

from weakref import ref

from .cosheaves import CosheafEvaluator
from .errors import InputError, MirrorSideFreed
from .patchwork import PhaseFrame
from .posets import build_base_poset, build_refined_poset, _check_dual_pair
from .triangulate import validate


class Side:
    def __init__(self, ambient_tri, newton_tri):
        self.ambient = ambient_tri
        self.newton = newton_tri
        self.rank = newton_tri.rank
        self.n = self.rank - 1
        self.evaluator = CosheafEvaluator(ambient_tri, newton_tri)
        self._mirror = None  # wired by MirrorPair: a Side, or a weak ref to one
        self._posets = {}
        self._complexes = {}
        self._cell_maps = {}  # (step, p) -> the mirror transfer's cell maps
        self._phase_frames = {}

    @property
    def mirror(self):
        side = self._mirror
        if isinstance(side, ref):
            side = side()
        if side is None:
            raise MirrorSideFreed("the mirror side of this side has been freed")
        return side

    def poset(self, kind):
        """The base or the refined cell poset, built on first read; any
        other kind is refused, as ``CellPoset`` refuses it, before any
        build."""
        if kind not in self._posets:
            if kind not in ("base", "refined"):
                raise ValueError(kind)
            builder = build_base_poset if kind == "base" else build_refined_poset
            self._posets[kind] = builder(self.ambient, self.newton)
        return self._posets[kind]

    @property
    def base_poset(self):
        return self.poset("base")

    @property
    def refined_poset(self):
        return self.poset("refined")

    def complex(self, kind, tag, p):
        key = (kind, tag, p)
        if key not in self._complexes:
            self._complexes[key] = self.evaluator.chain_complex(
                self.poset(kind), tag, p
            )
        return self._complexes[key]

    def cell_maps(self, step, p):
        """The mirror transfer's memo for one per-cell step in wedge degree
        p: input cell index -> the F2 form of the cell's matrix, any map
        composed after it, and the output cell's offset in the step's
        output layout.  A step's matrices depend on the cell, never on the
        chain, so each is read once per (side, step, p), and its row count
        checked then."""
        return self._cell_maps.setdefault((step, p), {})

    def phase_frame(self, kind):
        if kind not in self._phase_frames:
            self._phase_frames[kind] = PhaseFrame(self.evaluator, self.poset(kind))
        return self._phase_frames[kind]

    def homology(self, kind, tag, p, ring):
        return self.complex(kind, tag, p).homology(ring)

    def hodge_table(self, ring):
        """dim H_q of the multitangent cosheaves on the base poset.

        Returns {"ranks": table[p][q], "torsion": table[p][q] list} with
        0 <= p, q <= n; torsion only for ring 'z'.
        """
        ranks = []
        torsion = []
        for p in range(self.n + 1):
            summary = self.homology("base", "multitangent", p, ring)
            ranks.append([summary.rank(q) for q in range(self.n + 1)])
            torsion.append([summary.torsion(q) for q in range(self.n + 1)])
        out = {"ring": ring, "ranks": ranks}
        if ring == "z":
            out["torsion"] = torsion
        return out

    def __repr__(self):
        return (
            f"Side(newton={self.newton.polytope.vertices[:2]}..., "
            f"rank={self.rank})"
        )


class MirrorPair:
    """A dual pair (Delta, T), (Delta_dual, T_dual) with both orientations."""

    def __init__(self, newton_tri, dual_tri):
        _check_dual_pair(dual_tri, newton_tri)
        for tri in (newton_tri, dual_tri):
            report = validate(tri)
            if not report.ok:
                raise InputError(
                    f"triangulation of {tri.polytope} is invalid: {report.codes()}"
                )
        self.side_a = Side(dual_tri, newton_tri)
        self.side_b = Side(newton_tri, dual_tri)
        self.side_a._mirror = self.side_b
        self.side_b._mirror = ref(self.side_a)
        self.n = newton_tri.rank - 1

    @property
    def sides(self):
        return (self.side_a, self.side_b)

    def __repr__(self):
        return f"MirrorPair(n={self.n})"
