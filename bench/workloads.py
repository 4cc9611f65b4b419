"""The benchmark's workloads: set-up, ops and the oracle each op must pass.

A workload's ``setup(seed, workdir)`` returns the state its ops run on, and
``ops(state)`` returns one pass of ops.  Every op returns its canonical
output as bytes; an op whose answer is wrong raises OracleError, and the
digest of its output must equal the one golden.json records for its label.

The seed draws the divisor classes a run uses from a fixed pool, so that
golden.json can hold a digest for every op any seed can produce.
``setup(None, workdir)`` takes the whole pool, which is how golden.json is
written.

The library is reached only through its public modules, called as module
attributes, so the tracer's wrappers see every call.
"""

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

from tropmirror import cli, mirror, patchwork
from tropmirror.lattice import LatticePolytope
from tropmirror.pairs import MirrorPair

import inputs


class OracleError(Exception):
    """An op returned a wrong answer."""


def check(condition, message):
    if not condition:
        raise OracleError(message)


@dataclass
class Op:
    label: str
    run: Callable[[], bytes]
    report: bool = False  # output is a CLI report (counted as cli.report_bytes)


def _canon(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def _chain(chain):
    return sorted(chain.items())


def draw(pool, count, seed):
    """``count`` classes of ``pool`` chosen by ``seed``; all of it for seed None."""
    if seed is None:
        return pool
    return sorted(random.Random(seed).sample(pool, count))


# -- k3_sweep --------------------------------------------------------------------------

class K3Sweep:
    """The sweep command's per-class work on the cube/octahedron K3 pair.

    Set-up is what a CLI sweep pays once: the pair, the base poset and the
    vanishing hypothesis.  One op is one divisor class through sweep_rows
    with Betti numbers on, so the patchwork layers and the F2 path do the
    work on warm caches.  The seed draws the classes from a pool of POOL
    classes sampled once by sample_divisor_classes.
    """

    name = "k3_sweep"
    POOL = 480

    def __init__(self, classes=120):
        self.classes = classes

    def setup(self, seed, workdir):
        T, Tdual = inputs.triangulate_pair(LatticePolytope(inputs.CUBE_VERTS))
        side = MirrorPair(T, Tdual).side_a
        side.base_poset
        patchwork.check_vanishing_hypothesis(side)
        pool = patchwork.sample_divisor_classes(side, self.POOL, 0)
        return side, draw(pool, self.classes, seed)

    def ops(self, state):
        side, masks = state
        return [Op(f"class-{mask:x}", partial(self._sweep, side, mask)) for mask in masks]

    @staticmethod
    def _sweep(side, mask):
        (row,) = patchwork.sweep_rows(side, [mask], with_betti=True)
        b0 = row["b0"]
        check(b0 in (1, 2), f"b0 = {b0}")
        check((row["verdict"] == "connected") == (b0 == 1),
              f"verdict {row['verdict']} with b0 = {b0}")
        check(row["betti"][0] == b0, f"betti {row['betti']} against b0 = {b0}")
        return _canon(row)


# -- cy3_hodge ---------------------------------------------------------------------------

CY3_TABLE = [[1, 0, 0, 1], [0, 68, 4, 0], [0, 4, 68, 0], [1, 0, 0, 1]]
CY3_BASE_CELLS = {"a": 3473, "b": 6705}


class CY3Hodge:
    """F2 Hodge tables of the 16-cell / 4-cube CY3 pair, Q and Z on side a.

    The 16-cell is the Newton side of side a.  Set-up generates both rank-4
    triangulations, loads them through the CLI loader and builds the pair;
    the base posets and the tables are ops, as every CLI run pays them.
    Q on side b is left out: its F0 alone takes longer than a run.
    """

    name = "cy3_hodge"

    def setup(self, seed, workdir):
        cube, cross = inputs.cy3_triangulations()
        paths = [os.path.join(workdir, f) for f in ("cross16.json", "cube4.json")]
        for tri, path in zip((cross, cube), paths):
            inputs.write_triangulation(tri, path)
        T, Tdual = (cli.load_triangulation(p) for p in paths)
        return MirrorPair(T, Tdual)

    def ops(self, pair):
        sides = {"a": pair.side_a, "b": pair.side_b}
        out = [Op(f"base-poset-{k}", partial(self._poset, s, k)) for k, s in sides.items()]
        for k, side in sides.items():
            for p in range(4):
                out.append(Op(f"f2-{k}-F{p}", partial(self._f2_row, side, k, p)))
        for ring in ("q", "z"):
            out.append(Op(f"{ring}-table-a", partial(self._table, pair.side_a, ring)))
        return out

    @staticmethod
    def _poset(side, key):
        poset = side.base_poset
        check(len(poset.cells) == CY3_BASE_CELLS[key],
              f"side {key}: {len(poset.cells)} base cells")
        return _canon([len(poset.cells), len(poset.covers)])

    @staticmethod
    def _f2_row(side, key, p):
        h = side.homology("base", "multitangent", p, "f2")
        ranks = [h.rank(q) for q in range(4)]
        want = CY3_TABLE[p] if key == "a" else CY3_TABLE[3 - p]
        check(ranks == want, f"side {key} F{p} over F2: {ranks}, want {want}")
        return _canon(ranks)

    @staticmethod
    def _table(side, ring):
        table = side.hodge_table(ring)
        check(table["ranks"] == CY3_TABLE, f"{ring} table {table['ranks']}")
        if ring == "z":
            check(all(t == [] for row in table["torsion"] for t in row),
                  f"torsion {table['torsion']}")
        return _canon(table)


# -- corpus_mirror ------------------------------------------------------------------------

ELLIPTIC = [[1, 1], [1, 1]]
K3_DIAMOND = [[1, 0, 1], [0, 20, 0], [1, 0, 1]]


class CorpusMirror:
    """mirror-check on every corpus pair and the delta1 identity per class.

    Every mirror-check op reloads its files and rebuilds posets and
    complexes, as a CLI call does.  The delta1 ops run on one pair per
    polytope, built in set-up, whose refined posets and complexes are built
    by the first op that needs them.  They take every cubic class, and for
    each rank-3 pair classes the seed draws from a pool of POOL.  The two
    kinds of op run interleaved.
    """

    name = "corpus_mirror"
    DELTA1_PAIRS = ("prism", "cube", "quartic")
    POOL = 64
    # A cubic class takes about 3 ms.  Four to an op bring cubic ops closer to
    # the others, so the median op is a polygon mirror-check and not one of
    # the slowest of 128 tiny ops, whose times jitter by a quarter.
    CUBIC_PER_OP = 4

    def __init__(self, delta1_classes=16, polygons=None):
        self.delta1_classes = delta1_classes
        self.polygons = polygons  # None: all of them

    def setup(self, seed, workdir):
        files, tris = [], {}
        corpus = inputs.corpus_polytopes()
        if self.polygons is not None:
            corpus = corpus[: self.polygons] + corpus[-3:]
        for name, P in corpus:
            T, Tdual = inputs.triangulate_pair(P)
            tris[name] = (T, Tdual)
            paths = [os.path.join(workdir, f"{name}.{k}.json") for k in ("T", "dual")]
            inputs.write_triangulation(T, paths[0])
            inputs.write_triangulation(Tdual, paths[1])
            files.append((name, P.rank - 1, paths))
        cubic = MirrorPair(*inputs.triangulate_pair(LatticePolytope(inputs.CUBIC_VERTS)))
        classes = [("cubic", cubic.side_a,
                    patchwork.divisor_class_representatives(cubic.side_a))]
        for name in self.DELTA1_PAIRS:
            side = MirrorPair(*tris[name]).side_a
            pool = patchwork.sample_divisor_classes(side, self.POOL, 0)
            classes.append((name, side, draw(pool, self.delta1_classes, seed)))
        return files, classes

    def ops(self, state):
        files, classes = state
        out = [Op(f"mirror-check-{name}", partial(self._mirror_check, n, paths), report=True)
               for name, n, paths in files]
        for name, side, masks in classes:
            step = self.CUBIC_PER_OP if name == "cubic" else 1
            for i in range(0, len(masks), step):
                group = masks[i:i + step]
                label = "-".join(f"{mask:x}" for mask in group)
                out.append(Op(f"delta1-{name}-{label}", partial(self._delta1, side, group)))
        # Interleave the kinds of op in a fixed order.  Run one kind after the
        # other, each kind would fall into one stretch of a few seconds, and a
        # slow stretch of a shared host would move all of its ops, and with
        # them the median op time.
        random.Random(0).shuffle(out)
        return out

    @staticmethod
    def _mirror_check(n, paths):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["mirror-check", *paths])
        check(code == 0, f"exit code {code}")
        result = json.loads(buf.getvalue())["result"]
        check(result["verdict"] == "mirror symmetry holds", result["verdict"])
        want = ELLIPTIC if n == 1 else K3_DIAMOND
        for ring, tables in result["tables"].items():
            for side, table in tables.items():
                check(table["ranks"] == want, f"{ring} {side}: {table['ranks']}")
                if ring == "z":
                    check(all(t == [] for row in table["torsion"] for t in row),
                          f"torsion on {side}")
        return buf.getvalue().encode()

    @staticmethod
    def _delta1(side, masks):
        """transfer_class(delta1(S)) equals divisor_restriction up to boundary."""
        n = side.n
        out = []
        for mask in masks:
            cxm = side.mirror.complex("refined", "multitangent", n - 1)
            S = mirror.sphere_cycle(side)
            rays = patchwork.mask_to_rays(side, mask)
            eps = patchwork.signs_from_divisor(side, rays)
            d1S = patchwork.delta1(side, eps, S, 0)
            moved = mirror.transfer_class(side, d1S, 1) if d1S else {}
            dx = mirror.divisor_restriction(side, rays)
            v1 = cxm.chain_to_packed(moved, n - 1) if moved else 0
            v2 = cxm.chain_to_packed(dx, n - 1) if dx else 0
            check(cxm.f2_is_boundary(v1 ^ v2, n - 1), f"delta1 identity fails for {rays}")
            out.append([_chain(moved), _chain(dx)])
        return _canon(out)


WORKLOADS = {w.name: w for w in (K3Sweep, CY3Hodge, CorpusMirror)}
