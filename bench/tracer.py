"""Outside-in tracer: wraps public entry points of tropmirror from outside.

Each wrapped call becomes a span (name, start, end, parent, op id).  A
span's self time is its duration minus the time of the spans it encloses.
Calls that happen thousands of times per op ("hot" targets) are timed and
counted but not stored one by one, so a traced run stays small in memory.

Functions that other modules import by name (``from .intlinalg import
sparse_rank``) are patched in every module that holds them, and every
patched attribute is put back when the tracer exits.
"""

import sys
import time
import weakref
from dataclasses import dataclass
from typing import Callable, Optional, Union

PACKAGE = "tropmirror"


@dataclass(frozen=True)
class Target:
    module: str  # defining module, e.g. "tropmirror.chains"
    qualname: str  # "sparse_rank" or "ChainComplex.f2_rows"
    span: Union[str, Callable]  # span name, or (args, kwargs) -> span name
    hot: bool = False  # timed, but not stored as individual spans
    timed: bool = True  # False: only counted; the time stays with the caller
    after: Optional[Callable] = None  # after(tracer, args, kwargs, result)


def _homology_span(args, kwargs):
    ring = args[1] if len(args) > 1 else kwargs["ring"]
    return f"chains.homology_{ring}"


def _count_simplices(tr, args, kwargs, result):
    tr.add("triangulate.simplices", len(args[0].boundary_simplices))


def _count_poset(kind):
    def after(tr, args, kwargs, poset):
        tr.add(f"posets.{kind}_cells", len(poset.cells))
        tr.add("posets.covers", len(poset.covers))
    return after


def _count_complex(tr, args, kwargs, result):
    cx = args[0]
    tr.add("chains.chain_dim", sum(cx.dim_q.values()))
    tr.add("chains.boundary_nnz", sum(len(r) for rows in cx.D.values() for r in rows))


def _count_build(tr, args, kwargs, result):
    if tr._stack and tr._stack[-1][0] == "pairs.complex":
        tr.add("pairs.complex_builds", 1)


def _count_map_key(tr, args, kwargs, result):
    ev, tag, p, y, x = args[:5]
    seen = tr.map_keys.setdefault(ev, set())
    key = (tag, p, y.key, x.key)
    if key in seen:
        tr.add("cosheaves.map_repeats", 1)
    else:
        seen.add(key)


TARGETS = (
    Target("tropmirror.triangulate", "generate_central", "triangulate.generate"),
    Target("tropmirror.triangulate", "validate", "triangulate.validate",
           after=_count_simplices),
    Target("tropmirror.pairs", "MirrorPair.__init__", "pairs.mirror_pair"),
    Target("tropmirror.pairs", "Side.complex", "pairs.complex"),
    Target("tropmirror.posets", "build_base_poset", "posets.base_build",
           after=_count_poset("base")),
    Target("tropmirror.posets", "build_refined_poset", "posets.refined_build",
           after=_count_poset("refined")),
    Target("tropmirror.cosheaves", "CosheafEvaluator.chain_complex",
           "cosheaves.chain_complex", after=_count_build),
    Target("tropmirror.cosheaves", "CosheafEvaluator.map_matrix",
           "cosheaves.map_matrix", timed=False, after=_count_map_key),
    Target("tropmirror.chains", "ChainComplex.__init__", "chains.assemble",
           after=_count_complex),
    Target("tropmirror.chains", "ChainComplex.f2_rows", "chains.f2_rows"),
    Target("tropmirror.chains", "ChainComplex.homology", _homology_span),
    Target("tropmirror.intlinalg", "sparse_rank", "intlinalg.sparse_rank"),
    Target("tropmirror.intlinalg", "sparse_elementary_divisors",
           "intlinalg.elementary_divisors"),
    Target("tropmirror.intlinalg", "F2Space.__init__", "intlinalg.f2_space"),
    Target("tropmirror.intlinalg", "F2Space.add", "intlinalg.f2_space", hot=True),
    Target("tropmirror.mirror", "transfer_class", "mirror.transfer"),
    Target("tropmirror.mirror", "divisor_restriction", "mirror.divisor_restriction"),
    Target("tropmirror.mirror", "is_null_class", "mirror.is_null_class"),
    Target("tropmirror.patchwork", "real_betti", "patchwork.real_betti"),
    Target("tropmirror.patchwork", "PhaseData.__init__", "patchwork.phase_data"),
    Target("tropmirror.patchwork", "PhaseData.phase_cell", "patchwork.phase_data",
           hot=True),
    Target("tropmirror.patchwork", "PhaseData.sign_complex", "patchwork.sign_complex"),
    Target("tropmirror.patchwork", "RealComplex.__init__", "patchwork.real_complex"),
    Target("tropmirror.patchwork", "RealComplex.betti", "patchwork.real_complex"),
    Target("tropmirror.patchwork", "RealComplex.component_count",
           "patchwork.real_complex"),
    Target("tropmirror.patchwork", "connectedness_verdict", "patchwork.verdict"),
    Target("tropmirror.patchwork", "delta1", "patchwork.delta1"),
    Target("tropmirror.cli", "main", "cli.main"),
)


class Tracer:
    """Context manager that installs the wrappers and records spans.

    ``extra_modules`` are non-package modules (the benchmark's own) whose
    imported names are patched as well.
    """

    def __init__(self, targets=TARGETS, extra_modules=()):
        self.targets = targets
        self.extra_modules = tuple(extra_modules)
        self.spans = []  # (name, start, end, parent index or -1, op id)
        self.self_time = {}
        self.calls = {}  # Target.qualname -> calls
        self.counters = {}
        self.map_keys = weakref.WeakKeyDictionary()
        self.op = -1
        self._stack = []  # [name, start, child time, span index or -1]
        self._patched = []  # (owner, attribute, original)

    # -- counters ------------------------------------------------------------
    def add(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- spans -----------------------------------------------------------------
    def span(self, name, hot=False):
        return _Span(self, name, hot)

    def _enter(self, name, hot):
        index = -1
        if not hot:
            parent = next((f[3] for f in reversed(self._stack) if f[3] >= 0), -1)
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.op])
        start = time.perf_counter()
        if index >= 0:
            self.spans[index][1] = start
        self._stack.append([name, start, 0.0, index])

    def _exit(self):
        end = time.perf_counter()
        name, start, child, index = self._stack.pop()
        duration = end - start
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.spans[index][2] = end

    # -- installation ------------------------------------------------------------
    def __enter__(self):
        modules = [
            m for k, m in sorted(sys.modules.items())
            if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))
        ] + list(self.extra_modules)
        try:
            for target in self.targets:
                self._install(target, modules)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _install(self, target, modules):
        owner = sys.modules[target.module]
        path = target.qualname.split(".")
        for part in path[:-1]:
            owner = getattr(owner, part)
        attr = path[-1]
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapper = self._wrap(target, original)
        self._set(owner, attr, wrapper, original)
        if len(path) == 1:
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original and mod is not owner:
                        self._set(mod, name, wrapper, original)

    def _set(self, owner, attr, wrapper, original):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, target, fn):
        tracer = self
        span, hot, after, key = target.span, target.hot, target.after, target.qualname

        def counted(*args, **kwargs):
            tracer.calls[key] = tracer.calls.get(key, 0) + 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        def wrapper(*args, **kwargs):
            name = span(args, kwargs) if callable(span) else span
            tracer.calls[key] = tracer.calls.get(key, 0) + 1
            tracer._enter(name, hot)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        if not target.timed:
            wrapper = counted
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__qualname__ = getattr(fn, "__qualname__", key)
        return wrapper

    # -- output ---------------------------------------------------------------------
    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(f'["{name}",{start:.9f},{end:.9f},{parent},{op}]\n')


class _Span:
    __slots__ = ("tracer", "name", "hot")

    def __init__(self, tracer, name, hot):
        self.tracer, self.name, self.hot = tracer, name, hot

    def __enter__(self):
        self.tracer._enter(self.name, self.hot)
        return self

    def __exit__(self, *exc):
        self.tracer._exit()
        return False


# -- per-layer metrics -----------------------------------------------------------------

# name -> (unit, what it should move).  Times are self times in seconds,
# summed over one traced set-up and one traced pass; "per_op" divides by
# the ops of that pass.
LAYER_METRICS = {
    "triangulate.generate_s": ("s", "setup_s, mostly on corpus_mirror"),
    "triangulate.validate_s": ("s", "setup_s, mostly on cy3_hodge (384 rank-4 simplices)"),
    "triangulate.simplices": ("count", "-"),
    "pairs.mirror_pair_s": ("s", "setup_s on every workload"),
    "pairs.complex_calls": ("count", "-"),
    "pairs.complex_builds": ("count", "-"),
    "pairs.complex_hit_ratio": ("ratio", "near 1 on k3_sweep, low on corpus_mirror"),
    "posets.base_build_s": ("s", "wall_s on cy3_hodge; setup_s on k3_sweep"),
    "posets.refined_build_s": ("s", "ops_per_s on corpus_mirror"),
    "posets.base_cells": ("count", "-"),
    "posets.refined_cells": ("count", "-"),
    "posets.covers": ("count", "-"),
    "cosheaves.chain_complex_s": ("s", "wall_s on cy3_hodge, ops_per_s on corpus_mirror"),
    "cosheaves.map_matrix_calls": ("count", "-"),
    "cosheaves.map_hit_ratio": ("ratio", "share of map-matrix calls whose key was seen before"),
    "chains.assemble_s": ("s", "wall_s on cy3_hodge"),
    "chains.f2_rows_s": ("s", "wall_s on cy3_hodge, op_p50_ms/op_p90_ms on k3_sweep"),
    "chains.f2_rows_calls": ("count", "-"),
    "chains.homology_f2_s": ("s", "wall_s on cy3_hodge, op_p50_ms on k3_sweep"),
    "chains.homology_q_s": ("s", "ops_per_s on corpus_mirror"),
    "chains.homology_z_s": ("s", "ops_per_s on corpus_mirror"),
    "chains.boundary_nnz": ("count", "-"),
    "chains.chain_dim": ("count", "-"),
    "intlinalg.sparse_rank_s": ("s", "ops_per_s on corpus_mirror, Q/Z part of cy3_hodge; none on k3_sweep"),
    "intlinalg.sparse_rank_calls": ("count", "-"),
    "intlinalg.elementary_divisors_s": ("s", "ops_per_s on corpus_mirror, Z part of cy3_hodge; none on k3_sweep"),
    "intlinalg.elementary_divisors_calls": ("count", "-"),
    "intlinalg.f2_space_s": ("s", "k3_sweep and cy3_hodge"),
    "intlinalg.f2_space_rows": ("count", "-"),
    "mirror.transfer_s": ("s", "ops_per_s on corpus_mirror"),
    "mirror.transfer_calls": ("count", "-"),
    "mirror.divisor_restriction_s": ("s", "op_p50_ms on k3_sweep"),
    "mirror.divisor_restriction_per_op": ("count/op", "op_p50_ms on k3_sweep"),
    "mirror.is_null_class_s": ("s", "op_p50_ms on k3_sweep"),
    "mirror.is_null_class_per_op": ("count/op", "op_p50_ms on k3_sweep"),
    "patchwork.real_betti_s": ("s", "op_p50_ms on k3_sweep"),
    "patchwork.sign_complex_s": ("s", "op_p50_ms on k3_sweep"),
    "patchwork.phase_data_s": ("s", "op_p50_ms on k3_sweep"),
    "patchwork.verdict_s": ("s", "op_p50_ms on k3_sweep"),
    "patchwork.real_complex_s": ("s", "op_p50_ms on k3_sweep"),
    "patchwork.real_complex_per_op": ("count/op", "op_p50_ms on k3_sweep"),
    "patchwork.delta1_s": ("s", "ops_per_s on corpus_mirror"),
    "cli.main_self_s": ("s", "ops_per_s on corpus_mirror"),
    "cli.report_bytes": ("bytes", "ops_per_s on corpus_mirror"),
    "trace.ops": ("count", "-"),
    "trace.overhead_s": ("s", "traced wall_s minus untraced wall_s of the same pass"),
}


def layer_metrics(tracer, ops):
    """Per-layer values from a finished tracer; ``ops`` counts the traced ops."""
    st, calls, cnt = tracer.self_time, tracer.calls, tracer.counters
    ops = max(ops, 1)

    def ratio(hits, total):
        return hits / total if total else 0.0

    complex_calls = calls.get("Side.complex", 0)
    map_calls = calls.get("CosheafEvaluator.map_matrix", 0)
    values = {
        "triangulate.generate_s": st.get("triangulate.generate", 0.0),
        "triangulate.validate_s": st.get("triangulate.validate", 0.0),
        "triangulate.simplices": cnt.get("triangulate.simplices", 0),
        "pairs.mirror_pair_s": st.get("pairs.mirror_pair", 0.0),
        "pairs.complex_calls": complex_calls,
        "pairs.complex_builds": cnt.get("pairs.complex_builds", 0),
        "pairs.complex_hit_ratio": ratio(
            complex_calls - cnt.get("pairs.complex_builds", 0), complex_calls),
        "posets.base_build_s": st.get("posets.base_build", 0.0),
        "posets.refined_build_s": st.get("posets.refined_build", 0.0),
        "posets.base_cells": cnt.get("posets.base_cells", 0),
        "posets.refined_cells": cnt.get("posets.refined_cells", 0),
        "posets.covers": cnt.get("posets.covers", 0),
        "cosheaves.chain_complex_s": st.get("cosheaves.chain_complex", 0.0),
        "cosheaves.map_matrix_calls": map_calls,
        "cosheaves.map_hit_ratio": ratio(cnt.get("cosheaves.map_repeats", 0), map_calls),
        "chains.assemble_s": st.get("chains.assemble", 0.0),
        "chains.f2_rows_s": st.get("chains.f2_rows", 0.0),
        "chains.f2_rows_calls": calls.get("ChainComplex.f2_rows", 0),
        "chains.homology_f2_s": st.get("chains.homology_f2", 0.0),
        "chains.homology_q_s": st.get("chains.homology_q", 0.0),
        "chains.homology_z_s": st.get("chains.homology_z", 0.0),
        "chains.boundary_nnz": cnt.get("chains.boundary_nnz", 0),
        "chains.chain_dim": cnt.get("chains.chain_dim", 0),
        "intlinalg.sparse_rank_s": st.get("intlinalg.sparse_rank", 0.0),
        "intlinalg.sparse_rank_calls": calls.get("sparse_rank", 0),
        "intlinalg.elementary_divisors_s": st.get("intlinalg.elementary_divisors", 0.0),
        "intlinalg.elementary_divisors_calls": calls.get("sparse_elementary_divisors", 0),
        "intlinalg.f2_space_s": st.get("intlinalg.f2_space", 0.0),
        "intlinalg.f2_space_rows": calls.get("F2Space.add", 0),
        "mirror.transfer_s": st.get("mirror.transfer", 0.0),
        "mirror.transfer_calls": calls.get("transfer_class", 0),
        "mirror.divisor_restriction_s": st.get("mirror.divisor_restriction", 0.0),
        "mirror.divisor_restriction_per_op": calls.get("divisor_restriction", 0) / ops,
        "mirror.is_null_class_s": st.get("mirror.is_null_class", 0.0),
        "mirror.is_null_class_per_op": calls.get("is_null_class", 0) / ops,
        "patchwork.real_betti_s": st.get("patchwork.real_betti", 0.0),
        "patchwork.sign_complex_s": st.get("patchwork.sign_complex", 0.0),
        "patchwork.phase_data_s": st.get("patchwork.phase_data", 0.0),
        "patchwork.verdict_s": st.get("patchwork.verdict", 0.0),
        "patchwork.real_complex_s": st.get("patchwork.real_complex", 0.0),
        "patchwork.real_complex_per_op": calls.get("RealComplex.__init__", 0) / ops,
        "patchwork.delta1_s": st.get("patchwork.delta1", 0.0),
        "cli.main_self_s": st.get("cli.main", 0.0),
        "cli.report_bytes": cnt.get("cli.report_bytes", 0),
    }
    return values
