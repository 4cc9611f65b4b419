"""Self-tests of the benchmark harness.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import json
import re
import time

import pytest

import inputs
import run
import sloc
import tracer
import workloads
from tropmirror import chains, cli, intlinalg, mirror, pairs, patchwork, triangulate

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_names_and_units(spec):
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    units = [m["unit"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(UNIT.match(u) for u in units)


def test_spec_matches_harness(spec):
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer_names = set(tracer.LAYER_METRICS) | {sloc.metric_name(m) for m in sloc.MODULES}
    layer_names.add("total.sloc")
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    for m in spec["per_layer"]:
        assert m["unit"] == run.unit(m["name"])


@pytest.fixture(scope="module")
def short_traced_metrics():
    """Traced runs of shortened k3_sweep and corpus_mirror passes."""
    out = {}
    for workload in (workloads.K3Sweep(classes=2),
                     workloads.CorpusMirror(delta1_classes=1, polygons=2)):
        attempted, failed, metrics, _ = run.Runner(workload, seed=1).measure_traced()
        assert attempted > 0 and failed == 0
        out[workload.name] = metrics
    return out


def test_short_traced_run_produces_every_layer_metric(spec, short_traced_metrics):
    for metrics in short_traced_metrics.values():
        for m in spec["per_layer"]:
            value = metrics[m["name"]]
            assert isinstance(value, (int, float)), m["name"]
    # every layer the two workloads reach does some work on one of them
    for name in tracer.LAYER_METRICS:
        if name == "trace.overhead_s":
            continue
        assert any(m[name] > 0 for m in short_traced_metrics.values()), name


def _aliases():
    """(owner, attribute) pairs the tracer patches, including imported names."""
    return [
        (intlinalg, "sparse_rank"), (chains, "sparse_rank"),
        (chains, "sparse_elementary_divisors"),
        (triangulate, "validate"), (pairs, "validate"), (cli, "validate"),
        (mirror, "divisor_restriction"), (patchwork, "divisor_restriction"),
        (cli, "transfer_class"), (cli, "real_betti"), (pairs, "build_base_poset"),
        (cli, "main"), (inputs.triangulate, "generate_central"),
    ]


def _methods():
    return [
        (patchwork.RealComplex, "__init__"), (patchwork.PhaseData, "phase_cell"),
        (chains.ChainComplex, "f2_rows"), (intlinalg.F2Space, "add"),
        (pairs.MirrorPair, "__init__"), (pairs.Side, "complex"),
    ]


def test_tracer_wraps_and_restores():
    originals = [(o, a, getattr(o, a)) for o, a in _aliases()]
    methods = [(c, a, c.__dict__[a]) for c, a in _methods()]
    with pytest.raises(RuntimeError):
        with tracer.Tracer(extra_modules=(inputs, workloads)):
            for owner, attr, fn in originals:
                assert getattr(owner, attr) is not fn, (owner, attr)
                assert getattr(owner, attr).__wrapped__ is fn
            for cls, attr, fn in methods:
                assert cls.__dict__[attr] is not fn, (cls, attr)
            raise RuntimeError("leave the block by an exception")
    for owner, attr, fn in originals:
        assert getattr(owner, attr) is fn, (owner, attr)
    for cls, attr, fn in methods:
        assert cls.__dict__[attr] is fn, (cls, attr)


def test_self_times_exclude_children():
    tr = tracer.Tracer(targets=())
    with tr.span("outer"):
        with tr.span("inner"):
            sum(range(20000))
        with tr.span("hot", hot=True):
            sum(range(20000))
    outer = tr.spans[0]
    total = outer[2] - outer[1]
    assert sum(tr.self_time.values()) == pytest.approx(total)
    assert [s[0] for s in tr.spans] == ["outer", "inner"]
    assert tr.spans[1][3] == 0


def test_seed_changes_k3_sample_but_not_cy3_inputs(tmp_path):
    k3 = workloads.K3Sweep(classes=10)
    assert k3.setup(1, str(tmp_path))[1] != k3.setup(2, str(tmp_path))[1]
    cy3 = workloads.CY3Hodge()
    files = {}
    for seed in (1, 2):
        d = tmp_path / f"s{seed}"
        d.mkdir()
        cy3.setup(seed, str(d))
        files[seed] = {p.name: p.read_bytes() for p in d.iterdir()}
    assert files[1] == files[2]


def test_golden_covers_every_op_of_every_seed(tmp_path):
    golden = json.loads(run.GOLDEN.read_text())
    for workload in (workloads.K3Sweep(), workloads.CorpusMirror()):
        labels = {op.label for op in workload.ops(workload.setup(None, str(tmp_path)))}
        assert set(golden[workload.name]) == labels
        for seed in (1, 12345):
            ops = workload.ops(workload.setup(seed, str(tmp_path)))
            assert {op.label for op in ops} <= labels


def test_setups_run_before_the_pass():
    class Fake:
        name = "fake"
        calls = []

        def setup(self, seed, workdir):
            self.calls.append("setup")

        def op(self):
            self.calls.append("op")
            return b""

        def ops(self, state):
            return [workloads.Op(f"op{i}", self.op) for i in range(3)]

    runner = run.Runner(Fake(), seed=1)
    attempted, failed, metrics, _ = runner.measure(seconds=0)
    assert attempted == failed == 3  # no digests recorded for the fake ops
    assert Fake.calls == ["setup"] * run.SETUPS + ["op"] * 3
    assert len(runner.setup_times) == run.SETUPS


def test_rank4_triangulations():
    cube, cross = inputs.cy3_triangulations()
    assert len(cube.boundary_simplices) == inputs.hypercube_normalized_volume(4) == 384
    assert len(cross.boundary_simplices) == inputs.cross_polytope_normalized_volume(4) == 16
    assert triangulate.validate(cube).ok and triangulate.validate(cross).ok


def test_box_polygons_match_the_search():
    found = [sorted(P.vertices) for P in inputs.reflexive_polygons_in_box()]
    assert found == [sorted(v) for v in inputs.BOX_POLYGONS]


def test_failed_ops_are_counted_and_the_run_goes_on():
    def wrong():
        workloads.check(False, "wrong answer")

    ops = [workloads.Op("ok", lambda: b"1"),
           workloads.Op("wrong", wrong),
           workloads.Op("raises", lambda: 1 // 0),
           workloads.Op("changed", lambda: b"2"),
           workloads.Op("unrecorded", lambda: b"3")]
    _, results = run.run_pass(ops)
    golden = {"ok": results[0].digest, "wrong": results[1].digest,
              "raises": results[2].digest, "changed": "0" * 64}
    assert run.count_failures(results, golden) == 4


def test_sloc_skips_blank_comment_and_docstring_lines():
    source = '"""Module doc."""\n\n# comment\ndef f():\n    """Doc\n    more."""\n    return 1  # trailing\n'
    assert sloc.count_sloc(source) == 2


def test_speed_clock_scales_to_the_reference_speed(monkeypatch):
    speeds = iter([2 * run.PROBE_REF_S, 4 * run.PROBE_REF_S])
    monkeypatch.setattr(run, "probe", lambda: next(speeds))
    monkeypatch.setattr(run, "PROBE_EVERY_S", 0.0)  # every piece is long; no timer
    clock = run.SpeedClock()
    assert clock.time(lambda: sum(range(10000))) == sum(range(10000))
    seconds, wall = clock.last
    assert len(clock.probes) == 2  # before the piece and after it
    # speeds 2 and median(2, 4) = 3 before and after: the piece counts wall / 2.5
    assert seconds == pytest.approx(wall / 2.5)


def test_speed_clock_probes_inside_a_long_piece(monkeypatch):
    def slow_probe():
        time.sleep(0.005)
        return 2 * run.PROBE_REF_S

    def busy(seconds):
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            pass

    monkeypatch.setattr(run, "probe", slow_probe)
    monkeypatch.setattr(run, "PROBE_EVERY_S", 0.02)
    clock = run.SpeedClock()
    t0 = time.perf_counter()
    clock.time(lambda: busy(0.1))
    elapsed = time.perf_counter() - t0
    seconds, wall = clock.last
    assert len(clock.ticks) >= 2
    assert wall < elapsed - 0.005 * (1 + len(clock.ticks))  # probe time not counted
    assert seconds == pytest.approx(wall / 2)


def test_quantile_is_a_weighted_mean_of_order_statistics():
    assert run.quantile([5, 1, 4, 2, 3], 0.5) == pytest.approx(3)  # symmetric weights
    values = [float(v) for v in range(1, 13)]
    assert 1 < run.quantile(values, 0.1) < run.quantile(values, 0.5) < run.quantile(values, 0.9) < 12
