"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload k3_sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from anywhere (the run changes to the repository root, so the input
paths in CLI reports, and with them the output digests, do not depend on
it); the program under test is the tropmirror package in the
src/ directory next to bench/, used from source.  One process runs one
workload on one thread (``all`` starts one process per workload, one after
the other), so peak RSS is per workload.

A run makes whole passes over the workload's ops: as many as fit in
--seconds, at least one.  Before each pass the workload is set up SETUPS
times, and the pass runs on the state of the last set-up; setup_s is the
median set-up time.  Each op is timed on its own and checked by its oracle;
a wrong answer, an exception or a digest that differs from the one
golden.json records for the op counts as a failed op and does not stop the
run.

Every time an untraced run reports is scaled to a reference speed of the
machine (see SpeedClock): on a shared host the speed of the same pure-Python
code drifts by a third within a minute, which would swamp any change to the
program.

With --trace 1 the run makes one untraced pass, then sets up and makes the
same pass again under the tracer, and prints the per-layer metrics of the
traced set-up and pass, the tracing overhead (traced minus untraced pass
time) and the source line counts.  Spans go to bench/_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
WORKDIR = BENCH / "_work"
OUTDIR = BENCH / "_out"
SETUPS = 11  # set-ups before each pass
# speed probe: PROBE_LOOPS turns of a fixed loop take PROBE_REF_S at the
# reference speed (the median on the 2-vCPU host of baseline.json); the
# speed is the median of the last PROBE_WINDOW probes
PROBE_LOOPS, PROBE_REF_S, PROBE_EVERY_S, PROBE_WINDOW = 40000, 0.0036, 0.25, 5

sys.path.insert(0, str(SRC))
try:
    import tropmirror
    import inputs
    import sloc
    import tracer
    import workloads
except ImportError as exc:  # no source tree next to bench/: reported by main()
    IMPORT_ERROR = exc
else:
    IMPORT_ERROR = None

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def probe():
    """Seconds the fastest of three turns of a fixed pure-Python loop takes."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        s = 0
        for i in range(PROBE_LOOPS):
            s += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


class WallClock:
    """Times work in wall seconds."""

    def time(self, fn):
        """Return fn(); its seconds are left in ``last`` as (seconds, wall
        seconds), also when it raises."""
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            wall = time.perf_counter() - t0
            self.last = wall, wall


class SpeedClock:
    """Times work in seconds at the reference speed.

    The host's speed changes over seconds, and a program's time changes with
    it.  So the clock probes before a piece of work once PROBE_EVERY_S of
    work has passed since the last probe, every PROBE_EVERY_S inside a
    longer piece (from a timer signal), and after such a piece.  The speed
    after a probe is the median of the last PROBE_WINDOW probes.  Each
    stretch of a long piece between two probes counts its wall time times
    PROBE_REF_S over the mean of the speeds at its ends; a short piece takes
    the speed before it.  Probe time is not counted.  The clock owns SIGALRM
    from its creation on.
    """

    def __init__(self):
        self.speed = None
        self.since_probe = 0.0
        self.probes = []  # every probe, in order
        self.ticks = []  # (start, end, speed) of the probes the timer made
        signal.signal(signal.SIGALRM, self._tick)

    def _probe(self):
        self.probes.append(probe())
        self.speed = statistics.median(self.probes[-PROBE_WINDOW:])
        self.since_probe = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self._probe()
        self.ticks.append((t0, time.perf_counter(), self.speed))

    def time(self, fn):
        """Return fn(); its seconds are left in ``last`` as (seconds at the
        reference speed, wall seconds), also when it raises."""
        if self.speed is None or self.since_probe >= PROBE_EVERY_S:
            self._probe()
        speed, self.ticks = self.speed, []
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.last = self._scale(t0, t1, speed)

    def _scale(self, t0, t1, speed):
        # a tick that was already due when the timer stopped comes after t1
        ticks = [tick for tick in self.ticks if t0 <= tick[0] < t1]
        cuts = [t0, *(t for a, b, _ in ticks for t in (a, b)), t1]
        stretches = [b - a for a, b in zip(cuts[::2], cuts[1::2])]
        wall = sum(stretches)
        speeds = [speed, *(v for _, _, v in ticks)]
        if not ticks and wall < PROBE_EVERY_S:
            self.since_probe += wall
            return wall * PROBE_REF_S / speeds[0], wall
        self._probe()
        speeds.append(self.speed)
        seconds = sum(w * 2 / (u + v) for w, u, v in zip(stretches, speeds, speeds[1:]))
        return seconds * PROBE_REF_S, wall


@dataclass
class OpResult:
    label: str
    seconds: float  # at the reference speed
    wall: float
    digest: str
    error: Optional[str]


def run_pass(ops, tr=None, clock=None):
    """Run every op once; returns (pass seconds, [OpResult]).

    Op times are taken by ``clock`` (a new WallClock by default).
    """
    clock = clock or WallClock()
    results = []
    for i, op in enumerate(ops):
        out, error = b"", None
        try:
            if tr is None:
                out = clock.time(op.run)
            else:
                tr.op = i
                with tr.span("bench.op"):
                    out = clock.time(op.run)
        except Exception as e:  # a failed op is counted and the run goes on
            error = f"{type(e).__name__}: {e}"
            print(f"op {op.label} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        seconds, wall = clock.last
        if tr is not None and op.report:
            tr.add("cli.report_bytes", len(out))
        results.append(OpResult(op.label, seconds, wall, hashlib.sha256(out).hexdigest(), error))
    return sum(r.seconds for r in results), results


def quantile(values, p, steps=64):
    """Harrell-Davis estimate of the p-quantile of ``values``.

    A mean of all order statistics, the i-th of n weighted by the mass of
    Beta((n + 1) p, (n + 1) (1 - p)) on ((i - 1) / n, i / n), integrated by
    the midpoint rule.  Unlike a single order statistic, it does not jump
    when the ops near the quantile trade places, or when the quantile falls
    in a gap between two kinds of op.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p - 1, (n + 1) * (1 - p) - 1
    logs = []
    for i in range(n):
        ts = [(i + (k + 0.5) / steps) / n for k in range(steps)]
        logs.append([a * math.log(t) + b * math.log1p(-t) for t in ts])
    top = max(max(row) for row in logs)
    weights = [sum(math.exp(v - top) for v in row) for row in logs]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def count_failures(results, golden):
    """Failed ops: errors, and digests that differ from golden.json's."""
    failed = 0
    for r in results:
        bad = r.error is not None
        if not bad and golden.get(r.label) != r.digest:
            print(f"op {r.label}: digest differs from golden.json", file=sys.stderr)
            bad = True
        failed += bad
    return failed


def load_golden(name):
    with open(GOLDEN) as fh:
        return json.load(fh).get(name, {})


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Runner:
    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.workdir = WORKDIR / workload.name
        self.setup_times = []  # by self.clock
        self.clock = WallClock()  # measure() times at the reference speed

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        workdir = str(self.workdir.relative_to(ROOT))
        state = self.clock.time(lambda: self.workload.setup(self.seed, workdir))
        self.setup_times.append(self.clock.last[0])
        return state

    def measure(self, seconds):
        """Untraced run: (attempted, failed, metrics, notes)."""
        golden = load_golden(self.workload.name)
        self.clock = SpeedClock()
        passes, latencies, failed = [], [], 0
        start = time.perf_counter()
        while True:
            for _ in range(SETUPS):
                state = self.setup()
            t0 = time.perf_counter()
            wall, results = run_pass(self.workload.ops(state), clock=self.clock)
            passes.append(wall)
            latencies += [r.seconds for r in results]
            failed += count_failures(results, golden)
            now = time.perf_counter()
            if now - start + now - t0 > seconds:
                break
        p90 = quantile(latencies, 0.9)
        metrics = {
            "setup_s": statistics.median(self.setup_times),
            "wall_s": statistics.median(passes),
            "ops_per_s": len(latencies) / sum(passes),
            "op_p50_ms": quantile(latencies, 0.5) * 1000,
            "op_p90_ms": p90 * 1000,
            "peak_rss_mb": peak_rss_mb(),
        }
        notes = [
            f"setup_s: median of {len(self.setup_times)} set-ups",
            f"wall_s: median of {len(passes)} pass(es) of {len(results)} ops",
            f"op_p50_ms, op_p90_ms: Harrell-Davis estimates from {len(latencies)} samples, "
            f"{sum(t > p90 for t in latencies)} beyond p90",
            f"times at the reference speed: {len(self.clock.probes)} speed probes, median "
            f"{statistics.median(self.clock.probes) * 1000:.3f} ms against "
            f"{PROBE_REF_S * 1000:.3f} ms; wall time of the last pass "
            f"{sum(r.wall for r in results):.3f} s",
        ]
        return len(latencies), failed, metrics, notes

    def measure_traced(self):
        """One untraced pass, then set-up and the same pass under the tracer."""
        golden = load_golden(self.workload.name)
        untraced_wall, results = run_pass(self.workload.ops(self.setup()))
        failed = count_failures(results, golden)
        with tracer.Tracer(extra_modules=(inputs, workloads)) as tr:
            with tr.span("bench.setup"):
                state = self.workload.setup(self.seed, str(self.workdir.relative_to(ROOT)))
            traced_wall, traced = run_pass(self.workload.ops(state), tr)
        failed += count_failures(traced, golden)
        metrics = tracer.layer_metrics(tr, len(traced))
        metrics["trace.ops"] = len(traced)
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        metrics.update(sloc.package_sloc(SRC / "tropmirror"))
        OUTDIR.mkdir(exist_ok=True)
        spans = OUTDIR / f"spans-{self.workload.name}-{self.seed}.jsonl"
        tr.write_spans(spans)
        notes = [
            f"untraced pass {untraced_wall:.3f} s, traced pass {traced_wall:.3f} s",
            f"{len(tr.spans)} spans written to {spans.relative_to(ROOT)}",
        ]
        return len(results) + len(traced), failed, metrics, notes

    def write_golden(self):
        """Record in golden.json the digest of every op any seed can produce."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        state = self.workload.setup(None, str(self.workdir.relative_to(ROOT)))
        _, results = run_pass(self.workload.ops(state))
        errors = [r.label for r in results if r.error]
        if errors:
            raise RuntimeError(f"ops failed, golden.json not written: {errors}")
        data = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        data[self.workload.name] = {r.label: r.digest for r in results}
        GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def unit(name):
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith(".sloc"):
        return "lines"
    return tracer.LAYER_METRICS[name][0]


def result_line(attempted, failed, metrics):
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    })


def run_one(args):
    workload = workloads.WORKLOADS[args.workload]()
    runner = Runner(workload, args.seed)
    try:
        if args.write_golden:
            runner.write_golden()
            return 0
        if args.trace:
            attempted, failed, metrics, notes = runner.measure_traced()
        else:
            attempted, failed, metrics, notes = runner.measure(args.seconds)
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)
    print(f"# {workload.name} seed={args.seed} trace={args.trace}")
    for note in notes:
        print(f"# {note}")
    for name, value in metrics.items():
        print(f"{workload.name} {name} {value:.6g} {unit(name)}")
    print(f"{workload.name} ops_attempted {attempted} count")
    print(f"{workload.name} ops_failed {failed} count")
    print(result_line(attempted, failed, metrics))
    return 0


def run_all(args):
    """Each workload in its own process, one after the other."""
    attempted, failed, metrics = 0, 0, {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true",
                    help="record the output digests of the whole class pool and exit")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    os.chdir(ROOT)
    if IMPORT_ERROR is not None or not Path(tropmirror.__file__).resolve().is_relative_to(SRC):
        print(f"cannot use the tropmirror sources in {SRC}: {IMPORT_ERROR}", file=sys.stderr)
        return 2
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
