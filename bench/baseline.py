"""Measure the baseline: repeated untraced runs and one traced run per workload.

    python3 bench/baseline.py --runs 10

Runs bench/run.py untraced once per (workload, seed) for every workload in
BENCHMARK.json, one process at a time, with seeds 1 .. runs and
run_seconds from BENCHMARK.json.  For every end-to-end metric it records
the median, the quartiles (statistics.quantiles(values, n=4)) and the
spread (q3 - q1) / median next to the metric's bound.  One traced run per
workload, with seed 1, gives the per-layer metrics.  The result replaces
bench/baseline.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
OUT = BENCH / "baseline.json"


def run_once(workload, seed, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed ops")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "bound": bound, "values": values}


def checks(results):
    """The layer split the benchmark was designed around, as measured."""
    cy3, k3, corpus = (results[w]["per_layer"] for w in ("cy3_hodge", "k3_sweep", "corpus_mirror"))
    times = {k: v for k, v in cy3.items()
             if k.endswith("_s") and k.count(".") == 1 and not k.startswith("trace.")}
    top = max(times, key=times.get)
    return {
        "cy3_hodge: chains.f2_rows_s is the largest self time": {
            "holds": top == "chains.f2_rows_s", "largest": top},
        "k3_sweep: intlinalg.sparse_rank_calls is zero": {
            "holds": k3["intlinalg.sparse_rank_calls"] == 0,
            "value": k3["intlinalg.sparse_rank_calls"]},
        "corpus_mirror: pairs.complex_hit_ratio below k3_sweep's": {
            "holds": corpus["pairs.complex_hit_ratio"] < k3["pairs.complex_hit_ratio"],
            "corpus_mirror": corpus["pairs.complex_hit_ratio"],
            "k3_sweep": k3["pairs.complex_hit_ratio"]},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    results = {}
    for name in (w["name"] for w in SPEC["workloads"]):
        runs = [run_once(name, seed, 0) for seed in range(1, args.runs + 1)]
        results[name] = {
            "end_to_end": {m: summarize([r[m] for r in runs], bounds[m]) for m in bounds},
            "per_layer": run_once(name, 1, 1),
        }
        for m, s in results[name]["end_to_end"].items():
            print(f"{name:14s} {m:12s} median {s['median']:12.6g}  spread "
                  f"{s['spread']:.4f}  bound {s['bound']}", flush=True)
    data = {
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "load": "one benchmark process at a time, single-threaded, no other "
                    "load started by the benchmark",
            "times": "end-to-end times are at the reference speed of run.SpeedClock "
                     "(README.md); per-layer times are wall times",
        },
        "settings": {"runs": args.runs, "seconds": SPEC["run_seconds"], "seeds": [1, args.runs]},
        "workloads": results,
        "layer_metrics": {
            m["name"]: {"unit": m["unit"], "moves": tracer.LAYER_METRICS.get(
                m["name"], (None, "no end-to-end metric (source lines)"))[1]}
            for m in SPEC["per_layer"]},
        "checks": checks(results),
    }
    OUT.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
