#!/usr/bin/env python3
"""Checks the benchmark itself: run-to-run spread and count determinism.

    python3 perfbench/check.py spread [--workloads W,...] [--seeds 10] [--sets 2]
    python3 perfbench/check.py determinism [--workloads W,...] [--seed 1]

`spread` runs each workload untraced once per seed (seeds 1..N, or from
--first-seed) and prints, for every end-to-end metric, the median and the
distance between the first and third quartile as a share of the median,
next to the metric's bound in BENCHMARK.json. Every spread must stay under
a third of its bound. With --sets 2 it repeats the whole set and also
requires each metric's median in the second set to be no worse than in the
first by more than the bound.

`determinism` makes two traced runs of each workload with the same seed and
requires identical exact counts: vertices scored per bound query (compared
query by query from the span traces), forest rebuilds per update (update by
update) and epoch retirements. Timing-dependent counts (server.mean_batch,
common.epoch_freed) are printed, not compared.

Run from the repository root; results of every run are appended to
.bench_build/check/<mode>.jsonl.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        check=True, stdout=subprocess.PIPE, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    os.makedirs(os.path.join(BUILD_DIR, "check"), exist_ok=True)
    mode = "traced" if trace else "untraced"
    with open(os.path.join(BUILD_DIR, "check", mode + ".jsonl"), "a") as f:
        f.write(json.dumps({"workload": workload, "seed": seed,
                            "result": result}) + "\n")
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"{workload} seed {seed}: incorrect run {result}")
    return result


def spread(args, bench):
    medians = {}  # (workload, metric) -> median of each set
    failures = 0
    for number in range(1, args.sets + 1):
        for workload in args.workloads:
            runs = [run_once(workload, args.first_seed + i, args.seconds, 0)
                    for i in range(args.seeds)]
            print(f"set {number}, {workload}: {len(runs)} runs")
            for metric in bench["end_to_end"]:
                name = metric["name"]
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                share = (q3 - q1) / med
                ok = share < metric["bound"] / 3
                failures += not ok
                medians.setdefault((workload, name), []).append(med)
                print(f"  {name:12s} median {med:12.4f} {metric['unit']:4s} "
                      f"spread {share:7.2%} bound {metric['bound']:.2f} "
                      f"{'ok' if ok else 'TOO NOISY'}")
    if args.sets > 1:
        print("drift of each later set's median from the first, in the "
              "worse direction:")
        for metric in bench["end_to_end"]:
            sign = 1 if metric["better"] == "lower" else -1
            for workload in args.workloads:
                first, *later = medians[(workload, metric["name"])]
                for med in later:
                    drift = sign * (med - first) / first
                    ok = drift <= metric["bound"]
                    failures += not ok
                    print(f"  {workload:12s} {metric['name']:12s} "
                          f"{drift:+7.2%} bound {metric['bound']:.2f} "
                          f"{'ok' if ok else 'DRIFTS'}")
    if failures:
        raise SystemExit(f"spread check failed ({failures} figures)")
    print("spread check passed")


def trace_path(workload, seed):
    return os.path.join(BUILD_DIR, "traces", f"{workload}-seed{seed}.jsonl")


def exact_sequences(path):
    """Per-query (k, vertices scored) and per-update rebuild counts."""
    queries, rebuilds = [], []
    with open(path) as f:
        for line in f:
            span = json.loads(line)
            if span["name"] == "core.TopR":
                queries.append((span["k"], span["vertices_scored"]))
            elif span["name"] == "server.ApplyUpdate":
                rebuilds.append(span["rebuilds"])
    return queries, rebuilds


def determinism(args, _bench):
    failures = 0
    for workload in args.workloads:
        results, sequences = [], []
        for attempt in range(2):
            results.append(run_once(workload, args.seed, args.seconds, 1))
            path = trace_path(workload, args.seed)
            kept = f"{path}.{attempt}"
            shutil.copyfile(path, kept)
            sequences.append(exact_sequences(kept))
        (q0, u0), (q1, u1) = sequences
        common = min(len(q0), len(q1))
        checks = {
            "core.vertices_scored per query":
                common > 0 and q0[:common] == q1[:common],
            "core.dynamic_rebuilds_per_update per update": u0 == u1,
        }
        for name in ("core.vertices_scored", "core.dynamic_rebuilds_per_update",
                     "common.epoch_retired"):
            a, b = (r["metrics"][name]["value"] for r in results)
            checks[name] = a == b
        print(f"{workload}: {common} queries, {len(u0)} updates compared")
        for name, ok in checks.items():
            print(f"  {name:45s} {'identical' if ok else 'DIFFERS'}")
            failures += not ok
        for name in ("server.mean_batch", "common.epoch_freed"):
            a, b = (r["metrics"][name]["value"] for r in results)
            print(f"  {name:45s} {a} vs {b} (timing-dependent, not compared)")
    if failures:
        raise SystemExit(f"determinism check failed ({failures} counts differ)")
    print("determinism check passed")


def main():
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("spread", "determinism"))
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()
    args.workloads = args.workloads.split(",")
    (spread if args.mode == "spread" else determinism)(args, bench)


if __name__ == "__main__":
    main()
