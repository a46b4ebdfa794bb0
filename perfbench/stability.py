"""Stability command: run workloads in repeated fresh processes and report spread.

    python3 perfbench/stability.py --workloads servo calib --runs 10 --sets 2

For each workload it runs `run.py` once per seed (1 to --runs) in each
set, one fresh process at a time, for run_seconds of BENCHMARK.json, and
prints for every end-to-end metric each set's median and quartiles, the
spread (quartile distance over the median, as
`statistics.quantiles(values, n=4)` gives the quartiles) and the drift (the
absolute difference of a later set's median from the first set's, over the
first), next to the metric's bound in BENCHMARK.json. It also checks that
every run's work fingerprint (ops done and failed, Newton iterations,
evaluations, epochs and digests of the outputs) is the same for the same
seed in every set, and that the share of failed ops is the same in every
run. With --traced N it adds a traced run for each of the first N seeds,
checks that tracing leaves the fingerprint unchanged and reports the
tracing overhead on op_ms_p50 against the untraced runs of those seeds.

Exit status 0 means every spread and every drift is within its bound and
every fingerprint repeats.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def one_run(workload, seed, seconds, trace):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    fingerprint = None
    for line in proc.stderr.splitlines():
        if line.startswith("fingerprint "):
            fingerprint = json.loads(line[len("fingerprint "):])
    report["wall_s"] = time.perf_counter() - t0
    return report, fingerprint


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=["datagen", "servo", "calib", "learn"])
    parser.add_argument("--runs", type=int, default=10, help="seeds per set")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--traced", type=int, default=0, metavar="N",
                        help="traced runs: one for each of the first N seeds")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seeds = list(range(1, args.runs + 1))
    ok = True
    for workload in args.workloads:
        sets, prints, shares = [], {}, set()
        for s in range(args.sets):
            runs = []
            for seed in seeds:
                report, fingerprint = one_run(workload, seed, seconds, 0)
                if not report["correct"]:
                    print(f"{workload} seed {seed}: checks failed", flush=True)
                    ok = False
                shares.add((report["failed"], report["attempted"]))
                prints.setdefault(seed, []).append(fingerprint)
                runs.append(report)
                values = " ".join(f"{k}={v['value']:.5g}" for k, v in report["metrics"].items())
                print(f"{workload} set {s + 1} seed {seed}: {values} "
                      f"(run took {report['wall_s']:.1f} s)", flush=True)
            sets.append(runs)
        print(f"\n{workload}: {args.sets} set(s) x {len(seeds)} runs, {seconds:g} s each")
        print(f"  {'metric':<12} {'set':>3} {'q1':>10} {'median':>10} {'q3':>10} "
              f"{'spread':>7} {'drift':>7} {'bound':>6}")
        for name, meta in metrics.items():
            first = None
            for s, runs in enumerate(sets):
                q1, med, q3, sp = spread([r["metrics"][name]["value"] for r in runs])
                if first is None:
                    first, drift = med, 0.0
                else:
                    drift = abs(med - first) / first
                bad = sp > meta["bound"] or drift > meta["bound"]
                ok &= not bad
                print(f"  {name:<12} {s + 1:>3} {q1:>10.5g} {med:>10.5g} {q3:>10.5g} "
                      f"{sp:>7.3f} {drift:>7.3f} {meta['bound']:>6}{'  OVER' if bad else ''}")
        same = all(all(fp == fps[0] for fp in fps) for fps in prints.values())
        shares_same = len({f / a for f, a in shares}) == 1
        ok &= same and shares_same
        print(f"  fingerprints repeat per seed: {same}; failed/attempted in every run: "
              f"{sorted(shares)}")
        if args.traced:
            untraced = statistics.median(r["metrics"]["op_ms_p50"]["value"]
                                         for r in sets[0][:args.traced])
            traced = []
            for seed in seeds[:args.traced]:
                report, fingerprint = one_run(workload, seed, seconds, 1)
                for worker in fingerprint["workers"]:
                    worker.pop("newton_iterations")
                if fingerprint != prints[seed][0]:
                    print(f"  seed {seed}: traced fingerprint differs: {fingerprint}")
                    ok = False
                traced.append(report["metrics"]["trace.op_ms_p50"]["value"])
                print(f"  traced seed {seed}: trace.op_ms_p50={traced[-1]:.5g} "
                      f"overhead_share={report['metrics']['trace.overhead_share']['value']:.4f}",
                      flush=True)
            med = statistics.median(traced)
            print(f"  tracing overhead on op_ms_p50: {med:.5g} vs {untraced:.5g} ms "
                  f"({(med - untraced) / untraced:+.3f})")
        print(flush=True)
    print("STABLE" if ok else "NOT STABLE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
