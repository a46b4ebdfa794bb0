"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload servo --seed 3 --seconds 15 --trace 0

Run it from the root of a checkout; the program is imported from `src/`.
A run starts WORKERS fresh worker processes one after another. Each pins
BLAS to one thread before numpy loads, builds its inputs (the set-up),
does its share of the workload's fixed work (the timed phase) and checks
the outputs against independent oracles. The run then prints

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

as its last line: the end-to-end metrics with --trace 0, the per-layer
metrics of the span trace with --trace 1. The work fingerprint and any
failed check go to stderr; a traced run also writes its spans under
perfbench/out/.
"""

from __future__ import annotations

import os

# Before numpy loads: with two BLAS threads a warm solve burns about twice
# its wall time in CPU and is no faster, and the second thread competes with
# whatever else the host runs.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
RUN_TIMEOUT_S = 170  # for all workers together


def _rusage():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_minflt, ru.ru_utime, ru.ru_stime


def measure(workload, seed, seconds, trace, hand="paper", workdir=None, plan=None,
            worker=0):
    """Do one worker's share of a run in this process.

    Returns (result, tracer): the result holds the set-up time, the timed
    calls, the check problems and the fingerprint, plus the per-layer
    metrics when traced. `plan` overrides the work sizes derived from
    `seconds` (the tests use small plans on the test hand).
    """
    import metrics
    import spans
    import workloads
    from softprop import estimator, nn

    w = workloads.WORKLOADS[workload]
    plan = plan or workloads.plan(workload, seconds, worker)
    tracer = spans.Tracer().install() if trace else None
    try:
        t0 = time.perf_counter()
        inputs = w.setup(hand, seed, plan, workdir)
        setup_s = time.perf_counter() - t0

        if tracer:
            tracer.phase = "timed"
        timer = workloads.Timer(tracer)
        ru0 = _rusage()
        t0 = time.perf_counter()
        outcome = w.run(inputs, plan, seed, timer)
        timed_wall = time.perf_counter() - t0
        ru1 = _rusage()
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        if tracer:
            tracer.phase = "check"
        problems = w.check(inputs, outcome)
        fingerprint = {"attempted": outcome.attempted, "failed": outcome.failed,
                       **w.fingerprint(outcome, inputs)}
    finally:
        if tracer:
            tracer.uninstall()

    result = {
        "setup_s": setup_s, "calls": timer.calls, "timed_wall_s": timed_wall,
        "peak_rss_kb": peak_rss_kb, "attempted": outcome.attempted,
        "failed": outcome.failed, "problems": problems, "fingerprint": fingerprint,
    }
    if tracer:
        decoder_params = nn.MlpSpec.dense(list(estimator.DECODER_SIZES)).n_params
        timed_rusage = tuple(b - a for a, b in zip(ru0, ru1))
        result["layers"] = metrics.per_layer(tracer, timer.calls, timed_wall,
                                             timed_rusage, decoder_params)
        fingerprint["newton_iterations"] = metrics.newton_iterations(tracer)
    return result, tracer


def combine(results, trace):
    """The run's report from its workers' results."""
    import metrics

    calls = [c for r in results for c in r["calls"]]
    if trace:
        # Each per-layer metric is the median over the workers; trace.op_ms_p50
        # pools the calls like the untraced op_ms_p50 it is compared with.
        values = {name: statistics.median(r["layers"][name] for r in results)
                  for name, _ in metrics.PER_LAYER}
        values["trace.op_ms_p50"] = metrics.op_ms_p50(calls)
        units = dict(metrics.PER_LAYER)
    else:
        values = metrics.end_to_end(
            [r["setup_s"] for r in results], calls,
            sum(r["timed_wall_s"] for r in results),
            max(r["peak_rss_kb"] for r in results))
        units = dict(metrics.END_TO_END)
    return {
        "correct": not any(r["problems"] for r in results),
        "attempted": sum(int(r["attempted"]) for r in results),
        "failed": sum(int(r["failed"]) for r in results),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("datagen", "servo", "calib", "learn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--hand", choices=("paper", "test"), default="paper",
                        help="test: the 4-segment hand of the unit tests")
    parser.add_argument("--worker", type=int, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def worker_main(args):
    """One worker process: print its result as a JSON line on stdout."""
    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        result, tracer = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                 hand=args.hand, workdir=workdir, worker=args.worker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer:
        path = OUT_DIR / f"trace-{args.workload}-{args.seed}-w{args.worker}.jsonl"
        tracer.write(path)
        print(f"spans written to {path}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def main(argv=None):
    args = _arguments(argv)
    if not (ROOT / "src" / "softprop" / "__init__.py").is_file():
        print(f"run.py: no program source at {ROOT / 'src' / 'softprop'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))
    if args.worker is not None:
        return worker_main(args)

    import workloads

    deadline = time.monotonic() + RUN_TIMEOUT_S
    results = []
    for worker in range(workloads.WORKERS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--hand", args.hand, "--worker", str(worker)],
            capture_output=True, text=True, check=False,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"run.py: worker {worker} exited with status {proc.returncode}",
                  file=sys.stderr)
            return 1
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))

    for worker, result in enumerate(results):
        for problem in result["problems"]:
            print(f"check failed in worker {worker}: {problem}", file=sys.stderr)
    fingerprint = {"workload": args.workload, "seed": args.seed,
                   "workers": [r["fingerprint"] for r in results]}
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True), file=sys.stderr)
    print(json.dumps(combine(results, bool(args.trace)), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
