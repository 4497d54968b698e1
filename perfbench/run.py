"""Benchmark entry point: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload track_npv --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the repository root.  BLAS runs on one thread.  With ``--trace 0``
the run repeats whole rounds of the workload for at least ``--seconds`` and
prints the end-to-end metrics; with ``--trace 1`` it runs one round
untraced, one traced and one untraced again, prints the per-layer metrics
and writes the spans to perfbench/out/.  The last line of standard output
is the JSON result.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("build", "track_npv", "track_deepc", "track_mpc")


def _import_program():
    """Put the checkout's own sources first on the path and import them."""
    src = ROOT / "src"
    if not (src / "npvdeepc" / "__init__.py").is_file() or not (ROOT / "configs" / "desk.yaml").is_file():
        raise SystemExit(f"error: {ROOT} holds no npvdeepc sources (src/npvdeepc) or configs/desk.yaml")
    sys.path.insert(0, str(src))
    import workloads

    return workloads


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _result(tally, metrics: dict[str, tuple[float, str]]) -> dict:
    return {
        "correct": not tally.check_failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_timed(workloads, wl, seed: int, seconds: float, t_imported: float) -> dict:
    setup_s = []
    for _ in range(workloads.SETUP_REPEATS):
        state = None  # free the previous set-up first, so the peak holds one
        t0 = time.perf_counter()
        state = wl.setup(seed)
        setup_s.append(time.perf_counter() - t0)
    wl.prepare_checks(state)

    tally = workloads.Tally()
    timings = wl.new_timings()
    t0 = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - t0 < seconds:
        wl.round(state, tally, timings)
        rounds += 1
    measured = wl.metrics(timings)
    metrics = {
        "setup_s": (t_imported - T_START + statistics.median(setup_s), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "op_p50_ms": (measured["op_p50_ms"], "ms"),
        "work_per_s": (measured["work_per_s"], "1/s"),
    }
    print(f"{wl.name}: seed {seed}, {rounds} round(s), {tally.attempted} operations in "
          f"{time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return _result(tally, metrics)


def run_traced(workloads, wl, seed: int) -> dict:
    """Untraced, traced and untraced passes of one round each.

    The traced pass sits between two untraced ones, and its overhead is taken
    against their mean, so a steady drift of the machine's speed cancels.
    """
    import tracer as tracing

    def one_pass(tally, timings):
        t0 = time.perf_counter()
        state = wl.setup(seed)
        wl.prepare_checks(state)
        wl.round(state, tally, timings)
        return time.perf_counter() - t0

    untraced_timings = wl.new_timings()
    untraced_s = [one_pass(workloads.Tally(), untraced_timings)]

    tr = tracing.Tracer()
    tracing.install_npvdeepc(tr)
    tally = workloads.Tally()
    try:
        traced_s = one_pass(tally, wl.new_timings())
    finally:
        tr.uninstall()
    untraced_s.append(one_pass(workloads.Tally(), untraced_timings))
    tr.write(BENCH_DIR / "out" / f"trace_{wl.name}_seed{seed}.csv.gz")

    metrics = tracing.per_layer_metrics(tr)
    step_stats = wl.step_stats(untraced_timings)
    for name, span in workloads.STEP_SPAN.items():
        p50, p95 = step_stats.get(name, (0.0, 0.0))
        metrics[f"{span}.p50_ms"] = (p50, "ms")
        metrics[f"{span}.p95_ms"] = (p95, "ms")
    untraced_mean = statistics.fmean(untraced_s)
    metrics["trace.untraced_s"] = (untraced_mean, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_mean, "s")
    return _result(tally, metrics)


def _print(result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"correct = {result['correct']}, attempted = {result['attempted']}, failed = {result['failed']}")
    print(json.dumps(result))


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    workloads = _import_program()
    t_imported = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload]
    try:
        if args.trace:
            result = run_traced(workloads, wl, args.seed)
        else:
            result = run_timed(workloads, wl, args.seed, args.seconds, t_imported)
    except workloads.ModelMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
