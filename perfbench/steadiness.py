"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/steadiness.py --seeds 10 --seconds 20 [--workloads build track_mpc] [--label set1]

Runs every chosen workload once per seed (seeds 1..N), one process at a
time, and prints per metric the median, the quartiles and the distance
between the quartiles as a share of the median, next to the metric's bound
from BENCHMARK.json.  The raw results go to perfbench/out/steadiness_<label>.json.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import spread

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--label", default="latest")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}
    for name in args.workloads:
        runs[name] = []
        for seed in range(1, args.seeds + 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[name].append({"seed": seed, **result})
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    summary = {}
    for name, results in runs.items():
        summary[name] = {}
        for metric, bound in bounds.items():
            s = spread([r["metrics"][metric]["value"] for r in results])
            summary[name][metric] = {**s, "bound": bound}
            print(f"{name:10s} {metric:12s} median {s['median']:10.4g}  q1 {s['q1']:10.4g}  "
                  f"q3 {s['q3']:10.4g}  spread {s['iqr_over_median']:6.1%}  bound {bound:.0%}")
        fails = {r["failed"] / r["attempted"] for r in results}
        print(f"{name:10s} failed share {sorted(fails)}; correct {all(r['correct'] for r in results)}")
    out = BENCH_DIR / "out" / f"steadiness_{args.label}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seconds": args.seconds, "runs": runs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
