#!/usr/bin/env python3
"""End-to-end tracking study: collect, train, benchmark, distance sweep.

Equivalent to running the collect/train/bench/distance-sweep subcommands in
sequence, but kept as one script for notebook-free experimentation.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from npvdeepc.config import load_config
from npvdeepc.experiments import build_pipeline, run_bench, run_distance_sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=str(Path(__file__).resolve().parents[1] / "configs" / "desk.yaml"))
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    cfg = load_config(args.config)
    out = Path(args.out) if args.out else Path(cfg.output.dir)
    out.mkdir(parents=True, exist_ok=True)

    print("building pipeline (collect + train)...")
    pipe = build_pipeline(cfg)
    val = pipe.bfr_scores["validation"]  # None without a validation split
    print(f"  validation BFR: {'n/a' if val is None else f'{val:.2f}%'}")

    print("running controller benchmark...")
    bench = run_bench(cfg, out, pipe=pipe)
    for noise_label, rows in bench["metrics"].items():
        for name, m in rows.items():
            print(f"  {noise_label:10s} {name:13s} rmse={m['rmse']:.4f}  ise={m['ise']:.3f}")

    print("running fixed-distance sweep...")
    sweep = run_distance_sweep(cfg, out, pipe=pipe)
    for d, rows in sweep["rmse"].items():
        ranked = sorted(rows, key=rows.get)
        print(f"  d={d} mm: " + "  ".join(f"{n}={rows[n]:.4f}" for n in ranked))
    print(f"outputs in {out}")


if __name__ == "__main__":
    main()
