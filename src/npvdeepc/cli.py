"""Batch experiment driver.

Subcommands cover the full workflow: data collection, model training, the
verification suite, closed-loop tracking and thermal-dose scenarios, the
controller benchmark table and the fixed-distance sweep.  Outputs are
plot-ready CSV/JSON files under the configured output directory.

Exit codes: 0 success, 2 configuration error, 3 missing/invalid data,
4 solver failure, 5 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .config import ConfigError, RunConfig, config_hash, load_config
from .control import NonFiniteWindowError
from .experiments import (
    DataError,
    build_pipeline,
    build_dataset,
    run_bench,
    run_cem,
    run_distance_sweep,
    run_tracking_scenario,
    run_verification,
    train_from_config,
    evaluate_bfr_split,
    write_json,
)
from .hankel import DimensionError, RankDeficientError, load_trajectory_csv, save_trajectory_csv
from .hypernet import TrainingDivergedError, load_model, save_model
from .optim import SolverError

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_SOLVER = 4
EXIT_VERIFY = 5

DATASET_FILE = "dataset.csv"
MODEL_FILE = "model.json"
REPORT_FILE = "train_report.json"


def _out_dir(cfg: RunConfig, override: str | None) -> Path:
    out = Path(override) if override else Path(cfg.output.dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _read(loader, path: Path, **kwargs):
    """``loader(path, **kwargs)``; a file it cannot parse raises DataError naming the file."""
    try:
        return loader(path, **kwargs)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise DataError(f"cannot read {path}: {type(exc).__name__}: {exc}") from exc


def cmd_collect(cfg: RunConfig, out: Path) -> int:
    traj = build_dataset(cfg)
    save_trajectory_csv(traj, out / DATASET_FILE)
    print(f"collected {traj.n_samples} samples -> {out / DATASET_FILE}")
    return 0


def _percent(score: float | None) -> str:
    """A BFR score for the summary line; None (no windows in the split) prints n/a."""
    return "n/a" if score is None else f"{score:.2f}%"


def cmd_train(cfg: RunConfig, out: Path) -> int:
    data_path = out / DATASET_FILE
    if not data_path.exists():
        raise DataError(f"missing {data_path}; run the collect command first")
    traj = _read(load_trajectory_csv, data_path, dt=cfg.plant.dt)
    ctl = cfg.controllers.npv_deepc
    model, ds = train_from_config(cfg, traj, ctl.t_ini, ctl.horizon)
    scores = evaluate_bfr_split(model, ds, cfg.model.val_fraction)
    save_model(model, out / MODEL_FILE)
    report = {
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "epochs_run": model.history.stopped_epoch,
        "best_epoch": model.history.best_epoch,
        "final_train_loss": model.history.train_loss[-1],
        "final_val_loss": model.history.val_loss[-1] if model.history.val_loss else None,
        "bfr_train_percent": scores["train"],
        "bfr_validation_percent": scores["validation"],
        "loss_history": {
            "train": model.history.train_loss,
            "validation": model.history.val_loss,
        },
    }
    write_json(out / REPORT_FILE, report)
    print(
        f"trained {model.history.stopped_epoch} epochs; "
        f"BFR train {_percent(scores['train'])} / validation {_percent(scores['validation'])} "
        f"-> {out / MODEL_FILE}"
    )
    return 0


def _pipeline_for_run(cfg: RunConfig, out: Path):
    """The pipeline on the output directory's dataset and model, each built fresh when absent."""
    data_path, model_path = out / DATASET_FILE, out / MODEL_FILE
    traj = _read(load_trajectory_csv, data_path, dt=cfg.plant.dt) if data_path.exists() else None
    model = _read(load_model, model_path) if model_path.exists() else None
    return build_pipeline(cfg, traj=traj, model=model)


def cmd_verify(cfg: RunConfig, out: Path) -> int:
    report = run_verification(cfg, _pipeline_for_run(cfg, out))
    write_json(out / "verify_report.json", report)
    for name, entry in report["checks"].items():
        print(f"[{'PASS' if entry['passed'] else 'FAIL'}] {name}")
    if not report["all_passed"]:
        print("verification failed", file=sys.stderr)
        return EXIT_VERIFY
    return 0


def cmd_track(cfg: RunConfig, out: Path) -> int:
    doc = run_tracking_scenario(cfg, out, pipe=_pipeline_for_run(cfg, out))
    for name, m in doc["metrics"].items():
        print(f"{name}: rmse={m['rmse']:.4f} ise={m['ise']:.4f} ju={m['ju']:.2f}")
    return 0


def cmd_cem(cfg: RunConfig, out: Path) -> int:
    doc = run_cem(cfg, out)
    for label, summary in doc["runs"].items():
        flag = " SAFETY-VIOLATION" if summary["safety_violation"] else ""
        print(
            f"{label}: final CEM {summary['final_cem']:.4f} / target {summary['target']:.4f} "
            f"monotone={summary['monotone']}{flag}"
        )
    return 0


def cmd_bench(cfg: RunConfig, out: Path) -> int:
    doc = run_bench(cfg, out, pipe=_pipeline_for_run(cfg, out))
    for noise_label, rows in doc["metrics"].items():
        for name, m in rows.items():
            print(f"{noise_label}/{name}: rmse={m['rmse']:.4f} ise={m['ise']:.4f}")
    print(f"table -> {out / 'bench_table.csv'}")
    return 0


def cmd_distance_sweep(cfg: RunConfig, out: Path) -> int:
    doc = run_distance_sweep(cfg, out, pipe=_pipeline_for_run(cfg, out))
    for d, rows in doc["rmse"].items():
        best = min(rows, key=rows.get)
        print(f"d={d} mm: best {best} (rmse={rows[best]:.4f})")
    return 0


COMMANDS = {
    "collect": cmd_collect,
    "train": cmd_train,
    "verify": cmd_verify,
    "track": cmd_track,
    "cem": cmd_cem,
    "bench": cmd_bench,
    "distance-sweep": cmd_distance_sweep,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="npvdeepc",
        description="Neural parameter-varying data-enabled predictive control experiments",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to the YAML run configuration")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        out = _out_dir(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        return COMMANDS[args.command](cfg, out)
    except (DataError, DimensionError, NonFiniteWindowError, RankDeficientError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (SolverError, TrainingDivergedError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
