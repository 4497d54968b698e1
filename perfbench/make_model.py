"""Make the stored desk model anew.

    python3 perfbench/make_model.py

Runs the CLI's ``collect`` and ``train`` commands on configs/desk.yaml at
seed 0 (500 epochs; about 80 s on one core), then copies model.json to
perfbench/data/desk_model.json and records the config hash, dims and scores
beside it in desk_model_meta.json.  The tracking workloads load this model
and refuse to run when the config's hash or the model's dims no longer
match.
"""

import json
import os
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CONFIG = ROOT / "configs" / "desk.yaml"
OUT = BENCH_DIR / "out" / "desk_model"
SEED = 0


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from npvdeepc.cli import main as cli
    from npvdeepc.config import config_hash, load_config

    for command in ("collect", "train"):
        status = cli([command, "--config", str(CONFIG), "--seed", str(SEED), "--out", str(OUT)])
        if status:
            return status
    report = json.loads((OUT / "train_report.json").read_text())
    model = json.loads((OUT / "model.json").read_text())
    cfg = load_config(CONFIG)
    if report["config_hash"] != config_hash(cfg) or cfg.seed != SEED:
        raise SystemExit("config seed or hash changed while training")
    shutil.copyfile(OUT / "model.json", BENCH_DIR / "data" / "desk_model.json")
    meta = {
        "command": "python3 perfbench/make_model.py",
        "config": "configs/desk.yaml",
        "config_hash": report["config_hash"],
        "seed": SEED,
        "dims": model["dims"],
        "hidden_sizes": [spec["out_dim"] for spec in model["layer_specs"]],
        "epochs_run": report["epochs_run"],
        "best_epoch": report["best_epoch"],
        "bfr_train_percent": report["bfr_train_percent"],
        "bfr_validation_percent": report["bfr_validation_percent"],
    }
    (BENCH_DIR / "data" / "desk_model_meta.json").write_text(json.dumps(meta, indent=1) + "\n")
    print(f"desk model: {meta['epochs_run']} epochs, validation BFR "
          f"{meta['bfr_validation_percent']:.2f}% -> {BENCH_DIR / 'data'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
