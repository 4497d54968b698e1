import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from npvdeepc import cli
from npvdeepc.cli import main
from npvdeepc.config import ConfigError, config_from_dict, config_hash, load_config
from npvdeepc.control import ControllerConfig, check_window
from npvdeepc.experiments import build_dataset
from npvdeepc.hankel import TRAJECTORY_CSV_HEADER, load_trajectory_csv, save_trajectory_csv
from npvdeepc.hypernet import save_model
from npvdeepc.optim import SolverError

from conftest import random_model

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

SMALL = {
    "seed": 3,
    "excitation": {"n_points": 700, "d_hold_min": 10, "d_hold_max": 40},
    "model": {"max_epochs": 250, "patience": 250, "batch_size": 128},
    "hankel": {"k_deepc": 150, "k_neural": 400},
    "controllers": {
        "npv_deepc": {"t_ini": 4, "horizon": 6},
        "neural_deepc": {"t_ini": 4, "horizon": 6},
        "deepc": {"t_ini": 4, "horizon": 6},
        "mpc": {"t_ini": 4, "horizon": 6, "n_a": 2, "n_b": 2},
        "cem": {"t_ini": 4, "horizon": 4, "target": 0.1},
    },
    "scenario": {
        "n_steps": 25,
        "reference": [[0.0, 28.0], [8.0, 29.0]],
        "d_schedule": [[0.0, 3.0], [6.0, 4.0]],
        "sweep_distances": [3.0, 5.0],
        "sweep_n_steps": 20,
    },
}


def _merge(doc: dict, overrides: dict) -> None:
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(doc.get(key), dict):
            _merge(doc[key], value)
        else:
            doc[key] = value


def write_config(tmp_path, overrides=None) -> Path:
    doc = json.loads(json.dumps(SMALL))
    _merge(doc, overrides or {})
    doc.setdefault("output", {})["dir"] = str(tmp_path / "out")
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


class TestConfig:
    def test_defaults_roundtrip(self):
        cfg = config_from_dict({})
        assert cfg.plant.dt == 0.5
        assert cfg.hankel.k_deepc == 300
        assert cfg.controllers.npv_deepc.horizon == 10

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_dict({"plannt": {}})

    def test_nested_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_dict({"plant": {"dtt": 0.5}})

    def test_type_checked(self):
        with pytest.raises(ConfigError):
            config_from_dict({"plant": {"dt": "fast"}})

    def test_hash_stable_and_sensitive(self):
        a = config_from_dict({"seed": 1})
        b = config_from_dict({"seed": 1})
        c = config_from_dict({"seed": 2})
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.yaml")

    # a changed hash stales the stored benchmark model, whose meta file pins the desk hash
    @pytest.mark.parametrize("name, digest", [
        ("desk.yaml", "a0a14b8f59e4547d"),
        ("paper_scale.yaml", "fbf8ad5c96c849b9"),
    ])
    def test_shipped_config_hash_pinned(self, name, digest):
        assert config_hash(load_config(CONFIGS / name)) == digest

    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.name)
    def test_shipped_config_same_under_libyaml(self, path):
        text = path.read_text()
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)


# each value breaks a type or a rule of its runtime config class, so it must fail at load
INVALID = {
    "layer_count": {"model": {"hidden_sizes": [30, 20], "modulated": [True]}},
    "val_fraction": {"model": {"val_fraction": 1.0}},
    "hyper_input": {"model": {"hyper_input": "foo"}},
    "batch_size": {"model": {"batch_size": 2.5}},
    "u_hold": {"excitation": {"u_hold": 0}},
    "n_points": {"excitation": {"n_points": 0}},
    "dt": {"plant": {"dt": -0.5}},
    "regularizer": {"controllers": {"deepc": {"regularizer": "foo"}}},
    "r_weight": {"controllers": {"npv_deepc": {"r": [0.1, 0.0]}}},
    "kernel_slack": {"controllers": {"npv_deepc": {"kernel_slack": True}}},
    "t_ini": {"controllers": {"npv_deepc": {"t_ini": 0}}},
    "q_length": {"controllers": {"mpc": {"q": [1.0, 0.0, 0.0]}}},
    "r_length": {"controllers": {"deepc": {"r": [0.1, 0.1, 0.1]}}},
    "sweep_distance": {"scenario": {"sweep_distances": [8.0]}},
    "d_schedule": {"scenario": {"d_schedule": [[0.0, 9.0]]}},
    "n_steps": {"scenario": {"n_steps": 0}},
    "cem_d_schedule": {"cem_scenario": {"d_schedule": [[0.0, 2.5], [10.0, 1.0]]}},
    "empty_reference": {"scenario": {"reference": []}},
    "empty_d_schedule": {"scenario": {"d_schedule": []}},
    "empty_cem_d_schedule": {"cem_scenario": {"d_schedule": []}},
    "empty_sweep_distances": {"scenario": {"sweep_distances": []}},
    "empty_controllers": {"scenario": {"controllers": []}},
    "repeated_controller": {"scenario": {"controllers": ["mpc", "deepc", "mpc"]}},
    "repeated_sweep_distance": {"scenario": {"sweep_distances": [2.0, 3.0, 2.0]}},
    "npv_lambda_g": {"controllers": {"npv_deepc": {"lambda_g": 1.0e12}}},
    "mpc_regularizer": {"controllers": {"mpc": {"regularizer": "two_norm"}}},
    "cem_lambda_sigma": {"controllers": {"cem": {"lambda_sigma": 1.0}}},
    "no_hidden_layer": {"model": {"hidden_sizes": [], "modulated": []}},
    "zero_width_layer": {"model": {"hidden_sizes": [0]}},
    "max_epochs": {"model": {"max_epochs": 0}},
    "noise_sigma": {"scenario": {"noise_sigma": -0.1}},
    "cem_noise_sigma": {"cem_scenario": {"noise_sigma": -0.1}},
    "mpc_empty_regressor": {"controllers": {"mpc": {"n_a": 0, "n_b": 0}}},
    "mpc_no_input_lag": {"controllers": {"mpc": {"n_a": 2, "n_b": 0}}},
    "learning_rate": {"model": {"learning_rate": -0.1}},
    "zero_learning_rate": {"model": {"learning_rate": 0.0}},
    "k_deepc": {"hankel": {"k_deepc": 9}},
    "k_neural": {"hankel": {"k_neural": 9}},
    "k_neural_cem": {"hankel": {"k_neural": 12}, "controllers": {"cem": {"t_ini": 4, "horizon": 9}}},
    "nan_kkt_tol": {"controllers": {"mpc": {"kkt_tol": float("nan")}}},
    "negative_kkt_tol": {"controllers": {"npv_deepc": {"kkt_tol": -1.0}}},
    "nan_q_weight": {"controllers": {"deepc": {"q": [float("nan"), 0.0]}}},
    "nan_lambda_g": {"controllers": {"deepc": {"lambda_g": float("nan")}}},
    "inf_learning_rate": {"model": {"learning_rate": float("inf")}},
    "huge_int_dt": {"plant": {"dt": 10**400}},
    "nan_plant_a_s": {"plant": {"a_s": float("nan")}},
    "nan_reference_value": {"scenario": {"reference": [[0.0, 28.0], [8.0, float("nan")]]}},
    "nan_target_margin": {"controllers": {"cem": {"target_margin": float("nan")}}},
    "unordered_reference": {"scenario": {"reference": [[20.0, 29.0], [0.0, 28.0]]}},
    "unordered_d_schedule": {"scenario": {"d_schedule": [[0.0, 3.0], [6.0, 4.0], [6.0, 5.0]]}},
    "unordered_cem_d_schedule": {"cem_scenario": {"d_schedule": [[0.0, 2.5], [29.5, 2.5], [24.5, 3.5]]}},
    "empty_output_box_margin": {"scenario": {"y_ub_margin": 30.0}},
    "empty_output_box_relax": {"scenario": {"y_lb_relax": -30.0}},
    "cem_empty_output_box": {"controllers": {"cem": {"y_ub_margin": 30.0}}},
    "deepc_horizon": {"controllers": {"deepc": {"horizon": 8}}},
    "neural_deepc_t_ini": {"controllers": {"neural_deepc": {"t_ini": 3}}},
    "cem_r_du": {"controllers": {"cem": {"r_du": 0.0}}},
}


class TestCliFlow:
    def test_invalid_config_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("plant:\n  zzz: 1\n")
        assert main(["collect", "--config", str(bad)]) == 2
        bad.write_text("plant: [1,\n")
        assert main(["collect", "--config", str(bad)]) == 2
        assert "invalid YAML" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(INVALID))
    def test_invalid_value_exit_code(self, tmp_path, capsys, case):
        cfg_path = write_config(tmp_path, INVALID[case])
        assert main(["collect", "--config", str(cfg_path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out" / "dataset.csv").exists()

    def test_train_without_validation_split(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"model": {"val_fraction": 0.0, "max_epochs": 5, "patience": 5}})
        out = tmp_path / "out"
        assert main(["collect", "--config", str(cfg_path)]) == 0
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert "validation n/a" in capsys.readouterr().out
        report = json.loads((out / "train_report.json").read_text())
        assert report["bfr_validation_percent"] is None
        assert (out / "model.json").exists()

    def test_run_reuses_dataset_without_model(self, tmp_path, monkeypatch):
        """A dataset on disk feeds the pipeline even when the model must be trained."""
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["collect", "--config", str(cfg_path), "--seed", "99"]) == 0
        passed = {}
        monkeypatch.setattr(cli, "build_pipeline",
                            lambda cfg, traj=None, model=None: passed.update(traj=traj, model=model))
        cli._pipeline_for_run(load_config(cfg_path), out)
        on_disk = load_trajectory_csv(out / "dataset.csv", dt=0.5)
        assert passed["model"] is None
        assert np.array_equal(passed["traj"].u, on_disk.u) and np.array_equal(passed["traj"].y, on_disk.y)
        assert not np.array_equal(on_disk.u, build_dataset(load_config(cfg_path)).u)

    def test_missing_data_exit_code(self, tmp_path):
        cfg_path = write_config(tmp_path)
        assert main(["train", "--config", str(cfg_path)]) == 3

    def test_non_finite_window_exit_code(self, tmp_path, monkeypatch):
        def track_on_nan_window(cfg, out):
            check_window(ControllerConfig(), np.full(10, np.nan), np.zeros(10))

        monkeypatch.setitem(cli.COMMANDS, "track", track_on_nan_window)
        assert main(["track", "--config", str(write_config(tmp_path))]) == 3

    def test_narrow_feature_layer_exit_code(self, tmp_path, capsys):
        # nu_L + 1 = 9 stacked features cannot span n_y*N = 12 predicted outputs
        cfg_path = write_config(tmp_path, {"model": {"hidden_sizes": [8]}})
        assert main(["track", "--config", str(cfg_path)]) == 3
        assert "data error: kmat has rank" in capsys.readouterr().err

    def test_diverged_training_exit_code(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"model": {"learning_rate": 1e200, "max_epochs": 5}})
        assert main(["collect", "--config", str(cfg_path)]) == 0
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["train", "--config", str(cfg_path)]) == 4
        assert "solver error: training diverged" in capsys.readouterr().err
        assert not (tmp_path / "out" / "model.json").exists()

    def test_solver_error_exit_code(self, tmp_path, capsys, monkeypatch):
        def track_without_solution(cfg, out):
            raise SolverError("no feasible input")

        monkeypatch.setitem(cli.COMMANDS, "track", track_without_solution)
        assert main(["track", "--config", str(write_config(tmp_path))]) == 4
        assert "solver error: no feasible input" in capsys.readouterr().err

    def test_failed_verification_exit_code(self, tmp_path, capsys):
        # the flow held over the first k_neural samples: the inputs under the
        # neural Hankel are not persistently exciting, and only that check fails
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["collect", "--config", str(cfg_path)]) == 0
        traj = load_trajectory_csv(out / "dataset.csv", dt=0.5)
        u = traj.u.copy()
        u[:SMALL["hankel"]["k_neural"], 1] = 2.0
        save_trajectory_csv(dataclasses.replace(traj, u=u), out / "dataset.csv")
        assert main(["verify", "--config", str(cfg_path)]) == 5
        report = json.loads((out / "verify_report.json").read_text())
        assert [name for name, entry in report["checks"].items() if not entry["passed"]] == ["input_pe_rank"]
        assert not report["all_passed"]
        assert "verification failed" in capsys.readouterr().err

    @pytest.mark.parametrize("command, case", [
        ("train", "dataset_value"),
        ("track", "dataset_value"),
        ("track", "dataset_short_row"),
        ("track", "model_not_json"),
        ("track", "model_without_layer_specs"),
        ("verify", "model_schema_version"),
        ("verify", "model_not_an_object"),
        ("verify", "model_without_sens_w"),
        ("verify", "model_out_w_short"),
        ("verify", "model_layer_out_dim"),
        ("verify", "model_scaler_channels"),
        ("train", "dataset_nan"),
        ("track", "dataset_nan"),
    ])
    def test_corrupt_file_exit_code(self, tmp_path, capsys, command, case):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        path = _corrupt_file(out, case)
        assert main([command, "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: cannot read") and str(path) in err

    def test_collect_deterministic_bytes(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["collect", "--config", str(cfg_path)]) == 0
        first = (out / "dataset.csv").read_bytes()
        assert main(["collect", "--config", str(cfg_path)]) == 0
        assert (out / "dataset.csv").read_bytes() == first
        traj = load_trajectory_csv(out / "dataset.csv", dt=0.5)
        assert traj.n_samples == 700

    def test_seed_override_changes_data(self, tmp_path):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["collect", "--config", str(cfg_path)]) == 0
        base = (out / "dataset.csv").read_bytes()
        assert main(["collect", "--config", str(cfg_path), "--seed", "99"]) == 0
        assert (out / "dataset.csv").read_bytes() != base


def _corrupt_file(out: Path, case: str) -> Path:
    """Write the corrupt dataset or model file of ``case`` into ``out``; returns its path.

    A model file is a random model at the horizons of ``SMALL``, so that only
    its corruption can keep the pipeline from being built on it.
    """
    if case.startswith("dataset"):
        row = {
            "dataset_value": "0,abc,2.0,30.0,40.0,3.0",
            "dataset_short_row": "0,4.0,2.0,30.0",
            "dataset_nan": "0,4.0,2.0,nan,40.0,3.0",
        }[case]
        path = out / "dataset.csv"
        path.write_text(",".join(TRAJECTORY_CSV_HEADER) + "\n" + row + "\n")
        return path
    path = out / "model.json"
    if case in ("model_not_json", "model_not_an_object"):
        path.write_text('{"schema_version": 1, "dims": ' if case == "model_not_json" else "[1, 2]")
        return path
    save_model(random_model(np.random.default_rng(0), t_ini=4, horizon=6, hidden=(16,)), path)
    doc = json.loads(path.read_text())
    if case == "model_without_layer_specs":
        del doc["layer_specs"]
    elif case == "model_without_sens_w":
        del doc["params"]["h0_sens_w"]
    elif case == "model_out_w_short":
        doc["params"]["out_w"] = [row[:-1] for row in doc["params"]["out_w"]]
    elif case == "model_layer_out_dim":
        doc["layer_specs"][0]["out_dim"] = 15
    elif case == "model_scaler_channels":
        doc["scalers"]["u"] = {"lo": [-1.0], "hi": [1.0]}
    else:
        doc["schema_version"] = 99
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def trained_out(tmp_path_factory):
    """collect + train once for the heavier command tests."""
    tmp_path = tmp_path_factory.mktemp("cli")
    cfg_path = write_config(tmp_path)
    assert main(["collect", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path)]) == 0
    return cfg_path, tmp_path / "out"


class TestPipelineCommands:
    def test_train_report(self, trained_out):
        cfg_path, out = trained_out
        report = json.loads((out / "train_report.json").read_text())
        assert "bfr_train_percent" in report and "bfr_validation_percent" in report
        assert report["bfr_train_percent"] > 0
        assert len(report["loss_history"]["train"]) == report["epochs_run"]
        timing = json.loads((out / "train_timing.json").read_text())["timing"]
        assert timing["epochs"] == report["epochs_run"]
        assert timing["fit_wall_s"] > 0
        assert timing["ms_per_epoch"] == pytest.approx(1e3 * timing["fit_wall_s"] / timing["epochs"])

    def test_model_reload_bit_identical(self, trained_out):
        from npvdeepc.hypernet import load_model

        cfg_path, out = trained_out
        m1 = load_model(out / "model.json")
        m2 = load_model(out / "model.json")
        for key in m1.params:
            assert np.array_equal(m1.params[key], m2.params[key])

    def test_verify_writes_report(self, trained_out):
        cfg_path, out = trained_out
        code = main(["verify", "--config", str(cfg_path)])
        report = json.loads((out / "verify_report.json").read_text())
        assert set(report["checks"]) >= {
            "willems_membership", "input_pe_rank", "neural_hankel_rank",
            "projector", "lemma2_equivalence", "jacobian_fd", "problem_size",
        }
        assert code in (0, 5)
        assert (code == 0) == report["all_passed"]

    def test_track_outputs(self, trained_out):
        cfg_path, out = trained_out
        assert main(["track", "--config", str(cfg_path)]) == 0
        doc = json.loads((out / "track_metrics.json").read_text())
        assert set(doc["metrics"]) == {"npv_deepc", "neural_deepc", "deepc", "mpc"}
        steps = (out / "track_npv_deepc_steps.csv").read_text().splitlines()
        assert steps[0].startswith("k,t,r_ts,d,Ts,Tg")
        assert len(steps) == 1 + 25
        # applied inputs inside the operating box
        import csv as csvmod

        rows = list(csvmod.DictReader(steps))
        for row in rows:
            assert 1.5 <= float(row["P"]) <= 8.0
            assert 1.0 <= float(row["q"]) <= 6.0

    def test_track_deterministic_rerun(self, trained_out):
        cfg_path, out = trained_out
        first = (out / "track_metrics.json").read_bytes()
        first_steps = (out / "track_npv_deepc_steps.csv").read_bytes()
        assert main(["track", "--config", str(cfg_path)]) == 0
        assert (out / "track_metrics.json").read_bytes() == first
        assert (out / "track_npv_deepc_steps.csv").read_bytes() == first_steps
