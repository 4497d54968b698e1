"""Tests of the benchmark's own helpers: statistics, tracing and output checks.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import stats
import tracer as tracing
import workloads
from checks import CheckError
from npvdeepc import baseline, deepc, experiments, optim
from npvdeepc.hankel import partition
from npvdeepc.hypernet import TrainConfig, WindowDataset, predict_batch, train
from npvdeepc.npv import hankel_with_params, transform_hankel
from npvdeepc.plant import ExcitationConfig, SurrogatePlant, collect_open_loop

T_INI, HORIZON = 2, 3


# ----- statistics ------------------------------------------------------------


def test_p95_needs_ten_samples_beyond_it():
    assert stats.min_samples(95) == 200
    assert stats.min_samples(50) == 20
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(range(199), 95)
    values = np.random.default_rng(0).exponential(size=200)
    assert stats.percentile(values, 95) == pytest.approx(np.percentile(values, 95), rel=1e-12)
    assert sum(v > stats.percentile(values, 95) for v in values) >= 10


# ----- tracing ---------------------------------------------------------------


def test_self_time_subtracts_child_spans():
    ticks = iter([0.0, 1.0, 4.0, 5.0, 6.0, 7.0, 9.0, 10.0])
    tr = tracing.Tracer(clock=lambda: next(ticks))
    a = tr.open("a")            # a: [0, 10]
    b = tr.open("b")            #   b: [1, 4]
    tr.close(b)
    c = tr.open("c")            #   c: [5, 9]
    d = tr.open("b")            #     b: [6, 7]
    tr.close(d)
    tr.close(c)
    tr.close(a)
    summ = tr.summary()
    assert summ["a"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert summ["c"] == {"calls": 1, "total_s": 4.0, "self_s": 3.0}
    assert summ["b"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}
    assert [s[1] for s in tr.spans] == [-1, 0, 0, 2]


def test_install_counts_calls_and_uninstall_restores():
    originals = (optim.solve_qp, deepc.solve_qp, baseline.solve_qp, SurrogatePlant.step)
    tr = tracing.Tracer()
    tracing.install_npvdeepc(tr)
    try:
        assert deepc.solve_qp is optim.solve_qp is baseline.solve_qp
        assert deepc.solve_qp is not originals[0]
        plant = SurrogatePlant()
        for _ in range(3):
            plant.step(np.array([4.0, 2.0]), 3.0)
        # min (x0 - 1)^2 + (x1 - 2)^2  s.t.  x0^2 - x1 = 0
        cost = lambda x: (float((x[0] - 1) ** 2 + (x[1] - 2) ** 2), 2 * (x - [1, 2]), 2 * np.eye(2))
        eq = lambda x: (np.array([x[0] ** 2 - x[1]]), np.array([[2 * x[0], -1.0]]))
        _, diag = optim.solve_sqp(cost, eq, [-5, -5], [5, 5], np.array([0.5, 0.5]))
    finally:
        tr.uninstall()
    assert (optim.solve_qp, deepc.solve_qp, baseline.solve_qp, SurrogatePlant.step) == originals
    m = {k: v for k, (v, _) in tracing.per_layer_metrics(tr).items()}
    assert m["plant.SurrogatePlant.step.calls"] == 3
    assert m["optim.solve_sqp.calls"] == 1
    assert m["optim.solve_sqp.iterations"] == diag.iterations
    assert m[f"optim.solve_sqp.status_{diag.status}"] == 1
    assert m["optim.solve_qp.calls"] >= 1
    assert 0 < m["optim.solve_sqp.eq_evals_distinct"] <= m["optim.solve_sqp.eq_evals"]
    assert m["optim.solve_sqp.eq_ms"] > 0


# ----- output checks -----------------------------------------------------------


@pytest.fixture(scope="module")
def small():
    plant = SurrogatePlant()
    traj = collect_open_loop(plant, ExcitationConfig(d_hold_min=10, d_hold_max=40), 400, seed=3)
    ds = WindowDataset.from_trajectory(traj, T_INI, HORIZON)
    model = train(ds, TrainConfig(hidden_sizes=(6,), max_epochs=8, patience=8, batch_size=64), seed=1)
    hs, p_cols = hankel_with_params(traj, T_INI, HORIZON, n_cols=60)
    nh = transform_hankel(model, hs, p_cols)
    return traj, ds, model, nh


def test_forward_pass_check(small):
    _, ds, model, _ = small
    ref = checks.reference_forward(model.params, model.scalers, ds, model.dims.hyper_input)
    checks.check_predictions(predict_batch(model, ds), ref)
    bad = predict_batch(model, ds)
    bad[7, 1, 0] += 1e-6
    with pytest.raises(CheckError):
        checks.check_predictions(bad, ref)


def test_training_loss_check(small):
    _, _, model, _ = small
    checks.check_training_loss(model.history.train_loss)
    with pytest.raises(CheckError):
        checks.check_training_loss(model.history.train_loss[::-1])


def test_neural_hankel_check(small):
    *_, nh = small
    checks.check_neural_hankel(nh)
    bad_m = dataclasses.replace(nh, m=nh.m * (1 + 1e-6))
    with pytest.raises(CheckError, match="pseudo-inverse"):
        checks.check_neural_hankel(bad_m)
    theta = nh.theta_ls.copy()
    theta[0, 0] += 1e-9
    with pytest.raises(CheckError, match="theta_ls"):
        checks.check_neural_hankel(dataclasses.replace(nh, theta_ls=theta))


def test_projector_check(small):
    traj = small[0]
    pi = deepc.build_projector(partition(traj, T_INI, HORIZON, n_cols=80))
    checks.check_projector(pi)
    with pytest.raises(CheckError):
        checks.check_projector(pi * 1.001)
    skew = pi.copy()
    skew[0, 1] += 1e-6
    with pytest.raises(CheckError):
        checks.check_projector(skew)


def test_arx_check(small):
    traj = small[0]
    arx = baseline.identify_arx(traj, 3, 3)
    checks.check_arx(arx, traj.u, traj.y)
    bad = dataclasses.replace(arx, intercept=arx.intercept + 1e-4)
    with pytest.raises(CheckError):
        checks.check_arx(bad, traj.u, traj.y)


def _records(errors):
    return [experiments.LoopRecord(k=5 + i, t=0.5 * i, r_ts=30.0, d=3.0, y_true=np.array([30.0 + e, 40.0]),
                                   y_meas=np.zeros(2), u=np.zeros(2), cost=0.0, iterations=1,
                                   kkt_residual=0.0, status="optimal", wall_time_s=1e-3)
            for i, e in enumerate(errors)]


def test_rmse_and_hold_checks():
    recs = _records([0.3, -0.4, 0.0, 0.5])
    rmse = experiments.tracking_metrics(recs, 5).rmse
    checks.check_rmse(rmse, recs)
    with pytest.raises(CheckError):
        checks.check_rmse(rmse * (1 + 1e-9), recs)
    checks.check_beats_hold(rmse, rmse + 1e-3, "loop")
    with pytest.raises(CheckError):
        checks.check_beats_hold(rmse, rmse, "loop")


def test_hold_baseline_matches_bench_scenario():
    cfg = workloads.run_config(0)
    s = workloads._scenarios(cfg)[0]
    hold = workloads._hold_rmse(cfg, s.reference, s.d_schedule, s.n_steps, 5)
    assert 0.45 < hold < 0.55


# ----- stored model and entry point -------------------------------------------


def test_stored_model_matches_config_and_refuses_other_hash(tmp_path, monkeypatch):
    cfg = workloads.run_config(7)
    model, model_seed = workloads.load_desk_model(cfg)
    assert model_seed == 0
    assert model.dims.horizon == cfg.controllers.npv_deepc.horizon
    meta = json.loads(workloads.MODEL_META.read_text())
    meta["config_hash"] = "0" * 16
    fake = tmp_path / "meta.json"
    fake.write_text(json.dumps(meta))
    monkeypatch.setattr(workloads, "MODEL_META", fake)
    with pytest.raises(workloads.ModelMismatch):
        workloads.load_desk_model(cfg)
    monkeypatch.undo()
    longer = dataclasses.replace(cfg, scenario=dataclasses.replace(cfg.scenario, n_steps=121))
    with pytest.raises(workloads.ModelMismatch):
        workloads.load_desk_model(longer)


def test_tracking_loops_do_not_follow_the_workload_seed():
    # the noisy loop's noise comes from the model's seed, so failures cannot follow --seed
    wl = workloads.WORKLOADS["track_mpc"]
    assert wl.setup(5).cfg.seed == wl.setup(6).cfg.seed == 0


def test_entry_point_fails_without_program_sources(tmp_path):
    shutil.copytree(workloads.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
