"""End-to-end acceptance suite.

Each test implements one release criterion at its stated tolerance and prints
one PASS/FAIL line.  The heavy products (dataset, trained model, Hankel
operators, benchmark runs) are built once per session from the desk-scale
configuration in ``configs/desk.yaml`` with a fixed seed (the ``cfg`` and
``pipe`` fixtures live in ``conftest.py``).  A few guards
without a criterion of their own read the same products.
"""

import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

from npvdeepc.experiments import (
    run_bench,
    run_cem,
    run_distance_sweep,
    run_verification,
)

_RESULTS = []


def _report(criterion: str, passed: bool, detail: str = "") -> None:
    line = f"[{'PASS' if passed else 'FAIL'}] {criterion}" + (f"  ({detail})" if detail else "")
    print(line)
    _RESULTS.append(line)
    assert passed, line


@pytest.fixture(scope="session")
def verification(cfg, pipe):
    return run_verification(cfg, pipe)


@pytest.fixture(scope="session")
def bench_outputs(cfg, pipe, tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    t0 = time.perf_counter()
    doc = run_bench(cfg, out, pipe=pipe)
    return doc, out, time.perf_counter() - t0


@pytest.fixture(scope="session")
def sweep_outputs(cfg, pipe, tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    t0 = time.perf_counter()
    doc = run_distance_sweep(cfg, out, pipe=pipe)
    return doc, out, time.perf_counter() - t0


@pytest.fixture(scope="session")
def cem_outputs(cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("cem")
    doc = run_cem(cfg, out)
    return doc, out


def test_criterion_01_willems_exactness(cfg, verification):
    t0 = time.perf_counter()
    entry = verification["checks"]["willems_membership"]
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 1: Willems membership accepts 100/100 fresh, rejects 100/100 perturbed",
        entry["passed"],
        f"accepted={entry['accepted_fresh']}/100 rejected={entry['rejected_perturbed']}/100",
    )


def test_criterion_02_pe_and_neural_rank(verification, pipe):
    pe = verification["checks"]["input_pe_rank"]
    nh = verification["checks"]["neural_hankel_rank"]
    ok = pe["passed"] and nh["passed"] and nh["required"] == 31
    _report(
        "criterion 2: input Hankel full row rank and neural Hankel rank 31",
        ok,
        f"input rank {pe['rank']}/{pe['required']}, neural rank {nh['rank']}/{nh['required']}",
    )


def test_criterion_03_projector(verification):
    entry = verification["checks"]["projector"]
    _report(
        "criterion 3: projector idempotent/symmetric/Pythagoras within 1e-10",
        entry["passed"],
        f"idem={entry['idempotence']:.1e} sym={entry['symmetry']:.1e} pyth={entry['pythagoras']:.1e}",
    )


def test_criterion_04_lemma2_equivalence(verification):
    entry = verification["checks"]["lemma2_equivalence"]
    _report(
        "criterion 4: exact-construction predictions agree within 1e-8 over 50 windows",
        entry["passed"],
        f"max gap {entry['max_prediction_gap']:.2e}, null violation {entry['null_violation']:.2e}",
    )


def test_criterion_05_jacobian(verification):
    entry = verification["checks"]["jacobian_fd"]
    _report(
        "criterion 5: analytic feature Jacobian vs central differences < 1e-6 (100 pairs)",
        entry["passed"],
        f"max relative error {entry['max_relative_error']:.2e}",
    )


def test_criterion_06_problem_size(cfg, pipe):
    from npvdeepc.experiments import controller_config, BoxConstraints
    from npvdeepc.npv import problem_size

    size = problem_size(
        controller_config(cfg.controllers.npv_deepc, 0.0, 0.0, BoxConstraints()),
        pipe.model.nu_l,
    )
    ok = size == {
        "decision_variables": 91,
        "equality_constraints": 51,
        "inequality_constraints": 80,
    }
    _report("criterion 6: problem size 91 variables / 51 equalities / 80 inequalities", ok, str(size))


def test_criterion_07_model_quality(cfg, pipe):
    from npvdeepc.experiments import evaluate_bfr_split
    from npvdeepc.hypernet import WindowDataset

    ctl = cfg.controllers.npv_deepc
    ds = WindowDataset.from_trajectory(pipe.traj, ctl.t_ini, ctl.horizon)
    bfr_val = evaluate_bfr_split(pipe.model, ds, cfg.model.val_fraction)["validation"]
    ok = bfr_val is not None and bfr_val >= 85.0 and pipe.build_seconds < 600.0
    _report(
        "criterion 7: held-out BFR >= 85% within 10 min training",
        ok,
        f"validation BFR {bfr_val:.2f}%, pipeline build {pipe.build_seconds:.0f}s",
    )


def test_criterion_08_tracking_ordering(bench_outputs, sweep_outputs):
    bench_doc, _, bench_s = bench_outputs
    sweep_doc, _, sweep_s = sweep_outputs
    m = bench_doc["metrics"]["noise_free"]
    order_ok = m["npv_deepc"]["rmse"] < m["neural_deepc"]["rmse"] < m["mpc"]["rmse"]
    npv_ok = m["npv_deepc"]["rmse"] <= 0.5
    sweep_ok = all(
        rows["npv_deepc"] == min(rows.values()) for rows in sweep_doc["rmse"].values()
    )
    runtime_ok = bench_s + sweep_s < 600.0
    _report(
        "criterion 8: RMSE ordering NPV < neural < MPC, NPV <= 0.5 degC, NPV best at all distances",
        order_ok and npv_ok and sweep_ok and runtime_ok,
        f"npv={m['npv_deepc']['rmse']:.3f} neural={m['neural_deepc']['rmse']:.3f} "
        f"mpc={m['mpc']['rmse']:.3f} deepc={m['deepc']['rmse']:.3f} "
        f"sweep_best={sweep_ok} runtime={bench_s + sweep_s:.0f}s",
    )


def _scan_steps_csv(path: Path):
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    u = np.array([[float(r["P"]), float(r["q"])] for r in rows])
    y = np.array([[float(r["Ts"]), float(r["Tg"])] for r in rows])
    return u, y


def test_criterion_09_constraints(bench_outputs, sweep_outputs, cem_outputs):
    _, bench_dir, _ = bench_outputs
    _, sweep_dir, _ = sweep_outputs
    _, cem_dir = cem_outputs
    u_lo, u_hi = np.array([1.5, 1.0]), np.array([8.0, 6.0])
    y_lo, y_hi = np.array([25.0, 20.0]), np.array([42.5, 80.0])
    input_violations = 0
    worst_output = 0.0
    n_files = 0
    for folder in (bench_dir, sweep_dir, cem_dir):
        for path in sorted(Path(folder).glob("*_steps.csv")):
            u, y = _scan_steps_csv(path)
            n_files += 1
            input_violations += int(np.sum((u < u_lo - 1e-12) | (u > u_hi + 1e-12)))
            over = np.maximum(y - y_hi, 0.0)
            worst_output = max(worst_output, float(over.max()))
    ok = input_violations == 0 and worst_output <= 0.1 and n_files > 0
    _report(
        "criterion 9: zero input violations; output excursions within 0.1 degC",
        ok,
        f"{n_files} runs, input violations {input_violations}, worst output excursion {worst_output:.4f}",
    )


def test_criterion_10_cem(cem_outputs):
    doc, _ = cem_outputs
    details = []
    ok = True
    for label, s in doc["runs"].items():
        run_ok = (
            s["monotone"]
            and s["within_tolerance"]
            and s["rate_min_over_median"] >= 0.7
            and s["rate_max_over_median"] <= 1.3
        )
        ok = ok and run_ok
        details.append(
            f"{label}: final={s['final_cem']:.3f}/target {s['target']:.3f} "
            f"rate band [{s['rate_min_over_median']:.2f},{s['rate_max_over_median']:.2f}]"
        )
    _report("criterion 10: dose monotone, lands in [target, target+0.1], steady rate", ok, "; ".join(details))


def test_criterion_11_timing(bench_outputs):
    _, out, _ = bench_outputs
    timing = json.loads((Path(out) / "bench_timing.json").read_text())["timing"]
    worst = max(timing[noise]["npv_deepc"] for noise in timing)
    _report("criterion 11: mean per-step NPV solve time < 0.5 s", worst < 0.5, f"worst mean {worst * 1e3:.0f} ms")


def test_neural_bench_loops_end_without_max_iter(bench_outputs):
    # the neural controller's reduced Hessian is indefinite on some steps;
    # exact constraint curvature there must not stall its SQP at the cap
    _, out, _ = bench_outputs
    for noise in ("noise_free", "noisy"):
        with (Path(out) / f"bench_{noise}_neural_deepc_steps.csv").open() as fh:
            statuses = [row["status"] for row in csv.DictReader(fh)]
        assert statuses and "max_iter" not in statuses, noise


def test_criterion_12_determinism(cfg, pipe, tmp_path_factory):
    out_a = tmp_path_factory.mktemp("det_a")
    out_b = tmp_path_factory.mktemp("det_b")
    import dataclasses

    small = dataclasses.replace(
        cfg, scenario=dataclasses.replace(cfg.scenario, n_steps=30)
    )
    run_bench(small, out_a, pipe=pipe)
    run_bench(small, out_b, pipe=pipe)
    mismatches = []
    names = ["bench_metrics.json", "bench_table.csv"] + [p.name for p in sorted(Path(out_a).glob("*_steps.csv"))]
    for name in names:
        if (Path(out_a) / name).read_bytes() != (Path(out_b) / name).read_bytes():
            mismatches.append(name)
    _report(
        "criterion 12: identical config+seed reruns produce byte-identical metric files",
        not mismatches,
        f"compared {len(names)} files" + (f"; mismatches {mismatches}" if mismatches else ""),
    )
