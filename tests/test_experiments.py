import csv
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from npvdeepc import experiments
from npvdeepc.config import RunConfig, load_config
from npvdeepc.control import ControllerConfig, StepResult
from npvdeepc.experiments import LoopRecord, cem_summary, piecewise, run_cem_loop, surrogate_from_config
from npvdeepc.plant import CEM_KAPPA, CEM_REFERENCE_TEMP, PlantState

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _distinct_step(k, horizon):
    """The k-th input of a stand-in controller, distinct at every step."""
    u = np.array([2.0 + 0.5 * k, 1.5 + 0.25 * k])
    step = StepResult(
        u_apply=u, u_seq=np.tile(u, (horizon, 1)), y_pred=np.zeros((horizon, 2)), cost=0.0,
        status="optimal", iterations=0, kkt_residual=0.0, wall_time_s=0.0,
    )
    return u, step


class RecordingCem:
    """Stand-in dose controller: logs the u_prev it is given, returns distinct inputs."""

    def __init__(self, nh, cfg, cem_target, dt, r_du):
        self.cfg = cfg
        self.u_prev_seen = []
        self.goals = []

    def solve_step(self, u_ini, y_ini, p_hist, cem_now, u_prev):
        self.u_prev_seen.append(np.asarray(u_prev, dtype=float).copy())
        self.goals.append(cem_now)
        return _distinct_step(len(self.u_prev_seen) - 1, self.cfg.horizon)


class RecordingTracker:
    """Stand-in tracking controller: logs the arguments of every step."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.calls = []
        self.windows = []

    def solve_step(self, u_ini, y_ini, p_hist, goal, u_prev):
        self.calls.append((np.array(p_hist, dtype=float), np.array(goal, dtype=float),
                           np.array(u_prev, dtype=float)))
        self.windows.append((np.array(u_ini, dtype=float), np.array(y_ini, dtype=float)))
        return _distinct_step(len(self.calls) - 1, self.cfg.horizon)


def test_tracking_loop_step_protocol():
    """Each step gets the scheduled distances of its window, the goal
    [r(t), 45.0] and, as u_prev, the loop's start input: the tracking loop
    does not advance u_prev (a known defect, see ROADMAP.md)."""
    cfg = RunConfig()
    ctl = RecordingTracker(ControllerConfig(t_ini=3, horizon=4))
    reference = ((0.0, 30.0), (2.0, 31.0))
    d_schedule = ((0.0, 3.0), (1.0, 4.0), (2.5, 5.0))
    records = experiments.run_tracking_loop(
        cfg, ctl, 0.0, "protocol", reference=reference, d_schedule=d_schedule, n_steps=5,
    )
    plant = surrogate_from_config(cfg)
    u_start = experiments.steady_input_for(30.0, 3.0, plant.constants, plant.box)
    assert len(ctl.calls) == len(records) == 5
    for (p_hist, goal, u_prev), rec in zip(ctl.calls, records):
        window = [piecewise(d_schedule, j * plant.dt) for j in range(rec.k - 3, rec.k)]
        assert np.array_equal(p_hist, window)
        assert np.array_equal(goal, [piecewise(reference, rec.t), 45.0])
        assert np.array_equal(u_prev, u_start)
    # the windows span every distance of the schedule and both references
    assert {tuple(p) for p, _, _ in ctl.calls} >= {(3.0, 3.0, 4.0), (4.0, 4.0, 5.0)}
    assert {g[0] for _, g, _ in ctl.calls} == {30.0, 31.0}


def test_ambient_start_warms_up_on_the_input_floor():
    """With ``initial: ambient`` the plant starts at ambient temperature and
    the t_ini warm-up steps hold box.u_lo: the first step's window shows
    both, and its u_prev is u_lo."""
    cfg = RunConfig()
    cfg = dataclasses.replace(cfg, scenario=dataclasses.replace(cfg.scenario, initial="ambient"))
    ctl = RecordingTracker(ControllerConfig(t_ini=3, horizon=4))
    records = experiments.run_tracking_loop(cfg, ctl, 0.0, "ambient", n_steps=2)
    plant = surrogate_from_config(cfg)
    u_lo = np.asarray(plant.box.u_lo, dtype=float)
    plant.reset(PlantState(d=piecewise(cfg.scenario.d_schedule, 0.0)))
    assert plant.outputs()[0] == plant.constants.t_amb
    y_warm = []
    for k in range(3):
        y_warm.append(plant.outputs())
        plant.step(u_lo, piecewise(cfg.scenario.d_schedule, k * plant.dt))
    u_ini, y_ini = ctl.windows[0]
    assert np.array_equal(u_ini, np.tile(u_lo, 3))
    assert np.array_equal(y_ini, np.ravel(y_warm))
    assert np.array_equal(ctl.calls[0][2], u_lo)
    assert records[0].k == 3 and np.array_equal(records[0].y_true, plant.outputs())


def test_steps_csv_carries_solver_counts(tmp_path):
    """Each step's iterations, QP iterations and clipped subproblems reach
    its LoopRecord and the step file's columns."""
    cfg = RunConfig()
    ctl = RecordingTracker(ControllerConfig(t_ini=3, horizon=4))
    solve_step = ctl.solve_step

    def counted(*args):
        u, step = solve_step(*args)
        k = len(ctl.calls)
        step.iterations, step.qp_iterations, step.clipped = k, 3 * k, k % 2
        return u, step

    ctl.solve_step = counted
    records = experiments.run_tracking_loop(cfg, ctl, 0.0, "counts", n_steps=4)
    assert [(r.iterations, r.qp_iterations, r.clipped) for r in records] == [(k, 3 * k, k % 2) for k in range(1, 5)]
    experiments.write_steps_csv(tmp_path / "steps.csv", records)
    with (tmp_path / "steps.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0])[11:16] == ["iterations", "qp_iterations", "clipped", "kkt_residual", "status"]
    assert [(r["iterations"], r["qp_iterations"], r["clipped"]) for r in rows] == [
        (str(k), str(3 * k), str(k % 2)) for k in range(1, 5)]


def test_distance_sweep_creates_output_dir(tmp_path, monkeypatch):
    cfg = RunConfig()
    cfg = dataclasses.replace(cfg, scenario=dataclasses.replace(cfg.scenario, controllers=("mpc",), sweep_n_steps=5))
    monkeypatch.setattr(experiments, "make_controller",
                        lambda *args: RecordingTracker(ControllerConfig(t_ini=3, horizon=4)))
    out = tmp_path / "fresh" / "sweep"
    doc = experiments.run_distance_sweep(cfg, out, pipe=object())
    rows = (out / "distance_sweep.csv").read_text().splitlines()
    assert rows[0] == "d_mm,controller,rmse"
    assert [row.split(",")[:2] for row in rows[1:]] == [[repr(d), "mpc"] for d in cfg.scenario.sweep_distances]
    assert set(doc["rmse"]) == {str(d) for d in cfg.scenario.sweep_distances}
    # one step file per distance and controller, whose series give that row's RMSE
    for d, row in zip(cfg.scenario.sweep_distances, rows[1:]):
        with (out / f"sweep_{d}_mpc_steps.csv").open() as fh:
            steps = list(csv.DictReader(fh))
        assert len(steps) == cfg.scenario.sweep_n_steps
        err = np.array([float(s["Ts"]) - float(s["r_ts"]) for s in steps])
        assert abs(math.sqrt(np.mean(err ** 2)) - float(row.split(",")[2])) <= 1e-12


def test_cem_loop_advances_u_prev(monkeypatch):
    made = []

    def factory(*args, **kwargs):
        made.append(RecordingCem(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(experiments, "CemController", factory)
    cfg = RunConfig()
    cfg = dataclasses.replace(cfg, cem_scenario=dataclasses.replace(cfg.cem_scenario, n_steps=5))
    records = run_cem_loop(cfg, None, 0.0, "u-prev")
    seen = made[0].u_prev_seen
    assert len(seen) == len(records) == 5
    assert np.array_equal(seen[0], surrogate_from_config(cfg).box.u_lo)
    for k in range(1, len(records)):
        assert np.array_equal(seen[k], records[k - 1].u)


def test_cem_goal_is_the_estimate_before_the_step(monkeypatch):
    """A dose step's goal is the estimate over the measurements before it;
    its own measurement, taken after the solve, enters the next goal."""
    made = []

    def factory(*args, **kwargs):
        made.append(RecordingCem(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(experiments, "CemController", factory)
    cfg = RunConfig()
    cfg = dataclasses.replace(cfg, cem_scenario=dataclasses.replace(cfg.cem_scenario, n_steps=20))
    records = run_cem_loop(cfg, None, 0.2, "goal")
    goals = made[0].goals
    assert records[-1].cem_est > records[-2].cem_est > 0.0  # the check below can tell the steps apart
    assert goals[0] == 0.0  # the ambient warm-up delivers no dose
    assert goals[1:] == [rec.cem_est for rec in records[:-1]]


def _dose_records(cem_series, dt=0.5):
    return [
        LoopRecord(
            k=k, t=k * dt, r_ts=0.0, d=2.5, y_true=np.zeros(2), y_meas=np.zeros(2),
            u=np.zeros(2), cost=0.0, iterations=0, kkt_residual=0.0, status="optimal",
            wall_time_s=0.0, cem_true=c,
        )
        for k, c in enumerate(cem_series)
    ]


def _band_ok(summary):
    return summary["rate_min_over_median"] >= 0.7 and summary["rate_max_over_median"] <= 1.3


class TestCemSummaryBand:
    def test_steady_delivery_passes(self):
        cfg = RunConfig()
        s = cem_summary(cfg, _dose_records(0.004 * np.arange(150)))
        assert (s["rate_min_over_median"], s["rate_max_over_median"]) == pytest.approx((1.0, 1.0))
        assert _band_ok(s)

    def test_empty_window_fails(self):
        cfg = RunConfig()
        s = cem_summary(cfg, _dose_records(np.zeros(150)))
        assert not _band_ok(s)

    def test_stall_inside_window_fails(self):
        cfg = RunConfig()
        lo, hi = cfg.cem_scenario.d_schedule[1][0], cfg.cem_scenario.d_schedule[2][0]
        t = 0.5 * np.arange(150)
        rate = np.where((t >= lo) & (t < 0.5 * (lo + hi)), 0.0, 0.004)
        s = cem_summary(cfg, _dose_records(np.cumsum(rate)))
        assert not _band_ok(s)

    def test_window_selects_doses_by_their_step_time(self):
        """A record holds the dose before its own step, so the dose of the step
        at t arrives in the next record.  A burst in the step just before the
        window stays out of the band; a stall in the last perturbed step counts."""
        cfg = RunConfig()
        lo, hi = cfg.cem_scenario.d_schedule[1][0], cfg.cem_scenario.d_schedule[2][0]
        dt = 0.5
        t = dt * np.arange(150)

        def band(step_dose):
            cem = np.concatenate([[0.0], np.cumsum(step_dose)[:-1]])
            s = cem_summary(cfg, _dose_records(cem, dt))
            return s["rate_min_over_median"], s["rate_max_over_median"]

        burst_before = np.where(t == lo - dt, 0.008, 0.004)
        assert band(burst_before) == pytest.approx((1.0, 1.0))
        stall_last = np.where(t == hi - dt, 0.0, 0.004)
        assert band(stall_last) == pytest.approx((0.0, 1.0))


@pytest.mark.parametrize("name", ["desk.yaml", "paper_scale.yaml"])
def test_cem_perturbation_inside_delivery_phase(name):
    """The distance perturbation falls between the earliest arrival at the
    controller's Ts ceiling and the earliest time the target can be met there.

    Exact dose plant from an ambient start: t_ini warm-up steps at the input
    floor, then full power at the flow that maximizes the steady surface gain
    q / ((1 + c_g q)(q + q_h)), i.e. q = sqrt(q_h / c_g).
    """
    cfg = load_config(CONFIGS / name)
    cem, sched = cfg.controllers.cem, cfg.cem_scenario.d_schedule
    plant = surrogate_from_config(cfg, b_s_override=cfg.cem_scenario.b_s)
    c, dt = plant.constants, plant.dt
    ceiling = plant.box.y_hi[0] - cem.y_ub_margin
    d0 = piecewise(sched, 0.0)
    plant.reset(PlantState(d=d0))
    for _ in range(cem.t_ini):
        plant.step(plant.box.u_lo, d0)
    k = cem.t_ini
    u_fast = (plant.box.u_hi[0], math.sqrt(c.q_h / c.c_g))
    while plant.state.ts < ceiling:
        plant.step(u_fast, d0)
        k += 1
    t_reach = k * dt
    rate = CEM_KAPPA ** (CEM_REFERENCE_TEMP - ceiling) * dt / 60.0
    t_meet = t_reach + math.ceil((cem.target - plant.state.cem) / rate) * dt
    lo, hi = sched[1][0], sched[2][0]
    assert t_reach <= lo < hi <= t_meet
