"""Experiment orchestration: pipeline build, closed loops and report files.

Every run is driven by one RunConfig.  The pipeline collects open-loop data,
trains the predictor and builds the data matrices each controller consumes.
The track, bench and distance-sweep scenarios are lists of tracking runs
that one runner, :func:`run_tracking_runs`, executes with every configured
controller; each scenario then shapes its own plot-ready CSV/JSON.  The
dose scenario keeps its own plant, controller and loop.  Solver wall times
never enter the metric files, so reruns with the same config and seed are
byte-identical; timing lives in a separate diagnostics document.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .baseline import ArxModel, MpcController, identify_arx
from .config import RunConfig, config_hash
from .control import ControllerConfig, ControllerSettings
from .deepc import DeepcController, build_projector
from .hankel import (
    HankelSet,
    Trajectory,
    Window,
    check_pe,
    partition,
    willems_membership,
)
from .hypernet import HyperDnnModel, WindowDataset, predict_batch, train
from .metrics import RunMetrics, bfr, control_energy, cpu_stats, ise, rmse
from .npv import (
    CemController,
    NeuralHankel,
    NpvController,
    hankel_with_params,
    lemma2_residual,
    npv_prediction,
    problem_size,
    transform_hankel,
)
from .optim import check_jacobian
from .plant import (
    BoxConstraints,
    LtiPlant,
    PlantState,
    SurrogateConstants,
    SurrogatePlant,
    cem_update,
    collect_open_loop,
    surrogate_steady_state,
)

__all__ = [
    "DataError",
    "Pipeline",
    "seed_for",
    "surrogate_from_config",
    "build_dataset",
    "train_from_config",
    "build_pipeline",
    "piecewise",
    "TrackingRun",
    "run_tracking_runs",
    "run_tracking_scenario",
    "run_bench",
    "run_distance_sweep",
    "run_cem",
    "run_verification",
    "write_json",
]

class DataError(RuntimeError):
    """Required input data is missing or malformed."""


def seed_for(base_seed: int, *labels) -> int:
    """Stable derived seed for a named purpose."""
    digest = hashlib.sha256(("|".join([str(base_seed), *map(str, labels)])).encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _plain(value):
    """Recursively strip numpy scalar/array types for JSON output."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return _plain(value.tolist())
    return value


def write_json(path, doc) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_plain(doc), indent=1, sort_keys=True))


def surrogate_from_config(cfg: RunConfig, b_s_override: float | None = None) -> SurrogatePlant:
    constants = cfg.plant if b_s_override is None else replace(cfg.plant, b_s=b_s_override)
    return SurrogatePlant(constants=constants, dt=cfg.plant.dt)


def build_dataset(cfg: RunConfig, plant: SurrogatePlant | None = None, label: str = "dataset") -> Trajectory:
    plant = plant if plant is not None else surrogate_from_config(cfg)
    return collect_open_loop(plant, cfg.excitation, cfg.excitation.n_points, seed=seed_for(cfg.seed, label))


def train_from_config(cfg: RunConfig, traj: Trajectory, t_ini: int, horizon: int, label: str = "train"):
    ds = WindowDataset.from_trajectory(traj, t_ini, horizon)
    model = train(ds, cfg.model, seed=seed_for(cfg.seed, label))
    return model, ds


def evaluate_bfr_split(model: HyperDnnModel, ds: WindowDataset, val_fraction: float):
    """Train/validation best-fit rates on non-overlapping prediction windows."""
    n = ds.n_windows
    n_train = n - int(round(val_fraction * n))
    stride = ds.horizon
    out = {}
    for name, sel in (
        ("train", np.arange(0, n_train, stride)),
        ("validation", np.arange(n_train, n, stride)),
    ):
        if sel.size == 0:
            out[name] = None
            continue
        sub = ds.rows(sel)
        preds = predict_batch(model, sub)
        out[name] = bfr(sub.y_fut, preds)
    return out


@dataclass
class Pipeline:
    """Everything the controllers need, built once per config and seed."""

    traj: Trajectory
    model: HyperDnnModel
    deepc_hankel: HankelSet
    neural_hankel: NeuralHankel
    frozen_hankel: NeuralHankel
    arx: ArxModel


def neural_hankel_blocks(cfg: RunConfig, traj: Trajectory, t_ini: int, horizon: int):
    """The (HankelSet, p_cols) pair of the neural operators, over ``k_neural`` samples."""
    return hankel_with_params(traj, t_ini, horizon, n_cols=cfg.hankel.k_neural - (t_ini + horizon) + 1)


def build_pipeline(
    cfg: RunConfig,
    traj: Trajectory | None = None,
    model: HyperDnnModel | None = None,
) -> Pipeline:
    """Assemble data, model and controller operands from a config.

    ``traj`` / ``model`` may be passed in (e.g. loaded from files written by
    the collect/train commands); anything missing is built fresh.
    """
    ctl = cfg.controllers.npv_deepc
    if traj is None:
        traj = build_dataset(cfg)
    if model is None:
        model, _ = train_from_config(cfg, traj, ctl.t_ini, ctl.horizon)

    deepc_hs = partition(traj, ctl.t_ini, ctl.horizon, n_cols=cfg.hankel.k_deepc - (ctl.t_ini + ctl.horizon) + 1)
    neural_hs, p_cols = neural_hankel_blocks(cfg, traj, ctl.t_ini, ctl.horizon)
    nh = transform_hankel(model, neural_hs, p_cols)
    nh_frozen = transform_hankel(model.frozen(), neural_hs, p_cols)
    arx = identify_arx(traj, cfg.controllers.mpc.n_a, cfg.controllers.mpc.n_b)
    return Pipeline(
        traj=traj, model=model,
        deepc_hankel=deepc_hs, neural_hankel=nh, frozen_hankel=nh_frozen, arx=arx,
    )


def controller_config(section, scenario_lb_relax: float, scenario_ub_margin: float, box: BoxConstraints) -> ControllerConfig:
    """A section's controller settings with the box, the output box moved by the scenario."""
    return ControllerConfig(
        **{f.name: getattr(section, f.name) for f in fields(ControllerSettings)},
        u_lo=box.u_lo,
        u_hi=box.u_hi,
        y_lo=tuple(v - scenario_lb_relax for v in box.y_lo),
        y_hi=tuple(v - scenario_ub_margin for v in box.y_hi),
    )


# each tracking controller: its class and the Pipeline operand it is built on
_CONTROLLERS = {
    "npv_deepc": (NpvController, "neural_hankel"),
    "neural_deepc": (NpvController, "frozen_hankel"),
    "deepc": (DeepcController, "deepc_hankel"),
    "mpc": (MpcController, "arx"),
}


def make_controller(name: str, cfg: RunConfig, pipe: Pipeline, box: BoxConstraints):
    if name not in _CONTROLLERS:
        raise ValueError(f"unknown controller {name!r}")
    cls, operand = _CONTROLLERS[name]
    sc = cfg.scenario
    return cls(getattr(pipe, operand),
               controller_config(getattr(cfg.controllers, name), sc.y_lb_relax, sc.y_ub_margin, box))


def piecewise(schedule, t: float) -> float:
    """Evaluate a ((t_start, value), ...) piecewise-constant schedule."""
    value = schedule[0][1]
    for t_start, v in schedule:
        if t >= t_start:
            value = v
        else:
            break
    return value


def steady_input_for(ts_target: float, d: float, constants: SurrogateConstants, box: BoxConstraints, q_nom: float = 2.0):
    """Constant input whose surrogate fixed point hits a surface temperature.

    Solves the closed-form steady state for the power at a nominal flow and
    clips into the box; used to start tracking runs on the reference.
    """
    import math

    coef = (
        (constants.b_s / constants.a_s)
        * math.exp(-(d - 2.0) / constants.d0)
        * (constants.b_g / constants.a_g)
        * q_nom / ((1.0 + constants.c_g * q_nom) * (q_nom + constants.q_h))
    )
    p_needed = (ts_target - constants.t_amb) / max(coef, 1e-12)
    u = np.array([p_needed, q_nom])
    return box.clip_u(u)


@dataclass
class LoopRecord:
    k: int
    t: float
    r_ts: float
    d: float
    y_true: np.ndarray
    y_meas: np.ndarray
    u: np.ndarray
    cost: float
    iterations: int
    kkt_residual: float
    status: str
    wall_time_s: float
    cem_true: float = 0.0
    cem_est: float = 0.0
    qp_iterations: int = 0
    clipped: int = 0


def _run_loop(plant: SurrogatePlant, controller, u_start: np.ndarray, goal, reference, d_schedule,
              n_steps: int, noise_sigma: float, rng_noise, u_prev=None) -> list[LoopRecord]:
    """One closed loop from the plant's current state; every scenario runs through it.

    ``t_ini`` warm-up steps hold ``u_start``.  Each step then calls
    ``controller.solve_step(u_ini, y_ini, p_hist, goal(r_ts, cem_est), u_prev)``,
    looked up on the instance every time, with the measured window, its
    scheduled distances, the ``reference`` value ``r_ts`` and the dose
    ``cem_est`` accumulated from the measured surface temperature.  Moves are
    priced against ``u_prev`` if given, else against the last applied input
    (``u_start`` at the first step).
    """
    box, dt = plant.box, plant.dt
    t_ini = controller.cfg.t_ini
    hist_u, hist_y, hist_p = [], [], []
    records = []
    cem_est = 0.0
    for k in range(t_ini + n_steps):
        t = k * dt
        d_now = piecewise(d_schedule, t)
        if k < t_ini:
            u = u_start
        else:
            r_ts = piecewise(reference, t)
            u, step = controller.solve_step(
                np.asarray(hist_u[-t_ini:]).ravel(), np.asarray(hist_y[-t_ini:]).ravel(),
                np.array(hist_p[-t_ini:]), goal(r_ts, cem_est), hist_u[-1] if u_prev is None else u_prev,
            )
            u = box.clip_u(u)
        # the measurement of this step, taken after the solve so the goal
        # above saw the dose estimate of the steps before it
        y_true = plant.outputs()
        y_meas = y_true + (rng_noise.normal(0.0, noise_sigma, 2) if noise_sigma else 0.0)
        cem_est = cem_update(cem_est, y_meas[0], dt / 60.0)
        if k >= t_ini:
            records.append(LoopRecord(
                k=k, t=t, r_ts=r_ts, d=d_now, y_true=y_true, y_meas=y_meas, u=u,
                cost=step.cost, iterations=step.iterations,
                qp_iterations=step.qp_iterations, clipped=step.clipped,
                kkt_residual=step.kkt_residual, status=step.status,
                wall_time_s=step.wall_time_s, cem_true=plant.state.cem, cem_est=cem_est,
            ))
        hist_u.append(u)
        hist_y.append(y_meas)
        hist_p.append(d_now)
        plant.step(u, d_now)
    return records


def run_tracking_loop(
    cfg: RunConfig,
    controller,
    noise_sigma: float,
    noise_label: str,
    reference=None,
    d_schedule=None,
    n_steps: int | None = None,
) -> list[LoopRecord]:
    """Closed-loop surface-temperature tracking on the surrogate plant.

    The controller sees measurements and the scheduled distance only through
    its past window; its goal is the reference ``[r(t), 45.0]``, whose second
    channel carries zero weight.  Metrics are computed on the true outputs
    afterwards.
    """
    sc = cfg.scenario
    reference = reference if reference is not None else sc.reference
    d_schedule = d_schedule if d_schedule is not None else sc.d_schedule
    n_steps = n_steps if n_steps is not None else sc.n_steps

    plant = surrogate_from_config(cfg)
    r0 = piecewise(reference, 0.0)
    d0 = piecewise(d_schedule, 0.0)
    if sc.initial == "steady_state":
        u_start = steady_input_for(r0, d0, plant.constants, plant.box)
        ts0, tg0 = surrogate_steady_state(u_start, d0, plant.constants)
        plant.reset(PlantState(ts=ts0, tg=tg0, d=d0))
    else:
        u_start = np.asarray(plant.box.u_lo, dtype=float)
        plant.reset(PlantState(d=d0))
    rng_noise = np.random.default_rng(seed_for(cfg.seed, "measurement-noise", noise_label))
    return _run_loop(
        plant, controller, u_start, lambda r_ts, cem_est: np.array([r_ts, 45.0]),
        reference, d_schedule, n_steps, noise_sigma, rng_noise,
        u_prev=u_start,  # never advanced: see the u_prev defect in ROADMAP.md
    )


def tracking_metrics(records: list[LoopRecord], t_ini: int) -> RunMetrics:
    """Indices over the tracked output channel, from step t_ini onward."""
    y = np.array([[rec.y_true[0]] for rec in records])
    r = np.array([[rec.r_ts] for rec in records])
    u = np.array([rec.u for rec in records])
    k0 = np.searchsorted([rec.k for rec in records], t_ini)
    return RunMetrics(
        rmse=rmse(y, r, k0),
        ise=ise(y, r, k0),
        ju=control_energy(u, k0),
        mean_cpu_s=cpu_stats([rec.wall_time_s for rec in records]),
    )


def write_table_csv(path, header, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_steps_csv(path, records: list[LoopRecord], with_cem: bool = False) -> None:
    header = ["k", "t", "r_ts", "d", "Ts", "Tg", "Ts_meas", "Tg_meas", "P", "q",
              "cost", "iterations", "qp_iterations", "clipped", "kkt_residual", "status"]
    if with_cem:
        header += ["cem", "cem_est"]
    rows = []
    for rec in records:
        row = [rec.k] + [
            repr(float(v))
            for v in (rec.t, rec.r_ts, rec.d,
                      rec.y_true[0], rec.y_true[1], rec.y_meas[0], rec.y_meas[1],
                      rec.u[0], rec.u[1], rec.cost)
        ] + [rec.iterations, rec.qp_iterations, rec.clipped, repr(float(rec.kkt_residual)), rec.status]
        if with_cem:
            row += [repr(float(rec.cem_true)), repr(float(rec.cem_est))]
        rows.append(row)
    write_table_csv(path, header, rows)


@dataclass(frozen=True)
class TrackingRun:
    """One tracking run, made once per configured controller.

    Its step files are ``<stem>_<controller>_steps.csv``.  ``noise_label``
    names the measurement-noise stream; a ``{controller}`` field in it gives
    each controller a stream of its own.  A schedule or step count left at
    None is the configured scenario's.
    """

    stem: str
    noise_sigma: float
    noise_label: str
    reference: tuple | None = None
    d_schedule: tuple | None = None
    n_steps: int | None = None


def run_tracking_runs(
    cfg: RunConfig, out_dir, runs: list[TrackingRun], pipe: Pipeline | None = None,
) -> list[dict[str, RunMetrics]]:
    """Every run with every configured controller; the metrics by controller, one dict per run."""
    out_dir = Path(out_dir)
    pipe = pipe if pipe is not None else build_pipeline(cfg)
    box = surrogate_from_config(cfg).box
    results = []
    for run in runs:
        metrics = {}
        for name in cfg.scenario.controllers:
            controller = make_controller(name, cfg, pipe, box)
            records = run_tracking_loop(
                cfg, controller, run.noise_sigma, run.noise_label.format(controller=name),
                reference=run.reference, d_schedule=run.d_schedule, n_steps=run.n_steps,
            )
            write_steps_csv(out_dir / f"{run.stem}_{name}_steps.csv", records)
            metrics[name] = tracking_metrics(records, controller.cfg.t_ini)
        results.append(metrics)
    return results


def run_tracking_scenario(cfg: RunConfig, out_dir, pipe: Pipeline | None = None) -> dict:
    """One tracking run per configured controller at the configured noise."""
    out_dir = Path(out_dir)
    noise_sigma = cfg.scenario.noise_sigma
    (metrics,) = run_tracking_runs(cfg, out_dir, [TrackingRun("track", noise_sigma, "track-{controller}")], pipe)
    doc = {
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "scenario": "tracking",
        "noise_sigma": noise_sigma,
        "metrics": {name: m.scalar_dict() for name, m in metrics.items()},
    }
    write_json(out_dir / "track_metrics.json", doc)
    write_json(out_dir / "track_timing.json",
               {"timing": {name: {"mean_cpu_s": m.mean_cpu_s} for name, m in metrics.items()}})
    return doc


def run_bench(cfg: RunConfig, out_dir, pipe: Pipeline | None = None) -> dict:
    """All controllers on identical seeds and schedules, with and without noise."""
    out_dir = Path(out_dir)
    noises = {"noise_free": 0.0, "noisy": cfg.scenario.noise_sigma}
    runs = [TrackingRun(f"bench_{label}", sigma, f"bench-{label}") for label, sigma in noises.items()]
    by_noise = dict(zip(noises, run_tracking_runs(cfg, out_dir, runs, pipe)))
    bench_doc = {
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "scenario": "bench",
        "metrics": {label: {name: m.scalar_dict() for name, m in ms.items()} for label, ms in by_noise.items()},
    }
    write_json(out_dir / "bench_metrics.json", bench_doc)
    write_json(out_dir / "bench_timing.json",
               {"timing": {label: {name: m.mean_cpu_s for name, m in ms.items()} for label, ms in by_noise.items()}})
    write_table_csv(out_dir / "bench_table.csv", ["controller", "noise", "rmse", "ise", "ju"], [
        [name, label] + [repr(float(v)) for v in (m.rmse, m.ise, m.ju)]
        for label, ms in by_noise.items() for name, m in ms.items()
    ])
    return bench_doc


def sweep_reference(d: float, constants: SurrogateConstants) -> tuple[tuple[float, float], ...]:
    """Per-distance reachable reference: high then low fraction of the envelope.

    Capped well below the output ceiling so the box constraint does not turn
    the sweep into a saturation study.
    """
    import math

    delta_max = (constants.b_s / constants.a_s) * math.exp(-(d - 2.0) / constants.d0) * 20.0
    hi = min(constants.t_amb + 0.7 * delta_max, 38.0)
    lo = min(constants.t_amb + 0.45 * delta_max, 34.0)
    return ((0.0, hi), (25.0, lo))


def run_distance_sweep(cfg: RunConfig, out_dir, pipe: Pipeline | None = None) -> dict:
    """Fixed-distance tracking runs across the distance range, noise-free."""
    out_dir = Path(out_dir)
    sc = cfg.scenario
    runs = [
        TrackingRun(f"sweep_{d}", 0.0, f"sweep-{d}", sweep_reference(d, cfg.plant), ((0.0, d),), sc.sweep_n_steps)
        for d in sc.sweep_distances
    ]
    by_d = list(zip(sc.sweep_distances, run_tracking_runs(cfg, out_dir, runs, pipe)))
    write_table_csv(out_dir / "distance_sweep.csv", ["d_mm", "controller", "rmse"], [
        [repr(float(d)), name, repr(float(m.rmse))] for d, ms in by_d for name, m in ms.items()
    ])
    rmse = {str(d): {name: m.rmse for name, m in ms.items()} for d, ms in by_d}
    doc = {"config_hash": config_hash(cfg), "seed": cfg.seed, "scenario": "distance_sweep", "rmse": rmse}
    write_json(out_dir / "distance_sweep.json", doc)
    return doc


def build_cem_pipeline(cfg: RunConfig) -> NeuralHankel:
    """Neural Hankel, with its freshly trained model, for the dose plant and short horizon."""
    cem_cfg = cfg.controllers.cem
    plant = surrogate_from_config(cfg, b_s_override=cfg.cem_scenario.b_s)
    traj = build_dataset(cfg, plant=plant, label="cem-dataset")
    model, _ = train_from_config(cfg, traj, cem_cfg.t_ini, cem_cfg.horizon, label="cem-train")
    hs, p_cols = neural_hankel_blocks(cfg, traj, cem_cfg.t_ini, cem_cfg.horizon)
    return transform_hankel(model, hs, p_cols)


def run_cem_loop(cfg: RunConfig, nh: NeuralHankel, noise_sigma: float, noise_label: str) -> list[LoopRecord]:
    """Closed-loop thermal-dose delivery from ambient on the dose plant.

    The controller's goal is the measured dose estimate, and each step
    prices its moves against the input applied before it.
    """
    cem_cfg = cfg.controllers.cem
    scc = cfg.cem_scenario
    plant = surrogate_from_config(cfg, b_s_override=scc.b_s)
    ctl_cfg = controller_config(cem_cfg, cem_cfg.y_lb_relax, cem_cfg.y_ub_margin, plant.box)
    controller = CemController(
        nh, ctl_cfg,
        cem_target=cem_cfg.target + cem_cfg.target_margin, dt=plant.dt, r_du=cem_cfg.r_du,
    )
    plant.reset(PlantState(d=piecewise(scc.d_schedule, 0.0)))
    rng_noise = np.random.default_rng(seed_for(cfg.seed, "cem-noise", noise_label))
    return _run_loop(
        plant, controller, np.asarray(plant.box.u_lo, dtype=float), lambda r_ts, cem_est: cem_est,
        ((0.0, 0.0),), scc.d_schedule, scc.n_steps, noise_sigma, rng_noise,
    )


def cem_summary(cfg: RunConfig, records: list[LoopRecord]) -> dict:
    scc = cfg.cem_scenario
    cem_series = np.array([rec.cem_true for rec in records])
    increments = np.diff(np.concatenate([[0.0], cem_series]))
    target = cfg.controllers.cem.target
    # delivery rate stability while the distance is perturbed; steps without
    # dose count as zero rate, and a window without delivery reports (0, 0).
    # Each record holds the dose before its own step, so the dose of the step
    # taken at records[k].t is cem_series[k + 1] - cem_series[k].
    perturb_lo = scc.d_schedule[1][0] if len(scc.d_schedule) > 1 else 0.0
    perturb_hi = scc.d_schedule[2][0] if len(scc.d_schedule) > 2 else records[-1].t
    step_t = np.array([rec.t for rec in records[:-1]])
    rates = np.diff(cem_series)[(perturb_lo <= step_t) & (step_t < perturb_hi)]
    rate_median = float(np.median(rates)) if rates.size else 0.0
    rate_band = (
        (float(np.min(rates) / rate_median), float(np.max(rates) / rate_median))
        if rate_median > 0 else (0.0, 0.0)
    )
    overshoot = float(cem_series[-1] - target)
    return {
        "target": target,
        "final_cem": float(cem_series[-1]),
        "overshoot": overshoot,
        "within_tolerance": bool(target <= cem_series[-1] <= target + 0.1),
        "monotone": bool(np.all(increments >= -1e-15)),
        "rate_min_over_median": rate_band[0],
        "rate_max_over_median": rate_band[1],
        "safety_violation": bool(overshoot > 0.1),
    }


def run_cem(cfg: RunConfig, out_dir) -> dict:
    out_dir = Path(out_dir)
    nh = build_cem_pipeline(cfg)
    doc = {"config_hash": config_hash(cfg), "seed": cfg.seed, "scenario": "cem", "runs": {}}
    timing = {}
    for noise_label, sigma in (("noise_free", 0.0), ("noisy", cfg.cem_scenario.noise_sigma)):
        records = run_cem_loop(cfg, nh, sigma, noise_label)
        write_steps_csv(out_dir / f"cem_{noise_label}_steps.csv", records, with_cem=True)
        doc["runs"][noise_label] = cem_summary(cfg, records)
        timing[noise_label] = cpu_stats([rec.wall_time_s for rec in records])
    write_json(out_dir / "cem_metrics.json", doc)
    write_json(out_dir / "cem_timing.json", {"timing": timing})
    return doc


# --------------------------------------------------------------------------
# verification suite


def _lti_fixture():
    return LtiPlant(
        a=np.array([[0.7, 0.2], [-0.15, 0.85]]),
        b=np.array([[1.0, 0.3], [0.2, 0.9]]),
        c=np.eye(2),
        d=np.zeros((2, 2)),
    )


def run_verification(cfg: RunConfig, pipe: Pipeline | None = None) -> dict:
    """Machine-checkable invariant suite; every entry carries pass/fail."""
    checks = {}
    ctl = cfg.controllers.npv_deepc
    t_ini, horizon = ctl.t_ini, ctl.horizon
    pipe = pipe if pipe is not None else build_pipeline(cfg)

    # membership of fresh and perturbed windows in an LTI behavior
    plant = _lti_fixture()
    rng = np.random.default_rng(seed_for(cfg.seed, "verify-lti"))
    u_data = rng.uniform(-1, 1, size=(400, 2))
    y_data = plant.copy().simulate(u_data)
    lti_traj = Trajectory(u=u_data, y=y_data, p=np.zeros((400, 1)), dt=1.0)
    hs_lti = partition(lti_traj, t_ini, horizon)
    accept, reject = 0, 0
    n_trials = 100
    for i in range(n_trials):
        fresh_plant = plant.copy()
        fresh_plant.reset(rng.standard_normal(2))
        u_fresh = rng.uniform(-1, 1, size=(t_ini + horizon, 2))
        y_fresh = fresh_plant.simulate(u_fresh)
        w = Window(
            u_ini=u_fresh[:t_ini].ravel(), y_ini=y_fresh[:t_ini].ravel(),
            u_f=u_fresh[t_ini:].ravel(), y_f=y_fresh[t_ini:].ravel(),
        )
        member, residual = willems_membership(hs_lti, w, tol=1e-8)
        accept += int(member and residual < 1e-8)
        w.y_f = w.y_f.copy()
        w.y_f[int(rng.integers(0, w.y_f.size))] += 1.0
        member_p, residual_p = willems_membership(hs_lti, w, tol=1e-8)
        reject += int((not member_p) and residual_p > 1e-2)
    checks["willems_membership"] = {
        "passed": accept == n_trials and reject == n_trials,
        "accepted_fresh": accept,
        "rejected_perturbed": reject,
        "trials": n_trials,
    }

    # persistence of excitation of the collected inputs
    is_pe, rank = check_pe(pipe.traj.u[:cfg.hankel.k_neural], t_ini + horizon)
    checks["input_pe_rank"] = {
        "passed": bool(is_pe),
        "rank": rank,
        "required": 2 * (t_ini + horizon),
    }

    # feature-space Hankel rank
    nu_l = pipe.model.nu_l
    checks["neural_hankel_rank"] = {
        "passed": pipe.neural_hankel.stack_rank == nu_l + 1,
        "rank": pipe.neural_hankel.stack_rank,
        "required": nu_l + 1,
    }

    # projector properties
    pi = build_projector(pipe.deepc_hankel)
    idem = float(np.max(np.abs(pi @ pi - pi)))
    sym = float(np.max(np.abs(pi - pi.T)))
    rng_p = np.random.default_rng(seed_for(cfg.seed, "verify-projector"))
    pyth = 0.0
    for _ in range(100):
        g = rng_p.standard_normal(pi.shape[0])
        total = np.linalg.norm(pi @ g) ** 2 + np.linalg.norm((np.eye(pi.shape[0]) - pi) @ g) ** 2
        pyth = max(pyth, abs(total - np.linalg.norm(g) ** 2))
    checks["projector"] = {
        "passed": idem < 1e-10 and sym < 1e-10 and pyth < 1e-10 * (1 + pi.shape[0]),
        "idempotence": idem,
        "symmetry": sym,
        "pythagoras": pyth,
    }

    # exact-construction equivalence (Lemma 2): on outputs generated by the
    # network's own output map, the data-driven prediction reproduces that map
    theta_eff = pipe.model.effective_output_map()
    stack = pipe.neural_hankel.stack()
    yf_syn = theta_eff @ stack
    neural_hs, p_cols = neural_hankel_blocks(cfg, pipe.traj, t_ini, horizon)
    nh_syn = transform_hankel(pipe.model, replace(neural_hs, yf=yf_syn), p_cols)
    _, violation = lemma2_residual(nh_syn)
    rng_w = np.random.default_rng(seed_for(cfg.seed, "verify-lemma2"))
    worst = 0.0
    for _ in range(50):
        start = int(rng_w.integers(0, pipe.traj.n_samples - t_ini - horizon))
        w = Window.from_trajectory(pipe.traj, start, t_ini, horizon)
        w.u_f = rng_w.uniform(
            np.tile([1.5, 1.0], horizon), np.tile([8.0, 6.0], horizon)
        )
        phi = pipe.model.phi_hl(pipe.model.nn_input_from_window(w))
        y_npv = npv_prediction(nh_syn, phi)
        y_nn = theta_eff @ np.append(phi, 1.0)
        worst = max(worst, float(np.max(np.abs(y_npv - y_nn))))
    checks["lemma2_equivalence"] = {
        "passed": violation < 1e-8 and worst < 1e-8,
        "null_violation": violation,
        "max_prediction_gap": worst,
    }

    # analytic Jacobian against central differences
    rng_j = np.random.default_rng(seed_for(cfg.seed, "verify-jacobian"))
    worst_rel = 0.0
    for _ in range(100):
        start = int(rng_j.integers(0, pipe.traj.n_samples - t_ini - horizon))
        w = Window.from_trajectory(pipe.traj, start, t_ini, horizon)

        def phi_and_jacobian(u_f):
            nn_in = pipe.model.nn_input(w.u_ini, w.y_ini, u_f, w.p_hist)
            return pipe.model.features(pipe.model.hyper_forward(nn_in.p_vec), nn_in.u_nn)[:2]

        worst_rel = max(worst_rel, check_jacobian(phi_and_jacobian, w.u_f))
    checks["jacobian_fd"] = {"passed": worst_rel < 1e-6, "max_relative_error": worst_rel}

    # structural problem size at the configured defaults
    size = problem_size(
        controller_config(ctl, 0.0, 0.0, BoxConstraints()), pipe.model.nu_l
    )
    expected = {
        "decision_variables": (2 + 2 * 2) * horizon + pipe.model.nu_l + 1,
        "equality_constraints": 2 * horizon + pipe.model.nu_l + 1,
        "inequality_constraints": 2 * (2 + 2) * horizon,
    }
    checks["problem_size"] = {"passed": size == expected, "size": size, "expected": expected}

    report = {
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "all_passed": all(entry["passed"] for entry in checks.values()),
        "checks": checks,
    }
    return report
