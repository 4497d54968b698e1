"""The benchmark workloads: set-up, one round of operations, and metrics.

Every workload calls only public functions of ``npvdeepc`` and takes its
timings around those calls.  A round is a fixed list of operations; a run
repeats whole rounds, so the mix of operations is the same in every run.

- ``build``: data-to-controller build on configs/desk.yaml with a fixed
  number of training epochs.  One operation is one build.
- ``track_npv``, ``track_deepc`` and ``track_mpc``: closed loops of one
  controller (NPV-DeePC, DeePC or ARX-MPC) on the desk bench scenario
  (noise-free and noisy) and one fixed-distance sweep run.  One operation is
  one controller step.  Each controller has a workload of its own, so that a
  change which helps one controller and hurts another shows on each.  The
  loops do the same work for every workload seed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from npvdeepc import deepc, experiments
from npvdeepc.config import config_hash, load_config
from npvdeepc.hypernet import load_model, predict_batch
from npvdeepc.plant import PlantState, surrogate_steady_state

import checks
from checks import CheckError
from stats import percentile

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CONFIG = ROOT / "configs" / "desk.yaml"
MODEL = BENCH_DIR / "data" / "desk_model.json"
MODEL_META = BENCH_DIR / "data" / "desk_model_meta.json"

BUILD_EPOCHS = 40        # fixed training length of one build (patience = epochs)
SWEEP_DISTANCE = 3.0     # mm; the fixed-distance run of each tracking round
SETUP_REPEATS = 5        # set-up runs per process; setup_s takes their median
CHECK_STRIDE = 8         # every 8th window enters the reference forward pass


class ModelMismatch(RuntimeError):
    """The stored desk model does not belong to the config being run."""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    check_failures: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"failed: {message}", file=sys.stderr)

    def check(self, fn, *args) -> None:
        try:
            fn(*args)
        except CheckError as exc:
            self.check_failures.append(str(exc))
            self.fail(f"check: {exc}")


def run_config(seed: int):
    """The desk config with the workload seed as its config seed."""
    return dataclasses.replace(load_config(CONFIG), seed=seed)


def load_desk_model(cfg):
    """The stored desk model and its seed, after checking it was made from this config."""
    meta = json.loads(MODEL_META.read_text())
    expected = config_hash(dataclasses.replace(cfg, seed=meta["seed"]))
    if meta["config_hash"] != expected:
        raise ModelMismatch(
            f"{MODEL.name} was made from config hash {meta['config_hash']}, "
            f"but {CONFIG.name} now hashes to {expected}; remake it with perfbench/make_model.py"
        )
    model = load_model(MODEL)
    ctl = cfg.controllers.npv_deepc
    dims = model.dims
    want = {"t_ini": ctl.t_ini, "horizon": ctl.horizon, "n_u": 2, "n_y": 2, "n_p": 1,
            "hyper_input": cfg.model.hyper_input}
    have = {k: getattr(dims, k) for k in want}
    if have != want or [s.out_dim for s in model.layer_specs] != list(cfg.model.hidden_sizes):
        raise ModelMismatch(f"{MODEL.name} has dims {have}, the config needs {want}")
    return model, meta["seed"]


# --------------------------------------------------------------------------
# build


@dataclass
class BuildTimings:
    op_s: list[float] = field(default_factory=list)
    train_rate: list[float] = field(default_factory=list)


class BuildWorkload:
    name = "build"

    def setup(self, seed: int):
        cfg = run_config(seed)
        model_cfg = dataclasses.replace(cfg.model, max_epochs=BUILD_EPOCHS, patience=BUILD_EPOCHS)
        return dataclasses.replace(cfg, model=model_cfg)

    def prepare_checks(self, cfg) -> None:
        pass

    def new_timings(self) -> BuildTimings:
        return BuildTimings()

    def round(self, cfg, tally: Tally, timings: BuildTimings) -> None:
        ctl = cfg.controllers.npv_deepc
        stages = ("collect", "train", "operators", "projector")
        tally.attempted += len(stages)
        try:
            t0 = time.perf_counter()
            traj = experiments.build_dataset(cfg)
            t1 = time.perf_counter()
            model, ds = experiments.train_from_config(cfg, traj, ctl.t_ini, ctl.horizon)
            t2 = time.perf_counter()
            pipe = experiments.build_pipeline(cfg, traj=traj, model=model)
            pi = deepc.build_projector(pipe.deepc_hankel)
            t3 = time.perf_counter()
        except Exception as exc:  # a stage that raises is a failed operation
            tally.fail(f"build raised {exc!r}")
            return
        n_train = ds.n_windows - int(round(cfg.model.val_fraction * ds.n_windows))
        epochs = model.history.stopped_epoch
        timings.op_s.append(t3 - t0)
        timings.train_rate.append(n_train * epochs / (t2 - t1))

        sub = ds.rows(slice(None, None, CHECK_STRIDE))
        tally.check(checks.check_predictions, predict_batch(model, sub),
                    checks.reference_forward(model.params, model.scalers, sub, model.dims.hyper_input))
        tally.check(checks.check_training_loss, model.history.train_loss)
        if epochs != BUILD_EPOCHS:
            tally.check_failures.append(f"training ran {epochs} epochs, not {BUILD_EPOCHS}")
            tally.fail(tally.check_failures[-1])
        tally.check(checks.check_neural_hankel, pipe.neural_hankel)
        tally.check(checks.check_neural_hankel, pipe.frozen_hankel)
        tally.check(checks.check_projector, pi)
        tally.check(checks.check_arx, pipe.arx, traj.u, traj.y)

    def metrics(self, timings: BuildTimings) -> dict[str, float]:
        return {
            "op_p50_ms": statistics.median(timings.op_s) * 1e3,
            "work_per_s": statistics.median(timings.train_rate),
        }

    def step_stats(self, timings) -> dict:
        return {}


# --------------------------------------------------------------------------
# closed-loop tracking


def _hold_rmse(cfg, reference, d_schedule, n_steps: int, t_ini: int) -> float:
    """RMSE of holding the loop's initial steady input for the whole run.

    Mirrors the timing of run_tracking_loop: t_ini warm-up steps, then one
    recorded output per control step before the plant advances.
    """
    plant = experiments.surrogate_from_config(cfg)
    dt = plant.dt
    r0 = experiments.piecewise(reference, 0.0)
    d0 = experiments.piecewise(d_schedule, 0.0)
    u = experiments.steady_input_for(r0, d0, plant.constants, plant.box)
    ts0, tg0 = surrogate_steady_state(u, d0, plant.constants)
    plant.reset(PlantState(ts=ts0, tg=tg0, d=d0))
    for k in range(t_ini):
        plant.step(u, experiments.piecewise(d_schedule, k * dt))
    err = []
    for k in range(n_steps):
        t = (t_ini + k) * dt
        err.append(plant.outputs()[0] - experiments.piecewise(reference, t))
        plant.step(u, experiments.piecewise(d_schedule, t))
    return math.sqrt(float(np.mean(np.square(err))))


@dataclass
class Scenario:
    label: str          # measurement-noise stream label, as in run_bench / run_distance_sweep
    noise_sigma: float
    reference: tuple
    d_schedule: tuple
    n_steps: int
    hold_rmse: float = 0.0


@dataclass
class TrackState:
    cfg: object
    pipe: object
    box: object
    scenarios: list[Scenario]


@dataclass
class TrackTimings:
    steps_s: list[float] = field(default_factory=list)
    loop_s: float = 0.0
    n_steps: int = 0


def _scenarios(cfg) -> list[Scenario]:
    sc = cfg.scenario
    constants = experiments.surrogate_from_config(cfg).constants
    d = SWEEP_DISTANCE
    return [
        Scenario("bench-noise_free", 0.0, sc.reference, sc.d_schedule, sc.n_steps),
        Scenario("bench-noisy", sc.noise_sigma, sc.reference, sc.d_schedule, sc.n_steps),
        Scenario(f"sweep-{d}", 0.0, experiments.sweep_reference(d, constants), ((0.0, d),),
                 sc.sweep_n_steps),
    ]


class TrackWorkload:
    def __init__(self, name: str, controller: str):
        self.name = name
        self.controller = controller

    def setup(self, seed: int) -> TrackState:
        model, model_seed = load_desk_model(run_config(seed))
        # Every input of the loops comes from the stored model's seed: the
        # operators' dataset and the noisy loop's measurement noise.  Noise
        # drawn from the workload seed makes the noisy MPC loop raise on some
        # seeds (an infeasible QP), so the failed share would follow the seed.
        cfg = run_config(model_seed)
        traj = experiments.build_dataset(cfg)
        pipe = experiments.build_pipeline(cfg, traj=traj, model=model)
        box = experiments.surrogate_from_config(cfg).box
        experiments.make_controller(self.controller, cfg, pipe, box)
        return TrackState(cfg=cfg, pipe=pipe, box=box, scenarios=_scenarios(cfg))

    def prepare_checks(self, state: TrackState) -> None:
        t_ini = state.cfg.controllers.npv_deepc.t_ini
        for s in state.scenarios:
            s.hold_rmse = _hold_rmse(state.cfg, s.reference, s.d_schedule, s.n_steps, t_ini)

    def new_timings(self) -> TrackTimings:
        return TrackTimings()

    def round(self, state: TrackState, tally: Tally, timings: TrackTimings) -> None:
        for s in state.scenarios:
            self._loop(state, s, tally, timings)

    def _loop(self, state: TrackState, s: Scenario, tally: Tally, timings: TrackTimings):
        name = self.controller
        ctl = experiments.make_controller(name, state.cfg, state.pipe, state.box)
        sink = timings.steps_s
        solve_step = ctl.solve_step
        infeasible = []

        def timed_step(*args, **kwargs):
            tally.attempted += 1
            t = time.perf_counter()
            out = solve_step(*args, **kwargs)
            sink.append(time.perf_counter() - t)
            if out[1].status == "infeasible":
                infeasible.append(len(sink))
            return out

        ctl.solve_step = timed_step
        t0 = time.perf_counter()
        try:
            records = experiments.run_tracking_loop(
                state.cfg, ctl, s.noise_sigma, s.label,
                reference=s.reference, d_schedule=s.d_schedule, n_steps=s.n_steps,
            )
        except Exception as exc:  # the step that raised is a failed operation
            tally.fail(f"{name} {s.label}: step raised {exc!r}")
            return
        timings.loop_s += time.perf_counter() - t0
        timings.n_steps += len(records)
        for _ in infeasible:
            tally.fail(f"{name} {s.label}: infeasible step")

        label = f"{name} {s.label}"
        if len(records) != s.n_steps:
            tally.check_failures.append(f"{label}: {len(records)} records, expected {s.n_steps}")
            tally.fail(tally.check_failures[-1])
        rmse = experiments.tracking_metrics(records, ctl.cfg.t_ini).rmse
        tally.check(checks.check_rmse, rmse, records)
        tally.check(checks.check_beats_hold, rmse, s.hold_rmse, label)

    def metrics(self, timings: TrackTimings) -> dict[str, float]:
        return {
            "op_p50_ms": statistics.median(timings.steps_s) * 1e3,
            "work_per_s": timings.n_steps / timings.loop_s,
        }

    def step_stats(self, timings: TrackTimings) -> dict[str, tuple[float, float]]:
        """Median and p95 step time in ms, by controller."""
        v = timings.steps_s
        return {self.controller: (statistics.median(v) * 1e3, percentile(v, 95) * 1e3)}


WORKLOADS = {
    "build": BuildWorkload(),
    "track_npv": TrackWorkload("track_npv", "npv_deepc"),
    "track_deepc": TrackWorkload("track_deepc", "deepc"),
    "track_mpc": TrackWorkload("track_mpc", "mpc"),
}

# per-layer name of each controller's solve_step
STEP_SPAN = {
    "npv_deepc": "npv.NpvController.solve_step",
    "deepc": "deepc.DeepcController.solve_step",
    "mpc": "baseline.MpcController.solve_step",
}
