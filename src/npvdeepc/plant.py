"""Synthetic plasma-jet surrogate, LTI test plants and open-loop data collection.

The surrogate is a two-state thermal model: gas temperature driven by
dissipated power and damped by flow, surface temperature driven by
flow-mediated heat transfer from the gas with an exponential decay in the
tip-to-surface distance.  It is not a physical plasma model; it is a
deterministic stand-in with a qualitatively similar envelope, and every
constant can be overridden from the run configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hankel import Trajectory

__all__ = [
    "SurrogateConstants",
    "BoxConstraints",
    "PlantState",
    "SurrogatePlant",
    "LtiPlant",
    "ExcitationConfig",
    "surrogate_step",
    "surrogate_steady_state",
    "cem_update",
    "collect_open_loop",
]

T_AMBIENT = 25.0

CEM_REFERENCE_TEMP = 43.0
CEM_SWITCH_TEMP = 35.0
CEM_KAPPA = 0.5


@dataclass(frozen=True)
class SurrogateConstants:
    """Rate and gain constants of the surrogate thermal model."""

    t_amb: float = T_AMBIENT      # ambient temperature, degC
    a_g: float = 0.3              # gas temperature decay rate, 1/s
    b_g: float = 3.0              # power-to-gas-temperature gain, degC/(W*s)
    c_g: float = 0.5              # flow damping of the power gain, 1/slm
    a_s: float = 0.15             # surface temperature decay rate, 1/s
    b_s: float = 0.075            # gas-to-surface transfer rate, 1/s
    d0: float = 3.0               # distance decay length, mm
    q_h: float = 2.0              # flow half-saturation, slm


@dataclass(frozen=True)
class BoxConstraints:
    """Per-channel input and output bounds (defaults: operating envelope)."""

    u_lo: tuple[float, ...] = (1.5, 1.0)      # P in W, q in slm
    u_hi: tuple[float, ...] = (8.0, 6.0)
    y_lo: tuple[float, ...] = (25.0, 20.0)    # Ts, Tg in degC
    y_hi: tuple[float, ...] = (42.5, 80.0)

    def __post_init__(self):
        for lo, hi, name in (
            (self.u_lo, self.u_hi, "input"),
            (self.y_lo, self.y_hi, "output"),
        ):
            if len(lo) != len(hi):
                raise ValueError(f"{name} bound lengths differ")
            if not all(a < b for a, b in zip(lo, hi)):
                raise ValueError(f"{name} bounds must satisfy lower < upper, got {lo}, {hi}")

    def clip_u(self, u: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(u, dtype=float), self.u_lo, self.u_hi)


D_MIN, D_MAX = 2.0, 7.0


@dataclass
class PlantState:
    """Surrogate state: temperatures, accumulated thermal dose and distance."""

    ts: float = T_AMBIENT
    tg: float = T_AMBIENT
    cem: float = 0.0
    d: float = 4.0

    def __post_init__(self):
        if not D_MIN <= self.d <= D_MAX:
            raise ValueError(f"distance {self.d} mm outside [{D_MIN}, {D_MAX}] mm")
        if self.cem < 0:
            raise ValueError(f"thermal dose must be nonnegative, got {self.cem}")

    def outputs(self) -> np.ndarray:
        return np.array([self.ts, self.tg])


def cem_update(cem: float, ts: float, dt_minutes: float) -> float:
    """Accumulate cumulative-equivalent-minutes thermal dose over one step.

    The increment is kappa**(43 - Ts) * dt with kappa = 0.5 above the 35 degC
    activation threshold and zero contribution below it.  Time is in minutes.
    """
    if not dt_minutes > 0:
        raise ValueError(f"dt_minutes must be positive, got {dt_minutes}")
    if ts < CEM_SWITCH_TEMP:
        return cem
    return cem + CEM_KAPPA ** (CEM_REFERENCE_TEMP - ts) * dt_minutes


def surrogate_step(
    state: PlantState,
    u,
    d: float,
    dt: float,
    constants: SurrogateConstants = SurrogateConstants(),
    box: BoxConstraints = BoxConstraints(),
) -> PlantState:
    """One explicit-Euler step of the surrogate dynamics.

    Inputs are clipped to the box; the distance is the externally scheduled
    parameter for this step.  Deterministic.
    """
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)) or not math.isfinite(d) or not dt > 0:
        raise ValueError(f"non-finite input: u={u}, d={d}, dt={dt}")
    power, flow = box.clip_u(u)
    c = constants
    drive_g = c.b_g * power / (1.0 + c.c_g * flow)
    tg_next = state.tg + dt * (-c.a_g * (state.tg - c.t_amb) + drive_g)
    transfer = c.b_s * math.exp(-(d - 2.0) / c.d0) * (state.tg - c.t_amb) * flow / (flow + c.q_h)
    ts_next = state.ts + dt * (-c.a_s * (state.ts - c.t_amb) + transfer)
    cem_next = cem_update(state.cem, state.ts, dt / 60.0)
    return PlantState(ts=ts_next, tg=tg_next, cem=cem_next, d=d)


def surrogate_steady_state(
    u, d: float, constants: SurrogateConstants = SurrogateConstants()
) -> tuple[float, float]:
    """Closed-form fixed point (ts, tg) of the surrogate under constant input."""
    power, flow = np.asarray(u, dtype=float)
    c = constants
    tg = c.t_amb + (c.b_g / c.a_g) * power / (1.0 + c.c_g * flow)
    ts = c.t_amb + (c.b_s / c.a_s) * math.exp(-(d - 2.0) / c.d0) * (tg - c.t_amb) * flow / (flow + c.q_h)
    return ts, tg


class SurrogatePlant:
    """Stateful wrapper around :func:`surrogate_step` for closed-loop runs.

    One simulation per instance; distinct instances are independent.
    """

    def __init__(
        self,
        constants: SurrogateConstants | None = None,
        box: BoxConstraints | None = None,
        dt: float = 0.5,
        state: PlantState | None = None,
    ):
        self.constants = constants or SurrogateConstants()
        self.box = box or BoxConstraints()
        if not dt > 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.dt = dt
        self.state = state if state is not None else PlantState()

    def reset(self, state: PlantState | None = None) -> None:
        self.state = state if state is not None else PlantState()

    def outputs(self) -> np.ndarray:
        return self.state.outputs()

    def step(self, u, d: float) -> PlantState:
        self.state = surrogate_step(self.state, u, d, self.dt, self.constants, self.box)
        return self.state

    def settle(self, u, d: float, n_steps: int = 400) -> PlantState:
        """Run to (near) steady state under a constant input."""
        for _ in range(n_steps):
            self.step(u, d)
        return self.state


@dataclass
class LtiPlant:
    """Discrete LTI state-space fixture: x+ = A x + B u, y = C x + D u."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    state: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.a = np.atleast_2d(np.asarray(self.a, dtype=float))
        self.b = np.atleast_2d(np.asarray(self.b, dtype=float))
        self.c = np.atleast_2d(np.asarray(self.c, dtype=float))
        self.d = np.atleast_2d(np.asarray(self.d, dtype=float))
        if self.state is None:
            self.state = np.zeros(self.a.shape[0])
        self.state = np.asarray(self.state, dtype=float)

    @property
    def order(self) -> int:
        return self.a.shape[0]

    def copy(self) -> "LtiPlant":
        return LtiPlant(self.a, self.b, self.c, self.d, self.state.copy())

    def reset(self, state=None) -> None:
        self.state = np.zeros(self.order) if state is None else np.asarray(state, dtype=float)

    def step(self, u) -> np.ndarray:
        """Emit y(k) for the current state, then advance to x(k+1)."""
        u = np.asarray(u, dtype=float)
        y = self.c @ self.state + self.d @ u
        self.state = self.a @ self.state + self.b @ u
        return y

    def simulate(self, u_seq: np.ndarray) -> np.ndarray:
        return np.array([self.step(u) for u in np.atleast_2d(u_seq)])


@dataclass(frozen=True)
class ExcitationConfig:
    """Open-loop excitation: uniform inputs, piecewise-constant distance."""

    u_hold: int = 1            # redraw the input every u_hold steps
    d_hold_min: int = 20       # distance hold length bounds, in steps
    d_hold_max: int = 100
    d_lo: float = D_MIN
    d_hi: float = D_MAX

    def __post_init__(self):
        if self.u_hold < 1:
            raise ValueError(f"u_hold must be >= 1, got {self.u_hold}")
        if not 1 <= self.d_hold_min <= self.d_hold_max:
            raise ValueError(
                f"invalid distance hold range [{self.d_hold_min}, {self.d_hold_max}]"
            )
        if not D_MIN <= self.d_lo < self.d_hi <= D_MAX:
            raise ValueError(f"distance range [{self.d_lo}, {self.d_hi}] outside [{D_MIN}, {D_MAX}]")


def collect_open_loop(
    plant: SurrogatePlant,
    excitation: ExcitationConfig,
    n_points: int,
    seed: int,
) -> Trajectory:
    """Excite the plant open loop and record the noise-free trajectory.

    Inputs are i.i.d. uniform over the input box (optionally held for
    ``u_hold`` steps); the distance follows a piecewise-constant pattern with
    uniformly random levels and hold durations.  Seeded and reproducible.
    """
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    rng = np.random.default_rng(seed)
    u_lo = np.asarray(plant.box.u_lo)
    u_hi = np.asarray(plant.box.u_hi)

    u_log = np.empty((n_points, u_lo.size))
    y_log = np.empty((n_points, 2))
    d_log = np.empty((n_points, 1))

    u_current = rng.uniform(u_lo, u_hi)
    d_current = rng.uniform(excitation.d_lo, excitation.d_hi)
    d_remaining = int(rng.integers(excitation.d_hold_min, excitation.d_hold_max + 1))

    for k in range(n_points):
        if k > 0 and k % excitation.u_hold == 0:
            u_current = rng.uniform(u_lo, u_hi)
        if d_remaining == 0:
            d_current = rng.uniform(excitation.d_lo, excitation.d_hi)
            d_remaining = int(rng.integers(excitation.d_hold_min, excitation.d_hold_max + 1))
        d_remaining -= 1

        y_log[k] = plant.outputs()
        u_log[k] = u_current
        d_log[k, 0] = d_current
        plant.step(u_current, d_current)

    return Trajectory(u=u_log, y=y_log, p=d_log, dt=plant.dt)
