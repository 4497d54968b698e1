"""Synthetic plasma-jet surrogate, LTI test plants and open-loop data collection.

The surrogate is a two-state thermal model: gas temperature driven by
dissipated power and damped by flow, surface temperature driven by
flow-mediated heat transfer from the gas with an exponential decay in the
tip-to-surface distance.  It is not a physical plasma model; it is a
deterministic stand-in with a qualitatively similar envelope, and every
constant can be overridden from the run configuration.

The Euler update is written once, in :func:`_euler_step`, over plain floats;
:func:`surrogate_step` and :func:`collect_open_loop` both call it.  Open-loop
collection draws its excitation only where it changes (each input redraw and
each distance redraw, in the order a per-step loop would draw them), fills
every hold as a slice and runs its input checks once over the whole schedule.
The dataset bytes it produces are pinned by a digest test.
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


def _euler_step(
    ts: float, tg: float, cem: float, power: float, flow: float, d: float, dt: float, c: SurrogateConstants
) -> tuple[float, float, float]:
    """One explicit-Euler step on plain floats; the inputs are checked and clipped."""
    drive_g = c.b_g * power / (1.0 + c.c_g * flow)
    transfer = c.b_s * math.exp(-(d - 2.0) / c.d0) * (tg - c.t_amb) * flow / (flow + c.q_h)
    return (
        ts + dt * (-c.a_s * (ts - c.t_amb) + transfer),
        tg + dt * (-c.a_g * (tg - c.t_amb) + drive_g),
        cem_update(cem, ts, dt / 60.0),
    )


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
    power, flow = u
    power, flow = float(power), float(flow)
    if not (math.isfinite(power) and math.isfinite(flow) and math.isfinite(d) and dt > 0):
        raise ValueError(f"non-finite input: u={u}, d={d}, dt={dt}")
    (p_lo, q_lo), (p_hi, q_hi) = box.u_lo, box.u_hi
    power = min(max(power, p_lo), p_hi)
    flow = min(max(flow, q_lo), q_hi)
    ts, tg, cem = _euler_step(state.ts, state.tg, state.cem, power, flow, d, dt, constants)
    return PlantState(ts=ts, tg=tg, cem=cem, d=d)


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


# steps whose inputs become Python floats at a time: whole-run lists would
# hold three float objects per sample at once
_COLLECT_BLOCK = 256


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

    The draws are those of a per-step loop that redraws the input at every
    multiple of ``u_hold`` and then, when its hold ends, the distance and its
    next hold.  The input redraws between two distance redraws come from one
    ``rng.random`` call, which yields the same doubles as one
    ``rng.uniform`` call per redraw.  The plant advances through
    :func:`_euler_step` and ends in the state a per-step loop would leave.
    """
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    ex, dt = excitation, plant.dt
    rng = np.random.default_rng(seed)
    u_lo = np.asarray(plant.box.u_lo, dtype=float)
    u_hi = np.asarray(plant.box.u_hi, dtype=float)
    u_span = u_hi - u_lo

    # input draw j holds over steps [j * u_hold, (j + 1) * u_hold)
    u_draws = np.empty(((n_points - 1) // ex.u_hold + 1, u_lo.size))
    d_log = np.empty((n_points, 1))
    u_draws[0] = u_lo + u_span * rng.random(u_lo.size)
    n_drawn, stop = 1, 0
    while stop < n_points:
        start = stop
        d_current = rng.uniform(ex.d_lo, ex.d_hi)
        stop = min(start + int(rng.integers(ex.d_hold_min, ex.d_hold_max + 1)), n_points)
        d_log[start:stop] = d_current
        # the input redraws up to and on step ``stop``, where the next distance redraw falls
        upto = min(stop // ex.u_hold + 1, len(u_draws))
        u_draws[n_drawn:upto] = u_lo + u_span * rng.random((upto - n_drawn, u_lo.size))
        n_drawn = upto
    u_log = np.repeat(u_draws, ex.u_hold, axis=0)[:n_points]

    if not (np.isfinite(u_log).all() and dt > 0):
        raise ValueError(f"non-finite excitation or dt={dt}")
    if not (D_MIN <= d_log.min() and d_log.max() <= D_MAX):
        raise ValueError(f"distance schedule outside [{D_MIN}, {D_MAX}] mm")

    y_log = np.empty((n_points, 2))
    c, state = plant.constants, plant.state
    ts, tg, cem = float(state.ts), float(state.tg), float(state.cem)
    for k0 in range(0, n_points, _COLLECT_BLOCK):
        k1 = min(k0 + _COLLECT_BLOCK, n_points)
        block = []
        for (power, flow), d in zip(np.clip(u_log[k0:k1], u_lo, u_hi).tolist(), d_log[k0:k1, 0].tolist()):
            block.append((ts, tg))
            ts, tg, cem = _euler_step(ts, tg, cem, power, flow, d, dt, c)
        y_log[k0:k1] = block
    plant.state = PlantState(ts=ts, tg=tg, cem=cem, d=float(d_log[-1, 0]))

    return Trajectory(u=u_log, y=y_log, p=d_log, dt=dt)
