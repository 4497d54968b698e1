"""Run configuration: schema, YAML loading and strict validation.

A run config is one YAML document with sections for the plant, excitation,
model training, Hankel sizes, per-controller settings and the two scenario
families.  The plant, excitation, model and controller sections are the
runtime config classes themselves (or subclasses adding one or two
section-only fields), so each setting and each of its validation rules is
declared once.  Unknown keys, wrong types and values a runtime class
rejects all raise ConfigError inside :func:`load_config`, before any
computation starts.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import types
import typing
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import yaml

from .control import ControllerSettings
from .hypernet import TrainConfig
from .plant import D_MAX, D_MIN, BoxConstraints, ExcitationConfig, SurrogateConstants

__all__ = [
    "ConfigError",
    "PlantSection",
    "ExcitationSection",
    "HankelSection",
    "MpcSection",
    "CemSection",
    "ControllersSection",
    "TrackingScenario",
    "CemScenario",
    "OutputSection",
    "RunConfig",
    "load_config",
    "config_from_dict",
    "config_hash",
    "config_to_dict",
]


class ConfigError(ValueError):
    pass


# libyaml's parser when PyYAML was built with it; both give the same documents
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _check_distances(name: str, values) -> None:
    bad = [d for d in values if not D_MIN <= d <= D_MAX]
    if bad:
        raise ConfigError(f"{name} {bad} outside the plant's [{D_MIN}, {D_MAX}] mm")


def _check_schedules(**schedules) -> None:
    for name, rows in schedules.items():
        if not rows:
            raise ConfigError(f"{name} must have at least one (t_start, value) row")
        starts = [t for t, _ in rows]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ConfigError(f"{name} t_start values must be strictly increasing, got {starts}")


def _check_step_counts(**counts: int) -> None:
    for name, n in counts.items():
        if n < 1:
            raise ConfigError(f"{name} must be >= 1, got {n}")


@dataclass(frozen=True)
class PlantSection(SurrogateConstants):
    dt: float = 0.5

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")


@dataclass(frozen=True)
class ExcitationSection(ExcitationConfig):
    n_points: int = 4000

    def __post_init__(self):
        super().__post_init__()
        if self.n_points < 1:
            raise ValueError(f"n_points must be >= 1, got {self.n_points}")


@dataclass(frozen=True)
class HankelSection:
    k_deepc: int = 300
    k_neural: int = 1000


@dataclass(frozen=True)
class MpcSection(ControllerSettings):
    n_a: int = 3
    n_b: int = 3

    def __post_init__(self):
        super().__post_init__()
        # with no input lag the ARX model has no input channels to control
        if self.n_a < 0 or self.n_b < 1:
            raise ValueError(f"ARX orders need n_a >= 0 and n_b >= 1, got {self.n_a}, {self.n_b}")


@dataclass(frozen=True)
class CemSection(ControllerSettings):
    horizon: int = 5
    r: tuple[float, ...] = (0.02, 0.02)  # delivery-stage move weights
    target: float = 0.3          # delivered dose target, minutes
    target_margin: float = 0.02  # extra dose aimed for, absorbs estimate error
    r_du: float = 1e-3           # input-move penalty in the dose program
    y_ub_margin: float = 0.4     # internal tightening of the Ts ceiling


@dataclass(frozen=True)
class ControllersSection:
    deepc: ControllerSettings = field(default_factory=ControllerSettings)
    neural_deepc: ControllerSettings = field(default_factory=ControllerSettings)
    npv_deepc: ControllerSettings = field(default_factory=ControllerSettings)
    mpc: MpcSection = field(default_factory=MpcSection)
    cem: CemSection = field(default_factory=CemSection)

    def __post_init__(self):
        # every controller drives the surrogate plant's channels
        box = BoxConstraints()
        n_u, n_y = len(box.u_lo), len(box.y_lo)
        default = ControllerSettings()
        for f in fields(self):
            section = getattr(self, f.name)
            # only DeepcController reads these; the other sections keep them for config_hash
            changed = [n for n in ("lambda_g", "lambda_sigma", "regularizer")
                       if f.name != "deepc" and getattr(section, n) != getattr(default, n)]
            if changed:
                raise ConfigError(f"{f.name}.{changed[0]}: only the deepc controller reads it")
            if len(section.r) != n_u or len(section.q) != n_y or len(section.p) != n_y:
                raise ConfigError(
                    f"{f.name}: r needs {n_u} weights and q, p need {n_y} each "
                    f"(got {len(section.r)}, {len(section.q)}, {len(section.p)})"
                )


@dataclass(frozen=True)
class TrackingScenario:
    n_steps: int = 120
    noise_sigma: float = 0.2
    controllers: tuple[str, ...] = ("npv_deepc", "neural_deepc", "deepc", "mpc")
    # piecewise-constant schedules: rows of (t_start_seconds, value)
    reference: tuple[tuple[float, float], ...] = ((0.0, 28.0), (20.0, 29.0), (35.0, 27.5))
    d_schedule: tuple[tuple[float, float], ...] = (
        (0.0, 3.0), (15.0, 2.0), (25.0, 4.0), (35.0, 5.0), (45.0, 3.0),
    )
    initial: str = "steady_state"   # steady_state | ambient
    y_lb_relax: float = 1.0         # widen the output floor inside the controllers
    y_ub_margin: float = 0.0        # tighten the output ceiling inside the controllers
    sweep_distances: tuple[float, ...] = (2.0, 3.0, 4.0, 5.0, 6.0, 7.0)
    sweep_n_steps: int = 100

    def __post_init__(self):
        if self.initial not in ("steady_state", "ambient"):
            raise ConfigError(f"unknown initial mode {self.initial!r}")
        bad = [c for c in self.controllers if c not in ("npv_deepc", "neural_deepc", "deepc", "mpc")]
        if bad:
            raise ConfigError(f"unknown controllers {bad}")
        for name in ("controllers", "sweep_distances"):
            values = getattr(self, name)
            if not values:
                raise ConfigError(f"{name} must name at least one entry")
            # output files and metric keys are named by entry
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} repeats an entry: {list(values)}")
        _check_schedules(reference=self.reference, d_schedule=self.d_schedule)
        _check_distances("d_schedule distances", [d for _, d in self.d_schedule])
        _check_distances("sweep_distances", self.sweep_distances)
        _check_step_counts(n_steps=self.n_steps, sweep_n_steps=self.sweep_n_steps)
        if not self.noise_sigma >= 0.0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")


@dataclass(frozen=True)
class CemScenario:
    n_steps: int = 150
    noise_sigma: float = 0.2
    # the 5 s distance perturbation sits mid-way through the delivery phase
    d_schedule: tuple[tuple[float, float], ...] = ((0.0, 2.5), (24.5, 3.5), (29.5, 2.5))
    # the dose plant runs hotter so the 42.5 degC ceiling is reachable
    b_s: float = 0.3

    def __post_init__(self):
        _check_schedules(d_schedule=self.d_schedule)
        _check_distances("d_schedule distances", [d for _, d in self.d_schedule])
        _check_step_counts(n_steps=self.n_steps)
        if not self.noise_sigma >= 0.0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")


@dataclass(frozen=True)
class OutputSection:
    dir: str = "results"


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    plant: PlantSection = field(default_factory=PlantSection)
    excitation: ExcitationSection = field(default_factory=ExcitationSection)
    model: TrainConfig = field(default_factory=TrainConfig)
    hankel: HankelSection = field(default_factory=HankelSection)
    controllers: ControllersSection = field(default_factory=ControllersSection)
    scenario: TrackingScenario = field(default_factory=TrackingScenario)
    cem_scenario: CemScenario = field(default_factory=CemScenario)
    output: OutputSection = field(default_factory=OutputSection)

    def __post_init__(self):
        # each Hankel needs at least one column of depth t_ini + horizon
        ctl = self.controllers
        for name, k, sections in (
            ("k_deepc", self.hankel.k_deepc, ("npv_deepc",)),
            ("k_neural", self.hankel.k_neural, ("npv_deepc", "cem")),
        ):
            for section in sections:
                depth = getattr(ctl, section).t_ini + getattr(ctl, section).horizon
                if k < depth:
                    raise ConfigError(f"hankel.{name} = {k} is below {section}'s t_ini + horizon = {depth}")


def _coerce(value, typ, path: str):
    if isinstance(typ, types.UnionType):  # ``X | None``
        if value is None and type(None) in typ.__args__:
            return None
        (typ,) = [a for a in typ.__args__ if a is not type(None)]
    origin = getattr(typ, "__origin__", None)
    if is_dataclass(typ):
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected a mapping, got {type(value).__name__}")
        return _from_dict(typ, value, path)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list")
        args = typ.__args__
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_coerce(v, args[0], f"{path}[{i}]") for i, v in enumerate(value))
        if len(args) != len(value):
            raise ConfigError(f"{path}: expected {len(args)} entries, got {len(value)}")
        return tuple(_coerce(v, a, f"{path}[{i}]") for i, (v, a) in enumerate(zip(value, args)))
    if typ is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        if not abs(value) <= sys.float_info.max:  # NaN, +-inf and ints past the float range
            raise ConfigError(f"{path}: expected a finite number, got {value!r}")
        return float(value)
    if typ is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return int(value)
    if typ is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected a boolean, got {value!r}")
        return value
    if typ is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        return value
    return value


def _from_dict(cls, data: dict, path: str = ""):
    known = {f.name: f for f in fields(cls)}
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"{path or cls.__name__}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        f = known[name]
        sub_path = f"{path}.{name}" if path else name
        # resolve the declared type from the dataclass field
        typ = f.type if not isinstance(f.type, str) else _type_hints(cls)[f.name]
        kwargs[name] = _coerce(value, typ, sub_path)
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path or cls.__name__}: {exc}") from exc


@functools.cache
def _type_hints(cls) -> dict:
    """Resolved field annotations of a config dataclass, evaluated once per class."""
    return typing.get_type_hints(cls)


def config_from_dict(data: dict) -> RunConfig:
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a mapping, got {type(data).__name__}")
    return _from_dict(RunConfig, data)


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = yaml.load(path.read_text(), Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    return config_from_dict(data)


def config_to_dict(cfg) -> dict:
    if is_dataclass(cfg):
        return {f.name: config_to_dict(getattr(cfg, f.name)) for f in fields(cfg)}
    if isinstance(cfg, tuple):
        return [config_to_dict(v) for v in cfg]
    return cfg


def config_hash(cfg: RunConfig) -> str:
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]
