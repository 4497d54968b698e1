"""Shared controller configuration, step results, tracking cost and receding-horizon step.

All receding-horizon controllers in this package minimize the same stage
cost: weighted squared tracking error plus weighted squared input moves,
with a terminal weight on the last predicted output.  The quadratic pieces
are assembled here once so every controller prices moves identically.
Every controller runs one step over the predicted (u, y),
:class:`HorizonController`, and supplies only its solve: one strictly
convex condensed QP for DeePC and ARX-MPC (:class:`LinearQpController`),
an SQP otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .hankel import DimensionError
from .optim import QpProblem, SolveDiagnostics, SolverError, solve_qp

__all__ = [
    "ControllerConfig",
    "ControllerSettings",
    "HorizonController",
    "LinearQpController",
    "NonFiniteWindowError",
    "StepResult",
    "TrackingCost",
    "check_target",
    "check_window",
]


@dataclass(frozen=True)
class ControllerSettings:
    """Horizons, weights, regularization and solver limits: a controller's YAML-settable part."""

    t_ini: int = 5
    horizon: int = 10
    q: tuple[float, ...] = (1.0, 0.0)       # output tracking weights (diagonal)
    r: tuple[float, ...] = (0.1, 0.1)       # input move weights (diagonal, > 0)
    p: tuple[float, ...] = (1.0, 0.0)       # terminal output weights (diagonal)
    lambda_g: float = 10.0
    lambda_sigma: float = 1e5
    regularizer: str = "projection"         # projection | two_norm
    kkt_tol: float = 1e-6
    max_iter: int = 50                      # SQP outer iterations
    qp_max_iter: int = 200
    warm_start: bool = True                 # neural controllers only; the linear QPs start cold
    # NPV-DeePC's kernel-slack mode was removed and only False is accepted.
    # The field stays because config_hash covers it and the stored benchmark
    # model's meta file pins that hash; it goes with the next model remake.
    kernel_slack: bool = False

    def __post_init__(self):
        for name in ("t_ini", "horizon", "max_iter", "qp_max_iter"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if len(self.q) != len(self.p):
            raise ValueError(f"q has {len(self.q)} weights and p {len(self.p)}; one per output each")
        if self.regularizer not in ("projection", "two_norm"):
            raise ValueError(f"unknown regularizer {self.regularizer!r}")
        if any(w < 0 for w in self.q + self.p) or any(w <= 0 for w in self.r):
            raise ValueError("Q and P weights must be >= 0, R weights > 0")
        if self.lambda_g < 0 or self.lambda_sigma < 0:
            raise ValueError("regularization weights must be nonnegative")
        if not self.kkt_tol > 0:
            raise ValueError(f"kkt_tol must be > 0, got {self.kkt_tol}")
        if self.kernel_slack:
            raise ValueError("kernel_slack: the kernel-slack mode was removed; only false is accepted")

    @property
    def n_u(self) -> int:
        return len(self.r)

    @property
    def n_y(self) -> int:
        return len(self.q)


@dataclass(frozen=True)
class ControllerConfig(ControllerSettings):
    """Settings plus the input and output box of one controller."""

    u_lo: tuple[float, ...] = (1.5, 1.0)
    u_hi: tuple[float, ...] = (8.0, 6.0)
    y_lo: tuple[float, ...] = (25.0, 20.0)
    y_hi: tuple[float, ...] = (42.5, 80.0)


@dataclass(kw_only=True)
class StepResult(SolveDiagnostics):
    """One receding-horizon solve: applied input, prediction and the solve's diagnostics."""

    u_apply: np.ndarray
    u_seq: np.ndarray          # (horizon, n_u)
    y_pred: np.ndarray         # (horizon, n_y)
    cost: float                # tracking cost recomputed from (u_seq, y_pred)
    extras: dict = field(default_factory=dict)


class NonFiniteWindowError(ValueError):
    """A past window, the reference or the previous input holds a NaN or infinite value."""


def check_window(cfg: ControllerConfig, u_ini, y_ini, p_hist=None, n_p: int = 0):
    """The past window as flat float vectors.

    ``u_ini`` and ``y_ini`` must hold ``t_ini`` samples of every channel.  A
    given ``p_hist`` must hold ``n_p * t_ini`` values.  A wrong length raises
    DimensionError and a non-finite value NonFiniteWindowError, before any
    solve could turn it into an input.
    """
    u_ini = np.asarray(u_ini, dtype=float).ravel()
    y_ini = np.asarray(y_ini, dtype=float).ravel()
    if u_ini.size != cfg.n_u * cfg.t_ini or y_ini.size != cfg.n_y * cfg.t_ini:
        raise DimensionError(
            f"initial window lengths ({u_ini.size}, {y_ini.size}) do not match horizons"
        )
    if p_hist is not None and np.size(p_hist) != n_p * cfg.t_ini:
        raise DimensionError(
            f"parameter history length {np.size(p_hist)} does not match n_p * t_ini = {n_p * cfg.t_ini}"
        )
    _check_finite(u_ini=u_ini, y_ini=y_ini, p_hist=p_hist)
    return u_ini, y_ini


def check_target(cfg: ControllerConfig, r_vec, u_prev):
    """The reference and the previously applied input as flat float vectors.

    ``r_vec`` must hold one value per output and ``u_prev`` one per input.
    As in :func:`check_window`, a wrong length raises DimensionError and a
    non-finite value NonFiniteWindowError.
    """
    r_vec = np.asarray(r_vec, dtype=float).ravel()
    u_prev = np.asarray(u_prev, dtype=float).ravel()
    if r_vec.size != cfg.n_y or u_prev.size != cfg.n_u:
        raise DimensionError(
            f"reference and previous input lengths ({r_vec.size}, {u_prev.size}) do not match "
            f"n_y = {cfg.n_y} and n_u = {cfg.n_u}"
        )
    _check_finite(r_vec=r_vec, u_prev=u_prev)
    return r_vec, u_prev


def _check_finite(**vectors) -> None:
    for name, v in vectors.items():
        # the array method, not np.all: the same test without its dispatch
        if v is not None and not np.isfinite(v).all():
            raise NonFiniteWindowError(f"{name} holds a non-finite value")


class TrackingCost:
    """Quadratic tracking cost over stacked (u, y) horizon vectors.

    0.5 x' H x + g' x + const reproduces
        sum_i ||y_i - r||_Q^2 + ||u_i - u_{i-1}||_R^2  +  ||y_last - r||_P^2
    with u_{-1} the previously applied input.  The terminal weight applies to
    the last stacked output block.
    """

    def __init__(self, cfg: ControllerConfig):
        self.cfg = cfg
        n_u, n_y, n = cfg.n_u, cfg.n_y, cfg.horizon
        self.nu = n_u * n
        self.ny = n_y * n
        q_bar = np.tile(np.asarray(cfg.q, dtype=float), n)
        q_bar[-n_y:] += np.asarray(cfg.p, dtype=float)
        self.q_bar = q_bar
        r_diag = np.asarray(cfg.r, dtype=float)
        r_bar = np.tile(r_diag, n)
        # difference operator: (D u - E u_prev) stacks the input moves
        diff = np.eye(self.nu)
        for i in range(1, n):
            diff[i * n_u:(i + 1) * n_u, (i - 1) * n_u:i * n_u] = -np.eye(n_u)
        self.diff = diff
        self.e_prev = np.zeros((self.nu, n_u))
        self.e_prev[:n_u] = np.eye(n_u)
        self.h_u = 2.0 * diff.T @ (r_bar[:, None] * diff)
        self.h_y = 2.0 * np.diag(q_bar)
        self._r_bar = r_bar

    def hessian(self) -> np.ndarray:
        """The block-diagonal Hessian over the stacked z = (u, y)."""
        h = np.zeros((self.nu + self.ny, self.nu + self.ny))
        h[:self.nu, :self.nu] = self.h_u
        h[self.nu:, self.nu:] = self.h_y
        return h

    def linear_terms(self, r_vec: np.ndarray, u_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(g_u, g_y) for the current reference and previous input."""
        n = self.cfg.horizon
        r_stack = np.tile(np.asarray(r_vec, dtype=float), n)
        g_y = -2.0 * self.q_bar * r_stack
        g_u = -2.0 * self.diff.T @ (self._r_bar * (self.e_prev @ np.asarray(u_prev, dtype=float)))
        return g_u, g_y

    def value(self, u_seq: np.ndarray, y_seq: np.ndarray, r_vec, u_prev) -> float:
        """Direct evaluation of the tracking cost from horizon sequences.

        sum q_bar (y - r)^2 + sum r_bar (D u - E u_prev)^2 over the stacked
        sequences, the terminal weight being part of ``q_bar``.
        """
        err = (np.reshape(y_seq, (self.cfg.horizon, -1)) - np.asarray(r_vec, dtype=float)).ravel()
        moves = self.diff @ np.asarray(u_seq, dtype=float).ravel() - self.e_prev @ np.asarray(u_prev, dtype=float)
        return float(err @ (self.q_bar * err) + moves @ (self._r_bar * moves))

    def u_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        n = self.cfg.horizon
        return np.tile(self.cfg.u_lo, n).astype(float), np.tile(self.cfg.u_hi, n).astype(float)

    def y_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        n = self.cfg.horizon
        return np.tile(self.cfg.y_lo, n).astype(float), np.tile(self.cfg.y_hi, n).astype(float)


class HorizonController:
    """One receding-horizon step over z = (u, y), shared by every controller.

    The box ``lb``/``ub`` over z is built once.  A step checks the window,
    the reference and the previous input, calls the subclass's
    :meth:`_solve` and builds the :class:`StepResult`.
    ``n_p`` counts the parameter channels the predictor reads; with 0,
    ``p_hist`` is ignored.
    """

    n_p = 0

    def __init__(self, cfg: ControllerConfig):
        self.cfg = cfg
        self.cost = TrackingCost(cfg)
        u_lo, u_hi = self.cost.u_bounds()
        y_lo, y_hi = self.cost.y_bounds()
        self.lb = np.concatenate([u_lo, y_lo])
        self.ub = np.concatenate([u_hi, y_hi])

    def _solve(self, u_ini, y_ini, p_hist, r_vec, u_prev) -> tuple[np.ndarray, SolveDiagnostics, dict]:
        """The solution z, its diagnostics and the controller's extras for one checked window."""
        raise NotImplementedError

    def solve_step(self, u_ini, y_ini, p_hist, r_vec, u_prev) -> tuple[np.ndarray, StepResult]:
        """Solve the program for the current window and return the first input."""
        cfg = self.cfg
        u_ini, y_ini = check_window(cfg, u_ini, y_ini, p_hist if self.n_p else None, self.n_p)
        r_vec, u_prev = check_target(cfg, r_vec, u_prev)
        z, diag, extras = self._solve(u_ini, y_ini, p_hist, r_vec, u_prev)
        nu = self.cost.nu
        u_seq = z[:nu].reshape(cfg.horizon, cfg.n_u)
        y_seq = z[nu:].reshape(cfg.horizon, cfg.n_y)
        result = StepResult(
            **vars(diag),
            u_apply=u_seq[0].copy(),
            u_seq=u_seq,
            y_pred=y_seq,
            cost=self.cost.value(u_seq, y_seq, r_vec, u_prev),
            extras=extras,
        )
        return result.u_apply, result


class LinearQpController(HorizonController):
    """Receding-horizon control by one strictly convex condensed QP per step.

    A subclass constructor only builds the fixed operators: ``h_factor``, the
    :class:`~npvdeepc.optim.HessianFactor` of the condensed Hessian, and for
    the past window w_ini = (u_ini, y_ini) either ``g_ini`` with ``gamma``
    None, or the output map y = ``gamma`` x + f, f = ``y_map`` w_ini + ``y_0``
    over x = (u, v), with an optional ``g_ini``.  The QP is over z = (u, y)
    with the (u, y) box in the first case.  In the second it is over x, with
    the input box on u, v free and the output box as the general rows
    y_lo - f <= gamma x <= y_hi - f.  The solve starts cold at the
    unconstrained minimizer (``cfg.warm_start`` does not apply) and raises
    :class:`SolverError` on an infeasible program.  Neither linear predictor
    uses the parameter, so ``p_hist`` is ignored.

    In the first case only g changes from step to step: the first step
    builds the box-only :class:`~npvdeepc.optim.QpProblem` once, with its
    side scales and scaled limits, and every step passes its g through
    :meth:`~npvdeepc.optim.QpProblem.with_g`.  From then on ``lb`` and ``ub``
    are read-only, so a write raises instead of leaving that program stale.
    In the second case the row limits move with f, and each step builds its
    program.
    """

    gamma: np.ndarray | None = None
    g_ini: np.ndarray | None = None

    def _extras(self, w_ini: np.ndarray, z: np.ndarray) -> dict:
        """Controller-specific entries of :attr:`StepResult.extras`."""
        return {}

    @cached_property
    def _box_qp(self) -> QpProblem:
        """The box-only program over z with g = 0, built at the first step without an output map."""
        self.lb.flags.writeable = self.ub.flags.writeable = False
        return QpProblem(h_factor=self.h_factor, g=np.zeros(self.lb.size), lb=self.lb, ub=self.ub)

    def _solve(self, u_ini, y_ini, p_hist, r_vec, u_prev):
        w_ini = np.concatenate([u_ini, y_ini])
        g_u, g_y = self.cost.linear_terms(r_vec, u_prev)
        nu = self.cost.nu
        if self.gamma is None:
            problem = self._box_qp.with_g(np.concatenate([g_u, g_y]) + self.g_ini @ w_ini)
        else:
            f = self.y_map @ w_ini + self.y_0
            g = self.gamma.T @ (g_y + 2.0 * self.cost.q_bar * f)
            if self.g_ini is not None:
                g += self.g_ini @ w_ini
            g[:nu] += g_u
            v_free = np.full(g.size - nu, np.inf)
            problem = QpProblem(
                h_factor=self.h_factor, g=g,
                lb=np.concatenate([self.lb[:nu], -v_free]), ub=np.concatenate([self.ub[:nu], v_free]),
                c=self.gamma, c_lo=self.lb[nu:] - f, c_hi=self.ub[nu:] - f,
            )
        x, diag = solve_qp(problem, tol=min(self.cfg.kkt_tol, 1e-8), max_iter=self.cfg.qp_max_iter)
        if diag.status == "infeasible":
            raise SolverError(
                f"{type(self).__name__} step infeasible: kkt_residual={diag.kkt_residual:.3e}, "
                f"iterations={diag.iterations}"
            )
        z = x if self.gamma is None else np.concatenate([x[:nu], self.gamma @ x + f])
        return z, diag, self._extras(w_ini, z)
