"""LTI-MPC benchmark: ARX least-squares identification plus a condensed QP.

The baseline deliberately fits one linear time-invariant model to data from
the nonlinear parameter-varying plant, so its closed-loop role is the
imperfect-linear-model reference point the data-driven controllers are
compared against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import ControllerConfig, StepResult, TrackingCost
from .hankel import DimensionError, Trajectory
from .optim import QpProblem, SolverError, solve_qp

__all__ = ["ArxModel", "identify_arx", "arx_rollout", "arx_rollout_affine", "MpcController"]


@dataclass
class ArxModel:
    """One-step linear predictor with per-lag coefficient matrices.

    y(k) = sum_i A_i y(k-i) + sum_j B_j u(k-j) + c, fitted by least squares.
    The intercept absorbs the ambient operating point.
    """

    a_coefs: np.ndarray     # (n_a, n_y, n_y)
    b_coefs: np.ndarray     # (n_b, n_y, n_u)
    intercept: np.ndarray   # (n_y,)
    fit_residual: float = 0.0

    @property
    def n_a(self) -> int:
        return self.a_coefs.shape[0]

    @property
    def n_b(self) -> int:
        return self.b_coefs.shape[0]

    @property
    def n_y(self) -> int:
        return self.intercept.size

    @property
    def n_u(self) -> int:
        return self.b_coefs.shape[2] if self.n_b else 0

    def one_step(self, y_past: np.ndarray, u_past: np.ndarray) -> np.ndarray:
        """Predict y(k) from y(k-1..k-n_a) and u(k-1..k-n_b), newest first."""
        out = self.intercept.copy()
        for i in range(self.n_a):
            out = out + self.a_coefs[i] @ y_past[i]
        for j in range(self.n_b):
            out = out + self.b_coefs[j] @ u_past[j]
        return out


def identify_arx(traj: Trajectory, n_a: int, n_b: int) -> ArxModel:
    """Least-squares fit of the one-step ARX predictor on a trajectory."""
    if n_a < 0 or n_b < 0 or (n_a == 0 and n_b == 0):
        raise ValueError("empty regressor: need n_a + n_b >= 1")
    n_u, n_y, _ = traj.dims
    lag = max(n_a, n_b)
    n = traj.n_samples - lag
    n_feat = n_a * n_y + n_b * n_u + 1
    if n < 2 * n_feat:
        raise DimensionError(
            f"trajectory too short for ARX({n_a},{n_b}): {traj.n_samples} samples"
        )
    # columns y(k-1..k-n_a), u(k-1..k-n_b), 1 for k = lag .. n_samples-1
    rows = np.hstack(
        [traj.y[lag - i:lag - i + n] for i in range(1, n_a + 1)]
        + [traj.u[lag - j:lag - j + n] for j in range(1, n_b + 1)]
        + [np.ones((n, 1))]
    )
    targets = traj.y[lag:]

    rank = np.linalg.matrix_rank(rows)
    if rank < n_feat:
        raise ValueError(f"rank-deficient ARX regressor: rank {rank} < {n_feat}")
    theta, *_ = np.linalg.lstsq(rows, targets, rcond=None)
    theta = theta.T  # (n_y, n_feat)
    residual = float(np.sqrt(np.mean((rows @ theta.T - targets) ** 2)))

    a_coefs = np.empty((n_a, n_y, n_y))
    for i in range(n_a):
        a_coefs[i] = theta[:, i * n_y:(i + 1) * n_y]
    off = n_a * n_y
    b_coefs = np.empty((n_b, n_y, n_u))
    for j in range(n_b):
        b_coefs[j] = theta[:, off + j * n_u:off + (j + 1) * n_u]
    return ArxModel(a_coefs=a_coefs, b_coefs=b_coefs, intercept=theta[:, -1], fit_residual=residual)


def arx_rollout(model: ArxModel, y_hist: np.ndarray, u_hist: np.ndarray, u_fut: np.ndarray) -> np.ndarray:
    """Multi-step prediction by repeated one-step predictions.

    ``y_hist``/``u_hist`` are (lag, channels) oldest-first; ``u_fut`` is the
    (N, n_u) candidate input sequence.
    """
    y_hist = np.atleast_2d(np.asarray(y_hist, dtype=float))
    u_hist = np.atleast_2d(np.asarray(u_hist, dtype=float))
    u_fut = np.atleast_2d(np.asarray(u_fut, dtype=float))
    y_all = list(y_hist)
    u_all = list(u_hist)
    preds = []
    for i in range(u_fut.shape[0]):
        y_past = np.array([y_all[-j] for j in range(1, model.n_a + 1)])
        u_past = np.array([u_all[-j] for j in range(1, model.n_b + 1)])
        # the input applied at the predicted step enters the NEXT prediction
        y_next = model.one_step(y_past, u_past)
        preds.append(y_next)
        y_all.append(y_next)
        u_all.append(u_fut[i])
    return np.array(preds)


def arx_rollout_affine(model: ArxModel, y_hist, u_hist, horizon: int):
    """Condensed rollout: y_stack = gamma @ u_stack + offset.

    Propagates the prediction sensitivities so the multi-step map is exact
    and matches :func:`arx_rollout` to machine precision.
    """
    n_y, n_u = model.n_y, model.n_u
    y_hist = np.atleast_2d(np.asarray(y_hist, dtype=float))
    u_hist = np.atleast_2d(np.asarray(u_hist, dtype=float))
    n_fut = horizon * n_u
    # each known signal value carries a constant part and a gradient wrt u_fut
    y_vals = [(y, np.zeros((n_y, n_fut))) for y in y_hist]
    u_vals = [(u, np.zeros((n_u, n_fut))) for u in u_hist]
    for i in range(horizon):
        grad_u = np.zeros((n_u, n_fut))
        grad_u[:, i * n_u:(i + 1) * n_u] = np.eye(n_u)
        u_vals.append((np.zeros(n_u), grad_u))

    gamma = np.zeros((horizon * n_y, n_fut))
    offset = np.zeros(horizon * n_y)
    for i in range(horizon):
        t = len(y_vals)
        val = model.intercept.copy()
        grad = np.zeros((n_y, n_fut))
        for lag in range(1, model.n_a + 1):
            v, g = y_vals[t - lag]
            val = val + model.a_coefs[lag - 1] @ v
            grad = grad + model.a_coefs[lag - 1] @ g
        for lag in range(1, model.n_b + 1):
            v, g = u_vals[len(u_hist) + i - lag]
            val = val + model.b_coefs[lag - 1] @ v
            grad = grad + model.b_coefs[lag - 1] @ g
        y_vals.append((val, grad))
        gamma[i * n_y:(i + 1) * n_y] = grad
        offset[i * n_y:(i + 1) * n_y] = val
    return gamma, offset


class MpcController:
    """Receding-horizon MPC on the identified ARX model (condensed QP).

    The rollout map ``y = gamma u + offset`` has a ``gamma`` that depends only
    on the ARX coefficients and the horizon, so ``gamma`` and the equality
    rows ``[-gamma, I]`` are built once per controller.  A step computes only
    the free response ``offset`` (the rollout of its history under zero
    future input).
    """

    def __init__(self, model: ArxModel, cfg: ControllerConfig):
        if model.n_y != cfg.n_y or model.n_u != cfg.n_u:
            raise DimensionError("ARX channel counts do not match the controller config")
        if max(model.n_a, model.n_b) > cfg.t_ini:
            raise DimensionError(
                f"ARX lag {max(model.n_a, model.n_b)} exceeds the past horizon {cfg.t_ini}"
            )
        self.model = model
        self.cfg = cfg
        self.cost = TrackingCost(cfg)
        self.n_var = self.cost.nu + self.cost.ny
        self._warm_u = None
        u_lo, u_hi = self.cost.u_bounds()
        y_lo, y_hi = self.cost.y_bounds()
        self.lb = np.concatenate([u_lo, y_lo])
        self.ub = np.concatenate([u_hi, y_hi])
        h = np.zeros((self.n_var, self.n_var))
        h[:self.cost.nu, :self.cost.nu] = self.cost.h_u
        h[self.cost.nu:, self.cost.nu:] = self.cost.h_y
        self.h = h
        # the sensitivities never see the history, so a zero one gives gamma
        self.gamma = arx_rollout_affine(
            model, np.zeros((cfg.t_ini, cfg.n_y)), np.zeros((cfg.t_ini, cfg.n_u)), cfg.horizon
        )[0]
        self.a_eq = np.hstack([-self.gamma, np.eye(self.cost.ny)])

    def reset(self) -> None:
        self._warm_u = None

    def solve_step(self, u_ini, y_ini, r_vec, u_prev) -> tuple[np.ndarray, StepResult]:
        cfg = self.cfg
        u_hist = np.asarray(u_ini, dtype=float).reshape(cfg.t_ini, cfg.n_u)
        y_hist = np.asarray(y_ini, dtype=float).reshape(cfg.t_ini, cfg.n_y)
        offset = arx_rollout(self.model, y_hist, u_hist, np.zeros((cfg.horizon, cfg.n_u))).ravel()

        nu, ny = self.cost.nu, self.cost.ny
        g_lin = np.zeros(self.n_var)
        g_u, g_y = self.cost.linear_terms(r_vec, u_prev)
        g_lin[:nu] = g_u
        g_lin[nu:] = g_y
        prob = QpProblem(
            h=self.h, g=g_lin, a_eq=self.a_eq, b_eq=offset, lb=self.lb, ub=self.ub, validate=False
        )
        x0 = None
        if cfg.warm_start and self._warm_u is not None:
            # the shifted inputs with their own rollout satisfy every equality
            # row, so phase 1 runs only when the box clips that point
            x0 = np.concatenate([self._warm_u, self.gamma @ self._warm_u + offset])
        x, diag = solve_qp(prob, x0=x0, tol=min(cfg.kkt_tol, 1e-8), max_iter=cfg.qp_max_iter)
        if diag.status == "infeasible":
            raise SolverError(f"MPC step infeasible (kkt={diag.kkt_residual:.3e})")

        u_seq = x[:nu].reshape(cfg.horizon, cfg.n_u)
        y_seq = x[nu:].reshape(cfg.horizon, cfg.n_y)
        cost_val = self.cost.value(u_seq, y_seq, r_vec, u_prev)
        result = StepResult(
            u_apply=u_seq[0].copy(),
            u_seq=u_seq,
            y_pred=y_seq,
            cost=cost_val,
            status=diag.status,
            iterations=diag.iterations,
            kkt_residual=diag.kkt_residual,
            wall_time_s=diag.wall_time_s,
        )
        if cfg.warm_start:
            self._warm_u = np.vstack([u_seq[1:], u_seq[-1:]]).ravel()
        return result.u_apply, result
