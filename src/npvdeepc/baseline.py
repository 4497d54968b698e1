"""LTI-MPC benchmark: ARX least-squares identification plus the condensed linear QP step.

The baseline deliberately fits one linear time-invariant model to data from
the nonlinear parameter-varying plant, so its closed-loop role is the
imperfect-linear-model reference point the data-driven controllers are
compared against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import ControllerConfig, HorizonController, LinearQpController
from .hankel import DimensionError, Trajectory
from .optim import HessianFactor, QpProblem, solve_qp  # noqa: F401  (solve_qp kept: perfbench tests read baseline.solve_qp)

__all__ = [
    "ArxModel", "identify_arx", "arx_rollout", "arx_prediction_map", "arx_rollout_affine", "MpcController",
]


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


def arx_prediction_map(model: ArxModel, t_ini: int, horizon: int) -> np.ndarray:
    """Matrix M with y_stack = M @ (u_ini, y_ini, u_stack, 1) for the ARX rollout.

    ``u_ini``/``y_ini`` hold the last ``t_ini`` samples oldest-first and
    ``u_stack`` the ``horizon`` candidate inputs, all flattened.  The ARX
    recursion runs once, on the row blocks of M instead of on values, so the
    input map ``gamma = M[:, n_ini:-1]`` and the free response
    ``M[:, :n_ini] @ w_ini + M[:, -1]`` (n_ini = len(w_ini)) are both fixed
    matrices of the coefficients.
    """
    if max(model.n_a, model.n_b) > t_ini:
        raise DimensionError(f"ARX lag {max(model.n_a, model.n_b)} exceeds the past horizon {t_ini}")
    n_y, n_u = model.n_y, model.n_u
    n_ui, n_ini = t_ini * n_u, t_ini * (n_u + n_y)
    sel = np.eye(n_ini + horizon * n_u + 1)
    # each sample as the rows of M that produce it
    u_rows = [sel[k * n_u:(k + 1) * n_u] for k in range(t_ini)]
    u_rows += [sel[n_ini + i * n_u:n_ini + (i + 1) * n_u] for i in range(horizon)]
    y_rows = [sel[n_ui + k * n_y:n_ui + (k + 1) * n_y] for k in range(t_ini)]
    for t in range(t_ini, t_ini + horizon):
        rows = np.outer(model.intercept, sel[-1])
        for lag in range(1, model.n_a + 1):
            rows += model.a_coefs[lag - 1] @ y_rows[t - lag]
        for lag in range(1, model.n_b + 1):
            rows += model.b_coefs[lag - 1] @ u_rows[t - lag]
        y_rows.append(rows)
    return np.vstack(y_rows[t_ini:])


def arx_rollout_affine(model: ArxModel, y_hist, u_hist, horizon: int):
    """Condensed rollout from one history: y_stack = gamma @ u_stack + offset.

    ``y_hist``/``u_hist`` are equal-length (lag, channels) windows,
    oldest-first.
    """
    y_hist, u_hist = np.atleast_2d(y_hist), np.atleast_2d(u_hist)
    if len(y_hist) != len(u_hist):
        raise DimensionError(f"history lengths {len(y_hist)} (y) and {len(u_hist)} (u) differ")
    w_ini = np.concatenate([u_hist.ravel(), y_hist.ravel()]).astype(float)
    m = arx_prediction_map(model, len(y_hist), horizon)
    return m[:, w_ini.size:-1], m[:, :w_ini.size] @ w_ini + m[:, -1]


def arx_rollout(model: ArxModel, y_hist, u_hist, u_fut) -> np.ndarray:
    """Multi-step prediction for the (N, n_u) candidate inputs ``u_fut``.

    Windows as in :func:`arx_rollout_affine`; returns the (N, n_y) outputs.
    """
    u_fut = np.atleast_2d(np.asarray(u_fut, dtype=float))
    gamma, offset = arx_rollout_affine(model, y_hist, u_hist, len(u_fut))
    return (gamma @ u_fut.ravel() + offset).reshape(-1, model.n_y)


class MpcController(LinearQpController):
    """Receding-horizon MPC on the identified ARX model, in condensed form.

    The ARX rollout ``y = gamma u + f`` with the free response
    ``f = B_ini w_ini + b_0`` is affine in the future inputs and the past
    window, with matrices that depend only on the ARX coefficients and the
    horizons, so all of it is built once per controller.  The outputs are
    eliminated: a step solves over the inputs u only, with the Hessian
    ``h_u + gamma' h_y gamma`` factored once, the linear term
    ``g_u + gamma'(g_y + h_y f)``, the input box as bounds and the output
    box as the general rows ``y_lo - f <= gamma u <= y_hi - f``; then
    ``y = gamma u + f``.  No rollout runs in a step.  The step is
    :meth:`HorizonController.solve_step`.
    """

    def __init__(self, model: ArxModel, cfg: ControllerConfig):
        if model.n_y != cfg.n_y or model.n_u != cfg.n_u:
            raise DimensionError("ARX channel counts do not match the controller config")
        m = arx_prediction_map(model, cfg.t_ini, cfg.horizon)
        super().__init__(cfg)
        self.model = model
        n_ini = cfg.t_ini * (cfg.n_u + cfg.n_y)
        self.gamma = m[:, n_ini:-1].copy()
        self.b_ini = m[:, :n_ini].copy()
        self.b_0 = m[:, -1].copy()
        # h_u is positive definite (every move weight r > 0), so the factor exists
        self.h_factor = HessianFactor(self.cost.h_u + self.gamma.T @ self.cost.h_y @ self.gamma)

    def _free_response(self, w_ini: np.ndarray) -> np.ndarray:
        return self.b_ini @ w_ini + self.b_0

    def _problem(self, w_ini, r_vec, u_prev):
        nu = self.cost.nu
        f = self._free_response(w_ini)
        g_u, g_y = self.cost.linear_terms(r_vec, u_prev)
        return QpProblem(
            h_factor=self.h_factor, g=g_u + self.gamma.T @ (g_y + 2.0 * self.cost.q_bar * f),
            lb=self.lb[:nu], ub=self.ub[:nu],
            c=self.gamma, c_lo=self.lb[nu:] - f, c_hi=self.ub[nu:] - f,
        )

    def _z(self, x, w_ini):
        return np.concatenate([x, self.gamma @ x + self._free_response(w_ini)])

    # an entry of its own, so profilers and perfbench time each controller apart
    solve_step = HorizonController.solve_step
