"""Shared controller configuration, step results and tracking-cost assembly.

All receding-horizon controllers in this package minimize the same stage
cost: weighted squared tracking error plus weighted squared input moves,
with a terminal weight on the last predicted output.  The quadratic pieces
are assembled here once so every controller prices moves identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

__all__ = ["ControllerConfig", "StepResult", "TrackingCost"]


@dataclass(frozen=True)
class ControllerConfig:
    """Horizons, weights, regularization and box constraints for one controller."""

    t_ini: int = 5
    horizon: int = 10
    q: tuple[float, ...] = (1.0, 0.0)       # output tracking weights (diagonal)
    r: tuple[float, ...] = (0.1, 0.1)       # input move weights (diagonal, > 0)
    p: tuple[float, ...] = (1.0, 0.0)       # terminal output weights (diagonal)
    lambda_g: float = 10.0
    lambda_sigma: float = 1e5
    u_lo: tuple[float, ...] = (1.5, 1.0)
    u_hi: tuple[float, ...] = (8.0, 6.0)
    y_lo: tuple[float, ...] = (25.0, 20.0)
    y_hi: tuple[float, ...] = (42.5, 80.0)
    regularizer: str = "projection"         # projection | two_norm
    kkt_tol: float = 1e-6
    max_iter: int = 50                      # SQP outer iterations
    qp_max_iter: int = 200
    warm_start: bool = True
    kernel_slack: bool = False              # soften the kernel constraint (neural variants)

    def __post_init__(self):
        if self.regularizer not in ("projection", "two_norm"):
            raise ValueError(f"unknown regularizer {self.regularizer!r}")
        if any(w < 0 for w in self.q + self.p) or any(w <= 0 for w in self.r):
            raise ValueError("Q and P weights must be >= 0, R weights > 0")
        if self.lambda_g < 0 or self.lambda_sigma < 0:
            raise ValueError("regularization weights must be nonnegative")

    @property
    def n_u(self) -> int:
        return len(self.r)

    @property
    def n_y(self) -> int:
        return len(self.q)

    def with_updates(self, **kw) -> "ControllerConfig":
        return replace(self, **kw)


@dataclass
class StepResult:
    """One receding-horizon solve: applied input, prediction and diagnostics."""

    u_apply: np.ndarray
    u_seq: np.ndarray          # (horizon, n_u)
    y_pred: np.ndarray         # (horizon, n_y)
    cost: float                # tracking cost recomputed from (u_seq, y_pred)
    status: str
    iterations: int
    kkt_residual: float
    wall_time_s: float
    extras: dict = field(default_factory=dict)


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

    def linear_terms(self, r_vec: np.ndarray, u_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(g_u, g_y) for the current reference and previous input."""
        n = self.cfg.horizon
        r_stack = np.tile(np.asarray(r_vec, dtype=float), n)
        g_y = -2.0 * self.q_bar * r_stack
        g_u = -2.0 * self.diff.T @ (self._r_bar * (self.e_prev @ np.asarray(u_prev, dtype=float)))
        return g_u, g_y

    def value(self, u_seq: np.ndarray, y_seq: np.ndarray, r_vec, u_prev) -> float:
        """Direct evaluation of the tracking cost from horizon sequences."""
        cfg = self.cfg
        u_seq = np.asarray(u_seq, dtype=float).reshape(cfg.horizon, cfg.n_u)
        y_seq = np.asarray(y_seq, dtype=float).reshape(cfg.horizon, cfg.n_y)
        r_vec = np.asarray(r_vec, dtype=float)
        q = np.asarray(cfg.q, dtype=float)
        r_w = np.asarray(cfg.r, dtype=float)
        p_w = np.asarray(cfg.p, dtype=float)
        cost = 0.0
        prev = np.asarray(u_prev, dtype=float)
        for i in range(cfg.horizon):
            err = y_seq[i] - r_vec
            du = u_seq[i] - prev
            cost += float(err @ (q * err) + du @ (r_w * du))
            prev = u_seq[i]
        err_t = y_seq[-1] - r_vec
        cost += float(err_t @ (p_w * err_t))
        return cost

    def u_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        n = self.cfg.horizon
        return np.tile(self.cfg.u_lo, n).astype(float), np.tile(self.cfg.u_hi, n).astype(float)

    def y_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        n = self.cfg.horizon
        return np.tile(self.cfg.y_lo, n).astype(float), np.tile(self.cfg.y_hi, n).astype(float)
