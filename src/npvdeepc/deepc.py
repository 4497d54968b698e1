"""Data-enabled predictive control from raw input/output Hankel data.

The DeePC program is a convex QP over (u, y, g, sigma): the
trajectory-combination vector g must reproduce the measured initial window
(with slack sigma) and the candidate future window through the partitioned
data Hankels.  Only (u, y) carry bounds, and the cost on w = (g, sigma) is a
constant quadratic, so w is eliminated once per controller: for each
r = (u_ini, y_ini, u, y) the cheapest w with A_w w = r is linear in r, and
its cost is a fixed quadratic form in r.  Each step then solves a small QP
over z = (u, y) with the original box, plus the equality rows that the left
null space of A_w imposes on exact (rank-deficient) data.  This is the
direct-to-indirect reduction of Dörfler, Coulson & Markovsky (IEEE TAC 2023).

Two regularizers on g are available; the projection form penalizes only the
component of g orthogonal to the data-consistency row space and therefore
does not bias the prediction.
"""

from __future__ import annotations

import numpy as np

from .control import ControllerConfig, StepResult, TrackingCost
from .hankel import DimensionError, HankelSet
from .optim import QpProblem, SolverError, pinv, solve_qp

__all__ = ["build_projector", "DeepcController"]


def build_projector(hs: HankelSet) -> np.ndarray:
    """Orthogonal projector onto the row space of col(up, yp, uf).

    I - Pi then projects onto the kernel of the data-consistency equations,
    the subspace the projection regularizer penalizes.
    """
    mat = hs.past_future_stack()
    if mat.size == 0:
        raise DimensionError("empty Hankel stack")
    return pinv(mat) @ mat


class DeepcController:
    """Receding-horizon DeePC over a fixed Hankel data set, in condensed form.

    Only the condensed operators are kept, as owned arrays no larger than
    the (u, y) block.  Instances carry warm-start state; run one closed loop
    per instance.
    """

    def __init__(self, hankel_set: HankelSet, cfg: ControllerConfig):
        if hankel_set.t_ini != cfg.t_ini or hankel_set.horizon != cfg.horizon:
            raise DimensionError(
                f"Hankel horizons ({hankel_set.t_ini}, {hankel_set.horizon}) do not match "
                f"config ({cfg.t_ini}, {cfg.horizon})"
            )
        self.cfg = cfg
        self.cost = TrackingCost(cfg)
        self.n_g = hankel_set.n_cols
        self.n_sigma = hankel_set.n_y * cfg.t_ini
        self._condense(hankel_set)
        u_lo, u_hi = self.cost.u_bounds()
        y_lo, y_hi = self.cost.y_bounds()
        self.lb = np.concatenate([u_lo, y_lo])
        self.ub = np.concatenate([u_hi, y_hi])
        self._warm = None

    def _condense(self, hs: HankelSet) -> None:
        """Eliminate w = (g, sigma) from the QP.

        With A_w w = r the equality rows (r = (u_ini, y_ini, u, y)) and H_w
        the Hessian of w, the minimizer of 0.5 w'H_w w over A_w w = r is
        w*(r) = M r for r in the range of A_w, at the cost 0.5 r'P r with
        P = M'H_w M.  r lies in that range iff N r = 0, N the left null
        space of A_w.
        """
        cfg = self.cfg
        nu, ny, ng, ns = self.cost.nu, self.cost.ny, self.n_g, self.n_sigma
        n_ini = hs.n_u * cfg.t_ini + ns
        a_w = np.zeros((n_ini + nu + ny, ng + ns))
        a_w[:, :ng] = hs.stacked()
        a_w[hs.n_u * cfg.t_ini:n_ini, ng:] = -np.eye(ns)
        reg = np.eye(ng) - build_projector(hs) if cfg.regularizer == "projection" else np.eye(ng)
        h_w = np.zeros((ng + ns, ng + ns))
        h_w[:ng, :ng] = 2.0 * cfg.lambda_g * reg
        h_w[ng:, ng:] = 2.0 * cfg.lambda_sigma * np.eye(ns)

        u, s, vt = np.linalg.svd(a_w)
        rank = int(np.sum(s > max(a_w.shape) * np.finfo(float).eps * s[0]))
        # minimum-norm solution, then the cheapest null-space correction
        m = (vt[:rank].T / s[:rank]) @ u[:, :rank].T
        v_null = vt[rank:].T
        hv = h_w @ v_null
        m -= v_null @ (pinv(v_null.T @ hv) @ (hv.T @ m))
        p = m.T @ h_w @ m
        p = 0.5 * (p + p.T)

        h_z = np.zeros((nu + ny, nu + ny))
        h_z[:nu, :nu] = self.cost.h_u
        h_z[nu:, nu:] = self.cost.h_y
        self.h_z = h_z + p[n_ini:, n_ini:]
        self.p_zp = p[n_ini:, :n_ini].copy()
        self.sigma_map = m[ng:].copy()
        # N z = -N_p (u_ini, y_ini); no rows when A_w has full row rank
        left_null = u[:, rank:].T
        self.eq_z = left_null[:, n_ini:].copy()
        self.eq_p = left_null[:, :n_ini].copy()

    def reset(self) -> None:
        self._warm = None

    def solve_step(self, u_ini, y_ini, r_vec, u_prev) -> tuple[np.ndarray, StepResult]:
        """Solve the condensed QP for the current window and return the first input."""
        cfg = self.cfg
        u_ini = np.asarray(u_ini, dtype=float).ravel()
        y_ini = np.asarray(y_ini, dtype=float).ravel()
        if u_ini.size != cfg.n_u * cfg.t_ini or y_ini.size != self.n_sigma:
            raise DimensionError(
                f"initial window lengths ({u_ini.size}, {y_ini.size}) do not match horizons"
            )
        nu = self.cost.nu
        r_ini = np.concatenate([u_ini, y_ini])
        g_u, g_y = self.cost.linear_terms(r_vec, u_prev)
        g_lin = np.concatenate([g_u, g_y]) + self.p_zp @ r_ini
        prob = QpProblem(
            h=self.h_z, g=g_lin, a_eq=self.eq_z, b_eq=-self.eq_p @ r_ini,
            lb=self.lb, ub=self.ub, validate=False,
        )
        z, diag = solve_qp(prob, x0=self._warm, tol=min(cfg.kkt_tol, 1e-8), max_iter=cfg.qp_max_iter)
        if diag.status == "infeasible":
            raise SolverError(
                f"DeePC step infeasible: kkt_residual={diag.kkt_residual:.3e}, "
                f"iterations={diag.iterations}"
            )

        u_seq = z[:nu].reshape(cfg.horizon, cfg.n_u)
        y_seq = z[nu:].reshape(cfg.horizon, cfg.n_y)
        sigma = self.sigma_map @ np.concatenate([r_ini, z])
        result = StepResult(
            u_apply=u_seq[0].copy(),
            u_seq=u_seq,
            y_pred=y_seq,
            cost=self.cost.value(u_seq, y_seq, r_vec, u_prev),
            status=diag.status,
            iterations=diag.iterations,
            kkt_residual=diag.kkt_residual,
            wall_time_s=diag.wall_time_s,
            extras={"sigma_norm": float(np.linalg.norm(sigma))},
        )
        if cfg.warm_start:
            self._warm = np.concatenate([
                np.vstack([u_seq[1:], u_seq[-1:]]).ravel(),
                np.vstack([y_seq[1:], y_seq[-1:]]).ravel(),
            ])
        return result.u_apply, result
