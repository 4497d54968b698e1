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

from .control import ControllerConfig, HorizonController, LinearQpController
from .hankel import DimensionError, HankelSet
from .optim import pinv, solve_qp  # noqa: F401  (solve_qp kept: perfbench tests read deepc.solve_qp)

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


class DeepcController(LinearQpController):
    """Receding-horizon DeePC over a fixed Hankel data set, in condensed form.

    Only the condensed operators are kept, as owned arrays no larger than
    the (u, y) block: ``g_ini`` prices the window through the eliminated
    (g, sigma) cost, and ``a_eq z = b_ini w_ini`` are the left-null-space rows.
    The step is :meth:`HorizonController.solve_step`.
    """

    def __init__(self, hankel_set: HankelSet, cfg: ControllerConfig):
        if hankel_set.t_ini != cfg.t_ini or hankel_set.horizon != cfg.horizon:
            raise DimensionError(
                f"Hankel horizons ({hankel_set.t_ini}, {hankel_set.horizon}) do not match "
                f"config ({cfg.t_ini}, {cfg.horizon})"
            )
        super().__init__(cfg)
        self.n_g = hankel_set.n_cols
        self._condense(hankel_set)

    def _condense(self, hs: HankelSet) -> None:
        """Eliminate w = (g, sigma) from the QP.

        With A_w w = r the equality rows (r = (u_ini, y_ini, u, y)) and H_w
        the Hessian of w, the minimizer of 0.5 w'H_w w over A_w w = r is
        w*(r) = M r for r in the range of A_w, at the cost 0.5 r'P r with
        P = M'H_w M.  r lies in that range iff N r = 0, N the left null
        space of A_w.
        """
        cfg = self.cfg
        nu, ny, ng = self.cost.nu, self.cost.ny, self.n_g
        ns = hs.n_y * cfg.t_ini
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

        self.h += p[n_ini:, n_ini:]
        self.g_ini = p[n_ini:, :n_ini].copy()
        self.sigma_map = m[ng:].copy()
        # N z = -N_p (u_ini, y_ini); no rows when A_w has full row rank
        left_null = u[:, rank:].T
        self.a_eq = left_null[:, n_ini:].copy()
        self.b_ini = -left_null[:, :n_ini]
        self.b_0 = np.zeros(self.a_eq.shape[0])

    def _extras(self, w_ini: np.ndarray, z: np.ndarray) -> dict:
        sigma = self.sigma_map @ np.concatenate([w_ini, z])
        return {"sigma_norm": float(np.linalg.norm(sigma))}

    # an entry of its own, so profilers and perfbench time each controller apart
    solve_step = HorizonController.solve_step
