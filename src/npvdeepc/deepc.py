"""Data-enabled predictive control from raw input/output Hankel data.

The DeePC program is a convex QP over (u, y, g, sigma): the
trajectory-combination vector g must reproduce the measured initial window
(with slack sigma) and the candidate future window through the partitioned
data Hankels.  Only (u, y) carry bounds, and the cost on w = (g, sigma) is a
constant quadratic, so w is eliminated once per controller: for each
r = (u_ini, y_ini, u, y) the cheapest w with A_w w = r is linear in r, and
its cost is a fixed quadratic form in r.  This is the direct-to-indirect
reduction of Dörfler, Coulson & Markovsky (IEEE TAC 2023).  On exact
(rank-deficient) data the left null space of A_w adds equality rows on
(u, y); they fix the outputs up to a few free coordinates v, so y is
eliminated once as well and a step solves over (u, v) with the output box
as general rows, the shape of the ARX-MPC program.  Either way the
condensed Hessian is factored once, and the step of
:class:`~npvdeepc.control.LinearQpController` is one call of
:func:`~npvdeepc.optim.solve_qp`.

Two regularizers on g are available; the projection form penalizes only the
component of g orthogonal to the data-consistency row space and therefore
does not bias the prediction.
"""

from __future__ import annotations

import numpy as np

from .control import ControllerConfig, HorizonController, LinearQpController
from .hankel import DimensionError, HankelSet, RankDeficientError
from .optim import HessianFactor, IndefiniteHessianError, pinv, solve_qp  # noqa: F401  (solve_qp kept: perfbench tests read deepc.solve_qp)

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

    Only the operators of :class:`~npvdeepc.control.LinearQpController`'s
    program are kept, as owned arrays no larger than the (u, y) block.
    ``g_ini`` prices the window through the eliminated (g, sigma) cost.
    Without left-null rows ``gamma`` is None and the step solves over
    z = (u, y); with them (exact data) over x = (u, v), with ``y_0`` zero.
    Construction raises :class:`~npvdeepc.hankel.RankDeficientError` when
    those rows constrain the inputs alone, and
    :class:`~npvdeepc.optim.IndefiniteHessianError` when the condensed
    Hessian has no factor.  The step is :meth:`HorizonController.solve_step`.
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
        self._fold_operators()

    def _condense(self, hs: HankelSet) -> None:
        """Eliminate w = (g, sigma) from the QP, then y where rows fix it.

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

        p_z = p[n_ini:, n_ini:]
        h = self.cost.hessian() + p_z
        self.g_ini = p[n_ini:, :n_ini].copy()
        self.sigma_map = m[ng:].copy()
        # N z = -N_p (u_ini, y_ini); no rows when A_w has full row rank
        left_null = u[:, rank:].T
        if left_null.shape[0]:
            h = self._eliminate_outputs(h, p_z[:, nu:], left_null[:, n_ini:], -left_null[:, :n_ini])
        try:
            self.h_factor = HessianFactor(h)
        except IndefiniteHessianError as exc:
            raise IndefiniteHessianError(
                f"DeePC's condensed Hessian has no factor ({exc}): the program has no unique "
                "minimizer, for example with lambda_g 0 and zero output weights q and p"
            ) from None

    def _eliminate_outputs(self, h: np.ndarray, p_y: np.ndarray, a_z: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Solve the left-null rows ``a_z z = b w_ini`` for y once; return the reduced Hessian.

        With a_z = [A_u, A_y] and A_y of full row rank, the outputs on the
        rows are y = gamma x + y_map w_ini over x = (u, v), with
        gamma = [-A_y^+ A_u, K], K a basis of null(A_y), and
        y_map = A_y^+ b.  So z = T x + (0, y_map w_ini) with
        T = [I 0; gamma], and the Hessian becomes T'HT.  Of the window's
        term T'(g_ini + H_y y_map), H_y the output columns of H, the step
        adds the tracking part itself; ``g_ini`` keeps T'(g_ini + P_y y_map),
        P_y = ``p_y`` the output columns of the (g, sigma) cost.
        """
        nu = self.cost.nu
        a_u, a_y = a_z[:, :nu], a_z[:, nu:]
        u_y, s_y, vt_y = np.linalg.svd(a_y)
        rank = int(np.sum(s_y > max(a_y.shape) * np.finfo(float).eps * s_y[0]))
        if rank < a_y.shape[0]:
            raise RankDeficientError(
                f"{a_y.shape[0] - rank} of the data's {a_y.shape[0]} left-null rows bind the inputs "
                "or the past window alone: the data are not persistently exciting"
            )
        a_y_pinv = (vt_y[:rank].T / s_y) @ u_y.T
        self.gamma = np.hstack([-a_y_pinv @ a_u, vt_y[rank:].T])
        self.y_map = a_y_pinv @ b
        self.y_0 = np.zeros(self.y_map.shape[0])
        t = np.vstack([np.eye(nu, self.gamma.shape[1]), self.gamma])
        self.g_ini = t.T @ (self.g_ini + p_y @ self.y_map)
        return t.T @ h @ t

    def _extras(self, w_ini: np.ndarray, z: np.ndarray) -> dict:
        sigma = self.sigma_map @ np.concatenate([w_ini, z])
        return {"sigma_norm": float(np.linalg.norm(sigma))}

    # an entry of its own, so profilers and perfbench time each controller apart
    solve_step = HorizonController.solve_step
