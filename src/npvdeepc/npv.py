"""Neural and parameter-varying DeePC built on the trained predictor.

Each data Hankel column is pushed through the hidden-layer feature map to
give a neural-space basis; stacking a ones row makes predictions affine in
the features.  The controller then solves a small nonlinear program: the
predicted outputs y must match the data-driven affine map of the features
of the candidate input u, up to an output-space correction g_tilde.  The
structural program (see ``problem_size``) pins g_tilde to the kernel of
``kmat`` with equality rows.  The controller solves the same program over
(u, y, a) with g_tilde = B a instead, where B spans null(kmat) (no columns
when kmat has full column rank, so g_tilde vanishes); the ny prediction
rows are then the only equality constraints (Lemma 2: the kernel component
does not change the prediction).  The feature map alone is nonlinear in u,
so a Gauss-Newton SQP with the analytic feature Jacobian converges in a
handful of iterations.

The fixed-basis variant freezes the hypernet at the training-set mean
parameter, removing the parameter-varying adaptation but keeping everything
else identical.  The thermal-dose variant tracks its surface-temperature
ceiling until the dose target is within the horizon's reach, then swaps the
tracking cost for a terminal dose miss with a smoothed activation switch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import ControllerConfig, StepResult, TrackingCost, check_window
from .hankel import DimensionError, HankelSet, Trajectory, build_hankel, partition
from .hypernet import HyperDnnModel, WindowDataset, assemble_normalized, refit_output_ls
from .optim import pinv, solve_sqp
from .plant import CEM_KAPPA, CEM_REFERENCE_TEMP, CEM_SWITCH_TEMP

__all__ = [
    "NeuralHankel",
    "RankDeficientError",
    "hankel_with_params",
    "transform_hankel",
    "lemma2_residual",
    "npv_prediction",
    "problem_size",
    "NpvController",
    "NeuralController",
    "CemController",
    "smoothed_kappa",
    "predicted_cem",
]


class RankDeficientError(ValueError):
    pass


@dataclass
class NeuralHankel:
    """Feature-space data matrices and their precomputed pseudo-inverse operators."""

    phi_hl: np.ndarray        # (nu_L, n_cols)
    yf: np.ndarray            # (n_y*N, n_cols)
    m: np.ndarray             # pinv of col(phi_hl, 1'):  (n_cols, nu_L+1)
    kmat: np.ndarray          # col(phi_hl, 1') @ pinv(yf):  (nu_L+1, n_y*N)
    theta_ls: np.ndarray      # yf @ m:  (n_y*N, nu_L+1)
    null_basis: np.ndarray    # orthonormal basis of null(kmat):  (n_y*N, n_y*N - rank)
    stack_rank: int
    yf_full_row_rank: bool

    @property
    def n_cols(self) -> int:
        return self.phi_hl.shape[1]

    def stack(self) -> np.ndarray:
        return np.vstack([self.phi_hl, np.ones((1, self.n_cols))])


def hankel_with_params(
    traj: Trajectory, t_ini: int, horizon: int, n_cols: int | None = None
) -> tuple[HankelSet, np.ndarray]:
    """Partitioned Hankel plus the aligned parameter-history columns.

    Column j of the returned (n_p*t_ini, n_cols) matrix is the parameter
    history of the window that forms Hankel column j.
    """
    hs = partition(traj, t_ini, horizon, n_cols)
    p_hank = build_hankel(traj.p[:hs.k_source], t_ini)
    return hs, p_hank[:, :hs.n_cols]


def transform_hankel(
    model: HyperDnnModel,
    hs: HankelSet,
    p_hist_cols: np.ndarray,
    p_override: np.ndarray | None = None,
    rank_rtol: float = 1e-8,
    refit_model: bool = True,
) -> NeuralHankel:
    """Push every Hankel column through the feature map and precompute operators.

    ``p_override`` replaces the per-column parameter history with one fixed
    raw history (the fixed-basis controller variant); pass
    ``refit_model=False`` there so the model's refit output layer keeps
    tracking the parameter-varying transform.  Construction fails if the
    stacked feature matrix loses full row rank, since the affine combination
    then no longer spans the neural space.
    """
    d = model.dims
    if hs.t_ini != d.t_ini or hs.horizon != d.horizon:
        raise DimensionError("Hankel horizons do not match the model dims")
    p_hist_cols = np.atleast_2d(np.asarray(p_hist_cols, dtype=float))
    if p_hist_cols.shape != (d.n_p * d.t_ini, hs.n_cols):
        raise DimensionError(
            f"parameter history block {p_hist_cols.shape} does not align with "
            f"{hs.n_cols} Hankel columns"
        )

    n_cols = hs.n_cols
    # column j of a block stacks its time steps, so the transpose reshapes
    # into the (window, step, channel) layout of a WindowDataset
    windows = WindowDataset(
        u_hist=hs.up.T.reshape(n_cols, d.t_ini, d.n_u),
        y_hist=hs.yp.T.reshape(n_cols, d.t_ini, d.n_y),
        u_fut=hs.uf.T.reshape(n_cols, d.horizon, d.n_u),
        y_fut=hs.yf.T.reshape(n_cols, d.horizon, d.n_y),
        p_hist=p_hist_cols.T.reshape(n_cols, d.t_ini, d.n_p),
        t_ini=d.t_ini, horizon=d.horizon,
    )
    u_nn, p_in, _ = assemble_normalized(windows, model.scalers, d.hyper_input)
    if p_override is not None:
        p_in = np.broadcast_to(model.normalize_p(p_override), p_in.shape)
    if not (np.all(np.isfinite(u_nn)) and np.all(np.isfinite(p_in))):
        raise ValueError("non-finite network input")
    phi = model.phi_hl_batch(u_nn, p_in).T

    stack = np.vstack([phi, np.ones((1, n_cols))])
    svals = np.linalg.svd(stack, compute_uv=False)
    rank = int(np.sum(svals > rank_rtol * svals[0]))
    if rank < stack.shape[0]:
        raise RankDeficientError(
            f"neural Hankel rank deficient ({rank} < {stack.shape[0]}): "
            "enrich data or reduce the feature width"
        )
    m = pinv(stack)
    yf_svals = np.linalg.svd(hs.yf, compute_uv=False)
    yf_rank = int(np.sum(yf_svals > max(hs.yf.shape) * np.finfo(float).eps * yf_svals[0]))
    kmat = stack @ pinv(hs.yf)
    _, k_svals, k_vt = np.linalg.svd(kmat)
    k_rank = int(np.sum(k_svals > max(kmat.shape) * np.finfo(float).eps * k_svals[0]))
    nh = NeuralHankel(
        phi_hl=phi,
        yf=hs.yf.copy(),
        m=m,
        kmat=kmat,
        theta_ls=hs.yf @ m,
        null_basis=k_vt[k_rank:].T,
        stack_rank=rank,
        yf_full_row_rank=yf_rank == hs.yf.shape[0],
    )
    if refit_model:
        refit_output_ls(model, phi, hs.yf)
    return nh


def lemma2_residual(model: HyperDnnModel, nh: NeuralHankel) -> tuple[np.ndarray, float]:
    """Least-squares residual matrix and its worst action on the feature kernel.

    The data-driven and refit-model predictions agree exactly when the
    residual annihilates the null space of the feature stack; the returned
    violation is sup ||E g|| over unit-norm null vectors (the spectral norm
    of E restricted to the kernel), a data-quality diagnostic.
    """
    if model.theta_ls is None:
        raise ValueError("refit output layer before computing the residual")
    stack = nh.stack()
    e = nh.yf - model.theta_ls @ stack
    _, svals, vt = np.linalg.svd(stack)
    rank = int(np.sum(svals > max(stack.shape) * np.finfo(float).eps * svals[0]))
    null_basis = vt[rank:].T
    if null_basis.shape[1] == 0:
        return e, 0.0
    violation = float(np.linalg.norm(e @ null_basis, 2))
    return e, violation


def npv_prediction(nh: NeuralHankel, phi_k: np.ndarray, g_tilde: np.ndarray | None = None) -> np.ndarray:
    """Data-driven prediction yf @ g* for the minimum-norm g* matching phi_k."""
    rhs = np.concatenate([np.asarray(phi_k, dtype=float).ravel(), [1.0]])
    g_star = nh.m @ rhs
    y = nh.yf @ g_star
    if g_tilde is not None:
        y = y + np.asarray(g_tilde, dtype=float).ravel()
    return y


def problem_size(cfg: ControllerConfig, nu_l: int) -> dict[str, int]:
    """Structural size of the nonlinear program before any elimination.

    Decision variables count u, y, the output-space combination vector and
    the kernel slack; equalities count the kernel rows plus the prediction
    match; inequalities are both sides of the input and output boxes.
    """
    n, n_u, n_y = cfg.horizon, cfg.n_u, cfg.n_y
    return {
        "decision_variables": (n_u + 2 * n_y) * n + nu_l + 1,
        "equality_constraints": n_y * n + nu_l + 1,
        "inequality_constraints": 2 * (n_u + n_y) * n,
    }


class NpvController:
    """Parameter-varying neural DeePC with receding-horizon warm starts.

    Decision variables are (u, y, a) with g_tilde = ``basis @ a`` and
    ``basis`` spanning null(kmat); the only equality rows are the prediction
    match y = theta_ls [phi(u); 1] + g_tilde.  The a-block carries the
    quadratic lambda_g |g_tilde|^2 penalty, so the cost stays constant and
    quadratic.

    The hidden weights depend only on the measured parameter history, so
    each step computes them once (one ``hyper_forward`` call) and hands the
    layer list to the constraint and curvature callbacks and to the initial
    point; every candidate input of the solve reuses them.

    A step is ``solve_step(u_ini, y_ini, p_hist, r_vec, u_prev)``, the
    signature every controller shares.
    """

    def __init__(
        self,
        model: HyperDnnModel,
        nh: NeuralHankel,
        cfg: ControllerConfig,
        p_override: np.ndarray | None = None,
    ):
        d = model.dims
        if (cfg.t_ini, cfg.horizon, cfg.n_u, cfg.n_y) != (d.t_ini, d.horizon, d.n_u, d.n_y):
            raise DimensionError("controller config does not match the model dims")
        self.model = model
        self.nh = nh
        self.cfg = cfg
        self.cost = TrackingCost(cfg)
        self.p_override = None if p_override is None else np.asarray(p_override, dtype=float)
        self.nu_l = model.nu_l
        self.nu, self.ny = self.cost.nu, self.cost.ny
        self.basis = nh.null_basis
        self.off_a = self.nu + self.ny
        self.n_var = self.off_a + self.basis.shape[1]
        self._warm_u = None
        self._assemble_static()

    def _assemble_static(self) -> None:
        cfg = self.cfg
        n, nu, off_a, b = self.n_var, self.nu, self.off_a, self.basis
        h = np.zeros((n, n))
        h[:nu, :nu] = self.cost.h_u
        h[nu:off_a, nu:off_a] = self.cost.h_y
        h[off_a:, off_a:] = 2.0 * cfg.lambda_g * b.T @ b
        self.h_static = h

        u_lo, u_hi = self.cost.u_bounds()
        y_lo, y_hi = self.cost.y_bounds()
        lb = np.full(n, -np.inf)
        ub = np.full(n, np.inf)
        lb[:nu], ub[:nu] = u_lo, u_hi
        lb[nu:off_a], ub[nu:off_a] = y_lo, y_hi
        self.lb, self.ub = lb, ub

    def reset(self) -> None:
        self._warm_u = None

    def problem_size(self) -> dict[str, int]:
        return problem_size(self.cfg, self.nu_l)

    def _p_norm_for_step(self, p_hist) -> np.ndarray:
        src = self.p_override if self.p_override is not None else p_hist
        return self.model.normalize_p(src)

    def _network_input(self, u_ini_n, y_ini_n, u_seq_raw) -> np.ndarray:
        """Normalized network input for a raw candidate input sequence."""
        d = self.model.dims
        u_f_n = self.model.scalers.u.normalize(
            np.asarray(u_seq_raw, dtype=float).reshape(d.horizon, d.n_u)
        ).ravel()
        return np.concatenate([u_ini_n, y_ini_n, u_f_n])

    def _constraint_fn(self, u_ini_n, y_ini_n, layers):
        theta = self.nh.theta_ls
        basis = self.basis
        nu, off_a = self.nu, self.off_a
        jac_ya = np.hstack([np.eye(self.ny), -basis])

        def eq_fn(x):
            phi, jac_phi = self.model.features(layers, self._network_input(u_ini_n, y_ini_n, x[:nu]))
            c = x[nu:off_a] - theta @ np.concatenate([phi, [1.0]]) - basis @ x[off_a:]
            return c, np.hstack([-(theta[:, :-1] @ jac_phi), jac_ya])

        return eq_fn

    def _lag_hess_fn(self, u_ini_n, y_ini_n, layers):
        """Constraint-curvature term for the QP Hessian (single hidden layer).

        The prediction rows are -theta[:, :-1] phi(u) in u, so the curvature
        of the Lagrangian's constraint part is a block ``C`` on the input
        variables.  The rows have an identity block on y, so the null space
        of their linearization is spanned by Z = [[I, 0], [J_y, B], [0, I]]
        over (u, a), with J_y = -jac[:, :nu] and B = ``basis``.  When the
        reduced Hessian Z' hess Z (plus C on its u block) has a Cholesky
        factor, the local program is convex on the constraint manifold and
        C enters unclipped, which gives the SQP Newton-rate convergence;
        otherwise C is clipped to PSD by an eigendecomposition.  ``hess`` is
        the Hessian of whichever cost the step solves, so the dose stage's
        Gauss-Newton cost is tested on its own Hessian.
        """
        theta_feat = self.nh.theta_ls[:, :-1]
        nu, off_a = self.nu, self.off_a
        z = np.zeros((self.n_var, self.n_var - self.ny))
        z[:nu, :nu] = np.eye(nu)
        z[nu:off_a, nu:] = self.basis
        z[off_a:, nu:] = np.eye(self.basis.shape[1])

        def lag_hess(x, lam, hess, jac):
            u_nn = self._network_input(u_ini_n, y_ini_n, x[:nu])
            block = self.model.feature_curvature(layers, u_nn, -(theta_feat.T @ lam))
            if block is None:
                return None
            block = 0.5 * (block + block.T)
            z[nu:off_a, :nu] = -jac[:, :nu]  # J_y at x; the other blocks are fixed
            reduced = z.T @ hess @ z
            reduced[:nu, :nu] += block
            try:
                np.linalg.cholesky(reduced)
            except np.linalg.LinAlgError:
                vals, vecs = np.linalg.eigh(block)
                block = (vecs * np.maximum(vals, 0.0)) @ vecs.T
            out = np.zeros((self.n_var, self.n_var))
            out[:nu, :nu] = block
            return out

        return lag_hess

    def _initial_point(self, u_ini_n, y_ini_n, layers, u_prev) -> np.ndarray:
        cfg = self.cfg
        if cfg.warm_start and self._warm_u is not None:
            u0 = np.vstack([self._warm_u[1:], self._warm_u[-1:]])
        else:
            u0 = np.tile(np.clip(u_prev, cfg.u_lo, cfg.u_hi), (cfg.horizon, 1))
        u0_flat = u0.ravel()
        phi, _ = self.model.features(layers, self._network_input(u_ini_n, y_ini_n, u0_flat))
        y0 = self.nh.theta_ls @ np.concatenate([phi, [1.0]])
        x0 = np.zeros(self.n_var)
        x0[:self.nu] = u0_flat
        x0[self.nu:self.off_a] = y0
        return x0

    def _cost_fn(self, r_vec, u_prev):
        g_lin = np.zeros(self.n_var)
        g_u, g_y = self.cost.linear_terms(r_vec, u_prev)
        g_lin[:self.nu] = g_u
        g_lin[self.nu:self.off_a] = g_y
        h = self.h_static

        def cost_fn(x):
            return 0.5 * float(x @ (h @ x)) + float(g_lin @ x), h @ x + g_lin, h

        return cost_fn

    def solve_step(self, u_ini, y_ini, p_hist, r_vec, u_prev) -> tuple[np.ndarray, StepResult]:
        cfg = self.cfg
        d = self.model.dims
        u_ini, y_ini = check_window(cfg, u_ini, y_ini, p_hist, d.n_p)
        u_ini_n = self.model.scalers.u.normalize(u_ini.reshape(d.t_ini, d.n_u)).ravel()
        y_ini_n = self.model.scalers.y.normalize(y_ini.reshape(d.t_ini, d.n_y)).ravel()
        # the hidden weights depend on the measured parameter history only
        layers = self.model.hyper_forward(self._p_norm_for_step(p_hist))
        u_prev = np.asarray(u_prev, dtype=float)

        eq_fn = self._constraint_fn(u_ini_n, y_ini_n, layers)
        cost_fn = self._cost_fn(r_vec, u_prev)
        x0 = self._initial_point(u_ini_n, y_ini_n, layers, u_prev)
        x, diag = solve_sqp(
            cost_fn, eq_fn, self.lb, self.ub, x0,
            tol=cfg.kkt_tol, max_iter=cfg.max_iter, qp_max_iter=cfg.qp_max_iter,
            lag_hess_fn=self._lag_hess_fn(u_ini_n, y_ini_n, layers),
        )
        # non-convergence (including a locally infeasible subproblem) returns
        # the best iterate with its status; the inputs are always box-feasible
        u_seq = x[:self.nu].reshape(cfg.horizon, cfg.n_u)
        y_seq = x[self.nu:self.off_a].reshape(cfg.horizon, cfg.n_y)
        g_t = self.basis @ x[self.off_a:]
        cost_val = self.cost.value(u_seq, y_seq, r_vec, u_prev)
        c_final, _ = eq_fn(x)
        result = StepResult(
            u_apply=u_seq[0].copy(),
            u_seq=u_seq,
            y_pred=y_seq,
            cost=cost_val,
            status=diag.status,
            iterations=diag.iterations,
            kkt_residual=diag.kkt_residual,
            wall_time_s=diag.wall_time_s,
            extras={
                "g_tilde_norm": float(np.linalg.norm(g_t)),
                "kernel_residual": float(np.linalg.norm(self.nh.kmat @ g_t, np.inf)),
                "constraint_residual": float(np.linalg.norm(c_final, np.inf)),
            },
        )
        if cfg.warm_start:
            self._warm_u = u_seq.copy()
        return result.u_apply, result


class NeuralController(NpvController):
    """Fixed-basis neural DeePC: hypernet frozen at the training-set mean parameter.

    The frozen history must be applied consistently, online and to the data:
    build the NeuralHankel with ``p_override=frozen_parameter_history(model)``
    and ``refit_model=False``.
    """

    def __init__(self, model: HyperDnnModel, nh: NeuralHankel, cfg: ControllerConfig):
        super().__init__(model, nh, cfg, p_override=frozen_parameter_history(model))


def frozen_parameter_history(model: HyperDnnModel) -> np.ndarray:
    """Raw parameter history pinned at the training-set mean."""
    if model.p_train_mean is None:
        raise ValueError("model carries no training-set mean parameter")
    p = model.p_train_mean
    if model.dims.hyper_input == "current":
        p = np.tile(p, model.dims.t_ini)
    return p


def smoothed_kappa(ts) -> np.ndarray:
    """Smoothed dose-activation base: 0.5 * logistic((Ts - 35) / 0.5).

    Used inside the optimizer only; the plant keeps the exact on/off switch.
    Equals 0.25 at the 35 degC switching point by construction.
    """
    return CEM_KAPPA / (1.0 + np.exp(-(np.asarray(ts, dtype=float) - CEM_SWITCH_TEMP) / 0.5))


def predicted_cem(ts_seq, cem_now: float, dt_minutes: float) -> tuple[np.ndarray, np.ndarray]:
    """Smoothed dose trajectory along a predicted temperature sequence.

    Returns (cem_path, d_increment/d_ts): cem_path[i] is the dose after step
    i and the increment sensitivities feed the Gauss-Newton terminal cost.
    """
    ts = np.asarray(ts_seq, dtype=float)
    kap = smoothed_kappa(ts)
    log_k = np.log(kap)
    expo = CEM_REFERENCE_TEMP - ts
    inc = np.exp(expo * log_k) * dt_minutes
    sig = kap / CEM_KAPPA  # logistic factor; kappa' = kappa * (1 - sig) / width
    dkap_dts = CEM_KAPPA * sig * (1.0 - sig) / 0.5
    dinc = inc * (-log_k + expo * dkap_dts / kap)
    cem_path = cem_now + np.cumsum(inc)
    return cem_path, dinc


class CemController(NpvController):
    """Thermal-dose delivery in two stages on the neural behavior constraint.

    The terminal dose miss carries a usable gradient only once the target is
    within what the short horizon can deliver: far below the 35 degC switch
    the smoothed activation is flat, and just above it the reachable dose
    change is smaller than any move penalty.  So the controller stages:

    * deliver -- while the remaining dose exceeds the horizon's reach
      (``horizon`` steps held at the Ts ceiling ``cfg.y_hi[0]``), solve the
      inherited tracking program with the Ts reference on the ceiling;
    * dose -- once the target is within reach, minimize the dose miss
      ((target - predicted final dose) / reach)^2 plus the ``r_du`` move
      penalty, on the same constraint and boxes.  The dose recursion is
      smoothed so this program stays differentiable; the plant-side
      accumulator keeps the exact switch.

    The first predicted output is the current sample, which no input in the
    horizon can change, so its box is dropped: bounding it would only turn
    a measurement above the ceiling into an infeasible program.  A step that
    still ends without a point satisfying the constraints (status
    ``infeasible``, or a constraint residual above ``cfg.kkt_tol``) applies
    the input floor ``cfg.u_lo`` instead of the returned iterate; the
    solver status is reported unchanged.
    """

    def __init__(
        self,
        model: HyperDnnModel,
        nh: NeuralHankel,
        cfg: ControllerConfig,
        cem_target: float,
        dt: float,
        r_du: float = 1e-3,
    ):
        super().__init__(model, nh, cfg)
        self.cem_target = float(cem_target)
        self.dt_minutes = dt / 60.0
        self.r_du = float(r_du)
        self._ts_index = np.arange(cfg.horizon) * cfg.n_y  # Ts is output channel 0
        # most dose the horizon can deliver without crossing the Ts ceiling
        self.horizon_reach = (
            cfg.horizon * self.dt_minutes * CEM_KAPPA ** (CEM_REFERENCE_TEMP - cfg.y_hi[0])
        )
        self._r_deliver = np.zeros(cfg.n_y)
        self._r_deliver[0] = cfg.y_hi[0]
        self._stage = "deliver"
        self._cem_now = 0.0
        self.lb[self.nu:self.nu + cfg.n_y] = -np.inf
        self.ub[self.nu:self.nu + cfg.n_y] = np.inf

    def _dose_cost_fn(self, u_prev):
        nu, off_a = self.nu, self.off_a
        diff, e_prev = self.cost.diff, self.cost.e_prev
        h_u = 2.0 * self.r_du * diff.T @ diff
        g_u = -2.0 * self.r_du * diff.T @ (e_prev @ np.asarray(u_prev, dtype=float))
        h_a = self.h_static[off_a:, off_a:]
        target = self.cem_target
        cem_now = self._cem_now
        dt_min = self.dt_minutes
        ts_idx = self._ts_index
        reach = self.horizon_reach

        def cost_fn(x):
            a = x[off_a:]
            ts = x[nu:off_a][ts_idx]
            cem_path, dinc = predicted_cem(ts, cem_now, dt_min)
            rho = (target - cem_path[-1]) / reach
            grad = np.zeros(self.n_var)
            hess = np.zeros((self.n_var, self.n_var))
            # Gauss-Newton on the scalar dose-miss residual
            jrho = np.zeros(self.n_var)
            jrho[nu:off_a][ts_idx] = -dinc / reach
            f = rho ** 2
            grad += 2.0 * rho * jrho
            hess += 2.0 * np.outer(jrho, jrho)
            # small input-move penalty keeps the flat directions conditioned
            f += 0.5 * float(x[:nu] @ (h_u @ x[:nu])) + float(g_u @ x[:nu])
            grad[:nu] += h_u @ x[:nu] + g_u
            hess[:nu, :nu] += h_u
            f += 0.5 * float(a @ (h_a @ a))
            grad[off_a:] += h_a @ a
            hess[off_a:, off_a:] += h_a
            return f, grad, hess

        return cost_fn

    def _cost_fn(self, r_vec, u_prev):
        if self._stage == "deliver":
            return super()._cost_fn(r_vec, u_prev)
        return self._dose_cost_fn(u_prev)

    def solve_step(self, u_ini, y_ini, p_hist, cem_now: float, u_prev) -> tuple[np.ndarray, StepResult]:
        """One dose step in the step signature every controller shares.

        The goal position carries the measured dose estimate ``cem_now``
        where the tracking controllers take the reference; ``u_prev`` is the
        input applied at the previous step.
        """
        self._cem_now = float(cem_now)
        self._stage = "deliver" if self.cem_target - cem_now > self.horizon_reach else "dose"
        _, result = super().solve_step(u_ini, y_ini, p_hist, self._r_deliver, u_prev)
        cem_path, _ = predicted_cem(result.y_pred[:, 0], cem_now, self.dt_minutes)
        if self._stage == "dose":
            result.cost = float((self.cem_target - cem_path[-1]) ** 2)
        result.extras.update({
            "stage": self._stage,
            "cem_pred_final": float(cem_path[-1]),
            "cem_pred_delta": float(cem_path[-1] - cem_now),
            "cem_path": cem_path.tolist(),
        })
        if result.status == "infeasible" or result.extras["constraint_residual"] > self.cfg.kkt_tol:
            result.u_apply = np.asarray(self.cfg.u_lo, dtype=float)
        return result.u_apply, result
