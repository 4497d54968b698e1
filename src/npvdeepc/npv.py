"""Neural and parameter-varying DeePC built on the trained predictor.

Each data Hankel column is pushed through the hidden-layer feature map to
give a neural-space basis; stacking a ones row makes predictions affine in
the features.  The controller then solves a small nonlinear program over
(u, y): the predicted outputs y must match the data-driven affine map
theta_ls [phi(u); 1] of the features of the candidate input u, and these
n_y N prediction rows are the only equality constraints.  The structural
program (see ``problem_size``) also carries an output-space correction
pinned to null(kmat) by equality rows; the controller requires kmat to have
full column rank (at least as many stacked features nu_L + 1 as predicted
outputs n_y N), so that kernel is trivial and the correction vanishes.
The feature map alone is nonlinear in u, so a Gauss-Newton SQP with the
analytic feature Jacobian converges in a handful of iterations.

The fixed-basis baseline is the same controller on the Hankel of
``HyperDnnModel.frozen()``, the hypernet frozen at the training-set mean
parameter.  The thermal-dose variant tracks its surface-temperature
ceiling until the dose target is within the horizon's reach, then swaps the
tracking cost for a terminal dose miss with a smoothed activation switch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import ControllerConfig, HorizonController, StepResult
from .hankel import DimensionError, HankelSet, Trajectory, build_hankel, partition
from .hypernet import HyperDnnModel, WindowDataset, assemble_normalized
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
    "CemController",
    "smoothed_kappa",
    "predicted_cem",
]


class RankDeficientError(ValueError):
    pass


@dataclass
class NeuralHankel:
    """Feature-space data matrices, their operators and the model that built them.

    A controller reads its predictor ``model`` here, so it cannot pair one
    model with another model's data.  ``theta_ls`` is the least-squares
    output map Y_f pinv(col(Phi, 1')) every controller predicts with.
    """

    model: HyperDnnModel
    phi_hl: np.ndarray        # (nu_L, n_cols)
    yf: np.ndarray            # (n_y*N, n_cols)
    m: np.ndarray             # pinv of col(phi_hl, 1'):  (n_cols, nu_L+1)
    kmat: np.ndarray          # col(phi_hl, 1') @ pinv(yf):  (nu_L+1, n_y*N)
    theta_ls: np.ndarray      # yf @ m:  (n_y*N, nu_L+1)
    stack_rank: int
    kmat_rank: int

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
    rank_rtol: float = 1e-8,
) -> NeuralHankel:
    """Push every Hankel column through the feature map and precompute operators.

    A pure function: the model is only read, and the result keeps it.
    Construction fails if the stacked feature matrix loses full row rank,
    since the affine combination then no longer spans the neural space.
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
    kmat = stack @ pinv(hs.yf)
    k_svals = np.linalg.svd(kmat, compute_uv=False)
    return NeuralHankel(
        model=model,
        phi_hl=phi,
        yf=hs.yf.copy(),
        m=m,
        kmat=kmat,
        theta_ls=hs.yf @ m,
        stack_rank=rank,
        kmat_rank=int(np.sum(k_svals > max(kmat.shape) * np.finfo(float).eps * k_svals[0])),
    )


def lemma2_residual(nh: NeuralHankel) -> tuple[np.ndarray, float]:
    """Residual Y_f - theta_ls col(Phi, 1') and its worst action on the feature kernel.

    Every combination g with col(Phi, 1') g = [phi; 1] predicts Y_f g =
    theta_ls [phi; 1] exactly when the residual E annihilates the null space
    of the feature stack; the returned violation is sup ||E g|| over
    unit-norm null vectors (the spectral norm of E restricted to the
    kernel), a data-quality diagnostic.
    """
    stack = nh.stack()
    e = nh.yf - nh.theta_ls @ stack
    _, svals, vt = np.linalg.svd(stack)
    rank = int(np.sum(svals > max(stack.shape) * np.finfo(float).eps * svals[0]))
    kernel = vt[rank:].T
    if kernel.shape[1] == 0:
        return e, 0.0
    violation = float(np.linalg.norm(e @ kernel, 2))
    return e, violation


def npv_prediction(nh: NeuralHankel, phi_k: np.ndarray) -> np.ndarray:
    """Data-driven prediction yf @ g* for the minimum-norm g* matching phi_k."""
    rhs = np.concatenate([np.asarray(phi_k, dtype=float).ravel(), [1.0]])
    return nh.yf @ (nh.m @ rhs)


def problem_size(cfg: ControllerConfig, nu_l: int) -> dict[str, int]:
    """Structural size of the paper's nonlinear program before any elimination.

    Decision variables count u, y, the output-space combination vector and
    the kernel slack; equalities count the kernel rows plus the prediction
    match; inequalities are both sides of the input and output boxes.  The
    controller solves the same program over (u, y) alone, since a kmat of
    full column rank pins the output correction to zero.
    """
    n, n_u, n_y = cfg.horizon, cfg.n_u, cfg.n_y
    return {
        "decision_variables": (n_u + 2 * n_y) * n + nu_l + 1,
        "equality_constraints": n_y * n + nu_l + 1,
        "inequality_constraints": 2 * (n_u + n_y) * n,
    }


class NpvController(HorizonController):
    """Parameter-varying neural DeePC with receding-horizon warm starts.

    Decision variables are z = (u, y); the only equality rows are the
    prediction match y = theta_ls [phi(u); 1], and the tracking cost is
    constant and quadratic.  Construction fails with
    :class:`RankDeficientError` unless kmat has full column rank: a kernel
    direction of kmat would leave an output correction free that this
    program does not carry.

    The predictor is ``nh.model``.  Its hidden weights depend only on the
    measured parameter history (not at all for a frozen model), so each
    step computes them once (one ``hyper_forward`` call) and hands the
    layer list to the constraint and curvature callbacks and to the initial
    point; every candidate input of the solve reuses them.

    With ``cfg.warm_start``, each step keeps its input sequence shifted by
    one step in ``_shifted`` as the next solve's start; run one closed loop
    per instance.  The step is :meth:`HorizonController.solve_step`; this
    class supplies its SQP solve.
    """

    def __init__(self, nh: NeuralHankel, cfg: ControllerConfig):
        d = nh.model.dims
        if (cfg.t_ini, cfg.horizon, cfg.n_u, cfg.n_y) != (d.t_ini, d.horizon, d.n_u, d.n_y):
            raise DimensionError("controller config does not match the model dims")
        super().__init__(cfg)
        self.model = nh.model
        self.nh = nh
        self.n_p = d.n_p
        self.nu_l = nh.model.nu_l
        self.nu, self.ny = self.cost.nu, self.cost.ny
        self.h = self.cost.hessian()
        self._shifted = None
        if nh.kmat_rank < self.ny:
            raise RankDeficientError(
                f"kmat has rank {nh.kmat_rank} < n_y*N = {self.ny} with "
                f"nu_L + 1 = {self.nu_l + 1} stacked features: widen the feature "
                "layer or shorten the horizon"
            )
        self.n_var = self.nu + self.ny

    def problem_size(self) -> dict[str, int]:
        return problem_size(self.cfg, self.nu_l)

    def _network_input(self, u_ini_n, y_ini_n, u_seq_raw) -> np.ndarray:
        """Normalized network input for a raw candidate input sequence."""
        d = self.model.dims
        u_f_n = self.model.scalers.u.normalize(
            np.asarray(u_seq_raw, dtype=float).reshape(d.horizon, d.n_u)
        ).ravel()
        return np.concatenate([u_ini_n, y_ini_n, u_f_n])

    def _constraint_fn(self, u_ini_n, y_ini_n, layers):
        theta = self.nh.theta_ls
        nu = self.nu
        jac_y = np.eye(self.ny)

        def eq_fn(x):
            phi, jac_phi = self.model.features(layers, self._network_input(u_ini_n, y_ini_n, x[:nu]))
            c = x[nu:] - theta @ np.concatenate([phi, [1.0]])
            return c, np.hstack([-(theta[:, :-1] @ jac_phi), jac_y])

        return eq_fn

    def _lag_hess_fn(self, u_ini_n, y_ini_n, layers):
        """Constraint-curvature term for the QP Hessian (single hidden layer).

        The prediction rows are -theta[:, :-1] phi(u) in u, so the curvature
        of the Lagrangian's constraint part is a block ``C`` on the input
        variables.  The rows have an identity block on y, so the null space
        of their linearization is spanned by Z = [I; J_y] over u, with
        J_y = -jac[:, :nu].  When the reduced Hessian Z' hess Z + C has a
        Cholesky factor, the local program is convex on the constraint
        manifold and C enters unclipped, which gives the SQP Newton-rate convergence;
        otherwise C is clipped to PSD by an eigendecomposition.  ``hess`` is
        the Hessian of whichever cost the step solves, so the dose stage's
        Gauss-Newton cost is tested on its own Hessian.
        """
        theta_feat = self.nh.theta_ls[:, :-1]
        nu = self.nu
        z = np.vstack([np.eye(nu), np.zeros((self.ny, nu))])

        def lag_hess(x, lam, hess, jac):
            u_nn = self._network_input(u_ini_n, y_ini_n, x[:nu])
            block = self.model.feature_curvature(layers, u_nn, -(theta_feat.T @ lam))
            if block is None:
                return None
            block = 0.5 * (block + block.T)
            z[nu:] = -jac[:, :nu]  # J_y at x; the identity block is fixed
            reduced = z.T @ hess @ z + block
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
        if self._shifted is not None:
            u0_flat = self._shifted
        else:
            u0_flat = np.tile(np.clip(u_prev, cfg.u_lo, cfg.u_hi), cfg.horizon)
        phi, _ = self.model.features(layers, self._network_input(u_ini_n, y_ini_n, u0_flat))
        y0 = self.nh.theta_ls @ np.concatenate([phi, [1.0]])
        x0 = np.zeros(self.n_var)
        x0[:self.nu] = u0_flat
        x0[self.nu:] = y0
        return x0

    def _cost_fn(self, r_vec, u_prev):
        g_lin = self.linear_term(r_vec, u_prev)
        h = self.h

        def cost_fn(x):
            return 0.5 * float(x @ (h @ x)) + float(g_lin @ x), h @ x + g_lin, h

        return cost_fn

    def _solve(self, u_ini, y_ini, p_hist, r_vec, u_prev):
        cfg = self.cfg
        d = self.model.dims
        u_ini_n = self.model.scalers.u.normalize(u_ini.reshape(d.t_ini, d.n_u)).ravel()
        y_ini_n = self.model.scalers.y.normalize(y_ini.reshape(d.t_ini, d.n_y)).ravel()
        # the hidden weights depend on the measured parameter history only
        layers = self.model.hyper_forward(self.model.normalize_p(p_hist))

        eq_fn = self._constraint_fn(u_ini_n, y_ini_n, layers)
        x, diag = solve_sqp(
            self._cost_fn(r_vec, u_prev), eq_fn, self.lb, self.ub,
            self._initial_point(u_ini_n, y_ini_n, layers, u_prev),
            tol=cfg.kkt_tol, max_iter=cfg.max_iter, qp_max_iter=cfg.qp_max_iter,
            lag_hess_fn=self._lag_hess_fn(u_ini_n, y_ini_n, layers),
        )
        if cfg.warm_start:
            u_seq = x[:self.nu].reshape(cfg.horizon, cfg.n_u)
            self._shifted = np.vstack([u_seq[1:], u_seq[-1:]]).ravel()
        # non-convergence (including a locally infeasible subproblem) returns
        # the best iterate with its status; the inputs are always box-feasible
        c_final, _ = eq_fn(x)
        return x, diag, {"constraint_residual": float(np.linalg.norm(c_final, np.inf))}

    # an entry of its own, so profilers and perfbench time each controller apart
    solve_step = HorizonController.solve_step


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
        nh: NeuralHankel,
        cfg: ControllerConfig,
        cem_target: float,
        dt: float,
        r_du: float = 1e-3,
    ):
        super().__init__(nh, cfg)
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
        nu = self.nu
        diff, e_prev = self.cost.diff, self.cost.e_prev
        h_u = 2.0 * self.r_du * diff.T @ diff
        g_u = -2.0 * self.r_du * diff.T @ (e_prev @ np.asarray(u_prev, dtype=float))
        target = self.cem_target
        cem_now = self._cem_now
        dt_min = self.dt_minutes
        ts_idx = self._ts_index
        reach = self.horizon_reach

        def cost_fn(x):
            ts = x[nu:][ts_idx]
            cem_path, dinc = predicted_cem(ts, cem_now, dt_min)
            rho = (target - cem_path[-1]) / reach
            grad = np.zeros(self.n_var)
            hess = np.zeros((self.n_var, self.n_var))
            # Gauss-Newton on the scalar dose-miss residual
            jrho = np.zeros(self.n_var)
            jrho[nu:][ts_idx] = -dinc / reach
            f = rho ** 2
            grad += 2.0 * rho * jrho
            hess += 2.0 * np.outer(jrho, jrho)
            # small input-move penalty keeps the flat directions conditioned
            f += 0.5 * float(x[:nu] @ (h_u @ x[:nu])) + float(g_u @ x[:nu])
            grad[:nu] += h_u @ x[:nu] + g_u
            hess[:nu, :nu] += h_u
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
