import dataclasses

import numpy as np
import pytest

from npvdeepc import hypernet, npv, optim
from npvdeepc.control import ControllerConfig, StepResult, TrackingCost
from npvdeepc.hankel import Window
from npvdeepc.hypernet import HyperDnnModel, TrainConfig, WindowDataset, save_model, train
from npvdeepc.optim import solve_sqp
from npvdeepc.npv import (
    CemController,
    NpvController,
    RankDeficientError,
    hankel_with_params,
    lemma2_residual,
    npv_prediction,
    predicted_cem,
    problem_size,
    smoothed_kappa,
    transform_hankel,
)
from npvdeepc.plant import ExcitationConfig, SurrogatePlant, collect_open_loop

T_INI, HORIZON = 3, 5


@pytest.fixture(scope="module")
def setup():
    """Short surrogate dataset, a lightly trained model and its neural Hankel."""
    plant = SurrogatePlant()
    traj = collect_open_loop(plant, ExcitationConfig(d_hold_min=10, d_hold_max=40), 500, seed=11)
    ds = WindowDataset.from_trajectory(traj, T_INI, HORIZON)
    cfg = TrainConfig(hidden_sizes=(10,), modulated=(True,), max_epochs=300, patience=300)
    model = train(ds, cfg, seed=0)
    hs, p_cols = hankel_with_params(traj, T_INI, HORIZON, n_cols=200)
    nh = transform_hankel(model, hs, p_cols)
    return traj, model, hs, p_cols, nh


def wide_cfg(**kw) -> ControllerConfig:
    defaults = dict(
        t_ini=T_INI,
        horizon=HORIZON,
        q=(1.0, 0.0),
        r=(0.1, 0.1),
        p=(1.0, 0.0),
        lambda_g=10.0,
        y_lo=(0.0, 0.0),
        y_hi=(150.0, 250.0),
    )
    defaults.update(kw)
    return ControllerConfig(**defaults)


class TestTransform:
    def test_shapes_and_rank(self, setup):
        _, model, hs, p_cols, nh = setup
        assert nh.phi_hl.shape == (model.nu_l, 200)
        assert nh.m.shape == (200, model.nu_l + 1)
        assert nh.kmat.shape == (model.nu_l + 1, hs.n_y * HORIZON)
        assert nh.stack_rank == model.nu_l + 1
        assert nh.kmat_rank == _kernel_rank(nh.kmat) == hs.n_y * HORIZON

    def test_column_consistency(self, setup):
        _, model, hs, p_cols, nh = setup
        rng = np.random.default_rng(0)
        for j in rng.integers(0, nh.n_cols, size=5):
            nn_in = model.nn_input(hs.up[:, j], hs.yp[:, j], hs.uf[:, j], p_cols[:, j])
            assert np.max(np.abs(model.phi_hl(nn_in) - nh.phi_hl[:, j])) < 1e-12

    def test_theta_ls_matches_refit(self, setup):
        # oracle: the normal equations of min ||Y_f - theta col(Phi, 1')||_F
        # (the stack has full row rank)
        *_, nh = setup
        stack = nh.stack()
        oracle = nh.yf @ stack.T @ np.linalg.inv(stack @ stack.T)
        assert np.allclose(nh.theta_ls, oracle, atol=1e-10)

    def test_theta_ls_no_worse_than_trained_map(self, setup):
        _, model, _, _, nh = setup
        stack = nh.stack()
        res_trained = np.linalg.norm(nh.yf - model.effective_output_map() @ stack)
        res_ls = np.linalg.norm(nh.yf - nh.theta_ls @ stack)
        assert res_ls <= res_trained + 1e-12

    def test_theta_ls_invariant_to_column_permutation(self, setup):
        _, model, hs, p_cols, nh = setup
        perm = np.random.default_rng(3).permutation(hs.n_cols)
        hs_perm = type(hs)(
            up=hs.up[:, perm], yp=hs.yp[:, perm], uf=hs.uf[:, perm], yf=hs.yf[:, perm],
            t_ini=hs.t_ini, horizon=hs.horizon, n_u=hs.n_u, n_y=hs.n_y, k_source=hs.k_source,
        )
        nh_perm = transform_hankel(model, hs_perm, p_cols[:, perm])
        assert np.allclose(nh_perm.theta_ls, nh.theta_ls, atol=1e-9)

    @pytest.mark.parametrize("frozen", [False, True])
    def test_leaves_model_untouched(self, setup, tmp_path, frozen):
        traj, model, *_ = setup
        hs, p_cols = hankel_with_params(traj, T_INI, HORIZON, n_cols=150)
        before, after = tmp_path / "before.json", tmp_path / "after.json"
        save_model(model, before)
        nh = transform_hankel(model.frozen() if frozen else model, hs, p_cols)
        assert (nh.model is model) is not frozen
        save_model(model, after)
        assert after.read_bytes() == before.read_bytes()

    def test_rank_deficiency_detected(self, setup):
        _, model, hs, p_cols, _ = setup
        # too few columns cannot span the feature space
        hs_small, p_small = hankel_with_params(setup[0], T_INI, HORIZON, n_cols=model.nu_l - 2)
        with pytest.raises(RankDeficientError):
            transform_hankel(model, hs_small, p_small)


class TestLemma2:
    def _synthetic_exact(self, setup):
        """Dataset where the outputs are exactly affine in the features."""
        _, model, hs, p_cols, nh = setup
        theta_true = model.effective_output_map()
        yf_syn = theta_true @ nh.stack()
        hs_syn = type(hs)(
            up=hs.up.copy(), yp=hs.yp.copy(), uf=hs.uf.copy(), yf=yf_syn,
            t_ini=hs.t_ini, horizon=hs.horizon, n_u=hs.n_u, n_y=hs.n_y, k_source=hs.k_source,
        )
        return transform_hankel(model, hs_syn, p_cols)

    def test_exact_construction_zero_residual(self, setup):
        _, model, *_ = setup
        nh_syn = self._synthetic_exact(setup)
        e, violation = lemma2_residual(nh_syn)
        assert np.max(np.abs(e)) < 1e-8
        assert violation < 1e-8

    def test_square_stack_trivial_null_space(self, setup):
        traj, model, *_ = setup
        hs_sq, p_sq = hankel_with_params(traj, T_INI, HORIZON, n_cols=model.nu_l + 1)
        nh_sq = transform_hankel(model, hs_sq, p_sq)
        _, violation = lemma2_residual(nh_sq)
        assert violation == 0.0

    def test_generic_data_positive_violation(self, setup):
        *_, nh = setup
        _, violation = lemma2_residual(nh)
        assert violation > 0.0

    def test_prediction_equivalence_on_exact_data(self, setup):
        # data-driven combination vs the output map that generated the data,
        # over random windows
        traj, model, *_ = setup
        nh_syn = self._synthetic_exact(setup)
        theta_true = model.effective_output_map()
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(50):
            start = int(rng.integers(0, traj.n_samples - T_INI - HORIZON))
            w = Window.from_trajectory(traj, start, T_INI, HORIZON)
            w.u_f = rng.uniform([1.5, 1.0] * HORIZON, [8.0, 6.0] * HORIZON)
            phi = model.phi_hl(model.nn_input_from_window(w))
            y_npv = npv_prediction(nh_syn, phi)
            y_nn = theta_true @ np.append(phi, 1.0)
            worst = max(worst, float(np.max(np.abs(y_npv - y_nn))))
        assert worst < 1e-8


class TestProblemSize:
    def test_paper_default_counts(self):
        cfg = ControllerConfig()  # n_u=2, n_y=2, N=10
        size = problem_size(cfg, nu_l=30)
        assert size == {
            "decision_variables": 91,
            "equality_constraints": 51,
            "inequality_constraints": 80,
        }

    def test_controller_reports_same(self, setup):
        _, model, hs, p_cols, nh = setup
        ctrl = NpvController(nh, wide_cfg())
        size = ctrl.problem_size()
        n, nu_l = HORIZON, model.nu_l
        assert size["decision_variables"] == (2 + 4) * n + nu_l + 1
        assert size["equality_constraints"] == 2 * n + nu_l + 1
        assert size["inequality_constraints"] == 2 * 4 * n


class TestSolveStep:
    def _window(self, traj, start=100):
        return Window.from_trajectory(traj, start, T_INI, HORIZON)

    def test_fixed_u_matches_nls_prediction(self, setup):
        traj, model, hs, p_cols, nh = setup
        cfg = wide_cfg()
        ctrl = NpvController(nh, cfg)
        w = self._window(traj)
        u_fixed = np.tile([4.0, 3.0], HORIZON)
        ctrl.lb[:ctrl.nu] = u_fixed
        ctrl.ub[:ctrl.nu] = u_fixed
        u, step = ctrl.solve_step(w.u_ini, w.y_ini, w.p_hist, np.array([30.0, 40.0]), [4.0, 3.0])
        phi = model.phi_hl(model.nn_input(w.u_ini, w.y_ini, u_fixed, w.p_hist))
        y_nls = nh.theta_ls @ np.append(phi, 1.0)
        assert np.max(np.abs(step.y_pred.ravel() - y_nls)) < 1e-6
        assert np.allclose(u, [4.0, 3.0])

    def test_prediction_consistency_recompute(self, setup):
        traj, model, hs, p_cols, nh = setup
        ctrl = NpvController(nh, wide_cfg())
        w = self._window(traj, start=150)
        u, step = ctrl.solve_step(w.u_ini, w.y_ini, w.p_hist, np.array([31.0, 40.0]), [4.0, 3.0])
        nn_in = model.nn_input(w.u_ini, w.y_ini, step.u_seq.ravel(), w.p_hist)
        phi = model.phi_hl(nn_in)
        assert np.max(np.abs(step.y_pred.ravel() - npv_prediction(nh, phi))) < 1e-6
        assert step.extras["constraint_residual"] < 1e-6

    def test_input_bounds_respected(self, setup):
        traj, model, hs, p_cols, nh = setup
        ctrl = NpvController(nh, wide_cfg())
        w = self._window(traj, start=200)
        u, step = ctrl.solve_step(w.u_ini, w.y_ini, w.p_hist, np.array([60.0, 40.0]), [4.0, 3.0])
        assert np.all(step.u_seq >= np.array([1.5, 1.0]) - 0.0)
        assert np.all(step.u_seq <= np.array([8.0, 6.0]) + 0.0)

    def test_warm_cold_same_solution(self, setup):
        traj, model, hs, p_cols, nh = setup
        rng = np.random.default_rng(2)
        cold = NpvController(nh, wide_cfg(warm_start=False))
        warm = NpvController(nh, wide_cfg(warm_start=True))
        for trial in range(10):
            start = int(rng.integers(50, 300))
            w = self._window(traj, start)
            r_vec = np.array([rng.uniform(28, 33), 40.0])
            u_prev = rng.uniform([1.5, 1.0], [8.0, 6.0])
            u_c, s_c = cold.solve_step(w.u_ini, w.y_ini, w.p_hist, r_vec, u_prev)
            u_w, s_w = warm.solve_step(w.u_ini, w.y_ini, w.p_hist, r_vec, u_prev)
            assert np.max(np.abs(u_c - u_w)) < 1e-4

    def test_narrow_feature_layer_rejected(self, narrow_setup):
        # 5 stacked features cannot span 10 predicted outputs: null(kmat) is
        # not trivial, and the (u, y) program has no output correction for it
        _, model, _, _, nh = narrow_setup
        assert nh.kmat_rank == model.nu_l + 1 < 2 * HORIZON
        with pytest.raises(RankDeficientError, match=r"n_y\*N = 10 with nu_L \+ 1 = 5"):
            NpvController(nh, wide_cfg())


def _kernel_rank(kmat) -> int:
    svals = np.linalg.svd(kmat, compute_uv=False)
    return int(np.sum(svals > max(kmat.shape) * np.finfo(float).eps * svals[0]))


def _structural_step(model, nh, cfg, w, r_vec, u_prev):
    """Cold-start solve of the (u, y, g_tilde) program with explicit kernel rows.

    The orthonormal rows of row(kmat) pin g_tilde to null(kmat).  The
    constraint curvature is gated on the reduced Hessian as in the controller.
    The cost Hessian is singular off the rows (no weight on the second
    output), so the curvature term also carries J'J: the linearized rows
    fix J d, so it leaves each subproblem's minimizer unchanged and makes
    its Hessian positive definite.  The cost keeps its constant terms, since
    the SQP's no-reduction stop is relative to the merit's level.
    """
    cost = TrackingCost(cfg)
    nu, ny = cost.nu, cost.ny
    kernel = np.linalg.svd(nh.kmat)[2][:_kernel_rank(nh.kmat)]
    nk = kernel.shape[0]
    off_g = nu + ny
    n = off_g + ny
    h = np.zeros((n, n))
    h[:nu, :nu] = cost.h_u
    h[nu:off_g, nu:off_g] = cost.h_y
    h[off_g:, off_g:] = 2.0 * cfg.lambda_g * np.eye(ny)
    g_lin = np.concatenate([*cost.linear_terms(r_vec, u_prev), np.zeros(n - off_g)])
    theta = nh.theta_ls

    def nn_in(x):
        return model.nn_input(w.u_ini, w.y_ini, x[:nu], w.p_hist)

    def eq_fn(x):
        z = nn_in(x)
        g_t = x[off_g:]
        c_pred = x[nu:off_g] - theta @ np.append(model.phi_hl(z), 1.0) - g_t
        jac = np.zeros((nk + ny, n))
        jac[:nk, off_g:] = kernel
        jac[nk:, :nu] = -(theta[:, :-1] @ model.jacobian_phi_hl_future_u_raw(z))
        jac[nk:, nu:off_g] = np.eye(ny)
        jac[nk:, off_g:] = -np.eye(ny)
        return np.concatenate([kernel @ g_t, c_pred]), jac

    def lag_hess(x, lam, hess, jac):
        # the controller's gate over this program's own null space: exact
        # curvature when the reduced Hessian is positive definite, else clipped
        block = model.phi_curvature_future_u_raw(nn_in(x), -(theta[:, :-1].T @ lam[nk:]))
        block = 0.5 * (block + block.T)
        _, svals, vt = np.linalg.svd(jac)
        null = vt[int(np.sum(svals > max(jac.shape) * np.finfo(float).eps * svals[0])):].T
        out = np.zeros((n, n))
        out[:nu, :nu] = block
        try:
            np.linalg.cholesky(null.T @ (hess + out) @ null)
        except np.linalg.LinAlgError:
            vals, vecs = np.linalg.eigh(block)
            out[:nu, :nu] = (vecs * np.maximum(vals, 0.0)) @ vecs.T
        return out + jac.T @ jac

    const = cost.value(np.zeros(nu), np.zeros(ny), r_vec, u_prev)

    def cost_fn(x):
        return 0.5 * float(x @ (h @ x)) + float(g_lin @ x) + const, h @ x + g_lin, h

    lb = np.full(n, -np.inf)
    ub = np.full(n, np.inf)
    lb[:nu], ub[:nu] = cost.u_bounds()
    lb[nu:off_g], ub[nu:off_g] = cost.y_bounds()
    x0 = np.zeros(n)
    x0[:nu] = np.tile(np.clip(u_prev, cfg.u_lo, cfg.u_hi), cfg.horizon)
    x0[nu:off_g] = theta @ np.append(model.phi_hl(nn_in(x0)), 1.0)
    x, _ = solve_sqp(cost_fn, eq_fn, lb, ub, x0, tol=cfg.kkt_tol, max_iter=cfg.max_iter,
                     qp_max_iter=cfg.qp_max_iter, lag_hess_fn=lag_hess)
    return x[:nu].reshape(cfg.horizon, cfg.n_u), x[nu:off_g].reshape(cfg.horizon, cfg.n_y), \
        float(np.linalg.norm(x[off_g:]))


@pytest.fixture(scope="module")
def narrow_setup(setup):
    """A 4-feature model: kmat is 5 x 10, so null(kmat) has 5 directions."""
    traj = setup[0]
    ds = WindowDataset.from_trajectory(traj, T_INI, HORIZON)
    cfg = TrainConfig(hidden_sizes=(4,), modulated=(True,), max_epochs=100, patience=100)
    model = train(ds, cfg, seed=0)
    hs, p_cols = hankel_with_params(traj, T_INI, HORIZON, n_cols=200)
    return traj, model, hs, p_cols, transform_hankel(model, hs, p_cols)


class TestCondensedForm:
    """The (u, y) program the controller solves against the structural one."""

    def test_matches_structural_program(self, setup):
        traj, model, hs, p_cols, nh = setup
        cfg = wide_cfg(warm_start=False)
        ctrl = NpvController(nh, cfg)
        assert _kernel_rank(nh.kmat) == ctrl.ny
        rng = np.random.default_rng(5)
        for start in (60, 140, 220):
            w = Window.from_trajectory(traj, start, T_INI, HORIZON)
            r_vec = np.array([rng.uniform(28.0, 33.0), 40.0])
            u_prev = rng.uniform([1.5, 1.0], [8.0, 6.0])
            _, step = ctrl.solve_step(w.u_ini, w.y_ini, w.p_hist, r_vec, u_prev)
            u_ref, y_ref, g_norm_ref = _structural_step(model, nh, cfg, w, r_vec, u_prev)
            assert np.max(np.abs(step.u_seq - u_ref)) < 1e-5
            assert np.max(np.abs(step.y_pred - y_ref)) < 1e-5
            # the kernel rows of a full-column-rank kmat pin the correction to zero
            assert g_norm_ref < 1e-8

    def test_only_output_rows(self, setup, monkeypatch):
        # the SQP runs over the inputs alone; its rows are the predicted
        # outputs, limited by the output box
        traj, model, hs, p_cols, nh = setup
        seen = []

        def spy(cost_fn, row_fn, lb, ub, x0, **kw):
            seen.append((row_fn(x0), x0, kw["c_lo"], kw["c_hi"]))
            return solve_sqp(cost_fn, row_fn, lb, ub, x0, **kw)

        monkeypatch.setattr(npv, "solve_sqp", spy)
        w = Window.from_trajectory(traj, 100, T_INI, HORIZON)
        ctrl = NpvController(nh, wide_cfg())
        ctrl.solve_step(w.u_ini, w.y_ini, w.p_hist, np.array([30.0, 40.0]), [4.0, 3.0])
        (c, jac), x0, c_lo, c_hi = seen[-1]
        assert x0.shape == (ctrl.nu,)
        assert c.shape == (ctrl.ny,)
        assert jac.shape == (ctrl.ny, ctrl.nu)
        phi = model.phi_hl(model.nn_input(w.u_ini, w.y_ini, x0, w.p_hist))
        assert np.max(np.abs(c - nh.theta_ls @ np.append(phi, 1.0))) < 1e-12
        y_lo, y_hi = ctrl.cost.y_bounds()
        assert np.array_equal(c_lo, y_lo) and np.array_equal(c_hi, y_hi)


class TestStepWork:
    """Work that one step must not repeat."""

    @pytest.mark.parametrize("kind", ["npv", "neural", "cem"])
    def test_one_hyper_forward_per_step(self, setup, monkeypatch, kind):
        traj, model, hs, p_cols, nh = setup
        hyper_forward = HyperDnnModel.hyper_forward
        calls = []

        def counted(self, p_vec):
            calls.append(p_vec)
            return hyper_forward(self, p_vec)

        monkeypatch.setattr(HyperDnnModel, "hyper_forward", counted)
        if kind == "cem":
            cfg = wide_cfg(y_lo=(24.0, 19.0), y_hi=(30.0, 80.0))
            ctrl = CemController(nh, cfg, cem_target=0.3, dt=traj.dt)
        else:
            cfg = wide_cfg()
            # building the frozen model and its Hankel runs no hyper_forward
            ctrl = NpvController(nh if kind == "npv" else transform_hankel(model.frozen(), hs, p_cols), cfg)
        starts = (60, 61, 62, 150)
        for start in starts:
            w = Window.from_trajectory(traj, start, T_INI, HORIZON)
            if kind == "cem":
                _, step = ctrl.solve_step(w.u_ini, w.y_ini, w.p_hist, cem_now=0.0, u_prev=[4.0, 3.0])
            else:
                _, step = ctrl.solve_step(w.u_ini, w.y_ini, w.p_hist, np.array([30.0, 40.0]), [4.0, 3.0])
            assert step.iterations > 0
        assert len(calls) == len(starts)

    @pytest.mark.parametrize("kind", ["npv", "neural", "cem"])
    def test_every_subproblem_takes_the_dual_path(self, setup, monkeypatch, kind):
        traj, model, hs, p_cols, nh = setup
        solve_qp = optim.solve_qp
        paths = []

        def spy(prob, *args, **kwargs):
            # the output rows, as general rows over the inputs
            paths.append(prob.c is not None and prob.c.shape[1] == ctrl.nu)
            return solve_qp(prob, *args, **kwargs)

        monkeypatch.setattr(optim, "solve_qp", spy)
        stages = set()
        if kind == "cem":
            cfg = wide_cfg(y_lo=(24.0, 19.0), y_hi=(30.0, 80.0))
            ctrl = CemController(nh, cfg, cem_target=0.05, dt=traj.dt)
        else:
            ctrl = NpvController(nh if kind == "npv" else transform_hankel(model.frozen(), hs, p_cols), wide_cfg())
        for start in (60, 61, 62, 63, 150, 151):
            w = Window.from_trajectory(traj, start, T_INI, HORIZON)
            if kind == "cem":
                _, step = ctrl.solve_step(w.u_ini, w.y_ini, w.p_hist, cem_now=0.05 * (start > 100), u_prev=[4.0, 3.0])
                stages.add(step.extras["stage"])
            else:
                ctrl.solve_step(w.u_ini, w.y_ini, w.p_hist, np.array([31.0, 40.0]), [4.0, 3.0])
        assert len(paths) > 6 and all(paths)
        if kind == "cem":
            assert stages == {"deliver", "dose"}

    @pytest.mark.parametrize("kind", ["npv", "neural", "cem"])
    def test_subproblems_start_from_the_last_working_set(self, setup, monkeypatch, kind):
        traj, model, hs, p_cols, nh = setup
        solve_qp = optim.solve_qp
        hessian_factor = optim.HessianFactor
        solves = []  # per step: the QPs as (start, diagnostics) and the Hessians without a factor

        def spy_sqp(*args, **kwargs):
            solves.append(([], []))
            return solve_sqp(*args, **kwargs)

        def spy_qp(prob, *args, start=None, **kwargs):
            x, diag = solve_qp(prob, *args, start=start, **kwargs)
            solves[-1][0].append((start, diag))
            return x, diag

        def spy_factor(h):
            try:
                return hessian_factor(h)
            except optim.IndefiniteHessianError:
                solves[-1][1].append(h)
                raise

        monkeypatch.setattr(npv, "solve_sqp", spy_sqp)
        monkeypatch.setattr(optim, "solve_qp", spy_qp)
        monkeypatch.setattr(optim, "HessianFactor", spy_factor)
        if kind == "cem":
            cfg = wide_cfg(y_lo=(24.0, 19.0), y_hi=(30.0, 80.0))
            ctrl = CemController(nh, cfg, cem_target=0.05, dt=traj.dt)
        else:
            ctrl = NpvController(nh if kind == "npv" else transform_hankel(model.frozen(), hs, p_cols), wide_cfg())
        steps = []
        for start in (60, 61, 62, 63, 150, 151):
            w = Window.from_trajectory(traj, start, T_INI, HORIZON)
            if kind == "cem":
                _, step = ctrl.solve_step(w.u_ini, w.y_ini, w.p_hist, cem_now=0.05 * (start > 100), u_prev=[4.0, 3.0])
            else:
                _, step = ctrl.solve_step(w.u_ini, w.y_ini, w.p_hist, np.array([31.0, 40.0]), [4.0, 3.0])
            steps.append(step)
        hot = 0
        for (qps, unfactored), step in zip(solves, steps):
            last = None
            for start, diag in qps:
                assert (start is None) if last is None else np.array_equal(start, last)
                hot += start is not None and len(start) > 0
                if diag.status != "infeasible":
                    last = diag.working_set
            # the step reports its QP work and its clipped subproblems
            assert step.qp_iterations == sum(diag.iterations for _, diag in qps)
            assert step.clipped == len(unfactored)
        assert len(solves) == len(steps) and hot > 0

    @pytest.mark.parametrize("kind", ["npv", "cem"])
    def test_one_features_pass_per_distinct_input(self, setup, monkeypatch, kind):
        traj, model, hs, p_cols, nh = setup
        features = HyperDnnModel.features
        passes, distinct = [], []

        tanh_stack = hypernet._tanh_stack
        stacks = []

        def counted(self, layers, u_nn):
            passes.append(u_nn)
            return features(self, layers, u_nn)

        def counted_stack(layers, u_nn, future):
            stacks.append(u_nn)
            return tanh_stack(layers, u_nn, future)

        def spy(cost_fn, row_fn, lb, ub, x0, **kw):
            seen = set()

            def rows(x):
                seen.add(x.tobytes())
                return row_fn(x)

            def cost(x):
                seen.add(x.tobytes())
                return cost_fn(x)

            result = solve_sqp(cost, rows, lb, ub, x0, **kw)
            distinct.append(len(seen))
            return result

        monkeypatch.setattr(HyperDnnModel, "features", counted)
        monkeypatch.setattr(hypernet, "_tanh_stack", counted_stack)
        monkeypatch.setattr(npv, "solve_sqp", spy)
        if kind == "cem":
            cfg = wide_cfg(y_lo=(24.0, 19.0), y_hi=(30.0, 80.0))
            ctrl = CemController(nh, cfg, cem_target=0.05, dt=traj.dt)
        else:
            ctrl = NpvController(nh, wide_cfg())
        iterations = 0
        for start in (60, 61, 62, 150):
            w = Window.from_trajectory(traj, start, T_INI, HORIZON)
            if kind == "cem":
                _, step = ctrl.solve_step(w.u_ini, w.y_ini, w.p_hist, cem_now=0.05 * (start > 100), u_prev=[4.0, 3.0])
            else:
                _, step = ctrl.solve_step(w.u_ini, w.y_ini, w.p_hist, np.array([31.0, 40.0]), [4.0, 3.0])
            iterations += step.iterations
        # cost, rows, curvature and the returned prediction share each pass;
        # the curvature makes no forward pass of its own
        assert iterations > 0
        assert len(passes) == sum(distinct)
        assert len(stacks) == len(passes)


class TestCurvatureGate:
    """The exact Lagrangian curvature enters wherever the reduced Hessian stays positive definite."""

    def test_exact_where_reduced_hessian_is_positive_definite(self, setup, monkeypatch):
        traj, model, hs, p_cols, nh = setup
        seen = {}

        def spy(cost_fn, row_fn, lb, ub, x0, **kw):
            seen.update(cost_fn=cost_fn, row_fn=row_fn, x0=x0, lag_hess=kw["lag_hess_fn"])
            return solve_sqp(cost_fn, row_fn, lb, ub, x0, **kw)

        factors = []
        hessian_factor = optim.HessianFactor

        def spy_factor(h):
            factors.append(h)
            return hessian_factor(h)

        monkeypatch.setattr(npv, "solve_sqp", spy)
        monkeypatch.setattr(optim, "HessianFactor", spy_factor)
        cfg = wide_cfg()
        ctrl = NpvController(nh, cfg)
        w = Window.from_trajectory(traj, 100, T_INI, HORIZON)
        r_vec = np.array([30.0, 40.0])
        ctrl.solve_step(w.u_ini, w.y_ini, w.p_hist, r_vec, [4.0, 3.0])
        u = seen["x0"]
        y, jac = seen["row_fn"](u)
        _, grad, hess = seen["cost_fn"](u)
        cost = TrackingCost(cfg)
        g_u, g_y = cost.linear_terms(r_vec, [4.0, 3.0])
        g_y = g_y + cost.h_y @ y

        # the reduced cost: grad and B composed through J = dy/du
        assert np.allclose(grad, cost.h_u @ u + g_u + jac.T @ g_y, rtol=0.0, atol=1e-10)
        assert np.allclose(hess, cost.h_u + jac.T @ cost.h_y @ jac, rtol=0.0, atol=1e-10)
        np.linalg.cholesky(hess)

        # C is the curvature of w'y(u) with w = g_y + lam, by central differences
        lam = 1e-2 * np.random.default_rng(2).standard_normal(ctrl.ny)
        curv = seen["lag_hess"](u, lam, hess, jac)
        step = 1e-5
        fd = np.column_stack([
            (seen["row_fn"](u + step * e)[1] - seen["row_fn"](u - step * e)[1]).T @ (g_y + lam) / (2 * step)
            for e in np.eye(ctrl.nu)
        ])
        assert np.max(np.abs(curv - fd)) < 1e-5 * max(1.0, np.max(np.abs(curv)))
        assert np.linalg.eigvalsh(curv)[0] < 0.0  # indefinite, so a clip would lose it

        # the first subproblem's Hessian is B + C unclipped, where it factors
        curv0 = seen["lag_hess"](u, np.zeros(ctrl.ny), hess, jac)
        np.linalg.cholesky(hess + curv0)
        assert np.allclose(factors[0], hess + curv0, rtol=0.0, atol=1e-12)

    def test_two_hidden_layers_converge_on_exact_curvature(self, setup):
        # a deeper stack gets its exact curvature from the same adjoint pass,
        # so its steps converge at the default max_iter; on the Gauss-Newton
        # model alone 16 of these 42 steps (100 epochs) and 6 (300 epochs)
        # ended at max_iter.  The exact block may be clipped, by design
        traj = setup[0]
        ds = WindowDataset.from_trajectory(traj, T_INI, HORIZON)
        hs, p_cols = hankel_with_params(traj, T_INI, HORIZON, n_cols=200)
        cfg = wide_cfg()
        for epochs in (100, 300):
            model = train(ds, TrainConfig(hidden_sizes=(10, 10), modulated=(True, False),
                                          max_epochs=epochs, patience=epochs), seed=0)
            nh = transform_hankel(model, hs, p_cols)
            for start in range(20, 300, 20):
                w = Window.from_trajectory(traj, start, T_INI, HORIZON)
                for r_ts in (29.0, 30.0, 31.0):
                    _, step = NpvController(nh, cfg).solve_step(
                        w.u_ini, w.y_ini, w.p_hist, np.array([r_ts, 40.0]), [4.0, 3.0])
                    assert step.status == "optimal", (epochs, start, r_ts)
                    assert step.kkt_residual <= cfg.kkt_tol


def _mean_parameter(model) -> np.ndarray:
    """Normalized training-mean hypernet input, through the public normalize_p."""
    p_raw = model.p_train_mean
    if model.dims.hyper_input == "current":
        p_raw = np.tile(p_raw, model.dims.t_ini)
    return model.normalize_p(p_raw)


def _frozen_cols(model, hs) -> np.ndarray:
    """Every Hankel column's parameter history pinned at the training mean."""
    return np.tile(model.p_train_mean[:, None], (1, hs.n_cols))


class TestNeuralVariant:
    """The fixed-basis baseline: NpvController on the Hankel of ``model.frozen()``."""

    @pytest.mark.parametrize("hidden, modulated, hyper_input", [
        ((6,), (True,), "history"),
        ((6,), (True,), "current"),
        ((6, 4), (True, False), "history"),
    ], ids=["history", "current", "mixed"])
    def test_frozen_forward_is_mean_parameter_forward(self, setup, hidden, modulated, hyper_input):
        ds = WindowDataset.from_trajectory(setup[0], T_INI, HORIZON)
        cfg = TrainConfig(hidden_sizes=hidden, modulated=modulated, hyper_input=hyper_input,
                          max_epochs=5, patience=5)
        model = train(ds, cfg, seed=1)
        frozen = model.frozen()
        assert [spec.kind for spec in frozen.layer_specs] == ["fixed"] * len(hidden)
        ref = model.hyper_forward(_mean_parameter(model))
        for p_vec in np.random.default_rng(4).uniform(-1.0, 1.0, (3, model.dims.nu_p)):
            layers = frozen.hyper_forward(p_vec)
            assert len(layers) == len(ref)
            for (w, b), (w_ref, b_ref) in zip(layers, ref):
                assert np.array_equal(w, w_ref) and np.array_equal(b, b_ref)
            # the hypernet itself follows p_vec
            assert not np.array_equal(model.hyper_forward(p_vec)[0][0], ref[0][0])

    def test_controller_ignores_parameter_history(self, setup):
        traj, model, hs, p_cols, nh = setup
        nh_frozen = transform_hankel(model.frozen(), hs, p_cols)
        w = Window.from_trajectory(traj, 130, T_INI, HORIZON)
        histories = (w.p_hist, w.p_hist + 2.0)
        steps = {}
        for name, data in (("npv", nh), ("frozen", nh_frozen)):
            steps[name] = [
                NpvController(data, wide_cfg()).solve_step(
                    w.u_ini, w.y_ini, p_hist, np.array([30.0, 40.0]), [4.0, 3.0])[1]
                for p_hist in histories
            ]
        a, b = steps["frozen"]
        assert a.iterations > 0
        for f in dataclasses.fields(StepResult):
            if f.name != "wall_time_s":
                assert _same(getattr(a, f.name), getattr(b, f.name)), f.name
        # the parameter-varying controller on the same windows does move
        assert not np.array_equal(steps["npv"][0].u_seq, steps["npv"][1].u_seq)

    def test_frozen_transform_consistent_on_frozen_data(self, setup):
        traj, model, hs, p_cols, nh = setup
        nh_a = transform_hankel(model.frozen(), hs, p_cols)
        nh_b = transform_hankel(model, hs, _frozen_cols(model, hs))
        for name in ("phi_hl", "m", "kmat", "theta_ls"):
            gap = np.max(np.abs(getattr(nh_a, name) - getattr(nh_b, name)))
            assert gap < 1e-12, name

    def test_matches_npv_on_frozen_parameter_data(self, setup):
        traj, model, hs, p_cols, nh = setup
        cfg = wide_cfg()
        neural = NpvController(transform_hankel(model.frozen(), hs, p_cols), cfg)
        npv = NpvController(transform_hankel(model, hs, _frozen_cols(model, hs)), cfg)
        w = Window.from_trajectory(traj, 130, T_INI, HORIZON)
        # feed the NPV controller the frozen history: identical problems
        u_neural, _ = neural.solve_step(w.u_ini, w.y_ini, w.p_hist, np.array([30.0, 40.0]), [4.0, 3.0])
        u_npv, _ = npv.solve_step(w.u_ini, w.y_ini, model.p_train_mean, np.array([30.0, 40.0]), [4.0, 3.0])
        assert np.max(np.abs(u_neural - u_npv)) < 1e-6

    def test_problem_sizes_identical(self, setup):
        _, model, hs, p_cols, nh = setup
        cfg = wide_cfg()
        neural = NpvController(transform_hankel(model.frozen(), hs, p_cols), cfg)
        assert neural.problem_size() == NpvController(nh, cfg).problem_size()

    def test_frozen_requires_training_mean(self, setup):
        model = setup[1]
        bare = HyperDnnModel(model.dims, model.layer_specs, model.params, model.scalers)
        with pytest.raises(ValueError, match="training-set mean"):
            bare.frozen()


def _same(a, b) -> bool:
    """Bit-equal values, recursing into the extras dictionary."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


class TestCem:
    def test_smoothed_kappa_midpoint(self):
        assert smoothed_kappa(35.0) == pytest.approx(0.25)

    def test_smoothed_kappa_saturation(self):
        assert smoothed_kappa(45.0) == pytest.approx(0.5, abs=1e-8)
        assert smoothed_kappa(25.0) < 1e-8

    def test_predicted_cem_nondecreasing(self):
        ts = np.array([30.0, 34.0, 36.0, 40.0, 42.0])
        path, _ = predicted_cem(ts, cem_now=0.1, dt_minutes=0.5 / 60)
        assert np.all(np.diff(path) >= 0)
        assert path[0] >= 0.1

    def test_predicted_cem_gradient_matches_fd(self):
        ts = np.array([34.0, 36.5, 41.0])
        dt = 0.5 / 60
        _, dinc = predicted_cem(ts, 0.0, dt)
        eps = 1e-6
        for i in range(ts.size):
            hi = predicted_cem(ts + eps * np.eye(3)[i], 0.0, dt)[0][-1]
            lo = predicted_cem(ts - eps * np.eye(3)[i], 0.0, dt)[0][-1]
            fd = (hi - lo) / (2 * eps)
            assert fd == pytest.approx(dinc[i], rel=1e-5, abs=1e-12)

    def test_target_reached_drives_delivery_down(self, setup):
        traj, model, hs, p_cols, nh = setup
        cfg = wide_cfg(r=(0.01, 0.01))
        ctrl = CemController(nh, cfg, cem_target=0.05, dt=traj.dt)
        w = Window.from_trajectory(traj, 140, T_INI, HORIZON)
        # already delivered: optimizer should minimize further dose
        u_done, step_done = ctrl.solve_step(w.u_ini, w.y_ini, w.p_hist, cem_now=0.2, u_prev=[4.0, 3.0])
        assert step_done.extras["cem_pred_delta"] < 0.01
        path = np.asarray(step_done.extras["cem_path"])
        assert np.all(np.diff(path) >= 0)

    def test_cold_start_leaves_input_floor(self, setup):
        traj, model, hs, p_cols, nh = setup
        cfg = wide_cfg(y_lo=(24.0, 19.0), y_hi=(30.0, 80.0))
        ctrl = CemController(nh, cfg, cem_target=0.3, dt=traj.dt)
        u_lo = np.asarray(cfg.u_lo)
        u, step = ctrl.solve_step(
            np.tile(u_lo, T_INI), np.tile([25.0, 25.0], T_INI), np.full(T_INI, 3.0),
            cem_now=0.0, u_prev=u_lo,
        )
        # this small model moves flow first; power follows within the horizon
        assert np.any(u > u_lo + 0.1)
        assert step.u_seq[:, 0].max() > u_lo[0] + 0.1
        assert ctrl.cem_target > ctrl.horizon_reach
        assert step.extras["stage"] == "deliver"

    def test_window_above_ceiling_gets_no_heating_input(self, setup):
        traj, model, hs, p_cols, nh = setup
        start = int(np.argmax(traj.y[T_INI - 1:-HORIZON, 0]))
        w = Window.from_trajectory(traj, start, T_INI, HORIZON)
        ts_now = w.y_ini[-2]
        cfg = wide_cfg(y_lo=(20.0, 19.0), y_hi=(ts_now - 2.0, 80.0))
        ctrl = CemController(nh, cfg, cem_target=0.3, dt=traj.dt)
        u, step = ctrl.solve_step(w.u_ini, w.y_ini, w.p_hist, cem_now=0.0, u_prev=w.u_ini[-2:])
        assert np.array_equal(u, np.asarray(cfg.u_lo))
        infeasible = step.status == "infeasible" or step.extras["constraint_residual"] > cfg.kkt_tol
        assert infeasible
