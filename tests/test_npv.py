import numpy as np
import pytest

from npvdeepc import npv, optim
from npvdeepc.control import ControllerConfig, TrackingCost
from npvdeepc.hankel import Window
from npvdeepc.hypernet import HyperDnnModel, TrainConfig, WindowDataset, refit_output_ls, train
from npvdeepc.optim import solve_sqp
from npvdeepc.npv import (
    CemController,
    NeuralController,
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
        assert nh.yf_full_row_rank

    def test_column_consistency(self, setup):
        _, model, hs, p_cols, nh = setup
        rng = np.random.default_rng(0)
        for j in rng.integers(0, nh.n_cols, size=5):
            nn_in = model.nn_input(hs.up[:, j], hs.yp[:, j], hs.uf[:, j], p_cols[:, j])
            assert np.max(np.abs(model.phi_hl(nn_in) - nh.phi_hl[:, j])) < 1e-12

    def test_theta_ls_matches_refit(self, setup):
        _, model, hs, p_cols, nh = setup
        assert np.allclose(nh.theta_ls, model.theta_ls, atol=1e-12)
        theta = refit_output_ls(model, nh.phi_hl, nh.yf)
        assert np.allclose(nh.theta_ls, theta, atol=1e-12)

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
        e, violation = lemma2_residual(model, nh_syn)
        assert np.max(np.abs(e)) < 1e-8
        assert violation < 1e-8

    def test_square_stack_trivial_null_space(self, setup):
        traj, model, *_ = setup
        hs_sq, p_sq = hankel_with_params(traj, T_INI, HORIZON, n_cols=model.nu_l + 1)
        nh_sq = transform_hankel(model, hs_sq, p_sq)
        _, violation = lemma2_residual(model, nh_sq)
        assert violation == 0.0

    def test_generic_data_positive_violation(self, setup):
        _, model, hs, p_cols, nh = setup
        refit_output_ls(model, nh.phi_hl, nh.yf)
        _, violation = lemma2_residual(model, nh)
        assert violation > 0.0

    def test_prediction_equivalence_on_exact_data(self, setup):
        # data-driven combination vs refit predictor, over random windows
        traj, model, *_ = setup
        nh_syn = self._synthetic_exact(setup)
        saved_theta = model.theta_ls
        model.theta_ls = nh_syn.theta_ls
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(50):
            start = int(rng.integers(0, traj.n_samples - T_INI - HORIZON))
            w = Window.from_trajectory(traj, start, T_INI, HORIZON)
            w.u_f = rng.uniform([1.5, 1.0] * HORIZON, [8.0, 6.0] * HORIZON)
            phi = model.phi_hl(model.nn_input_from_window(w))
            y_npv = npv_prediction(nh_syn, phi)
            y_nls = model.predict_nls(w)
            worst = max(worst, float(np.max(np.abs(y_npv - y_nls))))
        model.theta_ls = saved_theta
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
        ctrl = NpvController(model, nh, wide_cfg())
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
        ctrl = NpvController(model, nh, cfg)
        model.theta_ls = nh.theta_ls  # other tests refit against synthetic data
        w = self._window(traj)
        u_fixed = np.tile([4.0, 3.0], HORIZON)
        ctrl.lb[:ctrl.nu] = u_fixed
        ctrl.ub[:ctrl.nu] = u_fixed
        u, step = ctrl.solve_step(w.u_ini, w.y_ini, w.p_hist, np.array([30.0, 40.0]), [4.0, 3.0])
        w_fixed = Window(u_ini=w.u_ini, y_ini=w.y_ini, u_f=u_fixed, y_f=w.y_f, p_hist=w.p_hist)
        y_nls = model.predict_nls(w_fixed)
        assert np.max(np.abs(step.y_pred.ravel() - y_nls)) < 1e-6
        assert np.allclose(u, [4.0, 3.0])

    def test_prediction_consistency_recompute(self, setup):
        traj, model, hs, p_cols, nh = setup
        ctrl = NpvController(model, nh, wide_cfg())
        w = self._window(traj, start=150)
        u, step = ctrl.solve_step(w.u_ini, w.y_ini, w.p_hist, np.array([31.0, 40.0]), [4.0, 3.0])
        nn_in = model.nn_input(w.u_ini, w.y_ini, step.u_seq.ravel(), w.p_hist)
        phi = model.phi_hl(nn_in)
        g_t = step.y_pred.ravel() - npv_prediction(nh, phi)
        y_re = npv_prediction(nh, phi, g_t)
        assert np.max(np.abs(y_re - step.y_pred.ravel())) < 1e-8
        assert step.extras["constraint_residual"] < 1e-6

    def test_kernel_feasibility(self, setup):
        traj, model, hs, p_cols, nh = setup
        ctrl = NpvController(model, nh, wide_cfg())
        for start in (60, 120, 180):
            w = self._window(traj, start)
            _, step = ctrl.solve_step(w.u_ini, w.y_ini, w.p_hist, np.array([30.0, 40.0]), [4.0, 3.0])
            assert step.extras["kernel_residual"] <= 1e-5

    def test_input_bounds_respected(self, setup):
        traj, model, hs, p_cols, nh = setup
        ctrl = NpvController(model, nh, wide_cfg())
        w = self._window(traj, start=200)
        u, step = ctrl.solve_step(w.u_ini, w.y_ini, w.p_hist, np.array([60.0, 40.0]), [4.0, 3.0])
        assert np.all(step.u_seq >= np.array([1.5, 1.0]) - 0.0)
        assert np.all(step.u_seq <= np.array([8.0, 6.0]) + 0.0)

    def test_warm_cold_same_solution(self, setup):
        traj, model, hs, p_cols, nh = setup
        rng = np.random.default_rng(2)
        cold = NpvController(model, nh, wide_cfg(warm_start=False))
        warm = NpvController(model, nh, wide_cfg(warm_start=True))
        for trial in range(10):
            start = int(rng.integers(50, 300))
            w = self._window(traj, start)
            r_vec = np.array([rng.uniform(28, 33), 40.0])
            u_prev = rng.uniform([1.5, 1.0], [8.0, 6.0])
            u_c, s_c = cold.solve_step(w.u_ini, w.y_ini, w.p_hist, r_vec, u_prev)
            u_w, s_w = warm.solve_step(w.u_ini, w.y_ini, w.p_hist, r_vec, u_prev)
            assert np.max(np.abs(u_c - u_w)) < 1e-4

    def test_lambda_g_limit_drives_g_to_zero(self, narrow_setup):
        # the narrow model leaves null(kmat) directions for g_tilde; a huge
        # penalty recovers the pure data-driven prediction
        traj, model, hs, p_cols, nh = narrow_setup
        model.theta_ls = nh.theta_ls
        ctrl = NpvController(model, nh, wide_cfg(lambda_g=1e12))
        assert ctrl.basis.shape[1] > 0
        w = self._window(traj, start=90)
        u, step = ctrl.solve_step(w.u_ini, w.y_ini, w.p_hist, np.array([30.0, 40.0]), [4.0, 3.0])
        assert step.extras["g_tilde_norm"] < 1e-6
        nn_in = model.nn_input(w.u_ini, w.y_ini, step.u_seq.ravel(), w.p_hist)
        phi = model.phi_hl(nn_in)
        assert np.max(np.abs(step.y_pred.ravel() - npv_prediction(nh, phi))) < 1e-5


def _kernel_rank(kmat) -> int:
    svals = np.linalg.svd(kmat, compute_uv=False)
    return int(np.sum(svals > max(kmat.shape) * np.finfo(float).eps * svals[0]))


def _structural_step(model, nh, cfg, w, r_vec, u_prev):
    """Cold-start solve of the (u, y, g_tilde) program with explicit kernel rows.

    The orthonormal rows of row(kmat) pin g_tilde to null(kmat).  The
    constraint curvature is gated on the reduced Hessian as in the controller.
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
        return out

    def cost_fn(x):
        return 0.5 * float(x @ (h @ x)) + float(g_lin @ x), h @ x + g_lin, h

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
    """The (u, y, a) program the controller solves against the structural one."""

    @pytest.mark.parametrize("which", ["setup", "narrow_setup"])
    def test_matches_structural_program(self, request, which):
        traj, model, hs, p_cols, nh = request.getfixturevalue(which)
        model.theta_ls = nh.theta_ls  # other tests refit against synthetic data
        cfg = wide_cfg(warm_start=False)
        ctrl = NpvController(model, nh, cfg)
        ny = ctrl.ny
        n_free = ny - _kernel_rank(nh.kmat)
        assert ctrl.n_var == ctrl.nu + ny + n_free
        if which == "setup":
            assert ctrl.n_var == ctrl.nu + ny
        else:
            assert n_free == ny - (model.nu_l + 1) > 0
        rng = np.random.default_rng(5)
        for start in (60, 140, 220):
            w = Window.from_trajectory(traj, start, T_INI, HORIZON)
            r_vec = np.array([rng.uniform(28.0, 33.0), 40.0])
            u_prev = rng.uniform([1.5, 1.0], [8.0, 6.0])
            _, step = ctrl.solve_step(w.u_ini, w.y_ini, w.p_hist, r_vec, u_prev)
            u_ref, y_ref, g_norm_ref = _structural_step(model, nh, cfg, w, r_vec, u_prev)
            assert np.max(np.abs(step.u_seq - u_ref)) < 1e-5
            assert np.max(np.abs(step.y_pred - y_ref)) < 1e-5
            assert abs(step.extras["g_tilde_norm"] - g_norm_ref) < 1e-5

    def test_only_prediction_rows(self, setup, monkeypatch):
        traj, model, hs, p_cols, nh = setup
        seen = []

        def spy(cost_fn, eq_fn, lb, ub, x0, **kw):
            seen.append(eq_fn(x0))
            return solve_sqp(cost_fn, eq_fn, lb, ub, x0, **kw)

        monkeypatch.setattr(npv, "solve_sqp", spy)
        w = Window.from_trajectory(traj, 100, T_INI, HORIZON)
        ctrl = NpvController(model, nh, wide_cfg())
        ctrl.solve_step(w.u_ini, w.y_ini, w.p_hist, np.array([30.0, 40.0]), [4.0, 3.0])
        c, jac = seen[-1]
        assert c.shape == (ctrl.ny,)
        assert jac.shape == (ctrl.ny, ctrl.n_var)


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
            ctrl = CemController(model, nh, cfg, cem_target=0.3, dt=traj.dt)
        else:
            cfg = wide_cfg()
            ctrl = (NpvController if kind == "npv" else NeuralController)(model, nh, cfg)
        starts = (60, 61, 62, 150)
        for start in starts:
            w = Window.from_trajectory(traj, start, T_INI, HORIZON)
            if kind == "cem":
                _, step = ctrl.solve_step(w.u_ini, w.y_ini, w.p_hist, cem_now=0.0, u_prev=[4.0, 3.0])
            else:
                _, step = ctrl.solve_step(w.u_ini, w.y_ini, w.p_hist, np.array([30.0, 40.0]), [4.0, 3.0])
            assert step.iterations > 0
        assert len(calls) == len(starts)

    def test_subproblems_start_on_linearized_rows(self, setup, monkeypatch):
        traj, model, hs, p_cols, nh = setup
        restore = optim._restore_equalities
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return restore(*args, **kwargs)

        monkeypatch.setattr(optim, "_restore_equalities", counted)
        ctrl = NpvController(model, nh, wide_cfg())
        iterations = 0
        for start in (60, 61, 62, 63, 150, 151):
            w = Window.from_trajectory(traj, start, T_INI, HORIZON)
            _, step = ctrl.solve_step(w.u_ini, w.y_ini, w.p_hist, np.array([31.0, 40.0]), [4.0, 3.0])
            iterations += step.iterations
        assert iterations > 0
        assert calls == []


class TestCurvatureGate:
    """The constraint curvature enters exactly only where the program is convex."""

    def test_exact_where_reduced_hessian_is_positive_definite(self, setup, monkeypatch):
        traj, model, hs, p_cols, nh = setup
        seen = {}

        def spy(cost_fn, eq_fn, lb, ub, x0, **kw):
            seen.update(cost_fn=cost_fn, eq_fn=eq_fn, x0=x0, lag_hess=kw["lag_hess_fn"])
            return solve_sqp(cost_fn, eq_fn, lb, ub, x0, **kw)

        monkeypatch.setattr(npv, "solve_sqp", spy)
        ctrl = NpvController(model, nh, wide_cfg())
        w = Window.from_trajectory(traj, 100, T_INI, HORIZON)
        ctrl.solve_step(w.u_ini, w.y_ini, w.p_hist, np.array([30.0, 40.0]), [4.0, 3.0])
        x = seen["x0"]
        _, jac = seen["eq_fn"](x)
        lam = 1e-2 * np.random.default_rng(2).standard_normal(ctrl.ny)
        nu = ctrl.nu
        assert ctrl.n_var == ctrl.off_a  # no a-block: the null space is [I; J_y]

        # a dominant cost Hessian makes any curvature pass the test
        exact = seen["lag_hess"](x, lam, 1e6 * np.eye(ctrl.n_var), jac)
        vals, vecs = np.linalg.eigh(exact[:nu, :nu])
        assert vals[0] < 0.0 < vals[-1]
        assert not np.any(exact[nu:]) and not np.any(exact[:, nu:])

        # the tracking Hessian: the reduced Hessian plus C has a Cholesky factor
        hess = seen["cost_fn"](x)[2]
        z = np.vstack([np.eye(nu), -jac[:, :nu]])
        np.linalg.cholesky(z.T @ hess[:ctrl.off_a, :ctrl.off_a] @ z + exact[:nu, :nu])
        assert np.array_equal(seen["lag_hess"](x, lam, hess, jac), exact)

        # no cost curvature: the reduced Hessian is C itself, indefinite, so clip
        clipped = seen["lag_hess"](x, lam, np.zeros_like(hess), jac)
        assert np.allclose(clipped[:nu, :nu], (vecs * np.maximum(vals, 0.0)) @ vecs.T, atol=1e-12)
        assert np.linalg.eigvalsh(clipped[:nu, :nu])[0] > -1e-12


class TestNeuralVariant:
    def test_matches_npv_on_frozen_parameter_data(self, setup):
        from npvdeepc.npv import frozen_parameter_history

        traj, model, hs, p_cols, nh = setup
        p_bar = frozen_parameter_history(model)
        cfg = wide_cfg()
        nh_frozen = transform_hankel(model, hs, p_cols, p_override=p_bar, refit_model=False)
        neural = NeuralController(model, nh_frozen, cfg)
        npv = NpvController(model, nh_frozen, cfg)
        w = Window.from_trajectory(traj, 130, T_INI, HORIZON)
        # feed the NPV controller the frozen history: identical problems
        u_neural, _ = neural.solve_step(w.u_ini, w.y_ini, w.p_hist, np.array([30.0, 40.0]), [4.0, 3.0])
        u_npv, _ = npv.solve_step(w.u_ini, w.y_ini, p_bar, np.array([30.0, 40.0]), [4.0, 3.0])
        assert np.max(np.abs(u_neural - u_npv)) < 1e-6

    def test_frozen_transform_consistent_on_frozen_data(self, setup):
        from npvdeepc.npv import frozen_parameter_history

        traj, model, hs, p_cols, nh = setup
        p_bar = frozen_parameter_history(model)
        frozen_cols = np.tile(p_bar[:, None], (1, hs.n_cols))
        nh_a = transform_hankel(model, hs, p_cols, p_override=p_bar, refit_model=False)
        nh_b = transform_hankel(model, hs, frozen_cols, refit_model=False)
        assert np.allclose(nh_a.phi_hl, nh_b.phi_hl, atol=1e-14)

    def test_problem_sizes_identical(self, setup):
        _, model, hs, p_cols, nh = setup
        cfg = wide_cfg()
        assert NeuralController(model, nh, cfg).problem_size() == NpvController(model, nh, cfg).problem_size()


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
        ctrl = CemController(model, nh, cfg, cem_target=0.05, dt=traj.dt)
        w = Window.from_trajectory(traj, 140, T_INI, HORIZON)
        # already delivered: optimizer should minimize further dose
        u_done, step_done = ctrl.solve_step(w.u_ini, w.y_ini, w.p_hist, cem_now=0.2, u_prev=[4.0, 3.0])
        assert step_done.extras["cem_pred_delta"] < 0.01
        path = np.asarray(step_done.extras["cem_path"])
        assert np.all(np.diff(path) >= 0)

    def test_cold_start_leaves_input_floor(self, setup):
        traj, model, hs, p_cols, nh = setup
        cfg = wide_cfg(y_lo=(24.0, 19.0), y_hi=(30.0, 80.0))
        ctrl = CemController(model, nh, cfg, cem_target=0.3, dt=traj.dt)
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
        ctrl = CemController(model, nh, cfg, cem_target=0.3, dt=traj.dt)
        u, step = ctrl.solve_step(w.u_ini, w.y_ini, w.p_hist, cem_now=0.0, u_prev=w.u_ini[-2:])
        assert np.array_equal(u, np.asarray(cfg.u_lo))
        infeasible = step.status == "infeasible" or step.extras["constraint_residual"] > cfg.kkt_tol
        assert infeasible
