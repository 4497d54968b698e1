import dataclasses

import numpy as np
import pytest

from npvdeepc import baseline, control, npv
from npvdeepc.baseline import ArxModel, arx_rollout, arx_rollout_affine, identify_arx, MpcController
from npvdeepc.control import ControllerConfig, NonFiniteWindowError, TrackingCost
from npvdeepc.deepc import DeepcController
from npvdeepc.hankel import DimensionError, Trajectory, partition
from npvdeepc.npv import NpvController, hankel_with_params, transform_hankel
from npvdeepc.optim import HessianFactor, QpProblem, SolveDiagnostics, SolverError

from conftest import lti_trajectory, make_lti, random_model


def simulate_arx(model: ArxModel, u: np.ndarray, rng=None, noise=0.0) -> np.ndarray:
    lag = max(model.n_a, model.n_b)
    n = u.shape[0]
    y = np.zeros((n, model.n_y))
    for k in range(lag, n):
        y_past = np.array([y[k - i] for i in range(1, model.n_a + 1)])
        u_past = np.array([u[k - i] for i in range(1, model.n_b + 1)])
        y[k] = model.one_step(y_past, u_past)
        if noise:
            y[k] += rng.normal(0, noise, model.n_y)
    return y


def known_arx() -> ArxModel:
    a1 = np.array([[0.6, 0.1], [-0.05, 0.7]])
    a2 = np.array([[0.1, 0.0], [0.02, -0.1]])
    b1 = np.array([[0.5, 0.2], [0.1, 0.8]])
    b2 = np.array([[0.05, 0.0], [0.0, 0.1]])
    return ArxModel(
        a_coefs=np.stack([a1, a2]),
        b_coefs=np.stack([b1, b2]),
        intercept=np.array([0.3, -0.2]),
    )


class TestIdentify:
    def test_recovers_known_arx(self):
        truth = known_arx()
        rng = np.random.default_rng(0)
        u = rng.uniform(-1, 1, size=(2000, 2))
        y = simulate_arx(truth, u)
        traj = Trajectory(u=u, y=y, p=np.zeros((2000, 1)), dt=1.0)
        fitted = identify_arx(traj, n_a=2, n_b=2)
        assert np.allclose(fitted.a_coefs, truth.a_coefs, atol=1e-8)
        assert np.allclose(fitted.b_coefs, truth.b_coefs, atol=1e-8)
        assert np.allclose(fitted.intercept, truth.intercept, atol=1e-8)
        assert fitted.fit_residual < 1e-10

    def test_white_noise_outputs_decouple_inputs(self):
        rng = np.random.default_rng(1)
        u = rng.uniform(-1, 1, size=(10000, 2))
        y = rng.standard_normal((10000, 2))
        traj = Trajectory(u=u, y=y, p=np.zeros((10000, 1)), dt=1.0)
        fitted = identify_arx(traj, n_a=2, n_b=2)
        assert np.max(np.abs(fitted.b_coefs)) < 0.05

    @pytest.mark.parametrize("n_a, n_b", [(3, 1), (1, 3), (0, 2)])
    def test_matches_per_sample_regressors(self, n_a, n_b):
        # reference: one regressor row per sample, newest lag first
        rng = np.random.default_rng(3)
        u = rng.uniform(-1, 1, size=(300, 2))
        y = rng.standard_normal((300, 2))
        lag = max(n_a, n_b)
        rows = np.array([
            np.concatenate([y[t - i] for i in range(1, n_a + 1)]
                           + [u[t - j] for j in range(1, n_b + 1)] + [[1.0]])
            for t in range(lag, 300)
        ])
        theta = np.linalg.lstsq(rows, y[lag:], rcond=None)[0].T
        fitted = identify_arx(Trajectory(u=u, y=y, p=np.zeros((300, 1)), dt=1.0), n_a, n_b)
        fitted_theta = np.hstack([*fitted.a_coefs, *fitted.b_coefs, fitted.intercept[:, None]])
        assert np.array_equal(fitted_theta, theta)

    def test_empty_regressor_rejected(self):
        traj = Trajectory(u=np.zeros((50, 2)), y=np.zeros((50, 2)), p=np.zeros((50, 1)), dt=1.0)
        with pytest.raises(ValueError, match="empty regressor"):
            identify_arx(traj, n_a=0, n_b=0)

    def test_rank_deficient_regressor(self):
        # constant inputs and outputs give a collinear regressor
        traj = Trajectory(u=np.ones((200, 2)), y=np.ones((200, 2)), p=np.zeros((200, 1)), dt=1.0)
        with pytest.raises(ValueError, match="rank"):
            identify_arx(traj, n_a=2, n_b=2)


class TestRollout:
    def test_multistep_equals_repeated_onestep(self):
        model = known_arx()
        rng = np.random.default_rng(2)
        y_hist = rng.standard_normal((3, 2))
        u_hist = rng.standard_normal((3, 2))
        u_fut = rng.standard_normal((8, 2))
        preds = arx_rollout(model, y_hist, u_hist, u_fut)
        # telescoping oracle: feed predictions back one step at a time
        y_all = list(y_hist)
        u_all = list(u_hist)
        for i in range(8):
            y_past = np.array([y_all[-j] for j in range(1, model.n_a + 1)])
            u_past = np.array([u_all[-j] for j in range(1, model.n_b + 1)])
            y_next = model.one_step(y_past, u_past)
            assert np.allclose(preds[i], y_next, atol=1e-12)
            y_all.append(y_next)
            u_all.append(u_fut[i])

    def test_affine_map_matches_rollout(self):
        model = known_arx()
        rng = np.random.default_rng(3)
        y_hist = rng.standard_normal((4, 2))
        u_hist = rng.standard_normal((4, 2))
        gamma, offset = arx_rollout_affine(model, y_hist, u_hist, horizon=6)
        for _ in range(5):
            u_fut = rng.standard_normal((6, 2))
            direct = arx_rollout(model, y_hist, u_hist, u_fut).ravel()
            assert np.allclose(gamma @ u_fut.ravel() + offset, direct, atol=1e-11)


def mpc_config(**kw) -> ControllerConfig:
    defaults = dict(
        t_ini=4,
        horizon=8,
        q=(1.0, 1.0),
        r=(0.05, 0.05),
        p=(1.0, 1.0),
        u_lo=(-3.0, -3.0),
        u_hi=(3.0, 3.0),
        y_lo=(-40.0, -40.0),
        y_hi=(40.0, 40.0),
    )
    defaults.update(kw)
    return ControllerConfig(**defaults)


class TestMpc:
    def _identified_lti(self, seed=4):
        plant = make_lti()
        rng = np.random.default_rng(seed)
        u = rng.uniform(-1, 1, size=(3000, 2))
        y = plant.copy().simulate(u)
        traj = Trajectory(u=u, y=y, p=np.zeros((3000, 1)), dt=1.0)
        # the state-output plant is exactly first order in (y, u); higher
        # lags would make the noise-free regressor collinear
        return identify_arx(traj, n_a=1, n_b=1), plant

    def test_zero_steady_state_error_exact_model(self):
        model, plant = self._identified_lti()
        cfg = mpc_config()
        ctrl = MpcController(model, cfg)
        u_ss = np.array([0.5, -0.3])
        x_ss = np.linalg.solve(np.eye(2) - plant.a, plant.b @ u_ss)
        r_vec = plant.c @ x_ss
        sim = plant.copy()
        sim.reset()
        hist_u = [np.zeros(2)] * cfg.t_ini
        hist_y = [sim.step(np.zeros(2)) for _ in range(cfg.t_ini)]
        u_prev = hist_u[-1]
        for _ in range(60):
            u, _ = ctrl.solve_step(
                np.array(hist_u[-cfg.t_ini:]).ravel(),
                np.array(hist_y[-cfg.t_ini:]).ravel(),
                None, r_vec, u_prev,
            )
            y = sim.step(u)
            hist_u.append(u)
            hist_y.append(y)
            u_prev = u
        assert np.max(np.abs(hist_y[-1] - r_vec)) < 1e-4

    def test_reference_at_steady_state_zero_move(self):
        model, plant = self._identified_lti()
        cfg = mpc_config()
        ctrl = MpcController(model, cfg)
        u_ss = np.array([0.4, 0.2])
        x_ss = np.linalg.solve(np.eye(2) - plant.a, plant.b @ u_ss)
        y_ss = plant.c @ x_ss
        u, step = ctrl.solve_step(
            np.tile(u_ss, cfg.t_ini), np.tile(y_ss, cfg.t_ini), None, y_ss, u_ss
        )
        assert np.max(np.abs(u - u_ss)) < 1e-5
        assert step.cost < 1e-8

    def test_output_bound_excludes_reference(self):
        model, plant = self._identified_lti()
        # reference above the tight output ceiling: settle on the boundary
        cfg = mpc_config(y_hi=(0.5, 40.0), q=(1.0, 0.0), p=(1.0, 0.0))
        ctrl = MpcController(model, cfg)
        sim = plant.copy()
        hist_u = [np.zeros(2)] * cfg.t_ini
        hist_y = [sim.step(np.zeros(2)) for _ in range(cfg.t_ini)]
        u_prev = hist_u[-1]
        r_vec = np.array([2.0, 0.0])
        for _ in range(60):
            u, step = ctrl.solve_step(
                np.array(hist_u[-cfg.t_ini:]).ravel(),
                np.array(hist_y[-cfg.t_ini:]).ravel(),
                None, r_vec, u_prev,
            )
            y = sim.step(u)
            hist_u.append(u)
            hist_y.append(y)
            u_prev = u
        # predicted outputs respect the ceiling; the loop rides the boundary
        assert np.all(step.y_pred[:, 0] <= 0.5 + 1e-9)
        assert abs(hist_y[-1][0] - 0.5) < 0.05

    def test_inputs_within_box(self):
        model, plant = self._identified_lti()
        cfg = mpc_config(u_lo=(-0.1, -0.1), u_hi=(0.1, 0.1))
        ctrl = MpcController(model, cfg)
        u, step = ctrl.solve_step(
            np.zeros(2 * cfg.t_ini), np.zeros(2 * cfg.t_ini), None, np.array([5.0, 5.0]), np.zeros(2)
        )
        assert np.all(step.u_seq >= -0.1) and np.all(step.u_seq <= 0.1)

    def test_step_ignores_warm_start_and_previous_step(self):
        # the dual QP starts cold at the unconstrained minimizer: the same
        # window gives the same step with or without warm starts, and after
        # a different previous step
        model, plant = self._identified_lti()
        rng = np.random.default_rng(3)
        windows = [(rng.uniform(-1, 1, 8), rng.uniform(-1, 1, 8)) for _ in range(2)]
        r_vec = np.array([1.0, -0.5])
        steps = []
        for warm_start, history in ((True, []), (False, []), (True, [windows[1]]), (False, [windows[1]])):
            ctrl = MpcController(model, mpc_config(warm_start=warm_start, u_lo=(-0.3, -0.3), u_hi=(0.3, 0.3)))
            for u_ini, y_ini in history + [windows[0]]:
                _, step = ctrl.solve_step(u_ini, y_ini, None, r_vec, np.zeros(2))
            steps.append(step)
        assert np.any(np.abs(steps[0].u_seq) == 0.3)
        for step in steps[1:]:
            for f in dataclasses.fields(step):
                if f.name != "wall_time_s":
                    a, b = getattr(steps[0], f.name), getattr(step, f.name)
                    assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name


class TestMpcRolloutMap:
    """Gamma and the free-response map are built once per controller; a step runs no rollout."""

    def _closed_loop(self, ctrl, steps=12, seed=5):
        # ARX plant driven by the controller, with a reference it cannot reach
        # so the input box takes part
        model, cfg = ctrl.model, ctrl.cfg
        rng = np.random.default_rng(seed)
        hist_u = list(rng.uniform(-1, 1, (cfg.t_ini, 2)))
        hist_y = list(rng.uniform(-1, 1, (cfg.t_ini, 2)))
        r_vec = np.array([4.0, -2.0])
        for _ in range(steps):
            u, _ = ctrl.solve_step(
                np.array(hist_u[-cfg.t_ini:]).ravel(), np.array(hist_y[-cfg.t_ini:]).ravel(),
                None, r_vec, hist_u[-1],
            )
            y_past = np.array(hist_y[::-1][:model.n_a])
            hist_y.append(model.one_step(y_past, np.array([u] + hist_u[::-1][:model.n_b - 1])))
            hist_u.append(u)

    def test_step_builds_no_rollout_map(self, monkeypatch):
        ctrl = MpcController(known_arx(), mpc_config(u_lo=(-1.0, -1.0), u_hi=(1.0, 1.0)))
        calls = []

        def spy(name):
            fn = getattr(baseline, name)

            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            monkeypatch.setattr(baseline, name, wrapped)

        for name in ("arx_prediction_map", "arx_rollout_affine", "arx_rollout"):
            spy(name)
        self._closed_loop(ctrl)
        assert calls == []

    def test_stored_gamma_equals_per_history_map(self):
        # the free-response map too, also for n_a != n_b
        short_b = known_arx()
        short_b.b_coefs = short_b.b_coefs[:1]
        cfg = mpc_config()
        rng = np.random.default_rng(8)
        for model in (known_arx(), short_b):
            ctrl = MpcController(model, cfg)
            for _ in range(5):
                y_hist = 10 * rng.standard_normal((cfg.t_ini, 2))
                u_hist = 10 * rng.standard_normal((cfg.t_ini, 2))
                gamma, offset = arx_rollout_affine(model, y_hist, u_hist, cfg.horizon)
                assert np.array_equal(ctrl.gamma, gamma)
                free = ctrl.y_map @ np.concatenate([u_hist.ravel(), y_hist.ravel()]) + ctrl.y_0
                assert np.allclose(free, offset, rtol=0.0, atol=1e-12)
                # oracle: one-step predictions fed back under zero future input
                y_all, u_all = list(y_hist), list(u_hist) + [np.zeros(2)] * cfg.horizon
                for t in range(cfg.t_ini, cfg.t_ini + cfg.horizon):
                    y_past = np.array([y_all[t - j] for j in range(1, model.n_a + 1)])
                    u_past = np.array([u_all[t - j] for j in range(1, model.n_b + 1)])
                    y_all.append(model.one_step(y_past, u_past))
                assert np.allclose(free, np.ravel(y_all[cfg.t_ini:]), rtol=0.0, atol=1e-10)
            # the outputs are eliminated: no equality rows
            assert not hasattr(ctrl, "a_eq")

    def test_step_matches_per_step_map(self, monkeypatch):
        # reference: the (u, y) program with the rows [-gamma, I] rebuilt
        # from each history, as general rows with equal limits; they fix
        # A z, so rho A'A added to the Hessian leaves the minimizer unchanged
        model = known_arx()
        cfg = mpc_config(u_lo=(-1.0, -1.0), u_hi=(1.0, 1.0))
        ctrl = MpcController(model, cfg)
        seen = []
        solve_qp = control.solve_qp

        def spy(prob, **kw):
            x, diag = solve_qp(prob, **kw)
            seen.append((prob, x, kw))
            return x, diag

        step = ctrl.solve_step

        def spy_step(u_ini, y_ini, p_hist, r_vec, u_prev):
            hists.append((np.reshape(y_ini, (cfg.t_ini, 2)), np.reshape(u_ini, (cfg.t_ini, 2)), r_vec, u_prev))
            out = step(u_ini, y_ini, p_hist, r_vec, u_prev)
            results.append(out[1])
            return out

        hists, results = [], []
        monkeypatch.setattr(control, "solve_qp", spy)
        ctrl.solve_step = spy_step
        self._closed_loop(ctrl)
        assert len(seen) == len(hists) == 12
        nu, ny = ctrl.cost.nu, ctrl.cost.ny
        assert any(np.any(np.abs(x[:nu]) == 1.0) for _, x, _ in seen)
        h = ctrl.cost.hessian()
        rho = max(1.0, float(np.max(np.abs(h))))
        for (prob, x, kw), (y_hist, u_hist, r_vec, u_prev), result in zip(seen, hists, results):
            gamma, offset = arx_rollout_affine(model, y_hist, u_hist, cfg.horizon)
            assert np.allclose(ctrl.ub[nu:] - prob.c_hi, offset, rtol=0.0, atol=1e-12)
            rows = np.hstack([-gamma, np.eye(ny)])
            ref_prob = QpProblem(
                h_factor=HessianFactor(h + rho * rows.T @ rows), g=np.concatenate(ctrl.cost.linear_terms(r_vec, u_prev)),
                lb=ctrl.lb, ub=ctrl.ub, c=rows, c_lo=offset, c_hi=offset,
            )
            x_ref, diag_ref = solve_qp(ref_prob, **kw)
            assert diag_ref.status == "optimal"
            assert np.max(np.abs(result.u_seq.ravel() - x_ref[:nu])) <= 1e-7
            assert np.max(np.abs(result.y_pred.ravel() - x_ref[nu:])) <= 1e-7


def _window_controller(kind, **cfg_changes):
    cfg = mpc_config(**cfg_changes)
    traj = lti_trajectory(300, seed=21)
    if kind == "deepc":
        return DeepcController(partition(traj, cfg.t_ini, cfg.horizon), cfg)
    if kind == "mpc":
        return MpcController(known_arx(), cfg)
    # 2N features keep kmat at full column rank over the n_y*N = 2N outputs
    model = random_model(np.random.default_rng(21), t_ini=cfg.t_ini, horizon=cfg.horizon,
                         hidden=(2 * cfg.horizon,))
    nh = transform_hankel(model, *hankel_with_params(traj, cfg.t_ini, cfg.horizon))
    return NpvController(nh, cfg)


@pytest.mark.parametrize("kind", ["deepc", "mpc", "npv"])
def test_wrong_window_length_raises_dimension_error(kind):
    ctrl = _window_controller(kind)
    cfg = ctrl.cfg
    n = 2 * cfg.t_ini
    p_hist = np.zeros(cfg.t_ini)
    for u_ini, y_ini in ((np.zeros(n - 1), np.zeros(n)), (np.zeros(n), np.zeros(n + 2))):
        with pytest.raises(DimensionError, match="initial window lengths"):
            ctrl.solve_step(u_ini, y_ini, p_hist, np.zeros(2), np.zeros(2))
    if kind == "npv":
        with pytest.raises(DimensionError, match="parameter history length"):
            ctrl.solve_step(np.zeros(n), np.zeros(n), p_hist[1:], np.zeros(2), np.zeros(2))
    # the reference and the previous input, one value per output and input
    for r_vec, u_prev in ((np.zeros(1), np.zeros(2)), (np.zeros(2), np.zeros(1)), (np.zeros(3), np.zeros(2))):
        with pytest.raises(DimensionError, match="reference and previous input lengths"):
            ctrl.solve_step(np.zeros(n), np.zeros(n), p_hist, r_vec, u_prev)


@pytest.mark.parametrize("kind", ["deepc", "mpc", "npv"])
def test_non_finite_window_rejected(kind, monkeypatch):
    ctrl = _window_controller(kind)
    cfg = ctrl.cfg
    n = 2 * cfg.t_ini

    def no_solve(*args, **kwargs):
        raise AssertionError("a non-finite window reached the solver")

    monkeypatch.setattr(control, "solve_qp", no_solve)
    monkeypatch.setattr(npv, "solve_sqp", no_solve)
    # the linear predictors ignore the parameter history
    names = ("u_ini", "y_ini", "p_hist") if kind == "npv" else ("u_ini", "y_ini")
    bads = (np.inf, np.nan, np.nan)[:len(names)] + (np.nan, -np.inf)
    # the reference and the previous input are checked as well
    for name, bad in zip(names + ("r_vec", "u_prev"), bads):
        window = {"u_ini": np.full(n, 0.5), "y_ini": np.full(n, 0.5), "p_hist": np.full(cfg.t_ini, 4.0),
                  "r_vec": np.full(2, 0.5), "u_prev": np.full(2, 0.5)}
        window[name][-1] = bad
        with pytest.raises(NonFiniteWindowError, match=name):
            ctrl.solve_step(window["u_ini"], window["y_ini"], window["p_hist"], window["r_vec"], window["u_prev"])


@pytest.mark.parametrize("warm_start", [True, False])
@pytest.mark.parametrize("kind", ["deepc", "mpc", "npv"])
def test_step_contract(kind, warm_start, monkeypatch):
    """Every controller's step: result layout, recomputed cost, solve record and start.

    A step carries every diagnostics field of its solve as it is.  The
    linear controllers' QP takes no start (it starts cold at the
    unconstrained minimizer, with no working set) and reports its own
    iterations as its QP work; NPV-DeePC warm-starts from its shifted inputs.
    """
    ctrl = _window_controller(kind, warm_start=warm_start)
    # perfbench times each controller through its own entry
    assert "solve_step" in type(ctrl).__dict__
    cfg, nu = ctrl.cfg, ctrl.cost.nu
    starts, solves = [], []
    solve_qp, solve_sqp = control.solve_qp, npv.solve_sqp

    def spy_qp(prob, **kw):
        assert "start" not in kw
        starts.append((None, prob))
        x, diag = solve_qp(prob, **kw)
        solves.append(diag)
        return x, diag

    def spy_sqp(cost_fn, eq_fn, lb, ub, x0, **kw):
        starts.append((x0, eq_fn))
        x, diag = solve_sqp(cost_fn, eq_fn, lb, ub, x0, **kw)
        solves.append(diag)
        return x, diag

    monkeypatch.setattr(control, "solve_qp", spy_qp)
    monkeypatch.setattr(npv, "solve_sqp", spy_sqp)
    traj = lti_trajectory(300, seed=21)
    r_vec = np.array([0.5, -0.5])
    steps, u_prevs = [], []
    for k in (0, 1):
        window = slice(k, k + cfg.t_ini)
        u_prevs.append(traj.u[k + cfg.t_ini - 1])
        u, step = ctrl.solve_step(traj.u[window], traj.y[window], traj.p[window], r_vec, u_prevs[-1])
        assert step.u_seq.shape == (cfg.horizon, cfg.n_u)
        assert step.y_pred.shape == (cfg.horizon, cfg.n_y)
        assert np.array_equal(u, step.u_seq[0]) and np.array_equal(step.u_apply, step.u_seq[0])
        assert step.cost == TrackingCost(cfg).value(step.u_seq, step.y_pred, r_vec, u_prevs[-1])
        for f in dataclasses.fields(SolveDiagnostics):
            assert getattr(step, f.name) is getattr(solves[-1], f.name), f.name
        steps.append(step)
    assert len(starts) == len(solves) == 2
    # a QP reports its multipliers and working set, an SQP neither
    assert all((step.working_set is None) == (kind == "npv") for step in steps)
    if kind != "npv":
        assert all(isinstance(prob, QpProblem) for _, prob in starts)
        assert all((step.qp_iterations, step.clipped) == (step.iterations, 0) for step in steps)
        return

    def assert_cold(x0, u_prev):
        assert np.array_equal(x0[:nu], np.tile(np.clip(u_prev, cfg.u_lo, cfg.u_hi), cfg.horizon))

    assert_cold(starts[0][0], u_prevs[0])
    x0, problem = starts[1]
    if not warm_start:
        assert_cold(x0, u_prevs[1])
        return
    u_shift = np.vstack([steps[0].u_seq[1:], steps[0].u_seq[-1:]]).ravel()
    # the SQP runs over the inputs alone, and its rows are the predicted outputs
    assert np.array_equal(x0, u_shift)
    assert problem(x0)[0].shape == (cfg.horizon * cfg.n_y,)


@pytest.mark.parametrize("kind", ["deepc", "mpc"])
def test_unreachable_output_box_raises_solver_error(kind):
    # an output box far above every output the input box can reach: the
    # step's QP is infeasible, and the step names the controller
    ctrl = _window_controller(kind, y_lo=(1e3, 1e3), y_hi=(1e3 + 1.0, 1e3 + 1.0))
    # on exact data DeePC also carries the output box as general rows
    assert ctrl.gamma is not None
    traj = lti_trajectory(300, seed=21)
    window = slice(0, ctrl.cfg.t_ini)
    with pytest.raises(SolverError, match=f"^{type(ctrl).__name__} step infeasible"):
        ctrl.solve_step(traj.u[window], traj.y[window], None, np.zeros(2), traj.u[ctrl.cfg.t_ini - 1])


def _loop_tracking_cost(cfg, u_seq, y_seq, r_vec, u_prev) -> float:
    """Reference: the tracking cost summed step by step over the horizon."""
    u_seq = np.reshape(u_seq, (cfg.horizon, cfg.n_u))
    y_seq = np.reshape(y_seq, (cfg.horizon, cfg.n_y))
    q, r_w, p_w = (np.asarray(w, dtype=float) for w in (cfg.q, cfg.r, cfg.p))
    cost, prev = 0.0, np.asarray(u_prev, dtype=float)
    for i in range(cfg.horizon):
        err, du = y_seq[i] - r_vec, u_seq[i] - prev
        cost += float(err @ (q * err) + du @ (r_w * du))
        prev = u_seq[i]
    err_t = y_seq[-1] - r_vec
    return cost + float(err_t @ (p_w * err_t))


def test_tracking_cost_value_matches_loop_reference():
    # the stacked-operator value against the step-by-step sum; the summation
    # order differs, so they agree to rounding of a few dozen terms
    rng = np.random.default_rng(8)
    for _ in range(20):
        cfg = ControllerConfig(
            horizon=int(rng.integers(1, 8)), q=tuple(rng.uniform(0, 2, 2)), r=tuple(rng.uniform(0.01, 1, 2)),
            p=tuple(rng.uniform(0, 3, 2)),
        )
        u_seq, y_seq = rng.uniform(1, 8, (cfg.horizon, 2)), rng.uniform(20, 45, (cfg.horizon, 2))
        r_vec, u_prev = rng.uniform(25, 35, 2), rng.uniform(1, 8, 2)
        ref = _loop_tracking_cost(cfg, u_seq, y_seq, r_vec, u_prev)
        assert TrackingCost(cfg).value(u_seq, y_seq, r_vec, u_prev) == pytest.approx(ref, rel=1e-12)
