import numpy as np
import pytest

from npvdeepc import baseline, control
from npvdeepc.baseline import ArxModel, arx_rollout, arx_rollout_affine, identify_arx, MpcController
from npvdeepc.control import ControllerConfig
from npvdeepc.deepc import DeepcController
from npvdeepc.hankel import DimensionError, Trajectory, partition
from npvdeepc.optim import QpProblem

from conftest import lti_trajectory, make_lti


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
                r_vec, u_prev,
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
            np.tile(u_ss, cfg.t_ini), np.tile(y_ss, cfg.t_ini), y_ss, u_ss
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
                r_vec, u_prev,
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
            np.zeros(2 * cfg.t_ini), np.zeros(2 * cfg.t_ini), np.array([5.0, 5.0]), np.zeros(2)
        )
        assert np.all(step.u_seq >= -0.1) and np.all(step.u_seq <= 0.1)

    def test_warm_start_satisfies_rollout_rows(self, monkeypatch):
        model, plant = self._identified_lti()
        cfg = mpc_config()
        ctrl = MpcController(model, cfg)
        seen = []
        solve_qp = control.solve_qp

        def spy(prob, x0=None, **kw):
            seen.append((prob, x0))
            return solve_qp(prob, x0=x0, **kw)

        monkeypatch.setattr(control, "solve_qp", spy)
        rng = np.random.default_rng(3)
        r_vec = np.array([1.0, -0.5])
        for _ in range(3):
            ctrl.solve_step(rng.uniform(-1, 1, 2 * cfg.t_ini), rng.uniform(-1, 1, 2 * cfg.t_ini),
                            r_vec, np.zeros(2))
        assert seen[0][1] is None
        for prob, x0 in seen[1:]:
            assert x0 is not None
            assert np.max(np.abs(prob.a_eq @ x0 - prob.b_eq)) <= 1e-9


class TestMpcRolloutMap:
    """Gamma and the free-response map are built once per controller; a step runs no rollout."""

    def _closed_loop(self, ctrl, steps=12, seed=5):
        # ARX plant driven by the controller, with a reference it cannot reach
        # so the input box and warm starts take part
        model, cfg = ctrl.model, ctrl.cfg
        rng = np.random.default_rng(seed)
        hist_u = list(rng.uniform(-1, 1, (cfg.t_ini, 2)))
        hist_y = list(rng.uniform(-1, 1, (cfg.t_ini, 2)))
        r_vec = np.array([4.0, -2.0])
        for _ in range(steps):
            u, _ = ctrl.solve_step(
                np.array(hist_u[-cfg.t_ini:]).ravel(), np.array(hist_y[-cfg.t_ini:]).ravel(),
                r_vec, hist_u[-1],
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
                free = ctrl.b_ini @ np.concatenate([u_hist.ravel(), y_hist.ravel()]) + ctrl.b_0
                assert np.allclose(free, offset, rtol=0.0, atol=1e-12)
                # oracle: one-step predictions fed back under zero future input
                y_all, u_all = list(y_hist), list(u_hist) + [np.zeros(2)] * cfg.horizon
                for t in range(cfg.t_ini, cfg.t_ini + cfg.horizon):
                    y_past = np.array([y_all[t - j] for j in range(1, model.n_a + 1)])
                    u_past = np.array([u_all[t - j] for j in range(1, model.n_b + 1)])
                    y_all.append(model.one_step(y_past, u_past))
                assert np.allclose(free, np.ravel(y_all[cfg.t_ini:]), rtol=0.0, atol=1e-10)
            assert np.array_equal(ctrl.a_eq, np.hstack([-gamma, np.eye(cfg.horizon * 2)]))

    def test_step_matches_per_step_map(self, monkeypatch):
        # reference: the QP with gamma and offset rebuilt from each history
        model = known_arx()
        cfg = mpc_config(u_lo=(-1.0, -1.0), u_hi=(1.0, 1.0))
        ctrl = MpcController(model, cfg)
        seen = []
        solve_qp = control.solve_qp

        def spy(prob, x0=None, **kw):
            x, diag = solve_qp(prob, x0=x0, **kw)
            seen.append((prob, x0, x, kw))
            return x, diag

        step = ctrl.solve_step

        def spy_step(u_ini, y_ini, r_vec, u_prev):
            hists.append((np.reshape(y_ini, (cfg.t_ini, 2)), np.reshape(u_ini, (cfg.t_ini, 2))))
            return step(u_ini, y_ini, r_vec, u_prev)

        hists = []
        monkeypatch.setattr(control, "solve_qp", spy)
        ctrl.solve_step = spy_step
        self._closed_loop(ctrl)
        assert len(seen) == len(hists) == 12
        nu, ny = ctrl.cost.nu, ctrl.cost.ny
        assert seen[0][1] is None and all(x0 is not None for _, x0, _, _ in seen[1:])
        assert any(np.any(np.abs(x[:nu]) == 1.0) for _, _, x, _ in seen)
        for (prob, x0, x, kw), (y_hist, u_hist) in zip(seen, hists):
            gamma, offset = arx_rollout_affine(model, y_hist, u_hist, cfg.horizon)
            assert np.allclose(prob.b_eq, offset, rtol=0.0, atol=1e-12)
            ref_prob = QpProblem(
                h=ctrl.h, g=prob.g, a_eq=np.hstack([-gamma, np.eye(ny)]), b_eq=offset,
                lb=ctrl.lb, ub=ctrl.ub, validate=False,
            )
            x0_ref = None if x0 is None else np.concatenate([x0[:nu], gamma @ x0[:nu] + offset])
            x_ref, diag_ref = solve_qp(ref_prob, x0=x0_ref, **kw)
            assert diag_ref.status == "optimal"
            assert np.max(np.abs(x - x_ref)) <= 1e-9


@pytest.mark.parametrize("kind", ["deepc", "mpc"])
def test_wrong_window_length_raises_dimension_error(kind):
    cfg = mpc_config()
    if kind == "deepc":
        ctrl = DeepcController(partition(lti_trajectory(300, seed=21), cfg.t_ini, cfg.horizon), cfg)
    else:
        ctrl = MpcController(known_arx(), cfg)
    n = 2 * cfg.t_ini
    for u_ini, y_ini in ((np.zeros(n - 1), np.zeros(n)), (np.zeros(n), np.zeros(n + 2))):
        with pytest.raises(DimensionError, match="initial window lengths"):
            ctrl.solve_step(u_ini, y_ini, np.zeros(2), np.zeros(2))
