import dataclasses

import numpy as np
import pytest

from npvdeepc.control import ControllerConfig, TrackingCost
from npvdeepc.deepc import DeepcController, build_projector
from npvdeepc.hankel import RankDeficientError, Trajectory, Window, partition
from npvdeepc.optim import HessianFactor, IndefiniteHessianError, QpProblem, solve_qp

from conftest import lti_trajectory, make_lti


def lti_config(**kw) -> ControllerConfig:
    defaults = dict(
        t_ini=4,
        horizon=6,
        q=(1.0, 1.0),
        r=(0.1, 0.1),
        p=(1.0, 1.0),
        lambda_g=10.0,
        lambda_sigma=1e6,
        u_lo=(-5.0, -5.0),
        u_hi=(5.0, 5.0),
        y_lo=(-50.0, -50.0),
        y_hi=(50.0, 50.0),
    )
    defaults.update(kw)
    return ControllerConfig(**defaults)


@pytest.fixture(scope="module")
def lti_hankel():
    traj = lti_trajectory(300, seed=21)
    return partition(traj, t_ini=4, horizon=6)


class TestProjector:
    def test_idempotent_and_symmetric(self, lti_hankel):
        pi = build_projector(lti_hankel)
        assert np.max(np.abs(pi @ pi - pi)) < 1e-10
        assert np.max(np.abs(pi - pi.T)) < 1e-10

    def test_row_space_vectors_unaffected(self, lti_hankel):
        pi = build_projector(lti_hankel)
        m = lti_hankel.past_future_stack()
        rng = np.random.default_rng(0)
        g = m.T @ rng.standard_normal(m.shape[0])  # in the row space
        assert np.max(np.abs((np.eye(pi.shape[0]) - pi) @ g)) < 1e-9 * max(1, np.max(np.abs(g)))

    def test_pythagoras_decomposition(self, lti_hankel):
        pi = build_projector(lti_hankel)
        rng = np.random.default_rng(1)
        for _ in range(100):
            g = rng.standard_normal(pi.shape[0])
            lhs = np.linalg.norm(pi @ g) ** 2 + np.linalg.norm((np.eye(pi.shape[0]) - pi) @ g) ** 2
            assert lhs == pytest.approx(np.linalg.norm(g) ** 2, abs=1e-10 * (1 + lhs))


class TestSolveStep:
    def _window_from_plant(self, plant, t_ini, u_seq):
        """Drive the plant with u_seq and return the trailing window pieces."""
        y = plant.simulate(u_seq)
        return u_seq[-t_ini:].ravel(), y[-t_ini:].ravel()

    def test_prediction_matches_plant_rollout(self, lti_hankel):
        # the equality constraints force the predicted outputs to be the true
        # LTI response to the optimized input sequence
        cfg = lti_config()
        ctrl = DeepcController(lti_hankel, cfg)
        plant = make_lti()
        rng = np.random.default_rng(2)
        u_hist = rng.uniform(-1, 1, size=(20, 2))
        u_ini, y_ini = self._window_from_plant(plant, cfg.t_ini, u_hist)
        r_vec = np.array([1.0, -0.5])
        u, step = ctrl.solve_step(u_ini, y_ini, None, r_vec, u_prev=u_hist[-1])
        rollout = plant.copy()
        y_true = rollout.simulate(step.u_seq)
        assert np.max(np.abs(y_true - step.y_pred)) < 1e-5
        assert step.extras["sigma_norm"] < 1e-6

    def test_fixed_u_reproduces_lti_response(self, lti_hankel):
        # any feasible fixed input sequence: pin u via equal bounds
        cfg = lti_config(q=(0.0, 0.0), p=(0.0, 0.0))
        plant = make_lti()
        rng = np.random.default_rng(3)
        u_hist = rng.uniform(-1, 1, size=(25, 2))
        u_ini, y_ini = self._window_from_plant(plant, cfg.t_ini, u_hist)
        u_fixed = rng.uniform(-0.5, 0.5, size=(cfg.horizon, 2))
        lob = tuple(np.min(u_fixed) * np.ones(2) - 1)
        ctrl = DeepcController(lti_hankel, cfg)
        # tie the decision inputs to the fixed sequence through the bounds
        ctrl.lb[: ctrl.cost.nu] = u_fixed.ravel()
        ctrl.ub[: ctrl.cost.nu] = u_fixed.ravel()
        _, step = ctrl.solve_step(u_ini, y_ini, None, np.zeros(2), u_prev=u_hist[-1])
        y_true = plant.copy().simulate(u_fixed)
        assert np.max(np.abs(y_true - step.y_pred)) < 1e-6

    def test_steady_state_fixed_point(self, lti_hankel):
        # LTI steady state: x = (I-A)^-1 B u, y = C x; reference there is a fixed point
        plant = make_lti()
        u_ss = np.array([0.8, -0.4])
        x_ss = np.linalg.solve(np.eye(2) - plant.a, plant.b @ u_ss)
        y_ss = plant.c @ x_ss
        cfg = lti_config()
        ctrl = DeepcController(lti_hankel, cfg)
        u_ini = np.tile(u_ss, cfg.t_ini)
        y_ini = np.tile(y_ss, cfg.t_ini)
        u, step = ctrl.solve_step(u_ini, y_ini, None, y_ss, u_prev=u_ss)
        assert np.max(np.abs(u - u_ss)) < 1e-5
        assert step.cost < 1e-8

    def test_large_sigma_penalty_consistent_data(self, lti_hankel):
        cfg = lti_config(lambda_sigma=1e10)
        ctrl = DeepcController(lti_hankel, cfg)
        plant = make_lti()
        rng = np.random.default_rng(4)
        u_hist = rng.uniform(-1, 1, size=(20, 2))
        u_ini, y_ini = TestSolveStep._window_from_plant(self, plant, cfg.t_ini, u_hist)
        _, step = ctrl.solve_step(u_ini, y_ini, None, np.zeros(2), u_prev=u_hist[-1])
        assert step.extras["sigma_norm"] < 1e-6

    def test_cost_recompute_invariant(self, lti_hankel):
        cfg = lti_config()
        ctrl = DeepcController(lti_hankel, cfg)
        plant = make_lti()
        rng = np.random.default_rng(5)
        u_hist = rng.uniform(-1, 1, size=(20, 2))
        u_ini, y_ini = self._window_from_plant(plant, cfg.t_ini, u_hist)
        r_vec = np.array([0.5, 0.5])
        u_prev = u_hist[-1]
        _, step = ctrl.solve_step(u_ini, y_ini, None, r_vec, u_prev)
        # recompute the tracking cost from the returned sequences
        q, r, p = np.array(cfg.q), np.array(cfg.r), np.array(cfg.p)
        cost = 0.0
        prev = u_prev
        for i in range(cfg.horizon):
            err = step.y_pred[i] - r_vec
            du = step.u_seq[i] - prev
            cost += err @ (q * err) + du @ (r * du)
            prev = step.u_seq[i]
        err_t = step.y_pred[-1] - r_vec
        cost += err_t @ (p * err_t)
        assert step.cost == pytest.approx(cost, abs=1e-8)

    def test_applied_inputs_respect_box(self, lti_hankel):
        cfg = lti_config(u_lo=(-0.2, -0.2), u_hi=(0.2, 0.2))
        ctrl = DeepcController(lti_hankel, cfg)
        plant = make_lti()
        rng = np.random.default_rng(6)
        u_hist = np.clip(rng.uniform(-1, 1, size=(20, 2)), -0.2, 0.2)
        u_ini, y_ini = self._window_from_plant(plant, cfg.t_ini, u_hist)
        u, step = ctrl.solve_step(u_ini, y_ini, None, np.array([5.0, 5.0]), u_prev=u_hist[-1])
        assert np.all(step.u_seq >= -0.2) and np.all(step.u_seq <= 0.2)
        assert np.all(np.abs(u) <= 0.2)

    def test_closed_loop_tracks_reference(self, lti_hankel):
        cfg = lti_config()
        ctrl = DeepcController(lti_hankel, cfg)
        plant = make_lti()
        rng = np.random.default_rng(7)
        history_u = list(rng.uniform(-1, 1, size=(cfg.t_ini, 2)))
        history_y = [plant.step(u) for u in history_u]
        u_ss = np.array([0.6, -0.2])
        x_ss = np.linalg.solve(np.eye(2) - plant.a, plant.b @ u_ss)
        r_vec = plant.c @ x_ss
        u_prev = history_u[-1]
        for _ in range(40):
            u, _ = ctrl.solve_step(
                np.array(history_u[-cfg.t_ini:]).ravel(),
                np.array(history_y[-cfg.t_ini:]).ravel(),
                None, r_vec,
                u_prev,
            )
            y = plant.step(u)
            history_u.append(u)
            history_y.append(y)
            u_prev = u
        assert np.max(np.abs(history_y[-1] - r_vec)) < 1e-3


class TestRegularizers:
    @pytest.mark.parametrize("reg", ["projection", "two_norm"])
    def test_each_regularizer_solves(self, lti_hankel, reg):
        cfg = lti_config(regularizer=reg, lambda_g=1.0, qp_max_iter=1000)
        ctrl = DeepcController(lti_hankel, cfg)
        plant = make_lti()
        rng = np.random.default_rng(8)
        u_hist = rng.uniform(-1, 1, size=(20, 2))
        y = plant.simulate(u_hist)
        u_ini, y_ini = u_hist[-cfg.t_ini:].ravel(), y[-cfg.t_ini:].ravel()
        u, step = ctrl.solve_step(u_ini, y_ini, None, np.array([0.5, 0.0]), u_prev=u_hist[-1])
        assert step.status == "optimal"
        assert np.all(np.isfinite(u))

    def test_projection_regularizer_does_not_bias(self, lti_hankel):
        # with noise-free data the projection penalty leaves the prediction exact
        cfg = lti_config(regularizer="projection", lambda_g=1e4)
        ctrl = DeepcController(lti_hankel, cfg)
        plant = make_lti()
        rng = np.random.default_rng(9)
        u_hist = rng.uniform(-1, 1, size=(20, 2))
        u_ini, y_ini = TestSolveStep._window_from_plant(self, plant, cfg.t_ini, u_hist)
        _, step = ctrl.solve_step(u_ini, y_ini, None, np.array([1.0, 0.0]), u_prev=u_hist[-1])
        y_true = plant.copy().simulate(step.u_seq)
        assert np.max(np.abs(y_true - step.y_pred)) < 1e-5


def full_deepc_qp(hs, cfg, lb_z, ub_z, u_ini, y_ini, r_vec, u_prev):
    """The uncondensed DeePC QP over (u, y, g, sigma), solved directly.

    Equality rows: up g = u_ini, yp g - sigma = y_ini, uf g = u, yf g = y,
    passed as general rows with equal limits.  A x is fixed on them, so
    adding rho A'A to the Hessian leaves the minimizer unchanged and makes
    the Hessian positive definite.  Returns (u_seq, y_pred, sigma).
    """
    cost = TrackingCost(cfg)
    nu, ny, ng, ns = cost.nu, cost.ny, hs.n_cols, hs.n_y * cfg.t_ini
    off_g, off_s = nu + ny, nu + ny + ng
    n = off_s + ns
    h = np.zeros((n, n))
    h[:nu, :nu] = cost.h_u
    h[nu:off_g, nu:off_g] = cost.h_y
    reg = np.eye(ng) - build_projector(hs) if cfg.regularizer == "projection" else np.eye(ng)
    h[off_g:off_s, off_g:off_s] = 2.0 * cfg.lambda_g * reg
    h[off_s:, off_s:] = 2.0 * cfg.lambda_sigma * np.eye(ns)
    n_up = hs.up.shape[0]
    a = np.zeros((n_up + ns + nu + ny, n))
    a[:, off_g:off_s] = hs.stacked()
    a[n_up:n_up + ns, off_s:] = -np.eye(ns)
    a[n_up + ns:, :off_g] = -np.eye(nu + ny)
    b = np.concatenate([u_ini, y_ini, np.zeros(nu + ny)])
    g_u, g_y = cost.linear_terms(r_vec, u_prev)
    g_lin = np.concatenate([g_u, g_y, np.zeros(ng + ns)])
    lb = np.concatenate([lb_z, np.full(ng + ns, -np.inf)])
    ub = np.concatenate([ub_z, np.full(ng + ns, np.inf)])
    rho = max(1.0, float(np.max(np.abs(h))))
    prob = QpProblem(h_factor=HessianFactor(h + rho * a.T @ a), g=g_lin, lb=lb, ub=ub, c=a, c_lo=b, c_hi=b)
    x, diag = solve_qp(prob, tol=1e-10, max_iter=1000)
    assert diag.status == "optimal"
    return (x[:nu].reshape(cfg.horizon, cfg.n_u), x[nu:off_g].reshape(cfg.horizon, cfg.n_y),
            x[off_s:])


def noisy_lti_hankel():
    traj = lti_trajectory(300, seed=22)
    rng = np.random.default_rng(23)
    noisy = Trajectory(u=traj.u, y=traj.y + 0.02 * rng.standard_normal(traj.y.shape), p=traj.p, dt=1.0)
    return partition(noisy, t_ini=4, horizon=6)


class TestCondensedForm:
    @pytest.mark.parametrize("reg", ["projection", "two_norm"])
    @pytest.mark.parametrize("case", [
        "exact_lti", "noisy_lti", "pinned_u", "active_y_bound", "noisy_pinned_u", "noisy_active_y_bound",
    ])
    def test_matches_full_qp(self, lti_hankel, case, reg):
        # exact data leaves left-null rows, which eliminate y but for a few
        # free coordinates; noisy data leaves none
        noisy = case.startswith("noisy")
        cfg = lti_config(regularizer=reg, lambda_g=1.0, lambda_sigma=10.0 if noisy else 1e6)
        r_vec = np.array([1.0, -0.5])
        if case.endswith("active_y_bound"):
            cfg = dataclasses.replace(cfg, y_hi=(0.6, 50.0))
            r_vec = np.array([2.0, 0.0])
        hs = noisy_lti_hankel() if noisy else lti_hankel
        ctrl = DeepcController(hs, cfg)
        assert (ctrl.gamma is None) == noisy
        plant = make_lti()
        rng = np.random.default_rng(10)
        u_hist = rng.uniform(-1, 1, size=(20, 2))
        y = plant.simulate(u_hist)
        if noisy:
            y = y + 0.02 * rng.standard_normal(y.shape)
        u_ini, y_ini = u_hist[-cfg.t_ini:].ravel(), y[-cfg.t_ini:].ravel()
        if case.endswith("pinned_u"):
            u_fixed = rng.uniform(-0.5, 0.5, size=cfg.horizon * cfg.n_u)
            ctrl.lb[:ctrl.cost.nu] = u_fixed
            ctrl.ub[:ctrl.cost.nu] = u_fixed

        _, step = ctrl.solve_step(u_ini, y_ini, None, r_vec, u_prev=u_hist[-1])
        u_ref, y_ref, sigma_ref = full_deepc_qp(hs, cfg, ctrl.lb, ctrl.ub, u_ini, y_ini, r_vec, u_hist[-1])
        assert step.status == "optimal"
        assert np.max(np.abs(step.u_seq - u_ref)) < 1e-6
        assert np.max(np.abs(step.y_pred - y_ref)) < 1e-6
        assert abs(step.extras["sigma_norm"] - np.linalg.norm(sigma_ref)) < 1e-6
        if case.endswith("pinned_u"):
            assert np.array_equal(step.u_seq.ravel(), u_fixed)
        if case.endswith("active_y_bound"):
            assert np.max(step.y_pred[:, 0]) == pytest.approx(0.6, abs=1e-9)
        if case == "noisy_lti":
            assert np.linalg.norm(sigma_ref) > 1e-3

    def test_keeps_only_small_owned_arrays(self, lti_hankel):
        ctrl = DeepcController(lti_hankel, lti_config())
        arrays = {k: v for k, v in vars(ctrl).items() if isinstance(v, np.ndarray)}
        assert {"lb", "ub"} <= arrays.keys()
        for name, arr in arrays.items():
            assert arr.base is None, name
            assert max(arr.shape) < ctrl.n_g, name

    def test_keeps_the_hessian_once(self, lti_hankel):
        # exact and noisy data alike keep only the factor, two owned arrays:
        # over (u, v) on exact data, whose 10 left-null rows fix y but for
        # v's 2 coordinates, and over z = (u, y) on noisy data
        nu = ny = 2 * lti_config().horizon
        exact = DeepcController(lti_hankel, lti_config())
        noisy = DeepcController(noisy_lti_hankel(), lti_config())
        for ctrl in (exact, noisy):
            assert not {"h", "a_eq", "b_ini"} & vars(ctrl).keys()
            assert ctrl.h_factor.l.base is None and ctrl.h_factor.j0.base is None
        assert exact.h_factor.n == nu + 2 and exact.gamma.shape == (ny, nu + 2)
        assert noisy.h_factor.n == nu + ny and noisy.gamma is None

    @pytest.mark.parametrize("data, changes", [
        ("noisy", dict(lambda_g=0.0, q=(0.0, 0.0), p=(0.0, 0.0))),
        ("exact", dict(lambda_g=0.0, q=(0.0, 0.0), p=(0.0, 0.0))),
        ("exact", dict(q=(0.0, 0.0), p=(0.0, 0.0), r=(1e-6, 1e-6))),
    ], ids=["noisy-no-weights", "exact-no-weights", "exact-tiny-move-weight"])
    def test_singular_hessian_rejected(self, lti_hankel, data, changes):
        # with no tracking weight and no penalty on g the condensed Hessian
        # is singular; on exact data with the projection regularizer, where
        # only the move weight prices the inputs, r = 1e-6 against
        # lambda_sigma = 1e6 leaves it positive definite only within rounding
        hs = lti_hankel if data == "exact" else noisy_lti_hankel()
        with pytest.raises(IndefiniteHessianError, match="no unique minimizer"):
            DeepcController(hs, lti_config(**changes))

    def test_periodic_input_data_rejected(self):
        # a period-4 input is not persistently exciting of the order the
        # Hankel needs: the left-null rows then bind the inputs alone
        u = np.tile(np.array([[1.0, -0.5], [0.3, 0.8], [-1.0, 0.2], [0.4, -0.9]]), (75, 1))
        traj = Trajectory(u=u, y=make_lti().simulate(u), p=np.zeros((300, 1)), dt=1.0)
        with pytest.raises(RankDeficientError, match="not persistently exciting"):
            DeepcController(partition(traj, t_ini=4, horizon=6), lti_config())
