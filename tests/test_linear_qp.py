"""The linear controllers' QPs on the desk data: a fixed part that cannot go
stale, and answers that a solver-free KKT certificate accepts."""

import numpy as np
import pytest

from conftest import _kkt_certificate
from npvdeepc import control
from npvdeepc.experiments import make_controller, run_tracking_loop, surrogate_from_config
from npvdeepc.optim import QpProblem, solve_qp


def _desk_controller(kind, cfg, pipe):
    return make_controller(kind, cfg, pipe, surrogate_from_config(cfg).box)


def _record_qps(monkeypatch):
    """Record (problem, keywords, x, diagnostics) of every controller QP."""
    seen = []

    def spy(prob, **kw):
        x, diag = solve_qp(prob, **kw)
        seen.append((prob, kw, x, diag))
        return x, diag

    monkeypatch.setattr(control, "solve_qp", spy)
    return seen


def _fixed_arrays(ctrl):
    arrays = {k: v for k, v in vars(ctrl).items() if isinstance(v, np.ndarray)}
    arrays.update(h_l=ctrl.h_factor.l, h_j0=ctrl.h_factor.j0)
    return {k: v.copy() for k, v in arrays.items()}


@pytest.mark.parametrize("kind", ["deepc", "mpc"])
def test_fixed_part_does_not_go_stale(kind, cfg, pipe, monkeypatch):
    # DeePC on the noisy desk data solves over the (u, y) box alone, ARX-MPC
    # with the output box as general rows; every step over the interleaved
    # windows equals a solve of the same program built from scratch
    ctrl = _desk_controller(kind, cfg, pipe)
    assert (ctrl.gamma is None) == (kind == "deepc")
    seen = _record_qps(monkeypatch)
    fixed = _fixed_arrays(ctrl)
    t_ini, traj = ctrl.cfg.t_ini, pipe.traj
    r_vec = np.array([cfg.scenario.reference[0][1], 45.0])
    nu = ctrl.cost.nu
    steps = []
    for start in (60, 150, 60):
        window = slice(start, start + t_ini)
        u_ini, y_ini = traj.u[window].ravel(), traj.y[window].ravel()
        _, step = ctrl.solve_step(u_ini, y_ini, None, r_vec, traj.u[start + t_ini - 1])
        prob, kw, x, diag = seen[-1]
        rows = {} if prob.c is None else {"c": prob.c.copy(), "c_lo": prob.c_lo.copy(), "c_hi": prob.c_hi.copy()}
        fresh = QpProblem(h_factor=prob.h_factor, g=prob.g.copy(), lb=prob.lb.copy(), ub=prob.ub.copy(), **rows)
        for name in ("lim", "scale", "lim_scaled"):
            assert np.array_equal(getattr(fresh, name), getattr(prob, name)), name
        x_ref, ref = solve_qp(fresh, **kw)
        assert np.array_equal(x, x_ref)
        assert np.array_equal(step.u_seq.ravel(), x_ref[:nu])
        if ctrl.gamma is None:
            y_ref = x_ref[nu:]
        else:
            y_ref = ctrl.gamma @ x_ref + (ctrl.y_map @ np.concatenate([u_ini, y_ini]) + ctrl.y_0)
        assert np.array_equal(step.y_pred.ravel(), y_ref)
        assert (step.kkt_residual, step.iterations) == (ref.kkt_residual, ref.iterations)
        assert np.array_equal(step.working_set, ref.working_set)
        assert np.array_equal(step.row_multipliers, ref.row_multipliers)
        steps.append(step)
    for name in ("u_seq", "y_pred", "row_multipliers", "working_set"):
        assert np.array_equal(getattr(steps[0], name), getattr(steps[2], name)), name
    assert steps[0].kkt_residual == steps[2].kkt_residual
    after = _fixed_arrays(ctrl)
    assert fixed.keys() == after.keys()
    for name, arr in fixed.items():
        assert np.array_equal(arr, after[name]), name
    if kind == "deepc":
        # the box program is built: a write to the box would leave it stale
        with pytest.raises(ValueError, match="read-only"):
            ctrl.lb[0] = 0.0


@pytest.mark.parametrize("kind", ["deepc", "mpc"])
def test_noisy_desk_loop_qps_pass_certificate(kind, cfg, pipe, monkeypatch):
    # every QP of a 30-step noisy desk loop, certified without a solver; the
    # answer moved by 1e-6 is not certified
    ctrl = _desk_controller(kind, cfg, pipe)
    seen = _record_qps(monkeypatch)
    sc = cfg.scenario
    records = run_tracking_loop(cfg, ctrl, sc.noise_sigma, f"certify-{kind}", n_steps=30)
    assert len(records) == len(seen) == 30
    assert sum(len(diag.working_set) > 0 for *_, diag in seen) >= 5
    rng = np.random.default_rng(0)
    for prob, _, x, diag in seen:
        assert diag.status == "optimal"
        l_fac = prob.h_factor.l
        c = np.zeros((0, prob.n)) if prob.c is None else prob.c
        lo = np.zeros(0) if prob.c is None else prob.c_lo
        hi = np.zeros(0) if prob.c is None else prob.c_hi
        qp = (l_fac @ l_fac.T, prob.g, prob.lb, prob.ub, c, lo, hi)
        assert _kkt_certificate(*qp, x)
        assert not _kkt_certificate(*qp, x + 1e-6 * rng.choice([-1.0, 1.0], prob.n))
