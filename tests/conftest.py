import time
from pathlib import Path

import numpy as np
import pytest

from npvdeepc.config import load_config
from npvdeepc.experiments import build_pipeline
from npvdeepc.hankel import Trajectory
from npvdeepc.hypernet import (
    ChannelScaler,
    HyperDnnModel,
    LayerSpec,
    ModelDims,
    Scalers,
    TrainConfig,
    WindowDataset,
    train,
)
from npvdeepc.plant import LtiPlant


CONFIG_PATH = Path(__file__).resolve().parents[1] / "configs" / "desk.yaml"


@pytest.fixture(scope="session")
def cfg():
    """The desk-scale configuration."""
    return load_config(CONFIG_PATH)


@pytest.fixture(scope="session")
def pipe(cfg):
    """The desk pipeline (dataset, trained model, operators), built once per session."""
    t0 = time.perf_counter()
    p = build_pipeline(cfg)
    p.build_seconds = time.perf_counter() - t0
    return p


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_lti(seed: int = 0) -> LtiPlant:
    """Controllable, stable order-2 plant with 2 inputs and 2 outputs."""
    return LtiPlant(
        a=np.array([[0.7, 0.2], [-0.15, 0.85]]),
        b=np.array([[1.0, 0.3], [0.2, 0.9]]),
        c=np.eye(2),
        d=np.zeros((2, 2)),
    )


def lti_trajectory(length: int, seed: int, u_scale: float = 1.0) -> Trajectory:
    """Noise-free LTI run under i.i.d. uniform inputs (persistently exciting)."""
    plant = make_lti()
    rng = np.random.default_rng(seed)
    u = rng.uniform(-u_scale, u_scale, size=(length, 2))
    y = plant.simulate(u)
    p = np.zeros((length, 1))
    return Trajectory(u=u, y=y, p=p, dt=1.0)


@pytest.fixture
def lti_plant():
    return make_lti()


def random_model(rng, t_ini=2, horizon=3, n_u=2, n_y=2, n_p=1,
                 hidden=(8,), modulated=(True,), scale=0.5, hyper_input="history") -> HyperDnnModel:
    """Small random model with identity-friendly scalers for unit tests."""
    dims = ModelDims(t_ini=t_ini, horizon=horizon, n_u=n_u, n_y=n_y, n_p=n_p, hyper_input=hyper_input)
    specs = []
    in_dim = dims.nu_u
    for size, mod in zip(hidden, modulated):
        specs.append(LayerSpec(kind="hyper" if mod else "fixed", in_dim=in_dim, out_dim=size))
        in_dim = size
    params = {}
    for i, spec in enumerate(specs):
        if spec.kind == "hyper":
            params[f"h{i}_base_w"] = scale * rng.standard_normal((spec.out_dim, spec.in_dim))
            params[f"h{i}_base_b"] = scale * rng.standard_normal(spec.out_dim)
            params[f"h{i}_sens_w"] = scale * rng.standard_normal((dims.nu_p, spec.out_dim, spec.in_dim))
            params[f"h{i}_sens_b"] = scale * rng.standard_normal((spec.out_dim, dims.nu_p))
        else:
            params[f"f{i}_w"] = scale * rng.standard_normal((spec.out_dim, spec.in_dim))
            params[f"f{i}_b"] = scale * rng.standard_normal(spec.out_dim)
    params["out_w"] = scale * rng.standard_normal((dims.nu_y, specs[-1].out_dim))
    params["out_b"] = scale * rng.standard_normal(dims.nu_y)
    scalers = Scalers(
        u=ChannelScaler(lo=-np.ones(n_u), hi=np.ones(n_u)),
        y=ChannelScaler(lo=-np.ones(n_y), hi=np.ones(n_y)),
        p=ChannelScaler(lo=-np.ones(n_p), hi=np.ones(n_p)),
    )
    return HyperDnnModel(dims=dims, layer_specs=specs, params=params, scalers=scalers,
                         p_train_mean=np.zeros(dims.nu_p))


def toy_dataset(rng, n_windows=20, t_ini=2, horizon=3, n_u=2, n_y=2, n_p=1) -> WindowDataset:
    return WindowDataset(
        u_hist=rng.uniform(-1, 1, size=(n_windows, t_ini, n_u)),
        y_hist=rng.uniform(-1, 1, size=(n_windows, t_ini, n_y)),
        u_fut=rng.uniform(-1, 1, size=(n_windows, horizon, n_u)),
        y_fut=rng.uniform(-1, 1, size=(n_windows, horizon, n_y)),
        p_hist=rng.uniform(-1, 1, size=(n_windows, t_ini, n_p)),
        t_ini=t_ini,
        horizon=horizon,
    )


def _nnls(a, b):
    """argmin |a w - b| over w >= 0, by the Lawson-Hanson active set.

    Lawson & Hanson, *Solving Least Squares Problems* (1974), ch. 23: move
    the column with the largest positive gradient into the passive set,
    solve least squares on that set, and step back to the last nonnegative
    point, dropping the columns that reach zero, until the passive solution
    is nonnegative.  On nearly parallel columns the gradient's sign is lost
    in rounding, so where no gradient is positive a column still enters if
    least squares with it gives it a positive weight and a smaller residual.
    """
    n = a.shape[1]
    w = np.zeros(n)
    passive = np.zeros(n, dtype=bool)

    def least_squares(cols):
        s = np.zeros(n)
        s[cols] = np.linalg.lstsq(a[:, cols], b, rcond=None)[0]
        return s

    def entering():
        grad = a.T @ (b - a @ w)
        grad[passive] = -np.inf
        if grad.max() > 0.0:
            return int(grad.argmax())
        res = np.linalg.norm(b - a @ w)
        for k in np.flatnonzero(~passive):
            s = least_squares(passive | (np.arange(n) == k))
            if s[k] > 0.0 and np.linalg.norm(b - a @ s) < res:
                return k
        return None

    for _ in range(3 * n):
        j = entering()
        if j is None:
            break
        passive[j] = True
        s = least_squares(passive)
        while (passive & (s < 0.0)).any():
            neg = np.flatnonzero(passive & (s < 0.0))
            ratio = w[neg] / (w[neg] - s[neg])
            w += ratio.min() * (s - w)
            w[neg[ratio.argmin()]] = 0.0
            passive &= w > 0.0
            s = least_squares(passive)
        w = s
    return w


def _kkt_certificate(h, g, lb, ub, c, lo, hi, x, tol=1e-8) -> bool:
    """Whether x satisfies the KKT conditions of the QP, checked without a solver.

    x must be feasible.  Every side of a bound or row that holds at x gives a
    normal (+a for a lower side, -a for an upper one), and nonnegative
    multipliers on those normals, fitted by :func:`_nnls`, must balance the
    gradient.  An equal-limit row holds on both sides, so its multiplier is
    free.  For a strictly convex H that makes x the unique minimizer; unlike
    a plain least-squares fit, the fit finds nonnegative multipliers where
    the active normals are dependent, as at a degenerate vertex.
    """
    if _violation(x, lb, ub, c, lo, hi) > tol:
        return False
    a = np.vstack([np.eye(g.size), c])
    v = a @ x
    lo_all, hi_all = np.concatenate([lb, lo]), np.concatenate([ub, hi])
    at_lo = np.isfinite(lo_all) & (np.abs(v - lo_all) <= tol * (1.0 + np.abs(lo_all)))
    at_hi = np.isfinite(hi_all) & (np.abs(v - hi_all) <= tol * (1.0 + np.abs(hi_all)))
    normals = np.vstack([a[at_lo], -a[at_hi]]).T
    grad = h @ x + g
    stat = np.max(np.abs(grad - normals @ _nnls(normals, grad)), initial=0.0)
    return bool(stat <= tol * (1.0 + np.max(np.abs(grad))))


def _violation(x, lb, ub, c, lo, hi) -> float:
    v = np.concatenate([x, c @ x])
    lo, hi = np.concatenate([lb, lo]), np.concatenate([ub, hi])
    return float(max(np.max(lo - v, initial=0.0), np.max(v - hi, initial=0.0)))
