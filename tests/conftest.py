import numpy as np
import pytest

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
