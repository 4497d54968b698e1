"""Hypernetwork-modulated NARX predictor with analytic gradients.

A tanh MLP maps stacked past inputs/outputs plus the candidate future inputs
to the stacked future outputs.  The hidden-layer weights are produced by an
affine hypernetwork conditioned on the measured scheduling-parameter history,
so the feature basis tracks the operating condition while the output layer
stays fixed.  Training is ADAM on mean squared error, over shuffled
minibatches or the full batch; forward, backward and input Jacobians are
all closed-form numpy.

All network-facing quantities live in min-max normalized coordinates; public
helpers accept raw signals and normalize/denormalize at the boundary.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .hankel import Trajectory, Window

__all__ = [
    "DegenerateChannelError",
    "TrainingDivergedError",
    "ChannelScaler",
    "Scalers",
    "ModelDims",
    "LayerSpec",
    "NnInput",
    "WindowDataset",
    "TrainConfig",
    "TrainHistory",
    "HyperDnnModel",
    "train",
    "save_model",
    "load_model",
]

MODEL_SCHEMA_VERSION = 1

# ADAM moment decay rates and denominator guard (the usual defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class DegenerateChannelError(ValueError):
    """A data channel is constant; min-max scaling is undefined."""


class TrainingDivergedError(RuntimeError):
    def __init__(self, epoch: int, loss: float):
        super().__init__(f"training diverged at epoch {epoch}: loss={loss}")
        self.epoch = epoch
        self.loss = loss


@dataclass
class ChannelScaler:
    """Per-channel min-max map onto [-1, 1]."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=float).ravel()
        self.hi = np.asarray(self.hi, dtype=float).ravel()

    @classmethod
    def fit(cls, data: np.ndarray) -> "ChannelScaler":
        data = np.atleast_2d(np.asarray(data, dtype=float))
        lo = data.min(axis=0)
        hi = data.max(axis=0)
        span = hi - lo
        if np.any(span <= 1e-12 * np.maximum(1.0, np.abs(hi))):
            bad = np.flatnonzero(span <= 1e-12 * np.maximum(1.0, np.abs(hi)))
            raise DegenerateChannelError(f"degenerate channel(s) {bad.tolist()}: constant data")
        return cls(lo=lo, hi=hi)

    def normalize(self, x: np.ndarray) -> np.ndarray:
        return 2.0 * (np.asarray(x, dtype=float) - self.lo) / (self.hi - self.lo) - 1.0

    def denormalize(self, z: np.ndarray) -> np.ndarray:
        return 0.5 * (np.asarray(z, dtype=float) + 1.0) * (self.hi - self.lo) + self.lo

    @property
    def gain(self) -> np.ndarray:
        """d(normalized)/d(raw) per channel."""
        return 2.0 / (self.hi - self.lo)


@dataclass
class Scalers:
    u: ChannelScaler
    y: ChannelScaler
    p: ChannelScaler


@dataclass(frozen=True)
class ModelDims:
    """Horizons, channel counts and the hypernet conditioning mode."""

    t_ini: int = 5
    horizon: int = 10
    n_u: int = 2
    n_y: int = 2
    n_p: int = 1
    hyper_input: str = "history"   # "history": stacked past parameters; "current": latest only

    def __post_init__(self):
        if self.hyper_input not in ("history", "current"):
            raise ValueError(f"hyper_input must be 'history' or 'current', got {self.hyper_input}")

    @property
    def nu_u(self) -> int:
        return (self.n_u + self.n_y) * self.t_ini + self.n_u * self.horizon

    @property
    def nu_y(self) -> int:
        return self.n_y * self.horizon

    @property
    def nu_p(self) -> int:
        return self.n_p * self.t_ini if self.hyper_input == "history" else self.n_p

    @property
    def future_u_slice(self) -> slice:
        start = (self.n_u + self.n_y) * self.t_ini
        return slice(start, start + self.n_u * self.horizon)


@dataclass(frozen=True)
class LayerSpec:
    kind: str        # "hyper" | "fixed"
    in_dim: int
    out_dim: int

    def __post_init__(self):
        if self.kind not in ("hyper", "fixed"):
            raise ValueError(f"unknown layer kind {self.kind}")


@dataclass
class NnInput:
    """Normalized network input: feature stack and parameter conditioning."""

    u_nn: np.ndarray
    p_vec: np.ndarray


class HyperDnnModel:
    """Trained predictor: hypernet-generated hidden layers, fixed output layer."""

    def __init__(
        self,
        dims: ModelDims,
        layer_specs: list[LayerSpec],
        params: dict[str, np.ndarray],
        scalers: Scalers,
        p_train_mean: np.ndarray | None = None,
        history: "TrainHistory | None" = None,
    ):
        self.dims = dims
        self.layer_specs = list(layer_specs)
        self.params = {k: np.asarray(v, dtype=float) for k, v in params.items()}
        self.scalers = scalers
        self.p_train_mean = None if p_train_mean is None else np.asarray(p_train_mean, dtype=float)
        self.history = history

    @property
    def nu_l(self) -> int:
        return self.layer_specs[-1].out_dim

    # ----- input assembly -------------------------------------------------

    def _norm_u_block(self, flat: np.ndarray, n_ch: int, scaler: ChannelScaler) -> np.ndarray:
        return scaler.normalize(np.asarray(flat, dtype=float).reshape(-1, n_ch)).ravel()

    def normalize_p(self, p_hist: np.ndarray) -> np.ndarray:
        """Raw parameter history (n_p * t_ini,) -> normalized hypernet input."""
        d = self.dims
        hist = np.asarray(p_hist, dtype=float).reshape(-1, d.n_p)
        if hist.shape[0] != d.t_ini:
            raise ValueError(f"parameter history has {hist.shape[0]} steps, expected {d.t_ini}")
        hist_n = self.scalers.p.normalize(hist)
        return hist_n.ravel() if d.hyper_input == "history" else hist_n[-1]

    def nn_input(self, u_ini, y_ini, u_f, p_hist) -> NnInput:
        """Build the normalized network input from raw window pieces."""
        d = self.dims
        parts = [
            self._norm_u_block(u_ini, d.n_u, self.scalers.u),
            self._norm_u_block(y_ini, d.n_y, self.scalers.y),
            self._norm_u_block(u_f, d.n_u, self.scalers.u),
        ]
        u_nn = np.concatenate(parts)
        if u_nn.size != d.nu_u:
            raise ValueError(f"assembled input length {u_nn.size}, expected {d.nu_u}")
        if not np.all(np.isfinite(u_nn)):
            raise ValueError("non-finite network input")
        return NnInput(u_nn=u_nn, p_vec=self.normalize_p(p_hist))

    def nn_input_from_window(self, w: Window) -> NnInput:
        if w.p_hist is None:
            raise ValueError("window carries no parameter history")
        return self.nn_input(w.u_ini, w.y_ini, w.u_f, w.p_hist)

    # ----- forward maps ---------------------------------------------------

    def hyper_forward(self, p_vec: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Hidden-layer (W_i, b_i) for a normalized parameter vector.

        Modulated layers are affine in p_vec (the hypernet has no hidden
        layers); fixed layers return their internally learned weights.
        """
        p_vec = np.asarray(p_vec, dtype=float).ravel()
        if p_vec.size != self.dims.nu_p:
            raise ValueError(f"parameter vector length {p_vec.size}, expected {self.dims.nu_p}")
        return _hidden_layers(self.layer_specs, self.params, p_vec)

    def frozen(self) -> "HyperDnnModel":
        """The fixed-basis baseline: a new model whose ``hyper_forward`` returns,
        for every input, this model's layers at the normalized training-set mean.
        """
        if self.p_train_mean is None:
            raise ValueError("model carries no training-set mean parameter")
        p_bar = self.scalers.p.normalize(self.p_train_mean.reshape(-1, self.dims.n_p)).ravel()
        params = {"out_w": self.params["out_w"], "out_b": self.params["out_b"]}
        for i, (w, b) in enumerate(_hidden_layers(self.layer_specs, self.params, p_bar)):
            params[f"f{i}_w"], params[f"f{i}_b"] = w, b
        specs = [replace(spec, kind="fixed") for spec in self.layer_specs]
        return HyperDnnModel(self.dims, specs, params, self.scalers, p_train_mean=self.p_train_mean)

    def phi_hl(self, nn_in: NnInput) -> np.ndarray:
        """Feature vector of the last hidden layer; components in (-1, 1)."""
        return _tanh_stack(self.hyper_forward(nn_in.p_vec), nn_in.u_nn, self.dims.future_u_slice)[-1][0]

    def phi_hl_batch(self, u_nn: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Batched feature map: (B, nu_u), (B, nu_p) -> (B, nu_L)."""
        z, _ = _forward_hidden(self.layer_specs, self.params, np.atleast_2d(u_nn), np.atleast_2d(p))
        return z

    # ----- Jacobian -------------------------------------------------------

    def jacobian_phi_hl_future_u_raw(self, nn_in: NnInput) -> np.ndarray:
        """d(phi_hl)/d(raw future input values).

        The parameter vector holds measured past values only, so the hidden
        weights are constants with respect to the future inputs and the chain
        rule runs through the tanh layers alone.
        """
        _, jac, _ = self.features(self.hyper_forward(nn_in.p_vec), nn_in.u_nn)
        return jac

    def phi_curvature_future_u_raw(self, nn_in: NnInput, weights: np.ndarray) -> np.ndarray:
        """Weighted second derivative sum_k weights_k * d2(phi_k)/du_f du_f, at any depth."""
        layers = self.hyper_forward(nn_in.p_vec)
        return self.feature_curvature(layers, _tanh_stack(layers, nn_in.u_nn, self.dims.future_u_slice), weights)

    # ----- per-step maps under fixed hidden weights -----------------------
    #
    # The hidden weights depend only on the measured parameter history, so a
    # controller step computes ``hyper_forward`` once and passes the layer
    # list to these for every candidate input of its solve.

    def features(self, layers, u_nn: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
        """Feature vector, its raw future-input Jacobian and the pass's tape.

        ``layers`` is the ``hyper_forward`` list of the step's parameter
        vector and ``u_nn`` the normalized network input.  The tape holds
        each layer's activation and pre-activation Jacobian, which is all
        :meth:`feature_curvature` needs, so one forward pass serves the
        features, the Jacobian and the curvature.
        """
        tape = _tanh_stack(layers, u_nn, self.dims.future_u_slice)
        z, a = tape[-1]
        return z, (1.0 - z ** 2)[:, None] * a * self._future_u_gain[None, :], tape

    def feature_curvature(self, layers, tape, weights: np.ndarray) -> np.ndarray:
        """Weighted raw future-input curvature sum_k weights_k * d2(phi_k)/du_f du_f.

        One adjoint pass over the ``tape`` of :meth:`features` (Pearlmutter,
        "Fast exact multiplication by the Hessian", 1994), exact at every
        depth: with lam_L = weights and A_l the layer's pre-activation
        Jacobian in raw units, the curvature is
        sum_l A_l' diag(-2 z_l (1 - z_l^2) lam_l) A_l, since d2 tanh =
        -2 tanh (1 - tanh^2), and lam_{l-1} = W_l' ((1 - z_l^2) lam_l)
        carries the weights back a layer.  The block is exact and may be
        indefinite: the caller decides whether the local program is convex
        enough to use it unclipped.
        """
        lam = np.asarray(weights, dtype=float)
        terms = []
        for i in reversed(range(len(tape))):
            z, a = tape[i]
            a = a * self._future_u_gain[None, :]
            coef = -2.0 * z * (1.0 - z ** 2) * lam
            terms.append((a * coef[:, None]).T @ a)
            if i:
                lam = layers[i][0].T @ ((1.0 - z ** 2) * lam)
        return sum(terms[1:], terms[0])

    @functools.cached_property
    def _future_u_gain(self) -> np.ndarray:
        """d(normalized)/d(raw) of each future input entry."""
        return np.tile(self.scalers.u.gain, self.dims.horizon)

    def effective_output_map(self) -> np.ndarray:
        """Trained output layer folded with denormalization: raw y = map @ [phi; 1]."""
        d = self.dims
        gain = np.tile(0.5 * (self.scalers.y.hi - self.scalers.y.lo), d.horizon)
        offset = np.tile(0.5 * (self.scalers.y.hi + self.scalers.y.lo), d.horizon)
        w_raw = gain[:, None] * self.params["out_w"]
        b_raw = gain * self.params["out_b"] + offset
        return np.hstack([w_raw, b_raw[:, None]])


def _hidden_layers(layer_specs, params, p_vec) -> list[tuple[np.ndarray, np.ndarray]]:
    """Hidden-layer (W_i, b_i) at one normalized parameter vector."""
    return [
        (params[f"h{i}_base_w"] + np.tensordot(p_vec, params[f"h{i}_sens_w"], axes=1),
         params[f"h{i}_base_b"] + params[f"h{i}_sens_b"] @ p_vec)
        if spec.kind == "hyper" else (params[f"f{i}_w"], params[f"f{i}_b"])
        for i, spec in enumerate(layer_specs)
    ]


def _tanh_stack(layers, u_nn, future: slice) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each hidden layer's activation z_l and pre-activation Jacobian A_l wrt
    ``u_nn[future]``, for one input.

    A_1 = W_1[:, future] and A_l = W_l diag(1 - z_{l-1}^2) A_{l-1}.  The only
    per-sample pass through the tanh layers; every per-sample map of
    ``HyperDnnModel`` goes through it.
    """
    z = np.asarray(u_nn, dtype=float).ravel()
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite network input")
    tape = []
    for w, b in layers:
        a = w[:, future] if not tape else w @ ((1.0 - z ** 2)[:, None] * tape[-1][1])
        z = np.tanh(w @ z + b)
        tape.append((z, a))
    return tape


# --------------------------------------------------------------------------
# batched forward/backward used by training


def _outer_rows(p, z):
    """Row-wise outer products p_b ⊗ z_b flattened to (B, nu_p * dim).

    The sensitivity term sum_k p_k S_k z of a modulated layer is linear in
    this product, so each batched contraction over sens_w (nu_p, out, in)
    becomes one matrix product.
    """
    return (p[:, :, None] * z[:, None, :]).reshape(p.shape[0], -1)


def _forward_hidden(layer_specs, params, u, p):
    """Hidden-layer activations for a batch; returns (z_last, all_activations)."""
    z = u
    acts = [u]
    for i, spec in enumerate(layer_specs):
        if spec.kind == "hyper":
            zpre = (
                z @ params[f"h{i}_base_w"].T
                + params[f"h{i}_base_b"]
                + _outer_rows(p, z) @ params[f"h{i}_sens_w"].transpose(0, 2, 1).reshape(-1, spec.out_dim)
                + p @ params[f"h{i}_sens_b"].T
            )
        else:
            zpre = z @ params[f"f{i}_w"].T + params[f"f{i}_b"]
        z = np.tanh(zpre)
        acts.append(z)
    return z, acts


def _forward_batch(layer_specs, params, u, p):
    z, acts = _forward_hidden(layer_specs, params, u, p)
    return z @ params["out_w"].T + params["out_b"], acts


def _backward_batch(layer_specs, params, acts, p, d_yhat):
    grads = {
        "out_w": d_yhat.T @ acts[-1],
        "out_b": d_yhat.sum(axis=0),
    }
    dz = d_yhat @ params["out_w"]
    for i in reversed(range(len(layer_specs))):
        spec = layer_specs[i]
        z_out, z_in = acts[i + 1], acts[i]
        dpre = dz * (1.0 - z_out ** 2)
        if spec.kind == "hyper":
            grads[f"h{i}_base_w"] = dpre.T @ z_in
            grads[f"h{i}_base_b"] = dpre.sum(axis=0)
            grads[f"h{i}_sens_w"] = (
                (dpre.T @ _outer_rows(p, z_in)).reshape(spec.out_dim, -1, spec.in_dim).transpose(1, 0, 2)
            )
            grads[f"h{i}_sens_b"] = dpre.T @ p
            if i:
                dz = (
                    dpre @ params[f"h{i}_base_w"]
                    + _outer_rows(p, dpre) @ params[f"h{i}_sens_w"].reshape(-1, spec.in_dim)
                )
        else:
            grads[f"f{i}_w"] = dpre.T @ z_in
            grads[f"f{i}_b"] = dpre.sum(axis=0)
            if i:
                dz = dpre @ params[f"f{i}_w"]
    return grads


# --------------------------------------------------------------------------
# dataset and training


@dataclass
class WindowDataset:
    """Sliding windows of a trajectory, kept channel-structured for scaling."""

    u_hist: np.ndarray   # (n, t_ini, n_u)
    y_hist: np.ndarray   # (n, t_ini, n_y)
    u_fut: np.ndarray    # (n, horizon, n_u)
    y_fut: np.ndarray    # (n, horizon, n_y)
    p_hist: np.ndarray   # (n, t_ini, n_p)
    t_ini: int
    horizon: int

    @classmethod
    def from_trajectory(cls, traj: Trajectory, t_ini: int, horizon: int) -> "WindowDataset":
        depth = t_ini + horizon
        n = traj.n_samples - depth + 1
        if n < 1:
            raise ValueError(
                f"trajectory length {traj.n_samples} too short for windows of depth {depth}"
            )
        idx = np.arange(n)[:, None] + np.arange(depth)[None, :]
        u_win = traj.u[idx]
        y_win = traj.y[idx]
        p_win = traj.p[idx]
        return cls(
            u_hist=u_win[:, :t_ini],
            y_hist=y_win[:, :t_ini],
            u_fut=u_win[:, t_ini:],
            y_fut=y_win[:, t_ini:],
            p_hist=p_win[:, :t_ini],
            t_ini=t_ini,
            horizon=horizon,
        )

    @property
    def n_windows(self) -> int:
        return self.u_hist.shape[0]

    @property
    def channel_dims(self) -> tuple[int, int, int]:
        return (self.u_hist.shape[2], self.y_hist.shape[2], self.p_hist.shape[2])

    def rows(self, sel) -> "WindowDataset":
        return WindowDataset(
            self.u_hist[sel], self.y_hist[sel], self.u_fut[sel], self.y_fut[sel],
            self.p_hist[sel], self.t_ini, self.horizon,
        )


@dataclass(frozen=True)
class TrainConfig:
    hidden_sizes: tuple[int, ...] = (30,)
    modulated: tuple[bool, ...] = (True,)
    learning_rate: float = 1e-3
    max_epochs: int = 5000
    patience: int = 200
    val_fraction: float = 0.35
    hyper_input: str = "history"
    init_sens_scale: float = 1.0
    batch_size: int | None = None   # None: full batch; otherwise shuffled minibatches

    def __post_init__(self):
        if len(self.hidden_sizes) != len(self.modulated):
            raise ValueError("hidden_sizes and modulated must have the same length")
        if not self.hidden_sizes or min(self.hidden_sizes) < 1:
            raise ValueError(f"hidden_sizes needs one or more layers of width >= 1, got {list(self.hidden_sizes)}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not self.learning_rate > 0.0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must be in [0, 1), got {self.val_fraction}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        ModelDims(hyper_input=self.hyper_input)  # the model's own hyper_input check


@dataclass
class TrainHistory:
    train_loss: list[float]
    val_loss: list[float]
    best_epoch: int
    stopped_epoch: int


def _fit_scalers(ds: WindowDataset) -> Scalers:
    n_u, n_y, n_p = ds.channel_dims
    u_all = np.vstack([ds.u_hist.reshape(-1, n_u), ds.u_fut.reshape(-1, n_u)])
    y_all = np.vstack([ds.y_hist.reshape(-1, n_y), ds.y_fut.reshape(-1, n_y)])
    p_all = ds.p_hist.reshape(-1, n_p)
    return Scalers(u=ChannelScaler.fit(u_all), y=ChannelScaler.fit(y_all), p=ChannelScaler.fit(p_all))


def assemble_normalized(ds: WindowDataset, scalers: Scalers, hyper_input: str):
    """Normalized (U_nn, P, Y) batch arrays for a structured window set."""
    n = ds.n_windows
    u_h = scalers.u.normalize(ds.u_hist).reshape(n, -1)
    y_h = scalers.y.normalize(ds.y_hist).reshape(n, -1)
    u_f = scalers.u.normalize(ds.u_fut).reshape(n, -1)
    u_nn = np.hstack([u_h, y_h, u_f])
    p_h = scalers.p.normalize(ds.p_hist)
    p = p_h.reshape(n, -1) if hyper_input == "history" else p_h[:, -1, :]
    y = scalers.y.normalize(ds.y_fut).reshape(n, -1)
    return u_nn, p, y


def _init_params(rng, layer_specs, nu_p, nu_y, sens_scale):
    params = {}
    for i, spec in enumerate(layer_specs):
        limit = np.sqrt(6.0 / (spec.in_dim + spec.out_dim))
        if spec.kind == "hyper":
            params[f"h{i}_base_w"] = rng.uniform(-limit, limit, size=(spec.out_dim, spec.in_dim))
            params[f"h{i}_base_b"] = np.zeros(spec.out_dim)
            sens_limit = sens_scale * limit / max(nu_p, 1)
            params[f"h{i}_sens_w"] = rng.uniform(-sens_limit, sens_limit, size=(nu_p, spec.out_dim, spec.in_dim))
            params[f"h{i}_sens_b"] = np.zeros((spec.out_dim, nu_p))
        else:
            params[f"f{i}_w"] = rng.uniform(-limit, limit, size=(spec.out_dim, spec.in_dim))
            params[f"f{i}_b"] = np.zeros(spec.out_dim)
    last = layer_specs[-1].out_dim
    limit = np.sqrt(6.0 / (last + nu_y))
    params["out_w"] = rng.uniform(-limit, limit, size=(nu_y, last))
    params["out_b"] = np.zeros(nu_y)
    return params


def train(dataset: WindowDataset, cfg: TrainConfig, seed: int) -> HyperDnnModel:
    """Fit the predictor on a window dataset with ADAM.

    Each epoch takes one step per shuffled minibatch of ``cfg.batch_size``
    training windows, or one full-batch step when that is None or covers
    every training window.

    The split is contiguous in time (leading fraction trains, trailing
    fraction validates) to keep overlapping windows out of the held-out set.
    Early stopping restores the best-validation parameters.  Identical seed
    and config reproduce bit-identical parameters.
    """
    n = dataset.n_windows
    n_u, n_y, n_p = dataset.channel_dims
    dims = ModelDims(
        t_ini=dataset.t_ini, horizon=dataset.horizon,
        n_u=n_u, n_y=n_y, n_p=n_p, hyper_input=cfg.hyper_input,
    )
    n_train = n - int(round(cfg.val_fraction * n))
    if n_train < 1:
        raise ValueError(f"no training windows left (n={n}, val_fraction={cfg.val_fraction})")
    train_ds = dataset.rows(slice(0, n_train))
    val_ds = dataset.rows(slice(n_train, n)) if n_train < n else None

    scalers = _fit_scalers(train_ds)
    u_tr, p_tr, y_tr = assemble_normalized(train_ds, scalers, cfg.hyper_input)
    if val_ds is not None:
        u_va, p_va, y_va = assemble_normalized(val_ds, scalers, cfg.hyper_input)

    layer_specs = []
    in_dim = dims.nu_u
    for size, mod in zip(cfg.hidden_sizes, cfg.modulated):
        layer_specs.append(LayerSpec(kind="hyper" if mod else "fixed", in_dim=in_dim, out_dim=size))
        in_dim = size
    rng = np.random.default_rng(seed)
    params = _init_params(rng, layer_specs, dims.nu_p, dims.nu_y, cfg.init_sens_scale)

    adam_m = {k: np.zeros_like(v) for k, v in params.items()}
    adam_v = {k: np.zeros_like(v) for k, v in params.items()}
    keys = sorted(params)
    t = 0
    history_train, history_val = [], []
    best_loss, best_epoch, best_params = np.inf, 0, {k: v.copy() for k, v in params.items()}
    stale = 0

    n_tr = u_tr.shape[0]
    for epoch in range(1, cfg.max_epochs + 1):
        if cfg.batch_size is None or cfg.batch_size >= n_tr:
            batches = [slice(None)]
        else:
            order = rng.permutation(n_tr)
            batches = [order[i:i + cfg.batch_size] for i in range(0, n_tr, cfg.batch_size)]
        loss_num = 0.0
        for sel in batches:
            yhat, acts = _forward_batch(layer_specs, params, u_tr[sel], p_tr[sel])
            err = yhat - y_tr[sel]
            loss_num += float(np.sum(err ** 2))
            grads = _backward_batch(layer_specs, params, acts, p_tr[sel], 2.0 * err / err.size)

            t += 1
            bc1 = 1.0 - ADAM_BETA1 ** t
            bc2 = 1.0 - ADAM_BETA2 ** t
            for k in keys:
                g = grads[k]
                adam_m[k] = ADAM_BETA1 * adam_m[k] + (1.0 - ADAM_BETA1) * g
                adam_v[k] = ADAM_BETA2 * adam_v[k] + (1.0 - ADAM_BETA2) * g * g
                params[k] -= cfg.learning_rate * (adam_m[k] / bc1) / (np.sqrt(adam_v[k] / bc2) + ADAM_EPS)
        loss = loss_num / y_tr.size
        if not np.isfinite(loss):
            raise TrainingDivergedError(epoch, loss)

        history_train.append(loss)
        if val_ds is not None:
            yhat_va, _ = _forward_batch(layer_specs, params, u_va, p_va)
            monitor = float(np.mean((yhat_va - y_va) ** 2))
            history_val.append(monitor)
        else:
            monitor = loss
        if monitor < best_loss - 1e-14:
            best_loss, best_epoch = monitor, epoch
            best_params = {k: v.copy() for k, v in params.items()}
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break

    p_flat = train_ds.p_hist.reshape(train_ds.n_windows, -1)
    p_mean = p_flat.mean(axis=0) if cfg.hyper_input == "history" else train_ds.p_hist[:, -1, :].mean(axis=0)
    return HyperDnnModel(
        dims=dims,
        layer_specs=layer_specs,
        params=best_params,
        scalers=scalers,
        p_train_mean=p_mean,
        history=TrainHistory(
            train_loss=history_train,
            val_loss=history_val,
            best_epoch=best_epoch,
            stopped_epoch=len(history_train),
        ),
    )


def predict_batch(model: HyperDnnModel, ds: WindowDataset) -> np.ndarray:
    """Raw-unit predictions (n, horizon, n_y) of the trained net on windows."""
    u, p, _ = assemble_normalized(ds, model.scalers, model.dims.hyper_input)
    yhat_n, _ = _forward_batch(model.layer_specs, model.params, u, p)
    d = model.dims
    return model.scalers.y.denormalize(yhat_n.reshape(-1, d.horizon, d.n_y))


# --------------------------------------------------------------------------
# model file I/O


def save_model(model: HyperDnnModel, path) -> None:
    """Write the model as structured text; floats round-trip bit-exactly."""
    doc = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "dims": {
            "t_ini": model.dims.t_ini,
            "horizon": model.dims.horizon,
            "n_u": model.dims.n_u,
            "n_y": model.dims.n_y,
            "n_p": model.dims.n_p,
            "hyper_input": model.dims.hyper_input,
        },
        "layer_specs": [
            {"kind": s.kind, "in_dim": s.in_dim, "out_dim": s.out_dim} for s in model.layer_specs
        ],
        "params": {k: model.params[k].tolist() for k in sorted(model.params)},
        "scalers": {
            name: {"lo": sc.lo.tolist(), "hi": sc.hi.tolist()}
            for name, sc in (("u", model.scalers.u), ("y", model.scalers.y), ("p", model.scalers.p))
        },
        "p_train_mean": None if model.p_train_mean is None else model.p_train_mean.tolist(),
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))


def load_model(path) -> HyperDnnModel:
    """Read a ``save_model`` file; an older file's ``theta_ls`` entry is ignored."""
    doc = json.loads(Path(path).read_text())
    version = doc.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise ValueError(f"unsupported model schema version {version}")
    dims = ModelDims(**doc["dims"])
    specs = [LayerSpec(**s) for s in doc["layer_specs"]]
    params = {k: np.asarray(v, dtype=float) for k, v in doc["params"].items()}
    scalers = Scalers(
        u=ChannelScaler(**doc["scalers"]["u"]),
        y=ChannelScaler(**doc["scalers"]["y"]),
        p=ChannelScaler(**doc["scalers"]["p"]),
    )
    p_mean = doc.get("p_train_mean")
    p_mean = None if p_mean is None else np.asarray(p_mean, dtype=float)
    _check_structure(dims, specs, params, scalers, p_mean)
    return HyperDnnModel(dims=dims, layer_specs=specs, params=params, scalers=scalers, p_train_mean=p_mean)


def _check_structure(dims: ModelDims, specs: list[LayerSpec], params, scalers: Scalers, p_mean) -> None:
    """Raise ValueError unless the layers chain from the network input, every
    parameter a layer's kind needs has the shape the dims and specs imply, each
    scaler (and the training-mean parameter) has one entry per channel, and
    every value is finite with lo < hi in each scaler channel."""
    if not specs:
        raise ValueError("model has no hidden layer")
    shapes = {}
    in_dim = dims.nu_u
    for i, spec in enumerate(specs):
        out, inp = spec.out_dim, spec.in_dim
        if inp != in_dim:
            raise ValueError(f"layer {i} takes {inp} inputs, expected {in_dim}")
        in_dim = out
        if spec.kind == "hyper":
            shapes.update({f"h{i}_base_w": (out, inp), f"h{i}_base_b": (out,),
                           f"h{i}_sens_w": (dims.nu_p, out, inp), f"h{i}_sens_b": (out, dims.nu_p)})
        else:
            shapes.update({f"f{i}_w": (out, inp), f"f{i}_b": (out,)})
    shapes.update({"out_w": (dims.nu_y, in_dim), "out_b": (dims.nu_y,)})
    for name, shape in shapes.items():
        if name not in params:
            raise ValueError(f"missing parameter {name}")
        if params[name].shape != shape:
            raise ValueError(f"parameter {name} has shape {params[name].shape}, expected {shape}")
        if not np.all(np.isfinite(params[name])):
            raise ValueError(f"parameter {name} holds a non-finite value")
    for name, n_ch in (("u", dims.n_u), ("y", dims.n_y), ("p", dims.n_p)):
        scaler = getattr(scalers, name)
        if scaler.lo.size != n_ch or scaler.hi.size != n_ch:
            raise ValueError(f"scaler {name} has {scaler.lo.size} / {scaler.hi.size} entries, expected {n_ch}")
        if not np.all(np.isfinite(scaler.lo) & np.isfinite(scaler.hi) & (scaler.hi > scaler.lo)):
            raise ValueError(f"scaler {name} needs finite lo < hi in every channel")
    if p_mean is not None and (p_mean.size != dims.nu_p or not np.all(np.isfinite(p_mean))):
        raise ValueError(f"p_train_mean needs {dims.nu_p} finite entries, got {p_mean.tolist()}")
