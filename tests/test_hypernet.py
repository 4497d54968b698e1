import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from npvdeepc.hankel import HankelSet, Window
from npvdeepc.hypernet import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    ChannelScaler,
    DegenerateChannelError,
    LayerSpec,
    NnInput,
    TrainConfig,
    _backward_batch,
    _fit_scalers,
    _forward_batch,
    _forward_hidden,
    _init_params,
    assemble_normalized,
    load_model,
    predict_batch,
    save_model,
    train,
)
from npvdeepc.npv import transform_hankel

from conftest import random_model, toy_dataset


class TestScalers:
    def test_roundtrip_identity(self):
        rng = np.random.default_rng(0)
        data = rng.uniform(-3, 9, size=(50, 3))
        sc = ChannelScaler.fit(data)
        assert np.allclose(sc.denormalize(sc.normalize(data)), data, atol=1e-12)

    @given(
        lo=st.floats(-10, 0),
        span=st.floats(0.5, 20),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, lo, span, seed):
        rng = np.random.default_rng(seed)
        data = rng.uniform(lo, lo + span, size=(20, 2))
        data[0] = [lo, lo]
        data[1] = [lo + span, lo + span]
        sc = ChannelScaler.fit(data)
        assert np.allclose(sc.denormalize(sc.normalize(data)), data, atol=1e-9)

    def test_extrema_map_to_unit(self):
        data = np.array([[1.0, -5.0], [3.0, 15.0], [2.0, 0.0]])
        sc = ChannelScaler.fit(data)
        normed = sc.normalize(data)
        assert normed.min(axis=0) == pytest.approx([-1.0, -1.0])
        assert normed.max(axis=0) == pytest.approx([1.0, 1.0])

    def test_degenerate_channel(self):
        with pytest.raises(DegenerateChannelError):
            ChannelScaler.fit(np.column_stack([np.arange(5.0), np.full(5, 2.0)]))


class TestHyperForward:
    def test_zero_sensitivity_ignores_p(self, rng):
        model = random_model(rng)
        model.params["h0_sens_w"][:] = 0.0
        model.params["h0_sens_b"][:] = 0.0
        w1, b1 = model.hyper_forward(np.full(model.dims.nu_p, 0.7))[0]
        w2, b2 = model.hyper_forward(np.full(model.dims.nu_p, -0.3))[0]
        assert np.array_equal(w1, w2)
        assert np.array_equal(b1, b2)
        assert np.array_equal(w1, model.params["h0_base_w"])

    def test_zero_p_gives_intercept(self, rng):
        model = random_model(rng)
        w, b = model.hyper_forward(np.zeros(model.dims.nu_p))[0]
        assert np.allclose(w, model.params["h0_base_w"], atol=1e-15)
        assert np.allclose(b, model.params["h0_base_b"], atol=1e-15)

    def test_distinct_p_distinct_weights(self, rng):
        model = random_model(rng)
        p1, p2 = np.full(model.dims.nu_p, 0.5), np.full(model.dims.nu_p, -0.5)
        w1, _ = model.hyper_forward(p1)[0]
        w2, _ = model.hyper_forward(p2)[0]
        delta = np.tensordot(p1 - p2, model.params["h0_sens_w"], axes=1)
        assert not np.allclose(w1, w2)
        assert np.allclose(w1 - w2, delta, atol=1e-12)

    @given(alpha=st.floats(0, 1), seed=st.integers(0, 30))
    @settings(max_examples=30, deadline=None)
    def test_affinity(self, alpha, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng)
        p1 = rng.uniform(-1, 1, size=model.dims.nu_p)
        p2 = rng.uniform(-1, 1, size=model.dims.nu_p)
        w_mix, b_mix = model.hyper_forward(alpha * p1 + (1 - alpha) * p2)[0]
        w1, b1 = model.hyper_forward(p1)[0]
        w2, b2 = model.hyper_forward(p2)[0]
        assert np.allclose(w_mix, alpha * w1 + (1 - alpha) * w2, atol=1e-12)
        assert np.allclose(b_mix, alpha * b1 + (1 - alpha) * b2, atol=1e-12)


class TestPhi:
    def test_range_strictly_inside_unit(self, rng):
        model = random_model(rng)
        for _ in range(20):
            nn_in = NnInput(
                u_nn=rng.uniform(-1, 1, model.dims.nu_u), p_vec=rng.uniform(-1, 1, model.dims.nu_p)
            )
            phi = model.phi_hl(nn_in)
            assert np.all(np.abs(phi) < 1.0)

    def test_zero_weights_zero_features(self, rng):
        model = random_model(rng)
        for key in ("h0_base_w", "h0_base_b", "h0_sens_w", "h0_sens_b"):
            model.params[key][:] = 0.0
        nn_in = NnInput(u_nn=rng.uniform(-1, 1, model.dims.nu_u), p_vec=np.full(model.dims.nu_p, 0.4))
        assert np.array_equal(model.phi_hl(nn_in), np.zeros(model.nu_l))

    def test_single_layer_elementwise_oracle(self, rng):
        model = random_model(rng)
        nn_in = NnInput(u_nn=rng.uniform(-1, 1, model.dims.nu_u), p_vec=rng.uniform(-1, 1, model.dims.nu_p))
        w, b = model.hyper_forward(nn_in.p_vec)[0]
        # independent elementwise evaluation
        expected = np.array([np.tanh(w[i] @ nn_in.u_nn + b[i]) for i in range(w.shape[0])])
        assert np.allclose(model.phi_hl(nn_in), expected, atol=1e-12)

    def test_two_layer_mixed_kinds(self, rng):
        model = random_model(rng, hidden=(6, 4), modulated=(True, False))
        nn_in = NnInput(u_nn=rng.uniform(-1, 1, model.dims.nu_u), p_vec=rng.uniform(-1, 1, model.dims.nu_p))
        layers = model.hyper_forward(nn_in.p_vec)
        z = nn_in.u_nn
        for w, b in layers:
            z = np.tanh(w @ z + b)
        assert np.allclose(model.phi_hl(nn_in), z, atol=1e-12)

    @staticmethod
    def _phi_nn(model, nn_in):
        # the trained network's raw-unit prediction, through the folded output layer
        return model.effective_output_map() @ np.concatenate([model.phi_hl(nn_in), [1.0]])

    def test_phi_nn_zero_output_weights(self, rng):
        model = random_model(rng)
        model.params["out_w"][:] = 0.0
        nn_in = NnInput(u_nn=rng.uniform(-1, 1, model.dims.nu_u), p_vec=np.full(model.dims.nu_p, 0.1))
        d = model.dims
        expected = model.scalers.y.denormalize(
            model.params["out_b"].reshape(d.horizon, d.n_y)
        ).ravel()
        assert np.allclose(self._phi_nn(model, nn_in), expected, atol=1e-12)

    def test_phi_nn_affine_in_output_layer(self, rng):
        model = random_model(rng)
        nn_in = NnInput(u_nn=rng.uniform(-1, 1, model.dims.nu_u), p_vec=np.full(model.dims.nu_p, -0.2))
        d = model.dims
        base = model.scalers.y.normalize(self._phi_nn(model, nn_in).reshape(d.horizon, d.n_y)).ravel()
        b_o = model.params["out_b"]
        model.params["out_w"] *= 2.0
        doubled = model.scalers.y.normalize(self._phi_nn(model, nn_in).reshape(d.horizon, d.n_y)).ravel()
        assert np.allclose(doubled - b_o, 2.0 * (base - b_o), atol=1e-10)


def _batch(rng, model, n):
    d = model.dims
    return (rng.uniform(-1, 1, (n, d.nu_u)), rng.uniform(-1, 1, (n, d.nu_p)),
            rng.uniform(-1, 1, (n, d.nu_y)))


class TestBatchedKernels:
    """The batched training kernels against finite differences and per-sample oracles."""

    @pytest.mark.parametrize("modulated", [(True,), (True, False), (True, True)])
    def test_gradients_match_central_differences(self, rng, modulated):
        hidden = (7, 5)[:len(modulated)]
        model = random_model(rng, n_p=2, hidden=hidden, modulated=modulated)
        u, p, y = _batch(rng, model, 6)
        specs, params = model.layer_specs, model.params

        def loss():
            yhat, _ = _forward_batch(specs, params, u, p)
            return float(np.mean((yhat - y) ** 2))

        yhat, acts = _forward_batch(specs, params, u, p)
        grads = _backward_batch(specs, params, acts, p, 2.0 * (yhat - y) / y.size)
        assert set(grads) == set(params)
        h = 1e-6
        for key, value in params.items():
            fd = np.zeros_like(value)
            for idx in np.ndindex(value.shape):
                saved = value[idx]
                value[idx] = saved + h
                hi = loss()
                value[idx] = saved - h
                lo = loss()
                value[idx] = saved
                fd[idx] = (hi - lo) / (2 * h)
            assert grads[key].shape == value.shape
            assert np.allclose(grads[key], fd, rtol=1e-6, atol=1e-9), key

    @pytest.mark.parametrize("hyper_input", ["history", "current"])
    def test_phi_hl_batch_matches_per_sample(self, rng, hyper_input):
        model = random_model(rng, n_p=2, hidden=(7, 5), modulated=(True, True), hyper_input=hyper_input)
        u, p, _ = _batch(rng, model, 9)
        batch = model.phi_hl_batch(u, p)
        assert batch.shape == (9, model.nu_l)
        for j in range(9):
            row = model.phi_hl(NnInput(u_nn=u[j], p_vec=p[j]))
            assert np.allclose(batch[j], row, rtol=0.0, atol=1e-13)
        single = model.phi_hl_batch(u[0], p[0])
        assert single.shape == (1, model.nu_l)
        assert np.allclose(single[0], model.phi_hl(NnInput(u_nn=u[0], p_vec=p[0])), rtol=0.0, atol=1e-13)

    def test_kernels_match_explicit_weight_loop(self, rng):
        """Every sample forms W(p) = base_w + sum_k p_k sens_w[k] and b(p) itself."""
        model = random_model(rng, n_p=2, hidden=(7, 6, 5), modulated=(True, False, True))
        u, p, _ = _batch(rng, model, 5)
        specs, params = model.layer_specs, model.params
        d_out = rng.standard_normal((5, model.dims.nu_y))

        def layer(i, spec, p_b):
            if spec.kind == "fixed":
                return params[f"f{i}_w"], params[f"f{i}_b"]
            w = params[f"h{i}_base_w"] + sum(p_b[k] * params[f"h{i}_sens_w"][k] for k in range(p_b.size))
            return w, params[f"h{i}_base_b"] + params[f"h{i}_sens_b"] @ p_b

        expected = {key: np.zeros_like(value) for key, value in params.items()}
        z_last = []
        for b in range(u.shape[0]):
            zs = [u[b]]
            for i, spec in enumerate(specs):
                w, bias = layer(i, spec, p[b])
                zs.append(np.tanh(w @ zs[-1] + bias))
            z_last.append(zs[-1])
            expected["out_w"] += np.outer(d_out[b], zs[-1])
            expected["out_b"] += d_out[b]
            dz = params["out_w"].T @ d_out[b]
            for i in reversed(range(len(specs))):
                spec = specs[i]
                dpre = dz * (1.0 - zs[i + 1] ** 2)
                if spec.kind == "hyper":
                    expected[f"h{i}_base_w"] += np.outer(dpre, zs[i])
                    expected[f"h{i}_base_b"] += dpre
                    for k in range(p.shape[1]):
                        expected[f"h{i}_sens_w"][k] += p[b, k] * np.outer(dpre, zs[i])
                    expected[f"h{i}_sens_b"] += np.outer(dpre, p[b])
                else:
                    expected[f"f{i}_w"] += np.outer(dpre, zs[i])
                    expected[f"f{i}_b"] += dpre
                dz = layer(i, spec, p[b])[0].T @ dpre

        z, acts = _forward_hidden(specs, params, u, p)
        assert np.allclose(z, np.array(z_last), rtol=0.0, atol=1e-13)
        grads = _backward_batch(specs, params, acts, p, d_out)
        for key, value in expected.items():
            assert np.allclose(grads[key], value, rtol=1e-12, atol=1e-12), key


class TestJacobian:
    def _fd_jacobian(self, model, u_ini, y_ini, u_f, p_hist, step=1e-6):
        base = model.nn_input(u_ini, y_ini, u_f, p_hist)
        n = u_f.size
        jac = np.zeros((model.nu_l, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = step
            hi = model.phi_hl(model.nn_input(u_ini, y_ini, u_f + e, p_hist))
            lo = model.phi_hl(model.nn_input(u_ini, y_ini, u_f - e, p_hist))
            jac[:, j] = (hi - lo) / (2 * step)
        return jac, base

    def test_matches_central_differences(self, rng):
        for trial in range(10):
            model = random_model(rng, hidden=(6,), modulated=(True,))
            d = model.dims
            u_ini = rng.uniform(-0.8, 0.8, d.t_ini * d.n_u)
            y_ini = rng.uniform(-0.8, 0.8, d.t_ini * d.n_y)
            u_f = rng.uniform(-0.8, 0.8, d.horizon * d.n_u)
            p_hist = rng.uniform(-0.8, 0.8, d.t_ini * d.n_p)
            fd, nn_in = self._fd_jacobian(model, u_ini, y_ini, u_f, p_hist)
            analytic = model.jacobian_phi_hl_future_u_raw(nn_in)
            scale = max(np.max(np.abs(analytic)), 1e-8)
            assert np.max(np.abs(fd - analytic)) / scale < 1e-6

    def test_multilayer_jacobian(self, rng):
        model = random_model(rng, hidden=(5, 4), modulated=(True, False))
        d = model.dims
        u_ini = rng.uniform(-0.5, 0.5, d.t_ini * d.n_u)
        y_ini = rng.uniform(-0.5, 0.5, d.t_ini * d.n_y)
        u_f = rng.uniform(-0.5, 0.5, d.horizon * d.n_u)
        p_hist = rng.uniform(-0.5, 0.5, d.t_ini * d.n_p)
        fd, nn_in = self._fd_jacobian(model, u_ini, y_ini, u_f, p_hist)
        analytic = model.jacobian_phi_hl_future_u_raw(nn_in)
        scale = max(np.max(np.abs(analytic)), 1e-8)
        assert np.max(np.abs(fd - analytic)) / scale < 1e-6

    @pytest.mark.parametrize("hidden, modulated", [
        ((6,), (True,)),
        ((5, 4), (True, False)),
        ((4, 5, 3), (True, False, True)),
    ], ids=["one_layer", "two_layers", "three_layers"])
    def test_curvature_at_features_activation(self, rng, hidden, modulated):
        # the weighted curvature from the tape features returned, against
        # central differences of the weighted Jacobian, at every depth; it is
        # symmetric to rounding and the wrapper agrees
        for trial in range(5):
            model = random_model(rng, hidden=hidden, modulated=modulated)
            d = model.dims
            nn_in = model.nn_input(rng.uniform(-0.8, 0.8, d.t_ini * d.n_u), rng.uniform(-0.8, 0.8, d.t_ini * d.n_y),
                                   rng.uniform(-0.8, 0.8, d.horizon * d.n_u), rng.uniform(-0.8, 0.8, d.t_ini * d.n_p))
            layers = model.hyper_forward(nn_in.p_vec)
            weights = rng.standard_normal(model.nu_l)
            _, _, tape = model.features(layers, nn_in.u_nn)
            curv = model.feature_curvature(layers, tape, weights)
            gain = np.tile(model.scalers.u.gain, d.horizon)
            step = 1e-6
            fd = np.zeros_like(curv)
            for j in range(fd.shape[0]):
                e = np.zeros(d.nu_u)
                e[d.future_u_slice.start + j] = step * gain[j]
                hi = model.features(layers, nn_in.u_nn + e)[1].T @ weights
                lo = model.features(layers, nn_in.u_nn - e)[1].T @ weights
                fd[:, j] = (hi - lo) / (2 * step)
            scale = max(np.max(np.abs(curv)), 1e-8)
            assert np.max(np.abs(fd - curv)) / scale < 1e-6
            assert np.max(np.abs(curv - curv.T)) / scale < 1e-13
            assert np.array_equal(model.phi_curvature_future_u_raw(nn_in, weights), curv)

    def test_zero_weights_zero_jacobian(self, rng):
        model = random_model(rng)
        model.params["h0_base_w"][:] = 0.0
        model.params["h0_sens_w"][:] = 0.0
        layers = model.hyper_forward(np.full(model.dims.nu_p, 0.2))
        _, jac, _ = model.features(layers, rng.uniform(-1, 1, model.dims.nu_u))
        assert np.array_equal(jac, np.zeros((model.nu_l, model.dims.n_u * model.dims.horizon)))

    def test_jacobian_shape_excludes_past(self, rng):
        model = random_model(rng)
        d = model.dims
        _, jac, _ = model.features(model.hyper_forward(np.zeros(d.nu_p)), rng.uniform(-1, 1, d.nu_u))
        assert jac.shape == (model.nu_l, d.n_u * d.horizon)
        assert d.future_u_slice.stop - d.future_u_slice.start == d.n_u * d.horizon
        assert d.future_u_slice.stop == d.nu_u


class TestRefit:
    def test_matches_normal_equations_oracle(self, rng):
        # the least-squares output map that transform_hankel fits to the features
        model = random_model(rng, hidden=(3,))
        d = model.dims
        n_cols = 5
        hs = HankelSet(
            up=rng.uniform(-1, 1, (d.n_u * d.t_ini, n_cols)),
            yp=rng.uniform(-1, 1, (d.n_y * d.t_ini, n_cols)),
            uf=rng.uniform(-1, 1, (d.n_u * d.horizon, n_cols)),
            yf=rng.standard_normal((d.nu_y, n_cols)),
            t_ini=d.t_ini, horizon=d.horizon, n_u=d.n_u, n_y=d.n_y,
        )
        nh = transform_hankel(model, hs, rng.uniform(-1, 1, (d.n_p * d.t_ini, n_cols)))
        stack = nh.stack()
        assert stack.shape == (4, n_cols)
        # oracle: solve the normal equations directly (stack has full row rank)
        oracle = hs.yf @ stack.T @ np.linalg.inv(stack @ stack.T)
        assert np.allclose(nh.theta_ls, oracle, atol=1e-10)


class TestTraining:
    def test_memorizes_toy_dataset(self, rng):
        ds = toy_dataset(rng, n_windows=20)
        cfg = TrainConfig(
            hidden_sizes=(30,), modulated=(True,), learning_rate=3e-3,
            max_epochs=4000, patience=4000, val_fraction=0.0,
        )
        model = train(ds, cfg, seed=0)
        assert model.history.train_loss[-1] < 1e-4

    def test_loss_decreases(self, rng):
        ds = toy_dataset(rng, n_windows=40)
        cfg = TrainConfig(max_epochs=300, patience=300, val_fraction=0.35)
        model = train(ds, cfg, seed=1)
        assert model.history.train_loss[-1] < model.history.train_loss[0]
        assert len(model.history.val_loss) == len(model.history.train_loss)

    def test_bit_identical_given_seed(self, rng):
        ds = toy_dataset(rng, n_windows=30)
        cfg = TrainConfig(max_epochs=150, patience=150)
        m1 = train(ds, cfg, seed=7)
        m2 = train(ds, cfg, seed=7)
        for key in m1.params:
            assert np.array_equal(m1.params[key], m2.params[key])

    def test_early_stopping_restores_best_epoch(self, rng):
        # noise targets: the validation loss stops improving long before
        # max_epochs, and the run stops `patience` epochs after its best
        ds = toy_dataset(rng, n_windows=40)
        cfg = TrainConfig(hidden_sizes=(8,), modulated=(True,), learning_rate=1e-2,
                          max_epochs=2000, patience=20, val_fraction=0.35)
        model = train(ds, cfg, seed=2)
        h = model.history
        assert h.stopped_epoch < cfg.max_epochs
        assert h.stopped_epoch == h.best_epoch + cfg.patience
        assert h.val_loss[h.best_epoch - 1] == min(h.val_loss)
        # the same run cut at best_epoch ends on the parameters it returned
        cut = train(ds, dataclasses.replace(cfg, max_epochs=h.best_epoch), seed=2)
        assert cut.history.train_loss == h.train_loss[:h.best_epoch]
        for key in model.params:
            assert np.array_equal(model.params[key], cut.params[key]), key


def _reference_train(dataset, cfg, seed):
    """The trainer as a plain per-key ADAM loop, with each kernel forming its
    own lifts by broadcasting; ``train`` must match it bit for bit.

    Returns (params, train_loss, val_loss, best_epoch).
    """

    def outer_rows(p, z):
        return (p[:, :, None] * z[:, None, :]).reshape(p.shape[0], -1)

    def forward(specs, params, u, p):
        z, acts = u, [u]
        for i, spec in enumerate(specs):
            if spec.kind == "hyper":
                zpre = (
                    z @ params[f"h{i}_base_w"].T
                    + params[f"h{i}_base_b"]
                    + outer_rows(p, z) @ params[f"h{i}_sens_w"].transpose(0, 2, 1).reshape(-1, spec.out_dim)
                    + p @ params[f"h{i}_sens_b"].T
                )
            else:
                zpre = z @ params[f"f{i}_w"].T + params[f"f{i}_b"]
            z = np.tanh(zpre)
            acts.append(z)
        return z @ params["out_w"].T + params["out_b"], acts

    def backward(specs, params, acts, p, d_yhat):
        grads = {"out_w": d_yhat.T @ acts[-1], "out_b": d_yhat.sum(axis=0)}
        dz = d_yhat @ params["out_w"]
        for i in reversed(range(len(specs))):
            spec = specs[i]
            z_out, z_in = acts[i + 1], acts[i]
            dpre = dz * (1.0 - z_out ** 2)
            if spec.kind == "hyper":
                grads[f"h{i}_base_w"] = dpre.T @ z_in
                grads[f"h{i}_base_b"] = dpre.sum(axis=0)
                grads[f"h{i}_sens_w"] = (
                    (dpre.T @ outer_rows(p, z_in)).reshape(spec.out_dim, -1, spec.in_dim).transpose(1, 0, 2)
                )
                grads[f"h{i}_sens_b"] = dpre.T @ p
                if i:
                    dz = (dpre @ params[f"h{i}_base_w"]
                          + outer_rows(p, dpre) @ params[f"h{i}_sens_w"].reshape(-1, spec.in_dim))
            else:
                grads[f"f{i}_w"] = dpre.T @ z_in
                grads[f"f{i}_b"] = dpre.sum(axis=0)
                if i:
                    dz = dpre @ params[f"f{i}_w"]
        return grads

    n = dataset.n_windows
    n_train = n - int(round(cfg.val_fraction * n))
    train_ds = dataset.rows(slice(0, n_train))
    val_ds = dataset.rows(slice(n_train, n)) if n_train < n else None
    scalers = _fit_scalers(train_ds)
    u_tr, p_tr, y_tr = assemble_normalized(train_ds, scalers, cfg.hyper_input)
    if val_ds is not None:
        u_va, p_va, y_va = assemble_normalized(val_ds, scalers, cfg.hyper_input)
    specs, in_dim = [], u_tr.shape[1]
    for size, mod in zip(cfg.hidden_sizes, cfg.modulated):
        specs.append(LayerSpec(kind="hyper" if mod else "fixed", in_dim=in_dim, out_dim=size))
        in_dim = size
    rng = np.random.default_rng(seed)
    params = _init_params(rng, specs, p_tr.shape[1], y_tr.shape[1], cfg.init_sens_scale)

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
            yhat, acts = forward(specs, params, u_tr[sel], p_tr[sel])
            err = yhat - y_tr[sel]
            loss_num += float(np.sum(err ** 2))
            grads = backward(specs, params, acts, p_tr[sel], 2.0 * err / err.size)
            t += 1
            bc1 = 1.0 - ADAM_BETA1 ** t
            bc2 = 1.0 - ADAM_BETA2 ** t
            for k in keys:
                g = grads[k]
                adam_m[k] = ADAM_BETA1 * adam_m[k] + (1.0 - ADAM_BETA1) * g
                adam_v[k] = ADAM_BETA2 * adam_v[k] + (1.0 - ADAM_BETA2) * g * g
                params[k] -= cfg.learning_rate * (adam_m[k] / bc1) / (np.sqrt(adam_v[k] / bc2) + ADAM_EPS)
        loss = loss_num / y_tr.size
        history_train.append(loss)
        if val_ds is not None:
            yhat_va, _ = forward(specs, params, u_va, p_va)
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
    return best_params, history_train, history_val, best_epoch


class TestTrainingMatchesPerKeyLoop:
    """``train`` keeps its parameters in one flat vector and reuses its lifts;
    every value must still equal the per-key loop's, bit for bit."""

    @staticmethod
    def _assert_same(ds, cfg, seed):
        model = train(ds, cfg, seed=seed)
        params, train_loss, val_loss, best_epoch = _reference_train(ds, cfg, seed)
        assert list(model.params) == list(params)
        for key, value in params.items():
            assert np.array_equal(model.params[key], value), key
        assert np.array_equal(model.history.train_loss, train_loss)
        assert np.array_equal(model.history.val_loss, val_loss)
        assert model.history.best_epoch == best_epoch
        return model

    @pytest.mark.parametrize("val_fraction", [0.0, 0.3])
    @pytest.mark.parametrize("batch_size", [None, 8])
    @pytest.mark.parametrize("modulated", [(True,), (True, False), (False, True), (True, True)])
    def test_stacks_batches_and_splits(self, rng, modulated, batch_size, val_fraction):
        ds = toy_dataset(rng, n_windows=40, n_p=2)
        cfg = TrainConfig(hidden_sizes=(6, 5)[:len(modulated)], modulated=modulated,
                          learning_rate=1e-2, max_epochs=25, patience=25,
                          val_fraction=val_fraction, batch_size=batch_size)
        self._assert_same(ds, cfg, seed=3)

    def test_early_stopping_restores_an_earlier_snapshot(self, rng):
        ds = toy_dataset(rng, n_windows=40, n_p=2)
        cfg = TrainConfig(hidden_sizes=(8,), modulated=(True,), learning_rate=1e-2,
                          max_epochs=2000, patience=10, val_fraction=0.35, batch_size=8)
        model = self._assert_same(ds, cfg, seed=2)
        assert model.history.best_epoch < model.history.stopped_epoch < cfg.max_epochs


# the load_model error of each malformed file in TestModelIo::test_structure_checked
MALFORMED_MODEL_FILES = {
    "no_layers": "no hidden layer",
    "layer_chain": "layer 1 takes 6 inputs, expected 5",
    "fixed_bias": r"f1_b has shape \(3,\), expected \(4,\)",
    "sens_b": "missing parameter h0_sens_b",
    "out_b": r"out_b has shape \(5,\), expected \(6,\)",
    "scaler_p": "scaler p has 2 / 2 entries, expected 1",
    "p_train_mean": r"p_train_mean needs 2 finite entries, got \[0.0, 0.0, 0.0\]",
    "nan_parameter": "parameter out_b holds a non-finite value",
    "flat_scaler": "scaler u needs finite lo < hi in every channel",
}


class TestModelIo:
    def test_bit_exact_roundtrip(self, rng, tmp_path):
        ds = toy_dataset(rng, n_windows=30)
        model = train(ds, TrainConfig(max_epochs=100, patience=100), seed=4)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        for key in model.params:
            assert np.array_equal(back.params[key], model.params[key])
        assert np.array_equal(back.p_train_mean, model.p_train_mean)
        w = Window(
            u_ini=ds.u_hist[3].ravel(), y_ini=ds.y_hist[3].ravel(),
            u_f=ds.u_fut[3].ravel(), y_f=ds.y_fut[3].ravel(), p_hist=ds.p_hist[3].ravel(),
        )
        assert np.array_equal(back.phi_hl(back.nn_input_from_window(w)),
                              model.phi_hl(model.nn_input_from_window(w)))
        assert np.array_equal(predict_batch(back, ds), predict_batch(model, ds))

    def test_loads_schema_1_file_with_theta_ls_entry(self, rng, tmp_path):
        # files written before the output map moved off the model carry "theta_ls": null
        import json

        ds = toy_dataset(rng, n_windows=30)
        model = train(ds, TrainConfig(max_epochs=20, patience=20), seed=5)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert "theta_ls" not in doc
        doc["theta_ls"] = None
        old = tmp_path / "old_model.json"
        old.write_text(json.dumps(doc, indent=1, sort_keys=True))
        back = load_model(old)
        assert np.array_equal(predict_batch(back, ds), predict_batch(model, ds))
        save_model(back, tmp_path / "resaved.json")
        assert (tmp_path / "resaved.json").read_bytes() == path.read_bytes()

    def test_schema_version_checked(self, rng, tmp_path):
        model = random_model(rng)
        path = tmp_path / "model.json"
        save_model(model, path)
        import json

        doc = json.loads(path.read_text())
        doc["schema_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="schema"):
            load_model(path)

    @pytest.mark.parametrize("case", list(MALFORMED_MODEL_FILES))
    def test_structure_checked(self, rng, tmp_path, case):
        # a file that parses but does not describe one consistent network
        # fails at load, naming what is wrong; the intact file loads
        import json

        path = tmp_path / "model.json"
        save_model(random_model(rng, hidden=(5, 4), modulated=(True, False)), path)
        load_model(path)
        doc = json.loads(path.read_text())
        if case == "no_layers":
            doc["layer_specs"] = []
        elif case == "layer_chain":
            doc["layer_specs"][1]["in_dim"] = 6
        elif case == "fixed_bias":
            doc["params"]["f1_b"] = doc["params"]["f1_b"][:3]
        elif case == "sens_b":
            del doc["params"]["h0_sens_b"]
        elif case == "out_b":
            doc["params"]["out_b"] = doc["params"]["out_b"][:5]
        elif case == "scaler_p":
            doc["scalers"]["p"] = {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}
        elif case == "nan_parameter":
            doc["params"]["out_b"][0] = float("nan")
        elif case == "flat_scaler":
            doc["scalers"]["u"]["hi"][1] = doc["scalers"]["u"]["lo"][1]
        else:
            doc["p_train_mean"] = [0.0, 0.0, 0.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=MALFORMED_MODEL_FILES[case]):
            load_model(path)
