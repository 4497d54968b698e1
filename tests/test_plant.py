import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from npvdeepc.config import load_config
from npvdeepc.experiments import build_dataset, surrogate_from_config
from npvdeepc.hankel import Trajectory
from npvdeepc.plant import (
    BoxConstraints,
    ExcitationConfig,
    LtiPlant,
    PlantState,
    SurrogateConstants,
    SurrogatePlant,
    cem_update,
    collect_open_loop,
    surrogate_steady_state,
    surrogate_step,
)


class TestSurrogate:
    def test_pure_decay_with_zero_gains(self):
        constants = SurrogateConstants(b_g=0.0, b_s=0.0)
        state = PlantState(ts=40.0, tg=70.0, d=3.0)
        for _ in range(2000):
            state = surrogate_step(state, u=(5.0, 3.0), d=3.0, dt=0.5, constants=constants)
        assert state.ts == pytest.approx(25.0, abs=1e-6)
        assert state.tg == pytest.approx(25.0, abs=1e-6)

    def test_steady_state_high_power(self):
        # closed-form fixed point: Tg = 25 + (b_g/a_g) * P / (1 + c_g q)
        plant = SurrogatePlant()
        plant.settle((8.0, 1.0), d=2.0, n_steps=3000)
        assert plant.state.tg == pytest.approx(25.0 + 10.0 * 8.0 / 1.5, abs=1e-6)
        ts_ss, tg_ss = surrogate_steady_state((8.0, 1.0), 2.0)
        assert plant.state.tg == pytest.approx(tg_ss, abs=1e-6)
        assert plant.state.ts == pytest.approx(ts_ss, abs=1e-6)

    def test_steady_state_low_power_far(self):
        ts_ss, tg_ss = surrogate_steady_state((1.5, 6.0), 7.0)
        assert tg_ss == pytest.approx(28.75, abs=0.01)
        assert ts_ss == pytest.approx(25.27, abs=0.01)
        plant = SurrogatePlant()
        plant.settle((1.5, 6.0), d=7.0, n_steps=3000)
        assert plant.state.tg == pytest.approx(tg_ss, abs=1e-6)
        assert plant.state.ts == pytest.approx(ts_ss, abs=1e-6)

    def test_gas_temperature_envelope_on_grid(self):
        # steady states across the whole box stay inside the output band
        box = BoxConstraints()
        grid = 10
        count = 0
        for p in np.linspace(box.u_lo[0], box.u_hi[0], grid):
            for q in np.linspace(box.u_lo[1], box.u_hi[1], grid):
                for d in np.linspace(2.0, 7.0, grid):
                    _, tg = surrogate_steady_state((p, q), d)
                    assert 20.0 <= tg <= 80.0
                    count += 1
        assert count >= 1000

    def test_continuity_in_inputs(self):
        # finite-difference sensitivity stays bounded over the box
        rng = np.random.default_rng(0)
        for _ in range(50):
            u = rng.uniform([1.5, 1.0], [8.0, 6.0])
            d = rng.uniform(2.0, 7.0)
            state = PlantState(ts=rng.uniform(25, 35), tg=rng.uniform(25, 75), d=d)
            base = surrogate_step(state, u, d, 0.5)
            eps = 1e-6
            for k, delta in enumerate([(eps, 0.0), (0.0, eps)]):
                pert = surrogate_step(state, np.asarray(u) + delta, d, 0.5)
                sens = abs(pert.tg - base.tg) / eps + abs(pert.ts - base.ts) / eps
                assert sens < 100.0
            pert_d = surrogate_step(state, u, d + eps, 0.5)
            assert abs(pert_d.ts - base.ts) / eps < 100.0

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError):
            surrogate_step(PlantState(), (np.nan, 1.0), 3.0, 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["power", "flow", "d"])
    def test_non_finite_channel_rejected(self, bad, where):
        u = (bad, 3.0) if where == "power" else (4.0, bad) if where == "flow" else (4.0, 3.0)
        d = bad if where == "d" else 3.0
        with pytest.raises(ValueError):
            surrogate_step(PlantState(), u, d, 0.5)

    @pytest.mark.parametrize("dt", [0.0, -0.5, np.nan])
    def test_nonpositive_dt_rejected(self, dt):
        with pytest.raises(ValueError):
            surrogate_step(PlantState(), (4.0, 3.0), 3.0, dt)

    @pytest.mark.parametrize("u", [(4.0,), (4.0, 3.0, 1.0), np.ones(3)])
    def test_wrong_input_length_rejected(self, u):
        with pytest.raises(ValueError):
            surrogate_step(PlantState(), u, 3.0, 0.5)

    @pytest.mark.parametrize("u, clipped", [((20.0, -3.0), (8.0, 1.0)), ((0.0, 9.0), (1.5, 6.0)), ((9.0, 4.0), (8.0, 4.0))])
    def test_out_of_box_input_acts_as_its_clipped_value(self, u, clipped):
        state = PlantState(ts=36.0, tg=60.0, cem=0.2, d=2.5)
        outside = surrogate_step(state, np.asarray(u), 2.5, 0.5)
        inside = surrogate_step(state, clipped, 2.5, 0.5)
        assert (outside.ts, outside.tg, outside.cem, outside.d) == (inside.ts, inside.tg, inside.cem, inside.d)


class TestCem:
    def test_reference_temperature_unit_increment(self):
        assert cem_update(0.0, ts=43.0, dt_minutes=1.0) == pytest.approx(1.0)

    def test_below_switch_no_contribution(self):
        assert cem_update(0.7, ts=30.0, dt_minutes=1.0) == pytest.approx(0.7)

    def test_direct_evaluation(self):
        assert cem_update(0.0, ts=41.0, dt_minutes=0.5) == pytest.approx(0.5**2 * 0.5)

    @given(
        cem=st.floats(0, 10),
        ts=st.floats(20, 60),
        dt=st.floats(1e-3, 2.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_nondecreasing(self, cem, ts, dt):
        assert cem_update(cem, ts, dt) >= cem

    @given(ts=st.floats(35, 60), delta=st.floats(0.01, 5))
    @settings(max_examples=60, deadline=None)
    def test_strictly_increasing_in_ts_above_switch(self, ts, delta):
        lo = cem_update(0.0, ts, 1.0)
        hi = cem_update(0.0, ts + delta, 1.0)
        assert hi > lo


def reference_collect(plant, excitation, n_points, seed):
    """Per-step collection loop, one ``surrogate_step`` per sample: the oracle."""
    rng = np.random.default_rng(seed)
    u_lo, u_hi = np.asarray(plant.box.u_lo), np.asarray(plant.box.u_hi)
    u_log, y_log, d_log = np.empty((n_points, 2)), np.empty((n_points, 2)), np.empty((n_points, 1))
    u_current = rng.uniform(u_lo, u_hi)
    d_current = rng.uniform(excitation.d_lo, excitation.d_hi)
    d_remaining = int(rng.integers(excitation.d_hold_min, excitation.d_hold_max + 1))
    state = plant.state
    for k in range(n_points):
        if k > 0 and k % excitation.u_hold == 0:
            u_current = rng.uniform(u_lo, u_hi)
        if d_remaining == 0:
            d_current = rng.uniform(excitation.d_lo, excitation.d_hi)
            d_remaining = int(rng.integers(excitation.d_hold_min, excitation.d_hold_max + 1))
        d_remaining -= 1
        y_log[k] = state.outputs()
        u_log[k] = u_current
        d_log[k, 0] = d_current
        state = surrogate_step(state, u_current, d_current, plant.dt, plant.constants, plant.box)
    return Trajectory(u=u_log, y=y_log, p=d_log, dt=plant.dt), state


def assert_collect_matches_reference(make_plant, excitation, n_points, seed):
    plant = make_plant()
    traj = collect_open_loop(plant, excitation, n_points, seed)
    ref, ref_state = reference_collect(make_plant(), excitation, n_points, seed)
    assert np.array_equal(traj.u, ref.u)
    assert np.array_equal(traj.y, ref.y)
    assert np.array_equal(traj.p, ref.p)
    s = plant.state
    assert (s.ts, s.tg, s.cem, s.d) == (ref_state.ts, ref_state.tg, ref_state.cem, ref_state.d)
    return traj, s


class TestCollect:
    @pytest.mark.parametrize("n_points", [1, 2, 5, 257, 1000])
    @pytest.mark.parametrize("u_hold", [1, 2, 3, 7, 1001])
    def test_matches_per_step_reference(self, u_hold, n_points):
        excitation = ExcitationConfig(u_hold=u_hold, d_hold_min=5, d_hold_max=40)
        assert_collect_matches_reference(SurrogatePlant, excitation, n_points, seed=u_hold * 31 + n_points)

    @pytest.mark.parametrize("u_hold", [1, 2, 3])
    def test_distance_redraw_on_every_step_matches_reference(self, u_hold):
        # every step redraws the distance, on the same steps as the input redraws
        excitation = ExcitationConfig(u_hold=u_hold, d_hold_min=1, d_hold_max=1)
        traj, _ = assert_collect_matches_reference(SurrogatePlant, excitation, 300, seed=5)
        assert np.all(np.diff(traj.p[:, 0]) != 0)

    def test_hot_run_accumulates_dose_like_reference(self):
        # a hot box, a near distance and the dose plant's transfer rate push Ts across 35 degC
        def hot_plant():
            return SurrogatePlant(
                constants=SurrogateConstants(b_s=0.2),
                box=BoxConstraints(u_lo=(7.0, 1.0), u_hi=(8.0, 2.0)),
                state=PlantState(ts=25.0, tg=25.0, d=2.0),
            )

        excitation = ExcitationConfig(u_hold=3, d_lo=2.0, d_hi=2.5)
        traj, state = assert_collect_matches_reference(hot_plant, excitation, 600, seed=11)
        assert traj.y[0, 0] < 35.0 < traj.y[:, 0].max()
        assert state.cem > 0

    def test_continues_from_the_plant_state(self):
        plant = SurrogatePlant()
        collect_open_loop(plant, ExcitationConfig(u_hold=2), 100, seed=0)
        resumed = plant.state
        assert_collect_matches_reference(lambda: SurrogatePlant(state=resumed), ExcitationConfig(u_hold=2), 100, seed=1)

    @pytest.mark.parametrize(
        "label, digest",
        [
            ("dataset", "8a6800c9e228da8a74aa4b18c4823e277432dd019cbc8b1a21b919a7449e838d"),
            ("cem-dataset", "52a366990f95d22e9d690787b1cc203177ece0a6dbb49ac0d42e668a2a21e624"),
        ],
    )
    def test_desk_dataset_bytes_pinned(self, label, digest):
        # the stored benchmark model and the acceptance figures are built on these bytes;
        # the dose dataset is collected on the dose plant, as the dose pipeline does
        cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "desk.yaml")
        b_s = cfg.cem_scenario.b_s if label == "cem-dataset" else None
        traj = build_dataset(cfg, plant=surrogate_from_config(cfg, b_s_override=b_s), label=label)
        h = hashlib.sha256()
        for a in (traj.u, traj.y, traj.p):
            h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
        assert h.hexdigest() == digest

    def test_inputs_inside_box(self):
        plant = SurrogatePlant()
        traj = collect_open_loop(plant, ExcitationConfig(), n_points=500, seed=0)
        assert np.all(traj.u >= plant.box.u_lo)
        assert np.all(traj.u <= plant.box.u_hi)
        assert np.all(traj.p >= 2.0) and np.all(traj.p <= 7.0)

    def test_deterministic_per_seed(self):
        t1 = collect_open_loop(SurrogatePlant(), ExcitationConfig(), 300, seed=42)
        t2 = collect_open_loop(SurrogatePlant(), ExcitationConfig(), 300, seed=42)
        assert np.array_equal(t1.u, t2.u)
        assert np.array_equal(t1.y, t2.y)
        assert np.array_equal(t1.p, t2.p)
        t3 = collect_open_loop(SurrogatePlant(), ExcitationConfig(), 300, seed=43)
        assert not np.array_equal(t3.u, t1.u)

    def test_distance_piecewise_constant(self):
        traj = collect_open_loop(SurrogatePlant(), ExcitationConfig(), 2000, seed=1)
        d = traj.p[:, 0]
        changes = np.flatnonzero(np.diff(d) != 0)
        holds = np.diff(np.concatenate([[0], changes + 1, [d.size]]))
        assert np.all(holds[:-1] >= 20)  # the final segment may be truncated
        assert np.all(holds <= 100)

    def test_invalid_excitation(self):
        with pytest.raises(ValueError):
            ExcitationConfig(d_hold_min=50, d_hold_max=10)


class TestLti:
    def test_zero_state_zero_input(self):
        plant = LtiPlant(a=np.eye(2) * 0.5, b=np.eye(2), c=np.eye(2), d=np.zeros((2, 2)))
        assert np.array_equal(plant.step(np.zeros(2)), np.zeros(2))

    def test_delay_chain(self):
        plant = LtiPlant(a=np.zeros((2, 2)), b=np.eye(2), c=np.eye(2), d=np.zeros((2, 2)))
        u0 = np.array([1.0, -2.0])
        plant.step(u0)
        y1 = plant.step(np.zeros(2))
        assert np.array_equal(y1, u0)

    def test_impulse_matches_matrix_powers(self):
        a = np.array([[0.7, 0.2], [-0.15, 0.85]])
        b = np.array([[1.0, 0.3], [0.2, 0.9]])
        c = np.array([[1.0, 0.0], [0.5, 1.0]])
        plant = LtiPlant(a=a, b=b, c=c, d=np.zeros((2, 2)))
        impulse = np.zeros((6, 2))
        impulse[0, 0] = 1.0
        response = plant.simulate(impulse)
        # oracle: y(k) = C A^{k-1} B e_0 for k >= 1
        for k in range(1, 6):
            expected = c @ np.linalg.matrix_power(a, k - 1) @ b[:, 0]
            assert np.allclose(response[k], expected, atol=1e-12)
