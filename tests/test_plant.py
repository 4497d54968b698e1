import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


class TestCollect:
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
