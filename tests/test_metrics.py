import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from npvdeepc.metrics import MetricsError, RunMetrics, bfr, control_energy, cpu_stats, ise, rmse


class TestTrackingIndices:
    def test_constant_unit_error(self):
        y = np.zeros((10, 2))
        r = np.tile([0.6, 0.8], (10, 1))  # per-step error norm 1
        assert rmse(y, r) == pytest.approx(1.0)

    def test_zero_error(self):
        y = np.ones((8, 2))
        assert rmse(y, y) == 0.0
        assert ise(y, y) == 0.0

    def test_ise_identity(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal((30, 2))
        r = rng.standard_normal((30, 2))
        start = 5
        n_terms = 30 - start
        assert ise(y, r, start) == pytest.approx(rmse(y, r, start) ** 2 * n_terms, rel=1e-12)

    def test_start_index_skips_warmup(self):
        y = np.zeros((10, 1))
        r = np.vstack([np.full((5, 1), 100.0), np.zeros((5, 1))])
        assert rmse(y, r, start=5) == 0.0

    @given(alpha=st.floats(-4, 4), seed=st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_scale_equivariance(self, alpha, seed):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal((12, 2))
        r = np.zeros((12, 2))
        assert rmse(alpha * y, r) == pytest.approx(abs(alpha) * rmse(y, r), abs=1e-9)

    def test_control_energy(self):
        u = np.array([[1.0, 0.0], [0.0, 2.0]])
        assert control_energy(u) == pytest.approx(5.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal((20, 2))
        r = rng.standard_normal((20, 2))
        perm = rng.permutation(20)
        assert rmse(y, r) == pytest.approx(rmse(y[perm], r[perm]), rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(MetricsError):
            rmse(np.zeros((5, 2)), np.zeros((4, 2)))


class TestBfr:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal((6, 4, 2))
        assert bfr(y, y) == pytest.approx(100.0)

    def test_mean_predictor_scores_zero(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal((6, 4, 2))
        y_bar = y.mean(axis=(0, 1))
        pred = np.broadcast_to(y_bar, y.shape)
        assert bfr(y, pred) == pytest.approx(0.0, abs=1e-9)

    def test_worse_than_mean_clamped(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal((6, 4, 2))
        pred = y + 100.0
        assert bfr(y, pred) == 0.0

    def test_degenerate_reference(self):
        y = np.ones((3, 4, 2))
        with pytest.raises(MetricsError, match="degenerate"):
            bfr(y, y + 0.1)


class TestCpuStats:
    def test_single(self):
        assert cpu_stats([0.25]) == pytest.approx(0.25)

    def test_mean(self):
        assert cpu_stats([0.1, 0.3]) == pytest.approx(0.2)

    def test_empty(self):
        with pytest.raises(MetricsError):
            cpu_stats([])


def test_run_metrics_validation():
    m = RunMetrics(rmse=0.1, ise=1.0, ju=5.0, mean_cpu_s=0.01)
    assert m.scalar_dict() == {"rmse": 0.1, "ise": 1.0, "ju": 5.0}
    with pytest.raises(MetricsError):
        RunMetrics(rmse=-1.0, ise=0.0, ju=0.0, mean_cpu_s=0.0)
