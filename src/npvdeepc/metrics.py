"""Performance indices for closed-loop runs and model evaluation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MetricsError",
    "RunMetrics",
    "rmse",
    "ise",
    "control_energy",
    "bfr",
    "cpu_stats",
]


class MetricsError(ValueError):
    pass


def _aligned(y, r, start: int):
    y = np.atleast_2d(np.asarray(y, dtype=float))
    r = np.atleast_2d(np.asarray(r, dtype=float))
    if y.shape != r.shape:
        raise MetricsError(f"series shapes differ: {y.shape} vs {r.shape}")
    if not 0 <= start < y.shape[0]:
        raise MetricsError(f"start index {start} outside series of length {y.shape[0]}")
    return y[start:], r[start:]


def ise(y, r, start: int = 0) -> float:
    """Integral square error, summed from the given step onward."""
    err, ref = _aligned(y, r, start)
    return float(np.sum((err - ref) ** 2))


def rmse(y, r, start: int = 0) -> float:
    """Root mean square tracking error over steps ``start .. end``."""
    err, ref = _aligned(y, r, start)
    return float(np.sqrt(np.sum((err - ref) ** 2) / err.shape[0]))


def control_energy(u, start: int = 0) -> float:
    """Sum of squared input norms from the given step onward."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if not 0 <= start < u.shape[0]:
        raise MetricsError(f"start index {start} outside series of length {u.shape[0]}")
    return float(np.sum(u[start:] ** 2))


def bfr(y_true_windows, y_pred_windows) -> float:
    """Best fit rate in percent, averaged over prediction windows.

    Per window: max(1 - ||y - yhat|| / ||y - ybar||, 0) * 100, where ybar is
    the per-channel mean of the true data over all windows.  Clamped at zero,
    so a predictor worse than the mean scores 0.
    """
    y_true = np.asarray(y_true_windows, dtype=float)
    y_pred = np.asarray(y_pred_windows, dtype=float)
    if y_true.shape != y_pred.shape or y_true.ndim != 3 or y_true.shape[0] == 0:
        raise MetricsError(
            f"expected matching (n_windows, horizon, n_y) stacks, got {y_true.shape} and {y_pred.shape}"
        )
    y_bar = y_true.mean(axis=(0, 1))
    denom = np.linalg.norm(y_true - y_bar, axis=(1, 2))
    scale = float(np.max(np.abs(y_true))) + 1e-300
    if np.any(denom <= 1e-12 * scale):
        raise MetricsError("degenerate reference: true data constant within a window set")
    num = np.linalg.norm(y_true - y_pred, axis=(1, 2))
    scores = np.maximum(1.0 - num / denom, 0.0) * 100.0
    return float(scores.mean())


def cpu_stats(wall_times) -> float:
    """Mean per-step solver wall time in seconds."""
    times = np.asarray(list(wall_times), dtype=float)
    if times.size == 0:
        raise MetricsError("no step timings recorded")
    return float(times.mean())


@dataclass
class RunMetrics:
    """Scalar indices of one closed-loop run."""

    rmse: float
    ise: float
    ju: float
    mean_cpu_s: float

    def __post_init__(self):
        for name in ("rmse", "ise", "ju", "mean_cpu_s"):
            if getattr(self, name) < 0:
                raise MetricsError(f"{name} must be nonnegative")

    def scalar_dict(self) -> dict:
        """The deterministic indices; the wall-time mean stays out of metric files."""
        return {"rmse": self.rmse, "ise": self.ise, "ju": self.ju}
