"""Output checks made apart from the program.

Each check recomputes a result with plain numpy, or tests a property the
method must have, and raises CheckError with the measured numbers when the
program's output disagrees.
"""

from __future__ import annotations

import math

import numpy as np


class CheckError(AssertionError):
    """A program output failed a benchmark check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ----- build outputs -------------------------------------------------------


def reference_forward(params: dict, scalers, windows, hyper_input: str = "history") -> np.ndarray:
    """Raw-unit predictions of a one-hidden-layer hypernet model, in plain numpy.

    ``windows`` carries u_hist, y_hist, u_fut and p_hist as (n, steps, ch)
    arrays.  The hidden weights are affine in the normalized distance history:
    W(p) = W0 + sum_k p_k S_k and b(p) = b0 + B p.
    """
    def norm(x, sc):
        return 2.0 * (x - sc.lo) / (sc.hi - sc.lo) - 1.0

    n = windows.u_hist.shape[0]
    u_nn = np.hstack([
        norm(windows.u_hist, scalers.u).reshape(n, -1),
        norm(windows.y_hist, scalers.y).reshape(n, -1),
        norm(windows.u_fut, scalers.u).reshape(n, -1),
    ])
    p_n = norm(windows.p_hist, scalers.p)
    p = p_n.reshape(n, -1) if hyper_input == "history" else p_n[:, -1, :]
    out = np.empty((n, params["out_w"].shape[0]))
    for j in range(n):
        w = params["h0_base_w"] + np.einsum("k,koi->oi", p[j], params["h0_sens_w"])
        b = params["h0_base_b"] + params["h0_sens_b"] @ p[j]
        z = np.tanh(w @ u_nn[j] + b)
        out[j] = params["out_w"] @ z + params["out_b"]
    n_y = scalers.y.lo.size
    z_out = out.reshape(n, -1, n_y)
    return 0.5 * (z_out + 1.0) * (scalers.y.hi - scalers.y.lo) + scalers.y.lo


def check_predictions(predicted: np.ndarray, reference: np.ndarray, rtol: float = 1e-9) -> None:
    scale = float(np.max(np.abs(reference)))
    err = float(np.max(np.abs(np.asarray(predicted) - reference)))
    _require(np.shape(predicted) == reference.shape and err <= rtol * scale,
             f"predict_batch differs from the reference forward pass by {err:.3e} (scale {scale:.3e})")


def check_training_loss(train_loss) -> None:
    _require(len(train_loss) >= 2 and all(map(math.isfinite, train_loss)),
             f"training history has {len(train_loss)} finite-loss epochs")
    _require(train_loss[-1] < train_loss[0],
             f"final training loss {train_loss[-1]:.4e} is not below the first {train_loss[0]:.4e}")


def check_pseudo_inverse(a: np.ndarray, m: np.ndarray, tol: float = 1e-8) -> None:
    """The four Moore-Penrose identities of m = pinv(a), relative to the norms."""
    na, nm = np.linalg.norm(a), np.linalg.norm(m)
    am, ma = a @ m, m @ a
    residuals = {
        "A M A = A": np.linalg.norm(am @ a - a) / na,
        "M A M = M": np.linalg.norm(ma @ m - m) / nm,
        "(A M)' = A M": np.linalg.norm(am - am.T) / max(np.linalg.norm(am), 1.0),
        "(M A)' = M A": np.linalg.norm(ma - ma.T) / max(np.linalg.norm(ma), 1.0),
    }
    bad = {k: v for k, v in residuals.items() if not v <= tol}
    _require(not bad, "pseudo-inverse identities fail: "
             + ", ".join(f"{k} ({v:.2e})" for k, v in bad.items()))


def check_neural_hankel(nh) -> None:
    """transform_hankel output: m is pinv of col(phi, 1') and theta_ls == yf @ m."""
    check_pseudo_inverse(nh.stack(), nh.m)
    ref = nh.yf @ nh.m
    err = float(np.max(np.abs(nh.theta_ls - ref)))
    _require(err <= 1e-12 * max(1.0, float(np.max(np.abs(ref)))),
             f"theta_ls differs from yf @ m by {err:.3e}")


def check_projector(pi: np.ndarray, tol: float = 1e-8) -> None:
    idem = float(np.linalg.norm(pi @ pi - pi, 2))
    sym = float(np.linalg.norm(pi - pi.T, 2))
    _require(idem <= tol and sym <= tol,
             f"DeePC projector: ||P P - P|| = {idem:.2e}, ||P - P'|| = {sym:.2e}")


def arx_regressors(u: np.ndarray, y: np.ndarray, n_a: int, n_b: int):
    """ARX regressor rows [y(k-1..k-n_a), u(k-1..k-n_b), 1] and targets y(k)."""
    lag = max(n_a, n_b)
    n = y.shape[0] - lag
    cols = [y[lag - i:lag - i + n] for i in range(1, n_a + 1)]
    cols += [u[lag - j:lag - j + n] for j in range(1, n_b + 1)]
    cols.append(np.ones((n, 1)))
    return np.hstack(cols), y[lag:]


def check_arx(arx, u: np.ndarray, y: np.ndarray, tol: float = 1e-8) -> None:
    """Least squares: the residual is orthogonal to every regressor column."""
    rows, targets = arx_regressors(u, y, arx.n_a, arx.n_b)
    theta = np.hstack([*arx.a_coefs, *arx.b_coefs, arx.intercept[:, None]])
    residual = targets - rows @ theta.T
    ortho = np.abs(rows.T @ residual) / (
        np.linalg.norm(rows, axis=0)[:, None] * np.linalg.norm(targets, axis=0)[None, :]
    )
    worst = float(np.max(ortho))
    _require(worst <= tol, f"ARX residual not orthogonal to its regressors (cosine {worst:.2e})")


# ----- closed-loop outputs -------------------------------------------------


def loop_rmse(records) -> float:
    """RMSE of the tracked surface temperature over every recorded step."""
    err = np.array([rec.y_true[0] - rec.r_ts for rec in records])
    return float(np.sqrt(np.mean(err ** 2)))


def check_rmse(reported: float, records) -> None:
    ref = loop_rmse(records)
    _require(abs(reported - ref) <= 1e-12 * max(1.0, ref),
             f"tracking_metrics RMSE {reported!r} differs from the recomputed {ref!r}")


def check_beats_hold(rmse: float, hold_rmse: float, label: str) -> None:
    _require(rmse < hold_rmse,
             f"{label}: RMSE {rmse:.4f} does not beat holding the initial input ({hold_rmse:.4f})")
