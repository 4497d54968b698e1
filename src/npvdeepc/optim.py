"""Dense solvers sized for small receding-horizon problems.

Provides an SVD pseudo-inverse, one entry point for strictly convex QPs,
:func:`solve_qp`, and an SQP with an l1 merit and a box trust region for
the nonlinear programs the neural controllers generate.  ``solve_qp`` is a
dual active-set solve (Goldfarb & Idnani, Math. Prog. 1983) on a problem
that carries a Cholesky factor of its positive definite Hessian.  It starts
at the unconstrained minimizer, or from a given working set, and adds the
most violated bound or general row ``lo <= C x <= hi`` until none is left;
a row with equal limits is an equality.  The linear controllers' condensed
programs and the SQP subproblems, with their rows ``c_lo <= c(x) <= c_hi``,
are all of this form.  The linear controllers start each QP cold; each SQP
subproblem after the first starts from the working set of the one before.

Everything is dense numpy; problem sizes stay in the hundreds.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from .dual_qp import dual_active_set

__all__ = [
    "SolverError",
    "IndefiniteHessianError",
    "SolveDiagnostics",
    "QpProblem",
    "HessianFactor",
    "pinv",
    "solve_qp",
    "solve_sqp",
    "check_jacobian",
]


class SolverError(RuntimeError):
    """A solve failed in a way the caller cannot ignore."""


class IndefiniteHessianError(SolverError):
    """The quadratic cost matrix has no Cholesky factor: it is indefinite or (nearly) singular."""


def pinv(a: np.ndarray, rcond: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via SVD.

    Singular values below ``rcond * sigma_max`` are treated as zero; the
    default cutoff is ``max(m, n) * eps``.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if rcond is None:
        rcond = max(a.shape) * np.finfo(float).eps
    cutoff = rcond * (s[0] if s.size else 0.0)
    s_inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return (vt.T * s_inv) @ u.T


@dataclass
class SolveDiagnostics:
    """Outcome of a QP/SQP solve.

    ``kkt_residual`` belongs to the returned point.  ``wall_time_s`` reaches
    only the ``*_timing.json`` files; every other field is deterministic.
    """

    status: str                      # optimal | max_iter | infeasible
    iterations: int
    kkt_residual: float
    wall_time_s: float
    row_multipliers: np.ndarray | None = None
    working_set: np.ndarray | None = None  # a QP's final active (row, side) pairs, side +-1
    qp_iterations: int = 0                 # QP iterations behind the solve
    clipped: int = 0                       # SQP subproblems whose curvature term was clipped to PSD

    def __post_init__(self):
        if self.kkt_residual < 0:
            raise ValueError("kkt_residual must be nonnegative")


@dataclass
class QpProblem:
    """min 0.5 x'Hx + g'x  s.t.  lb <= x <= ub,  c_lo <= C x <= c_hi.

    H is positive definite and given only as its :class:`HessianFactor`.
    Bounds and row limits may be +-inf, and a bound or row with equal
    limits is an equality.
    """

    h_factor: HessianFactor
    g: np.ndarray
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None
    c: np.ndarray | None = None
    c_lo: np.ndarray | None = None
    c_hi: np.ndarray | None = None

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=float).ravel()
        n = self.g.size
        if self.h_factor.n != n:
            raise ValueError(f"h_factor size {self.h_factor.n} does not match g length {n}")
        self.lb = np.full(n, -np.inf) if self.lb is None else np.asarray(self.lb, dtype=float).ravel()
        self.ub = np.full(n, np.inf) if self.ub is None else np.asarray(self.ub, dtype=float).ravel()
        if self.lb.size != n or self.ub.size != n:
            raise ValueError("bound lengths do not match the variable count")
        if (self.lb > self.ub).any():
            raise ValueError("bounds must satisfy lb <= ub")
        if self.c is not None:
            self.c = np.atleast_2d(np.asarray(self.c, dtype=float))
            m = self.c.shape[0]
            self.c_lo = np.full(m, -np.inf) if self.c_lo is None else np.asarray(self.c_lo, dtype=float).ravel()
            self.c_hi = np.full(m, np.inf) if self.c_hi is None else np.asarray(self.c_hi, dtype=float).ravel()
            if self.c.shape[1] != n or self.c_lo.size != m or self.c_hi.size != m:
                raise ValueError(f"C shape {self.c.shape} or its limits do not match n={n}")
            if (self.c_lo > self.c_hi).any():
                raise ValueError("row limits must satisfy c_lo <= c_hi")

    @property
    def n(self) -> int:
        return self.g.size


class HessianFactor:
    """The Cholesky factor L of a positive definite H (H = L L') and L^-T, in one array.

    :func:`solve_qp` steps with L^-T and evaluates its stationarity
    residual with L.  ``packed`` holds L in its lower triangle and the
    strict upper triangle of L^-T (whose diagonal is 1 / diag L) above it,
    so a controller keeps one n x n array for both.  Raises
    :class:`IndefiniteHessianError` when H is not positive definite, or when
    its smallest squared pivot is below 1e-12 times its largest diagonal
    entry: a nearly singular Hessian has no factor.
    """

    __slots__ = ("packed",)

    def __init__(self, h: np.ndarray):
        h = np.asarray(h, dtype=float)
        try:
            l_fac = np.linalg.cholesky(h)
        except np.linalg.LinAlgError:
            raise IndefiniteHessianError("H is not positive definite")
        if l_fac.diagonal().min(initial=np.inf) ** 2 <= 1e-12 * h.diagonal().max(initial=0.0):
            raise IndefiniteHessianError("H is positive definite only within rounding")
        self.packed = np.where(_strict_upper(l_fac.shape[0]), np.linalg.inv(l_fac).T, l_fac)

    @property
    def n(self) -> int:
        return self.packed.shape[0]

    def lower(self) -> np.ndarray:
        """L."""
        return np.where(_strict_upper(self.n), 0.0, self.packed)

    def inv_upper(self) -> np.ndarray:
        """A fresh copy of L^-T."""
        j = np.where(_strict_upper(self.n), self.packed, 0.0)
        j.flat[::self.n + 1] = 1.0 / np.diagonal(self.packed)
        return j


@functools.lru_cache(maxsize=16)
def _strict_upper(n: int) -> np.ndarray:
    """Strict upper triangle mask, kept: np.tril / np.triu rebuild theirs on every call."""
    return np.triu(np.ones((n, n), dtype=bool), 1)


def _inf_norm(v) -> float:
    """Infinity norm of a vector, 0.0 when empty.

    Equals ``np.linalg.norm(v, np.inf)`` bit for bit without its dispatch,
    which dominates on the short vectors of these loops.
    """
    return float(np.abs(v).max(initial=0.0))


def _stationarity(r, x, lb, ub) -> float:
    """Worst violation of stationarity for the Lagrangian gradient ``r``.

    A variable at its lower bound may keep a positive gradient, one at its
    upper bound a negative one; a free variable needs a zero gradient.
    """
    tol_bnd = 1e-10 * (1.0 + _inf_norm(x))
    at_lo = x <= lb + tol_bnd
    at_hi = ~at_lo & (x >= ub - tol_bnd)
    viol = np.where(at_lo, np.maximum(-r, 0.0), np.where(at_hi, np.maximum(r, 0.0), np.abs(r)))
    return float(viol.max(initial=0.0))


def solve_qp(
    prob: QpProblem,
    tol: float = 1e-8,
    max_iter: int = 200,
    start=None,
) -> tuple[np.ndarray, SolveDiagnostics]:
    """Dual active-set solve of a strictly convex QP (:func:`dual_active_set`).

    Returns the minimizer and diagnostics with the KKT residual at that
    point.  The general rows' multipliers ride along for SQP consumption,
    signed so that bound multipliers alone balance ``Hx + g + C'lam``.
    Bounds are honored exactly at the returned point.  ``start``, a
    ``working_set`` of an earlier solve on rows of the same layout, hot-starts
    the solve; the diagnostics carry the final ``working_set``.  Adds and
    drops each count as an iteration; a hot start counts as one.
    """
    t0 = time.perf_counter()
    x, its, status, kkt, row_mult, working = dual_active_set(prob, tol, max_iter, start)
    diag = SolveDiagnostics(
        status=status, iterations=its, kkt_residual=kkt, wall_time_s=time.perf_counter() - t0,
        row_multipliers=row_mult if prob.c is not None else None,
        working_set=working, qp_iterations=its,
    )
    return x, diag


def solve_sqp(
    cost_fn,
    row_fn,
    lb,
    ub,
    x0,
    tol: float = 1e-6,
    max_iter: int = 50,
    qp_max_iter: int = 200,
    lag_hess_fn=None,
    *,
    c_lo=0.0,
    c_hi=0.0,
) -> tuple[np.ndarray, SolveDiagnostics]:
    """SQP with an l1 merit and a ratio-managed box trust region.

    Args:
        cost_fn: x -> (f, grad, hess); hess must be symmetric positive
            definite (exact for quadratic costs, Gauss-Newton otherwise).
        row_fn: x -> (c, jac), the rows ``c_lo <= c(x) <= c_hi`` with their
            analytic Jacobian; pass None when unconstrained.
        lb, ub: variable bounds (+-inf allowed).
        x0: start point, clipped into the bounds.
        lag_hess_fn: optional (x, lam, hess, jac) -> curvature term C added
            to the subproblem Hessian, or None for none.  ``lam`` holds the
            last subproblem's row multipliers (zero at first), signed so
            that ``grad + jac' lam`` vanishes on the free variables at a KKT
            point; ``hess`` and ``jac`` are the cost Hessian and the row
            Jacobian at ``x``.
        c_lo, c_hi: row limits, scalars or one per row (+-inf allowed); the
            default 0 makes every row an equality c(x) = 0.

    Each subproblem minimizes ``grad'd + 0.5 d'(hess + C) d`` subject to
    ``c_lo - c <= jac d <= c_hi - c``, with the trust box and the variable
    box as bounds, and goes to :func:`solve_qp` with the
    :class:`HessianFactor` of ``hess + C``.  Where that sum has none, C is
    clipped to PSD; where there is no C or the clipped sum has no factor
    either, :class:`IndefiniteHessianError` is raised.  Equality rows are
    rows with ``c_lo == c_hi``.  The merit and the KKT residual measure the
    row violation ``max(c_lo - c, 0) + max(c - c_hi, 0)``, which is ``|c|``
    on an equality row.  Every subproblem after the first starts from the
    working set the previous one ended on (``solve_qp``'s ``start``), the
    retry in the widened box included: near a solution the active set
    settles, and the QP then needs one iteration, its hot start.

    Returns the best iterate with the KKT residual at that point.  The
    status is ``optimal`` at a KKT point; ``infeasible`` when the linearized
    rows do not fit the trust box widened once, or when the solve stalls (a
    collapsed trust radius, or no predicted reduction) at a point whose row
    violation exceeds ``tol``; ``max_iter`` otherwise.  The diagnostics
    count the QP iterations of every subproblem solved (``qp_iterations``)
    and the subproblems whose curvature term was clipped (``clipped``).
    """
    t0 = time.perf_counter()
    lb = np.asarray(lb, dtype=float).ravel()
    ub = np.asarray(ub, dtype=float).ravel()
    x = np.clip(np.asarray(x0, dtype=float).ravel().copy(), lb, ub)
    mu = 1.0
    radius = 1e3
    steps = 0
    kkt = np.inf  # KKT residual at x; inf until computed there
    status = "max_iter"

    def _eval_c(xv):
        if row_fn is None:
            return np.zeros(0), np.zeros((0, xv.size))
        c, jac = row_fn(xv)
        return np.asarray(c, dtype=float).ravel(), np.atleast_2d(np.asarray(jac, dtype=float))

    def _violation(cv):
        return np.maximum(c_lo - cv, 0.0) + np.maximum(cv - c_hi, 0.0)

    def _evaluate(xv):
        # cost, rows and the l1 merit at the current penalty; a kept trial's
        # values become the next iterate's without re-evaluation
        fg = cost_fn(xv)
        cj = _eval_c(xv)
        return fg, cj, fg[0] + mu * float(_violation(cj[0]).sum())

    def _kkt_at_x(lam_):
        # KKT residual at the current iterate for the multipliers lam_
        stat = _stationarity(grad + (jac.T @ lam_ if m else 0.0), x, lb, ub)
        return max(stat, _inf_norm(_violation(c)))

    f, grad, hess = cost_fn(x)
    c, jac = _eval_c(x)
    m = c.size
    c_lo = np.broadcast_to(np.asarray(c_lo, dtype=float), (m,))
    c_hi = np.broadcast_to(np.asarray(c_hi, dtype=float), (m,))
    best_x, best_merit, best_kkt, best_viol = x.copy(), np.inf, np.inf, np.inf
    lam = np.zeros(m)
    working = None  # the last subproblem's working set, the next one's start
    qp_its = clipped = 0

    for _ in range(max_iter):
        extra = lag_hess_fn(x, lam, hess, jac) if lag_hess_fn is not None and m else None
        h_qp = hess if extra is None else hess + extra
        try:
            factor = HessianFactor(h_qp)
        except IndefiniteHessianError:
            if extra is None:
                raise
            vals, vecs = np.linalg.eigh(extra)
            h_qp = hess + (vecs * np.maximum(vals, 0.0)) @ vecs.T
            factor = HessianFactor(h_qp)
            clipped += 1
        # linearized rows may not fit inside the trust box; widen once
        for widen in (1.0, 16.0):
            radius *= widen
            d_lo, d_hi = np.maximum(lb - x, -radius), np.minimum(ub - x, radius)
            qp = QpProblem(h_factor=factor, g=grad, lb=d_lo, ub=d_hi,
                           c=jac if m else None, c_lo=c_lo - c, c_hi=c_hi - c)
            d, qdiag = solve_qp(qp, tol=min(tol, 1e-8), max_iter=qp_max_iter, start=working)
            qp_its += qdiag.iterations
            if qdiag.status != "infeasible":
                break
        else:
            status = "infeasible"
            break
        working = qdiag.working_set
        lam = qdiag.row_multipliers if qdiag.row_multipliers is not None else np.zeros(m)

        kkt = _kkt_at_x(lam)
        step_norm = _inf_norm(d)
        if kkt <= tol and step_norm <= tol * (1.0 + _inf_norm(x)):
            status = "optimal"
            if m and _inf_norm(_violation(c)) > 0.0:
                # the last step solves the linearized rows, so it removes a
                # violation left by the row curvature to second order: take
                # it unless it raises the KKT residual
                kept = x, f, grad, hess, c, jac, kkt
                x = np.clip(x + d, lb, ub)
                (f, grad, hess), (c, jac), _ = _evaluate(x)
                kkt = _kkt_at_x(lam)
                if kkt > kept[-1]:
                    x, f, grad, hess, c, jac, kkt = kept
            break

        if m:
            mu = max(mu, 1.05 * _inf_norm(lam) + 1.0)
        viol = _violation(c)
        viol_l1 = float(viol.sum())
        merit0 = f + mu * viol_l1
        if merit0 < best_merit:
            best_x, best_merit, best_kkt, best_viol = x.copy(), merit0, kkt, viol
        # model reduction of the l1 merit; the QP satisfies the linearized rows
        model_cost_change = float(grad @ d) + 0.5 * float(d @ (h_qp @ d))
        resid_after = float(_violation(c + jac @ d).sum()) if m else 0.0
        pred_red = -model_cost_change + mu * (viol_l1 - resid_after)
        if pred_red <= 1e-14 * (1.0 + abs(merit0)):
            if m and viol_l1 > tol:
                # penalty too small to pay for the restoration step
                mu = 2.0 * max(model_cost_change, 0.0) / max(viol_l1 - resid_after, 1e-12) + 2.0 * mu
                continue
            status = "optimal" if kkt <= 10 * tol else "stalled"
            break

        trial = np.clip(x + d, lb, ub)
        fg_t, cj_t, merit_t = _evaluate(trial)
        accepted = np.isfinite(merit_t) and (merit0 - merit_t) >= 0.1 * pred_red
        if accepted:
            good = (merit0 - merit_t) >= 0.75 * pred_red
            at_boundary = step_norm >= 0.9 * radius
            if good and at_boundary:
                radius = min(radius * 2.0, 1e6)
            x = trial
            steps += 1
            (f, grad, hess), (c, jac) = fg_t, cj_t
            kkt = np.inf
        else:
            radius = max(0.25 * step_norm, 1e-12)
            if radius <= 1e-11 * (1.0 + _inf_norm(x)):
                status = "stalled"
                break

    viol = _violation(c)
    if status != "optimal" and f + mu * float(viol.sum()) > best_merit:
        x, kkt, viol = best_x, best_kkt, best_viol
    elif kkt == np.inf:
        # no residual at x yet (an accepted last step, or no QP solved):
        # take it with the latest multipliers
        kkt = _kkt_at_x(lam)
    if status == "stalled":
        status = "infeasible" if _inf_norm(viol) > tol else "max_iter"
    diag = SolveDiagnostics(
        status=status,
        iterations=steps,
        kkt_residual=float(kkt),
        wall_time_s=time.perf_counter() - t0,
        qp_iterations=qp_its,
        clipped=clipped,
    )
    return x, diag


def check_jacobian(fn, x0, step: float = 1e-6) -> float:
    """Max relative error between an analytic Jacobian and central differences.

    ``fn(x) -> (values, jacobian)``; useful for validating constraint
    callbacks before handing them to the SQP.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    _, jac = fn(x0)
    jac = np.atleast_2d(np.asarray(jac, dtype=float))
    fd = np.zeros_like(jac)
    for j in range(x0.size):
        e = np.zeros_like(x0)
        e[j] = step
        f_plus, _ = fn(x0 + e)
        f_minus, _ = fn(x0 - e)
        fd[:, j] = (np.asarray(f_plus).ravel() - np.asarray(f_minus).ravel()) / (2 * step)
    scale = max(float(np.max(np.abs(jac))), 1e-8)
    return float(np.max(np.abs(fd - jac)) / scale)
