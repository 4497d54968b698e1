"""Dense solvers sized for small receding-horizon problems.

Provides an SVD pseudo-inverse, one entry point for convex QPs,
:func:`solve_qp`, and a Gauss-Newton SQP with an l1 merit line search for
the nonlinear programs the neural controllers generate.  ``solve_qp`` has
two paths and picks one from the problem it is given:

* a dual active-set solve (Goldfarb & Idnani, Math. Prog. 1983) when the
  problem carries a Cholesky factor of its positive definite Hessian and
  has no equality rows.  It starts at the unconstrained minimizer and adds
  the most violated bound or general row ``lo <= C x <= hi`` until none is
  left; the linear controllers' condensed programs take this path;
* a primal active-set solve from a bound-feasible start otherwise, for
  problems with equality rows (the SQP subproblems) or only a semidefinite
  Hessian.

Everything is dense numpy; problem sizes stay in the hundreds.
"""

from __future__ import annotations

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

KKT_DAMPING = 1e-10  # diagonal damping for marginally rank-deficient KKT systems


class SolverError(RuntimeError):
    """A solve failed in a way the caller cannot ignore."""


class IndefiniteHessianError(SolverError):
    """The quadratic cost matrix is indefinite beyond tolerance."""


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
    eq_multipliers: np.ndarray | None = None

    def __post_init__(self):
        if self.kkt_residual < 0:
            raise ValueError("kkt_residual must be nonnegative")


@dataclass
class QpProblem:
    """min 0.5 x'Hx + g'x  s.t.  A_eq x = b_eq,  lb <= x <= ub,  c_lo <= C x <= c_hi.

    H must be symmetric positive semidefinite; bounds and row limits may be
    +-inf, and a bound or row with equal limits is an equality.  A problem
    that carries the :class:`HessianFactor` of a positive definite H and has
    no equality rows is solved by the dual path of :func:`solve_qp`, which
    reads only the factor, so ``h`` may then be None.  General rows ``C``
    need that path.
    """

    h: np.ndarray | None
    g: np.ndarray
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None
    validate: bool = True
    c: np.ndarray | None = None
    c_lo: np.ndarray | None = None
    c_hi: np.ndarray | None = None
    h_factor: HessianFactor | None = None

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=float).ravel()
        n = self.g.size
        if (self.a_eq is None) != (self.b_eq is None):
            raise ValueError("a_eq and b_eq must be given together")
        if self.a_eq is not None:
            self.a_eq = np.atleast_2d(np.asarray(self.a_eq, dtype=float))
            self.b_eq = np.asarray(self.b_eq, dtype=float).ravel()
            if self.a_eq.shape != (self.b_eq.size, n):
                raise ValueError(
                    f"A_eq shape {self.a_eq.shape} incompatible with n={n}, m={self.b_eq.size}"
                )
        self.lb = np.full(n, -np.inf) if self.lb is None else np.asarray(self.lb, dtype=float).ravel()
        self.ub = np.full(n, np.inf) if self.ub is None else np.asarray(self.ub, dtype=float).ravel()
        if self.lb.size != n or self.ub.size != n:
            raise ValueError("bound lengths do not match the variable count")
        if np.any(self.lb > self.ub):
            raise ValueError("bounds must satisfy lb <= ub")
        if self.c is not None:
            self.c = np.atleast_2d(np.asarray(self.c, dtype=float))
            m = self.c.shape[0]
            self.c_lo = np.full(m, -np.inf) if self.c_lo is None else np.asarray(self.c_lo, dtype=float).ravel()
            self.c_hi = np.full(m, np.inf) if self.c_hi is None else np.asarray(self.c_hi, dtype=float).ravel()
            if self.c.shape[1] != n or self.c_lo.size != m or self.c_hi.size != m:
                raise ValueError(f"C shape {self.c.shape} or its limits do not match n={n}")
            if np.any(self.c_lo > self.c_hi):
                raise ValueError("row limits must satisfy c_lo <= c_hi")
            if not self.dual:
                raise ValueError("general rows need h_factor and no equality rows")
        if self.h_factor is not None and self.h_factor.n != n:
            raise ValueError(f"h_factor size {self.h_factor.n} does not match g length {n}")
        if self.h is None:
            if not self.dual:
                raise ValueError("H is required unless h_factor is given and there are no equality rows")
            return
        self.h = np.atleast_2d(np.asarray(self.h, dtype=float))
        if self.h.shape != (n, n):
            raise ValueError(f"H shape {self.h.shape} does not match g length {n}")
        if self.validate:
            scale = max(1.0, float(np.max(np.abs(self.h))) if self.h.size else 1.0)
            if float(np.max(np.abs(self.h - self.h.T))) > 1e-12 * scale:
                raise ValueError("H is not symmetric within tolerance")
            try:
                np.linalg.cholesky(self.h + 1e-8 * scale * np.eye(n))
            except np.linalg.LinAlgError:
                raise IndefiniteHessianError("H is indefinite beyond tolerance")
        self.h = 0.5 * (self.h + self.h.T)

    @property
    def n(self) -> int:
        return self.g.size

    @property
    def m_eq(self) -> int:
        return 0 if self.a_eq is None else self.a_eq.shape[0]

    @property
    def dual(self) -> bool:
        """Whether :func:`solve_qp` takes the dual path: a Hessian factor and no equality rows."""
        return self.h_factor is not None and not self.m_eq


class HessianFactor:
    """The Cholesky factor L of a positive definite H (H = L L') and L^-T, in one array.

    The dual path of :func:`solve_qp` steps with L^-T and evaluates its
    stationarity residual with L.  ``packed`` holds L in its lower triangle
    and the strict upper triangle of L^-T (whose diagonal is 1 / diag L)
    above it, so a controller keeps one n x n array for both.  Raises
    :class:`IndefiniteHessianError` when H is not positive definite, or when
    its smallest squared pivot is below 1e-12 times its largest diagonal
    entry, so a nearly singular Hessian stays on the primal path.
    """

    __slots__ = ("packed",)

    def __init__(self, h: np.ndarray):
        h = np.asarray(h, dtype=float)
        try:
            l_fac = np.linalg.cholesky(h)
        except np.linalg.LinAlgError:
            raise IndefiniteHessianError("H is not positive definite")
        if np.min(np.diag(l_fac), initial=np.inf) ** 2 <= 1e-12 * np.max(np.diag(h), initial=0.0):
            raise IndefiniteHessianError("H is positive definite only within rounding")
        self.packed = np.tril(l_fac) + np.triu(np.linalg.inv(l_fac).T, 1)

    @property
    def n(self) -> int:
        return self.packed.shape[0]

    def lower(self) -> np.ndarray:
        """L."""
        return np.tril(self.packed)

    def inv_upper(self) -> np.ndarray:
        """A fresh copy of L^-T."""
        j = np.triu(self.packed, 1)
        j.flat[::self.n + 1] = 1.0 / np.diagonal(self.packed)
        return j


def _inf_norm(v) -> float:
    """Infinity norm of a vector, 0.0 when empty.

    Equals ``np.linalg.norm(v, np.inf)`` bit for bit without its dispatch,
    which dominates on the short vectors of these loops.
    """
    return float(np.abs(v).max(initial=0.0))


def _kkt_solve(h_ff, grad_f, a_f, r_eq):
    """Solve the equality-constrained step on the free variables.

    Falls back to a minimum-norm least-squares solve when the KKT matrix is
    singular (redundant equality rows from pseudo-inverse-based data).
    Returns the step, the equality multipliers and whether the direct solve
    passed its residual test (False after the least-squares fallback).
    """
    nf = grad_f.size
    m = 0 if a_f is None else a_f.shape[0]
    kkt = np.zeros((nf + m, nf + m))
    kkt[:nf, :nf] = h_ff + KKT_DAMPING * np.eye(nf)
    rhs = np.concatenate([-grad_f, r_eq]) if m else -grad_f
    if m:
        kkt[:nf, nf:] = a_f.T
        kkt[nf:, :nf] = a_f
    try:
        sol = np.linalg.solve(kkt, rhs)
        if not np.all(np.isfinite(sol)) or (
            _inf_norm(kkt @ sol - rhs) > 1e-8 * (1.0 + _inf_norm(rhs))
        ):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        return sol[:nf], sol[nf:], False
    return sol[:nf], sol[nf:], True


def _active_set(h, g, a_eq, b_eq, lb, ub, x, tol, max_iter, phase1_rows=None):
    """Primal active-set iteration from a bound-feasible point.

    The working set is one integer per variable, ``side``: -1 holds the
    variable at its lower bound, +1 at its upper bound, 0 leaves it free.
    Variables with ``lb == ub`` are pinned and never released.  Ties in the
    multiplier and ratio tests go to the lowest index.  The equality
    residual enters the KKT right-hand side each iteration, so mild initial
    equality infeasibility is repaired along the way.

    An unblocked step lands on the minimizer over the unchanged working set,
    where the KKT system has the solution ``(0, lam)``.  So after such a step,
    if its direct solve passed the residual test and the equality residual is
    within tolerance, the next iteration skips the KKT solve and goes straight
    to the multiplier test with the previous ``lam`` (it still counts as an
    iteration).  Phase 1 never reuses a solve.

    ``phase1_rows = (A, b)`` marks a phase-1 solve of ``0.5 |Ax - b|^2``: it
    returns as soon as ``|Ax - b|_inf`` is within the feasibility tolerance.
    Its Hessian ``A'A`` is singular, so past that point the damped KKT solves
    only turn rounding into null-space steps until the iteration cap.
    """
    n = x.size
    m = 0 if a_eq is None else a_eq.shape[0]
    pinned = lb == ub
    x[pinned] = lb[pinned]
    # seed the working set with the bounds active at the start point
    side = np.where(x == lb, -1, np.where(x == ub, 1, 0))
    lam = np.zeros(m)
    feas_tol = tol * (1.0 + (_inf_norm(b_eq) if m else 0.0))
    if phase1_rows is not None:
        a1, b1 = phase1_rows
        feas1 = tol * (1.0 + _inf_norm(b1))
    reuse = False  # the last iteration took an unblocked step from an exact solve

    for it in range(1, max_iter + 1):
        free = np.flatnonzero(side == 0)
        grad = h @ x + g
        r_eq = b_eq - a_eq @ x if m else np.zeros(0)
        p = np.zeros(n)
        exact = False
        if reuse and (not m or _inf_norm(r_eq) <= feas_tol):
            pass  # p = 0 and the previous lam solve this KKT system
        elif free.size:
            a_f = a_eq[:, free] if m else None
            p_f, lam, exact = _kkt_solve(h[np.ix_(free, free)], grad[free], a_f, r_eq)
            p[free] = p_f
        elif m:
            lam, *_ = np.linalg.lstsq(a_eq.T, -grad, rcond=None)
        reuse = False

        step_small = _inf_norm(p) <= tol * (1.0 + _inf_norm(x))
        if step_small and (not m or _inf_norm(r_eq) <= feas_tol):
            # candidate optimum: check bound multipliers
            r = grad + (a_eq.T @ lam if m else 0.0)
            mult = np.where(pinned, 0.0, -side * r)  # 0 on free and pinned variables
            if not np.any(mult < -tol):
                return x, lam, it, "optimal"
            side[np.argmin(mult)] = 0
            continue

        # ratio test against the bound each moving variable heads for; p is
        # zero on the working set and infinite bounds give infinite ratios
        moving = np.flatnonzero(np.abs(p) > 1e-14)
        ratio = (np.where(p[moving] > 0, ub[moving], lb[moving]) - x[moving]) / p[moving]
        if np.any(ratio < 1.0):
            j = np.argmin(ratio)
            k = moving[j]
            x = np.clip(x + max(ratio[j], 0.0) * p, lb, ub)
            side[k] = 1 if p[k] > 0 else -1
            x[k] = ub[k] if p[k] > 0 else lb[k]
        else:
            x = np.clip(x + p, lb, ub)
            reuse = exact and phase1_rows is None
        if phase1_rows is not None and _inf_norm(a1 @ x - b1) <= feas1:
            return x, lam, it, "optimal"

    return x, lam, max_iter, "max_iter"


def _restore_equalities(
    prob: QpProblem, x: np.ndarray, tol: float, max_iter: int
) -> tuple[np.ndarray, int]:
    """Bound-feasible point minimizing the equality residual (phase 1).

    Returns the point and the active-set iterations spent on it (0 when the
    minimum-norm correction already stays inside the bounds).
    """
    a, b = prob.a_eq, prob.b_eq
    # quick path: minimum-norm correction, valid if it stays inside the bounds
    corr = pinv(a) @ (b - a @ x)
    quick = x + corr
    if np.all(quick >= prob.lb - 1e-12) and np.all(quick <= prob.ub + 1e-12):
        return np.clip(quick, prob.lb, prob.ub), 0
    h1 = a.T @ a
    g1 = -a.T @ b
    x1, _, its, _ = _active_set(
        h1, g1, None, None, prob.lb, prob.ub, x.copy(), tol, max_iter, phase1_rows=(a, b)
    )
    return x1, its


def _min_norm_step(jac, c, cols) -> np.ndarray:
    """Minimum-norm d with ``c + jac d = 0``, moving only the ``cols`` coordinates.

    Solves the normal equations ``J_I J_I' w = -c`` and returns ``d_I = J_I' w``
    with zeros elsewhere.  A singular or inaccurate solve (redundant rows, or
    fewer free coordinates than rows) falls back to least squares.
    """
    j_i = jac[:, cols]
    d = np.zeros(jac.shape[1])
    try:
        gram = j_i @ j_i.T
        w = np.linalg.solve(gram, -c)
        if not np.all(np.isfinite(w)) or (
            _inf_norm(gram @ w + c) > 1e-8 * (1.0 + _inf_norm(c))
        ):
            raise np.linalg.LinAlgError
        d[cols] = j_i.T @ w
    except np.linalg.LinAlgError:
        d[cols], *_ = np.linalg.lstsq(j_i, -c, rcond=None)
    return d


def _stationarity(r, x, lb, ub) -> float:
    """Worst violation of stationarity for the Lagrangian gradient ``r``.

    A variable at its lower bound may keep a positive gradient, one at its
    upper bound a negative one; a free variable needs a zero gradient.
    """
    tol_bnd = 1e-10 * (1.0 + _inf_norm(x))
    at_lo = x <= lb + tol_bnd
    at_hi = ~at_lo & (x >= ub - tol_bnd)
    viol = np.where(at_lo, np.maximum(-r, 0.0), np.where(at_hi, np.maximum(r, 0.0), np.abs(r)))
    return float(np.max(viol, initial=0.0))


def _qp_kkt_residual(prob: QpProblem, x, lam) -> float:
    r = prob.h @ x + prob.g + (prob.a_eq.T @ lam if prob.m_eq else 0.0)
    res = _inf_norm(prob.a_eq @ x - prob.b_eq) if prob.m_eq else 0.0
    return max(res, _stationarity(r, x, prob.lb, prob.ub))


def solve_qp(
    prob: QpProblem,
    x0: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> tuple[np.ndarray, SolveDiagnostics]:
    """Active-set solve of a convex QP.

    A problem with ``h_factor`` and no equality rows (:attr:`QpProblem.dual`)
    takes the dual path, which starts at the unconstrained minimizer and
    ignores ``x0``; any other takes the primal path from ``x0`` (default:
    the box centre, or the finite bound).  Returns the minimizer and
    diagnostics with the KKT residual at that point; equality multipliers
    ride along for SQP consumption.  Bounds are honored exactly at the
    returned point.
    """
    t0 = time.perf_counter()
    if prob.dual:
        x, its, status, kkt = dual_active_set(prob, tol, max_iter)
        diag = SolveDiagnostics(
            status=status, iterations=its, kkt_residual=kkt, wall_time_s=time.perf_counter() - t0,
        )
        return x, diag
    n = prob.n
    if x0 is None:
        finite_lo = np.where(np.isfinite(prob.lb), prob.lb, 0.0)
        finite_hi = np.where(np.isfinite(prob.ub), prob.ub, 0.0)
        both = np.isfinite(prob.lb) & np.isfinite(prob.ub)
        x0 = np.where(
            both,
            0.5 * (finite_lo + finite_hi),
            np.where(np.isfinite(prob.lb), finite_lo, np.where(np.isfinite(prob.ub), finite_hi, 0.0)),
        )
    x = np.clip(np.asarray(x0, dtype=float).ravel().copy(), prob.lb, prob.ub)

    feas_tol = max(tol, 1e-8) * (1.0 + (_inf_norm(prob.b_eq) if prob.m_eq else 0.0))
    phase1_its = 0
    if prob.m_eq and _inf_norm(prob.a_eq @ x - prob.b_eq) > feas_tol:
        x, phase1_its = _restore_equalities(prob, x, tol, max_iter)
        if _inf_norm(prob.a_eq @ x - prob.b_eq) > max(1e-6, 1e3 * feas_tol):
            diag = SolveDiagnostics(
                status="infeasible",
                iterations=phase1_its,
                kkt_residual=_inf_norm(prob.a_eq @ x - prob.b_eq),
                wall_time_s=time.perf_counter() - t0,
            )
            return x, diag

    x, lam, its, status = _active_set(
        prob.h, prob.g, prob.a_eq, prob.b_eq, prob.lb, prob.ub, x, tol, max_iter
    )
    lam = np.asarray(lam, dtype=float)
    diag = SolveDiagnostics(
        status=status,
        iterations=phase1_its + its,
        kkt_residual=_qp_kkt_residual(prob, x, lam),
        wall_time_s=time.perf_counter() - t0,
        eq_multipliers=lam if prob.m_eq else None,
    )
    return x, diag


def solve_sqp(
    cost_fn,
    eq_fn,
    lb,
    ub,
    x0,
    tol: float = 1e-6,
    max_iter: int = 50,
    qp_max_iter: int = 200,
    lag_hess_fn=None,
) -> tuple[np.ndarray, SolveDiagnostics]:
    """SQP with an l1 merit, ratio-managed box trust region and SOC steps.

    Args:
        cost_fn: x -> (f, grad, hess); hess must be symmetric PSD (exact for
            quadratic costs, Gauss-Newton otherwise).
        eq_fn: x -> (c, jac) equality constraints c(x) = 0 with analytic
            Jacobian; pass None when unconstrained.
        lb, ub: variable bounds (+-inf allowed).
        x0: start point, clipped into the bounds.
        lag_hess_fn: optional (x, lam, hess, jac) -> constraint-curvature
            term added to the QP Hessian, or None for none.  ``hess`` is the
            cost Hessian and ``jac`` the constraint Jacobian at ``x``, so the
            callback can test convexity on the null space of the linearized
            rows; that test is the callback's job.  The QP runs unvalidated,
            so the sum only has to be positive definite on that null space.
            Exact curvature there restores Newton-rate local convergence
            when the equality constraints are meaningfully nonlinear.

    Each QP subproblem starts on its linearized rows: at the minimum-norm
    correction of ``c + J d = 0`` over the coordinates strictly inside the
    trust box, zero elsewhere, so phase 1 runs only when that point leaves
    the box.  Every trial step gets a second-order correction (the same
    minimum-norm restoration over the coordinates the step left strictly
    inside their bounds), so the merit compares costs on the constraint
    manifold.  Returns the best iterate with the KKT residual at that
    point; exhaustion yields status ``max_iter``.
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
        if eq_fn is None:
            return np.zeros(0), np.zeros((0, xv.size))
        c, jac = eq_fn(xv)
        return np.asarray(c, dtype=float).ravel(), np.atleast_2d(np.asarray(jac, dtype=float))

    def _evaluate(xv):
        # cost, constraints and the l1 merit at the current penalty; a kept
        # trial's values become the next iterate's without re-evaluation
        fg = cost_fn(xv)
        cj = _eval_c(xv)
        return fg, cj, fg[0] + mu * float(np.sum(np.abs(cj[0])))

    def _kkt_at_x(lam_):
        # KKT residual at the current iterate for the multipliers lam_
        stat = _stationarity(grad + (jac.T @ lam_ if m else 0.0), x, lb, ub)
        return max(stat, _inf_norm(c))

    f, grad, hess = cost_fn(x)
    c, jac = _eval_c(x)
    m = c.size
    best_x, best_merit, best_kkt = x.copy(), np.inf, np.inf
    lam = np.zeros(m)

    for _ in range(max_iter):
        h_qp = hess
        if lag_hess_fn is not None and m:
            extra = lag_hess_fn(x, lam, hess, jac)
            if extra is not None:
                h_qp = hess + extra
        # linearized constraints may not fit inside the trust box; widen once
        for widen in (1.0, 16.0):
            radius *= widen
            qp = QpProblem(
                h=h_qp, g=grad, a_eq=jac if m else None, b_eq=-c if m else None,
                lb=np.maximum(lb - x, -radius), ub=np.minimum(ub - x, radius), validate=False,
            )
            d0 = _min_norm_step(jac, c, (qp.lb < 0.0) & (qp.ub > 0.0)) if m else np.zeros(x.size)
            d, qdiag = solve_qp(qp, x0=d0, tol=min(tol, 1e-8), max_iter=qp_max_iter)
            if qdiag.status != "infeasible":
                break
        else:
            status = "infeasible"
            break
        lam = qdiag.eq_multipliers if qdiag.eq_multipliers is not None else np.zeros(m)

        kkt = _kkt_at_x(lam)
        step_norm = _inf_norm(d)
        if kkt <= tol and step_norm <= tol * (1.0 + _inf_norm(x)):
            status = "optimal"
            break

        if m:
            mu = max(mu, 1.05 * _inf_norm(lam) + 1.0)
        c_l1 = float(np.sum(np.abs(c)))
        merit0 = f + mu * c_l1
        if merit0 < best_merit:
            best_x, best_merit, best_kkt = x.copy(), merit0, kkt
        # model reduction of the l1 merit; the QP drives c + J d to zero
        model_cost_change = float(grad @ d) + 0.5 * float(d @ (h_qp @ d))
        resid_after = float(np.sum(np.abs(c + jac @ d))) if m else 0.0
        pred_red = -model_cost_change + mu * (c_l1 - resid_after)
        if pred_red <= 1e-14 * (1.0 + abs(merit0)):
            if m and c_l1 > tol:
                # penalty too small to pay for the restoration step
                mu = 2.0 * max(model_cost_change, 0.0) / max(c_l1 - resid_after, 1e-12) + 2.0 * mu
                continue
            status = "optimal" if kkt <= 10 * tol else "max_iter"
            break

        trial = np.clip(x + d, lb, ub)
        fg_t, cj_t, merit_t = _evaluate(trial)
        if m:
            # second-order correction: land each trial back on the constraint
            # manifold, so the merit sees the cost change and not the
            # quadratic violation the linearized step leaves behind; bound-
            # active coordinates stay pinned so activity detection survives
            c_trial = cj_t[0]
            lo_gap = np.where(np.isfinite(lb), trial - lb, np.inf)
            hi_gap = np.where(np.isfinite(ub), ub - trial, np.inf)
            margin = 1e-9 * (1.0 + np.abs(trial))
            interior = (lo_gap > margin) & (hi_gap > margin)
            if np.all(np.isfinite(c_trial)) and np.any(interior):
                trial_soc = np.clip(trial + _min_norm_step(jac, c_trial, interior), lb, ub)
                fg_soc, cj_soc, merit_soc = _evaluate(trial_soc)
                if np.isfinite(merit_soc) and merit_soc <= merit_t:
                    trial, fg_t, cj_t, merit_t = trial_soc, fg_soc, cj_soc, merit_soc
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
                break

    if status != "optimal" and f + mu * float(np.sum(np.abs(c))) > best_merit:
        x, kkt = best_x, best_kkt
    elif kkt == np.inf:
        # no residual at x yet (an accepted last step, or no QP solved):
        # take it with the latest multipliers
        kkt = _kkt_at_x(lam)
    diag = SolveDiagnostics(
        status=status,
        iterations=steps,
        kkt_residual=float(kkt),
        wall_time_s=time.perf_counter() - t0,
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
