"""Dense solvers sized for small receding-horizon problems.

Provides an SVD pseudo-inverse, one entry point for strictly convex QPs,
:func:`solve_qp`, and an SQP with an l1 merit and a box trust region for
the nonlinear programs the neural controllers generate.  ``solve_qp`` is a
Goldfarb-Idnani dual active set ("A numerically stable dual method for
solving strictly convex quadratic programs", Math. Prog. 1983) on a
problem that carries the :class:`HessianFactor` of its positive definite
Hessian.  It starts at the unconstrained minimizer, or from a given
working set (a hot start, as in Ferreau, Bock & Diehl, Int. J. Robust
Nonlinear Control 2008), and adds the most violated bound or general row
``lo <= C x <= hi`` until none is left; a row with equal limits is a
two-sided row like any other, with no phase of its own, so it holds as an
equality.  The linear controllers' condensed programs and the SQP
subproblems, with their rows ``c_lo <= c(x) <= c_hi``, are all of this
form.  The linear controllers start each QP cold; each SQP subproblem
after the first starts from the working set of the one before.  Every
solve returns its point and one :class:`SolveDiagnostics`.

A solve pays only for what changes and for its iterations.  A
:class:`QpProblem` builds its rows' side limits and scales once, as
vectors, and with general rows stacks their sides once; a program whose
rows stay fixed shares all of it and takes a new g, and new row limits,
through :meth:`QpProblem.with_g`, as a linear controller's program does
from step to step (the explicit-MPC view of Bemporad, Morari, Dua &
Pistikopoulos, Automatica 2002: the QP's data are affine in the step's
parameter, and only that part moves).  A bound row is never a vector:
its J'n is a row of J and its n'x an entry of x, in a box-only program
and beside general rows alike.  A solve that ends with no active row
skips the active-set terms of its KKT residual, which are all zero.

Everything is dense numpy; problem sizes stay in the hundreds.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field

import numpy as np

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
    """Outcome of a QP or SQP solve, and the solve part of a controller step.

    ``kkt_residual`` belongs to the returned point.  ``wall_time_s`` reaches
    only the ``*_timing.json`` files; every other field is deterministic.
    :func:`solve_qp` fills every field but ``clipped``, with ``qp_iterations``
    equal to ``iterations``.  :func:`solve_sqp` leaves ``row_multipliers``
    and ``working_set`` at None.  A controller step
    (:class:`~npvdeepc.control.StepResult`) carries its solve's fields as
    they are.
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
    ``g`` must be finite.  Row limits need rows: without ``c`` they must
    be None or empty.  Bounds and row limits may be infinite, but not
    NaN, and no lower limit may be +inf nor upper limit -inf: such a row
    admits no x.  A bound or row with equal limits is an ordinary two-sided
    row, so it holds as an equality.

    Construction also builds the side data :func:`solve_qp` reads, three
    vectors over the 2 (n + m) sides of the rows (bounds first, then the
    general rows; lower sides, then upper): ``lim``, each side's limit in
    ``side * a_k'x >= lim``; ``scale`` = 1 / (1 + |limit|), 1 on an infinite
    side; and ``lim_scaled`` = ``scale * lim``.  With general rows it stacks
    the sides' normals once, ``a_sides`` = [I; C; -I; -C]; without them
    there is no matrix, the rows being the bounds.  A program whose general
    rows stay fixed from one solve to the next takes a new g, and new row
    limits, through :meth:`with_g`.
    """

    h_factor: HessianFactor
    g: np.ndarray
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None
    c: np.ndarray | None = None
    c_lo: np.ndarray | None = None
    c_hi: np.ndarray | None = None
    lim: np.ndarray = field(init=False, repr=False)
    scale: np.ndarray = field(init=False, repr=False)
    lim_scaled: np.ndarray = field(init=False, repr=False)
    a_sides: np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        self.g = _finite_g(self.g)
        n = self.g.size
        if self.h_factor.n != n:
            raise ValueError(f"h_factor size {self.h_factor.n} does not match g length {n}")
        self.lb, self.ub = _limits(self.lb, self.ub, n, "bounds")
        if self.c is not None:
            self.c = np.atleast_2d(np.asarray(self.c, dtype=float))
            if self.c.shape[1] != n:
                raise ValueError(f"C shape {self.c.shape} does not match n={n}")
            self.c_lo, self.c_hi = _limits(self.c_lo, self.c_hi, self.c.shape[0], "row limits")
            a = np.vstack([np.eye(n), self.c])
            self.a_sides = np.vstack([a, -a])
        elif any(lim is not None and np.size(lim) for lim in (self.c_lo, self.c_hi)):
            raise ValueError("a program without general rows takes no row limits")
        self._side_data()

    def _side_data(self) -> None:
        """``lim``, ``scale`` and ``lim_scaled`` from the limits."""
        if self.c is None:
            self.lim = np.concatenate([self.lb, -self.ub])
        else:
            self.lim = np.concatenate([self.lb, self.c_lo, -self.ub, -self.c_hi])
        self.scale = 1.0 / (1.0 + np.where(np.isfinite(self.lim), np.abs(self.lim), 0.0))
        self.lim_scaled = self.lim * self.scale

    @property
    def n(self) -> int:
        return self.g.size

    def with_g(self, g, c_lo=None, c_hi=None) -> QpProblem:
        """This program with the linear term ``g`` and, if given, new row limits.

        Only what is given is checked: ``g``, and ``c_lo`` and ``c_hi`` as
        at construction (against the limits kept where only one is given).
        New row limits rebuild ``lim``, ``scale`` and ``lim_scaled``.  Every
        other array, the factor, C, the bounds and the stacked sides
        included, is shared with this program rather than copied or checked
        again, so neither program may be written into.
        """
        prob = copy.copy(self)
        prob.g = _finite_g(g, self.n)
        if c_lo is not None or c_hi is not None:
            if self.c is None:
                raise ValueError("a program without general rows takes no row limits")
            prob.c_lo, prob.c_hi = _limits(
                self.c_lo if c_lo is None else c_lo, self.c_hi if c_hi is None else c_hi,
                self.c.shape[0], "row limits",
            )
            prob._side_data()
        return prob


def _finite_g(g, n: int | None = None) -> np.ndarray:
    """``g`` as a flat float vector; raises ValueError when it is not finite or not n long."""
    g = np.asarray(g, dtype=float).ravel()
    if n is not None and g.size != n:
        raise ValueError(f"g has {g.size} entries, the program {n} variables")
    if not np.isfinite(g).all():
        raise ValueError("g must be finite")
    return g


def _limits(lo, hi, m: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """``lo`` and ``hi`` as flat float vectors of length m, None being -inf and +inf.

    Raises ValueError on a wrong length, a NaN, ``lo > hi``, and a lower
    limit of +inf or an upper limit of -inf, which no point meets though
    ``lo <= hi`` holds.  One test covers every case, since ``lo <= hi`` is
    False at a NaN; a failure is then named.
    """
    lo = np.full(m, -np.inf) if lo is None else np.asarray(lo, dtype=float).ravel()
    hi = np.full(m, np.inf) if hi is None else np.asarray(hi, dtype=float).ravel()
    if lo.size != m or hi.size != m:
        raise ValueError(f"{what} have lengths ({lo.size}, {hi.size}), not {m}")
    if not ((lo <= hi).all() and lo.max(initial=-np.inf) < np.inf and hi.min(initial=np.inf) > -np.inf):
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise ValueError(f"{what} must not be NaN")
        if (lo > hi).any():
            raise ValueError(f"{what} must satisfy lower <= upper")
        raise ValueError(f"{what}: a lower limit of +inf or an upper limit of -inf admits no point")
    return lo, hi


class HessianFactor:
    """The Cholesky factor ``l`` = L of a positive definite H (H = L L') and ``j0`` = L^-T.

    :func:`solve_qp` steps with a copy of L^-T and evaluates its
    stationarity residual with L; neither array is written after
    construction, so a controller reuses one factor for every step.  Raises
    :class:`IndefiniteHessianError` when H is not positive definite, or when
    its smallest squared pivot is below 1e-12 times its largest diagonal
    entry: a nearly singular Hessian has no factor.
    """

    __slots__ = ("l", "j0")

    def __init__(self, h: np.ndarray):
        h = np.asarray(h, dtype=float)
        try:
            self.l = np.linalg.cholesky(h)
        except np.linalg.LinAlgError:
            raise IndefiniteHessianError("H is not positive definite")
        diag = self.l.diagonal()
        if diag.min(initial=np.inf) ** 2 <= 1e-12 * h.diagonal().max(initial=0.0):
            raise IndefiniteHessianError("H is positive definite only within rounding")
        # L^-T is upper triangular: keep the strict upper triangle of inv(L)',
        # whose other entries are zero only up to rounding, and put the exact
        # reciprocals of diag L on its diagonal
        self.j0 = np.triu(np.linalg.inv(self.l).T, 1)
        self.j0.flat[::diag.size + 1] = 1.0 / diag

    @property
    def n(self) -> int:
        return self.l.shape[0]


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
    """Goldfarb-Idnani dual active set on a factored, strictly convex QP.

    The rows are the bounds and then the general rows, stacked as
    ``A = [I; C]`` with limits ``lo <= A x <= hi``; a row is active on one
    side, as ``side * a_k'x >= side * limit``.  The solve reads the side
    data of ``prob`` and, with general rows, its stacked sides ``a_sides``,
    which it only scales.  A program without general rows has no A: bound
    row k is the unit vector e_k, and its sides' scaled values are
    ``scale * (+-x)``.  Wherever it is, a bound row's J'n is row k of J,
    negated on the upper side, and its n'x is ``+-x[k]``; a zero of that
    row is taken as +0.0, as the product J'n gives it, so the Householder
    sign of an add is the same either way.  With H^-1 = J J', J starts as
    L^-T and is kept as J0 Q, where Q'L^-1 N = [T; 0] for the active
    normals N, so the step that adds a normal n is z = J2 J2'n and the
    multiplier change is T^-1 J1'n.  T^-1 is kept alongside T: an add borders it, a
    drop inverts the re-triangulated T.

    A row with equal limits has no phase of its own: its two sides are
    rows like any other, and at most one side of a row is active.  A
    ``start`` working set, (row, side) pairs with side +1 for a lower and
    -1 for an upper limit such as an earlier solve's ``working_set`` on
    rows of the same layout, is added at once: sides with an infinite
    limit are skipped, rows whose multiplier on the batch would be negative
    are dropped until none is, and a dependent batch (a repeated row, or
    both sides of one row) is refused, which leaves the cold start.  Either
    way the solve starts from a point optimal on its active rows with
    nonnegative multipliers, as the method allows.  Then each iteration
    adds the row whose violation, scaled by ``1 + |limit|``, is largest,
    taking the partial steps that drop an active row whose multiplier would
    turn negative.  Adds and drops each count as an iteration; a hot start
    counts as one.  A violated row that admits neither a primal nor a dual
    step makes the problem infeasible.

    Bound rows are snapped onto their limits and x is clipped into the
    bounds, so bounds hold exactly at the returned point.  Returns x and its
    :class:`SolveDiagnostics`.  The KKT residual at that x for the active set
    and its multipliers is the worst of a row violation, the stationarity
    residual ``|Hx + g - N u|``, an active row off its limit and a negative
    multiplier on an active row.  ``row_multipliers`` holds the general
    rows' multipliers (empty without general rows), signed so that bound
    multipliers alone balance ``Hx + g + C'row_multipliers`` (negative at a
    lower limit, positive at an upper one, zero when inactive);
    ``working_set`` holds the final active rows as an int array of
    (row, side) pairs.
    """
    t0 = time.perf_counter()
    n = prob.n
    # both sides as rows of  side * A x >= lim,  scaled by 1 / (1 + |limit|);
    # without general rows the rows are the bounds, A = I, and a side's
    # scaled value is scale * (+-x)
    lim, scale, lim_scaled = prob.lim, prob.scale, prob.lim_scaled
    a_sides = prob.a_sides
    n_rows = lim.size // 2
    if a_sides is None:
        a = None
    else:
        a = a_sides[:n_rows]
        a_scaled = a_sides * scale[:, None]

    j_mat = prob.h_factor.j0.copy()
    x = -(j_mat @ (j_mat.T @ prob.g))
    tri = np.zeros((n, n))
    tri_inv = np.zeros((n, n))
    mult = np.zeros(n)
    rows, sides = [], []
    blocked = np.zeros(2 * n_rows, dtype=bool)  # both sides of every active row
    q = 0
    its = 0
    status = "optimal"

    def step_data(d):
        # the multiplier change r = T^-1 J1'n and the primal step z = J2 J2'n
        # for the normal n with J'n = d
        d2 = d[q:]
        return tri_inv[:q, :q] @ d[:q], j_mat[:, q:] @ d2, float(d2 @ d2), float(d @ d)

    def add(row, side, d, r, u_new, vv):
        nonlocal q
        # a Householder reflection on J2 turns J2'n into (alpha, 0, ..., 0);
        # vv = |J2'n|^2, step_data's zn
        v = d[q:].copy()
        v0 = float(v[0])
        alpha = -math.copysign(math.sqrt(vv), v0)
        vv -= 2.0 * alpha * v0 - alpha * alpha
        v[0] = v0 - alpha
        j2 = j_mat[:, q:]
        j2 -= (j2 @ v)[:, None] * (v * (2.0 / vv))
        tri[:q, q] = d[:q]
        tri[q, q] = alpha
        tri_inv[:q, q] = r / -alpha
        tri_inv[q, q] = 1.0 / alpha
        mult[q] = u_new
        rows.append(row)
        sides.append(side)
        blocked[row] = blocked[row + n_rows] = True
        q += 1

    def drop(pos):
        nonlocal q
        # delete column pos of T and restore the triangle on its trailing rows
        tri[:q, pos:q - 1] = tri[:q, pos + 1:q]
        tri[:q, q - 1] = 0.0
        if pos < q - 1:
            q_s, r_s = np.linalg.qr(tri[pos:q, pos:q - 1], mode="complete")
            tri[pos:q, pos:q - 1] = r_s
            j_mat[:, pos:q] = j_mat[:, pos:q] @ q_s
            tri_inv[:q - 1, :q - 1] = np.linalg.inv(tri[:q - 1, :q - 1])
        mult[pos:q - 1] = mult[pos + 1:q]
        row = rows.pop(pos)
        sides.pop(pos)
        blocked[row] = blocked[row + n_rows] = False
        q -= 1

    def hot_start(start):
        # add the start rows at once: with D = J'N, one QR gives D = Q_b [T; 0],
        # the multipliers u = T^-1 (T^-T b + J1'g) of the minimizer on the
        # rows, and that minimizer x = J1 T^-T b - J2 J2'g.  Rows with u < 0
        # are dropped and the rest factored again; a dependent batch is
        # refused.  J, T and x change only once every u is nonnegative.
        nonlocal q, x
        start = np.asarray(start, dtype=int)
        ks = start[:, 0] + (start[:, 1] < 0) * n_rows
        ks = ks[np.isfinite(lim[ks])]
        if a_sides is None:
            # J'N of bound sides: J's rows, negated on upper sides (ks >= n);
            # + 0.0 and 0.0 - give a zero the +0.0 of the product J'N
            j_rows = j_mat[ks % n]
            d = np.where((ks < n)[:, None], j_rows + 0.0, 0.0 - j_rows).T
        else:
            d = (a_sides[ks] @ j_mat).T  # J'N
        jg0 = j_mat.T @ prob.g
        while ks.size:
            p = ks.size
            if p > n:
                return False
            q_b, r_b = np.linalg.qr(d, mode="complete")
            t_new = r_b[:p]
            r_diag = t_new.diagonal()
            if (r_diag * r_diag <= 1e-20 * np.einsum("ij,ij->j", d, d)).any():
                return False
            t_inv = np.linalg.inv(t_new)
            jg = q_b.T @ jg0  # J'g with J's new columns
            w = t_inv.T @ lim[ks]
            u = t_inv @ (w + jg[:p])
            keep = u >= 0.0
            if keep.all():
                break
            ks, d = ks[keep], d[:, keep]
        else:
            return False
        j_mat[:] = j_mat @ q_b
        tri[:p, :p] = t_new
        tri_inv[:p, :p] = t_inv
        mult[:p] = u
        lower = ks < n_rows
        row_b = ks - ~lower * n_rows
        rows.extend(row_b.tolist())
        sides.extend((2.0 * lower - 1.0).tolist())
        blocked[row_b] = blocked[row_b + n_rows] = True
        q = p
        jg[:p] = w  # x = J [T^-T b; -J2'g]
        jg[p:] *= -1.0
        x = j_mat @ jg
        return True

    if start is not None and len(start) and hot_start(start):
        its += 1

    while status == "optimal":
        w = scale * np.concatenate([x, -x]) - lim_scaled if a is None else a_scaled @ x - lim_scaled
        w[blocked] = np.inf
        k = int(w.argmin())
        if w[k] >= -tol:
            break
        if its >= max_iter:
            status = "max_iter"
            break
        row, side = (k, 1.0) if k < n_rows else (k - n_rows, -1.0)
        nv = None if row < n else a_sides[k]
        b_p = float(lim[k])
        u_p = 0.0
        while True:
            if nv is None:
                # a bound's normal is +-e_row: J'n is a row of J and n'x an
                # entry of x.  + 0.0 and 0.0 - give a zero of J'n the +0.0 of
                # the product J'n, as the Householder sign in add reads it
                d = j_mat[row] + 0.0 if side > 0 else 0.0 - j_mat[row]
                nx = side * float(x[row])
            else:
                d = j_mat.T @ nv
                nx = float(nv @ x)
            r, z, zn, dn = step_data(d)
            # partial step: the first active row whose multiplier hits zero
            t1, pos = np.inf, -1
            if q:
                cand = (r > 0.0).nonzero()[0]
                if cand.size:
                    ratios = mult[cand] / r[cand]
                    j = int(ratios.argmin())
                    t1, pos = max(float(ratios[j]), 0.0), int(cand[j])
            full = zn > 1e-20 * dn
            if not full and pos < 0:
                status = "infeasible"
                break
            t2 = (b_p - nx) / zn if full else np.inf
            t = min(t1, t2)
            if full:
                x = x + t * z
            if q:
                mult[:q] -= t * r
            u_p += t
            its += 1
            if t2 <= t1:
                add(row, side, d, r, u_p, zn)
                break
            drop(pos)
            if its >= max_iter:
                status = "max_iter"
                break

    # the finish: with no active row, the active-set terms below are all zero
    lo, hi = lim[:n_rows], -lim[n_rows:]
    if q:
        act = np.asarray(rows, dtype=int)
        act_side = np.asarray(sides, dtype=float)
        limit = np.where(act_side > 0, lo[act], hi[act])
        on_bound = act < n
        x[act[on_bound]] = limit[on_bound]
    x = np.minimum(np.maximum(x, prob.lb), prob.ub)  # np.clip without its overhead

    l_fac = prob.h_factor.l
    stat = l_fac @ (l_fac.T @ x) + prob.g
    v = x if a is None else a @ x
    # array methods, not np.max: the same reductions without its dispatch
    viol = max(float((lo - v).max(initial=0.0)), float((v - hi).max(initial=0.0)))
    off = wrong_sign = 0.0
    row_mult = np.zeros(n_rows - n)
    if q:
        signed = act_side * mult[:q]
        if a is None:
            n_u = np.zeros(n)  # N u, the bounds' normals being unit vectors
            n_u[act] = signed
            stat -= n_u
        else:
            stat -= a[act].T @ signed
        off = float(np.abs(v[act] - limit).max())
        wrong_sign = float((-mult[:q]).max())
        general = act >= n
        row_mult[act[general] - n] = -signed[general]
    kkt = max(float(np.abs(stat).max(initial=0.0)), viol, off, wrong_sign)
    diag = SolveDiagnostics(
        status=status, iterations=its, kkt_residual=kkt, wall_time_s=time.perf_counter() - t0,
        row_multipliers=row_mult, working_set=np.array((rows, sides), dtype=int).T, qp_iterations=its,
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
        lag_hess_fn: (x, lam, hess, jac) -> curvature term C, an array
            added to the subproblem Hessian; only the function itself may
            be None, for no curvature term.  ``lam`` holds the
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
    rows with ``c_lo == c_hi``; the QP treats them as two-sided rows, with
    no phase of their own.  The merit and the KKT residual measure the
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
        lam = qdiag.row_multipliers

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
