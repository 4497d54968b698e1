"""Goldfarb-Idnani dual active set for strictly convex QPs with a factored Hessian.

:func:`npvdeepc.optim.solve_qp` is one call of :func:`dual_active_set` on
a :class:`~npvdeepc.optim.QpProblem`, which carries the
:class:`~npvdeepc.optim.HessianFactor` of its Hessian; equality rows are
rows with equal limits (Goldfarb & Idnani, "A numerically stable dual
method for solving strictly convex quadratic programs", Math. Prog. 1983).
A solve may start from a given working set, such as the one the previous
SQP subproblem ended on (a hot start, as in Ferreau, Bock & Diehl, Int. J.
Robust Nonlinear Control 2008).  Adds and drops each count as an
iteration; a hot start counts as one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .optim import QpProblem

__all__ = ["dual_active_set"]


def dual_active_set(prob: QpProblem, tol: float, max_iter: int, start=None):
    """Goldfarb-Idnani dual active set on a factored, strictly convex QP.

    The rows are the bounds and then the general rows, stacked as
    ``A = [I; C]`` with limits ``lo <= A x <= hi``; a row is active on one
    side, as ``side * a_k'x >= side * limit``.  With H^-1 = J J', J starts as
    L^-T and is kept as J0 Q, where Q'L^-1 N = [T; 0] for the active normals
    N, so the step that adds a normal n is z = J2 J2'n and the multiplier
    change is T^-1 J1'n.  T^-1 is kept alongside T: an add borders it, a
    drop inverts the re-triangulated T.

    Rows with equal limits are equalities: they are added first, in index
    order, and never dropped.  A ``start`` working set, (row, side) pairs
    with side +1 for a lower and -1 for an upper limit, is then added at
    once: rows already held and rows with an infinite limit on their side
    are skipped, rows whose multiplier on the batch would be negative are
    dropped until none is, and a dependent batch (a repeated row, say) is
    refused, which leaves the cold start.  Either way the solve starts
    from a point optimal on its active rows with nonnegative multipliers,
    as the method allows.  Then each iteration adds the row whose
    violation, scaled by ``1 + |limit|``, is largest, taking the partial
    steps that drop an active row whose multiplier would turn negative.
    Adds and drops each count as an iteration; a hot start counts as one.
    A violated row that admits neither a primal nor a dual step makes the
    problem infeasible.

    Bound rows are snapped onto their limits and x is clipped into the
    bounds.  Returns ``(x, iterations, status, kkt_residual, row_mult,
    working_set)``.  The residual at that x for the active set and its
    multipliers is the worst of a row violation, the stationarity residual
    ``|Hx + g - N u|``, an active row off its limit and a negative
    multiplier on an active inequality; ``row_mult`` holds the general
    rows' multipliers, signed so that bound multipliers alone balance
    ``Hx + g + C'row_mult`` (negative at a lower limit, positive at an
    upper one, zero when inactive); ``working_set`` holds the final active
    rows as an int array of (row, side) pairs, equalities included.
    """
    n = prob.n
    a = np.eye(n) if prob.c is None else np.vstack([np.eye(n), prob.c])
    lo = prob.lb if prob.c is None else np.concatenate([prob.lb, prob.c_lo])
    hi = prob.ub if prob.c is None else np.concatenate([prob.ub, prob.c_hi])
    n_rows = lo.size
    # both sides as rows of  side * A x >= lim,  scaled by 1 / (1 + |limit|)
    lim = np.concatenate([lo, -hi])
    scale = 1.0 / (1.0 + np.where(np.isfinite(lim), np.abs(lim), 0.0))
    a_sides = np.vstack([a, -a])
    a_scaled = a_sides * scale[:, None]
    lim_scaled = lim * scale

    j_mat = prob.h_factor.inv_upper()
    x = -(j_mat @ (j_mat.T @ prob.g))
    tri = np.zeros((n, n))
    tri_inv = np.zeros((n, n))
    mult = np.zeros(n)
    is_eq = np.zeros(n, dtype=bool)
    rows, sides = [], []
    blocked = np.zeros(2 * n_rows, dtype=bool)  # both sides of every active row
    q = 0
    its = 0
    status = "optimal"

    def step_data(nv):
        # J'n, the multiplier change r = T^-1 J1'n and the primal step
        # z = J2 J2'n for the normal nv
        d = j_mat.T @ nv
        d2 = d[q:]
        return d, tri_inv[:q, :q] @ d[:q], j_mat[:, q:] @ d2, float(d2 @ d2), float(d @ d)

    def add(row, side, d, r, u_new, eq):
        nonlocal q
        # a Householder reflection on J2 turns J2'n into (alpha, 0, ..., 0)
        v = d[q:].copy()
        vv = float(v @ v)
        alpha = -np.copysign(np.sqrt(vv), v[0])
        vv -= 2.0 * alpha * v[0] - alpha * alpha
        v[0] -= alpha
        j2 = j_mat[:, q:]
        j2 -= (j2 @ v)[:, None] * (v * (2.0 / vv))
        tri[:q, q] = d[:q]
        tri[q, q] = alpha
        tri_inv[:q, q] = r / -alpha
        tri_inv[q, q] = 1.0 / alpha
        mult[q], is_eq[q] = u_new, eq
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
        is_eq[pos:q - 1] = is_eq[pos + 1:q]
        row = rows.pop(pos)
        sides.pop(pos)
        blocked[row] = blocked[row + n_rows] = False
        q -= 1

    def hot_start(start):
        # add the start rows at once after the q0 equalities: with D = J'N,
        # one QR of its trailing rows gives T = [T0, D1; 0, R], the
        # multipliers u = T^-1 (T^-T b + J1'g) of the minimizer on the active
        # rows, and that minimizer x = J1 T^-T b - J2 J2'g.  Rows with u < 0
        # are dropped and the rest factored again; a dependent batch is
        # refused.  J, T and x change only once every u is nonnegative.
        nonlocal q, x
        start = np.asarray(start, dtype=int)
        ks = start[:, 0] + (start[:, 1] < 0) * n_rows
        ks = ks[~blocked[ks] & np.isfinite(lim[ks])]
        q0 = q
        d = (a_sides[ks] @ j_mat).T  # J'N
        jg0 = j_mat.T @ prob.g
        while ks.size:
            p = ks.size
            qt = q0 + p
            if qt > n:
                return False
            q_b, r_b = np.linalg.qr(d[q0:], mode="complete")
            r_diag = r_b.diagonal()
            if (r_diag * r_diag <= 1e-20 * np.einsum("ij,ij->j", d, d)).any():
                return False
            if q0:
                t_new = np.zeros((qt, qt))
                t_new[:q0, :q0] = tri[:q0, :q0]
                t_new[:q0, q0:] = d[:q0]
                t_new[q0:, q0:] = r_b[:p]
                b = lim[rows[:q0] + ks.tolist()]
            else:
                t_new, b = r_b[:p], lim[ks]
            t_inv = np.linalg.inv(t_new)
            jg = np.concatenate([jg0[:q0], q_b.T @ jg0[q0:]])  # J'g with J's new trailing columns
            w = t_inv.T @ b
            u = t_inv @ (w + jg[:qt])
            keep = u[q0:] >= 0.0
            if keep.all():
                break
            ks, d = ks[keep], d[:, keep]
        else:
            return False
        j_mat[:, q0:] = j_mat[:, q0:] @ q_b
        tri[:qt, :qt] = t_new
        tri_inv[:qt, :qt] = t_inv
        mult[:qt] = u
        is_eq[q0:qt] = False
        lower = ks < n_rows
        row_b = ks - ~lower * n_rows
        rows.extend(row_b.tolist())
        sides.extend((2.0 * lower - 1.0).tolist())
        blocked[row_b] = blocked[row_b + n_rows] = True
        q = qt
        jg[:qt] = w  # x = J [T^-T b; -J2'g]
        jg[qt:] *= -1.0
        x = j_mat @ jg
        return True

    for row in (lo == hi).nonzero()[0]:
        d, r, z, zn, dn = step_data(a[row])
        s_p = float(a[row] @ x) - lo[row]
        if zn <= 1e-20 * dn:
            # dependent on the equalities already held: consistent or infeasible
            if abs(s_p) > tol * (1.0 + abs(lo[row])):
                status = "infeasible"
                break
            blocked[row] = blocked[row + n_rows] = True
            continue
        t = -s_p / zn
        x = x + t * z
        mult[:q] -= t * r
        add(row, 1.0, d, r, t, True)
        its += 1

    if start is not None and len(start) and status == "optimal" and hot_start(start):
        its += 1

    while status == "optimal":
        w = a_scaled @ x - lim_scaled
        w[blocked] = np.inf
        k = int(w.argmin())
        if w[k] >= -tol:
            break
        if its >= max_iter:
            status = "max_iter"
            break
        row, side = (k, 1.0) if k < n_rows else (k - n_rows, -1.0)
        nv = side * a[row]
        b_p = lim[k]
        u_p = 0.0
        while True:
            d, r, z, zn, dn = step_data(nv)
            # partial step: the first active inequality whose multiplier hits zero
            t1, pos = np.inf, -1
            if q:
                cand = ((r > 0.0) & ~is_eq[:q]).nonzero()[0]
                if cand.size:
                    ratios = mult[cand] / r[cand]
                    j = int(ratios.argmin())
                    t1, pos = max(float(ratios[j]), 0.0), int(cand[j])
            full = zn > 1e-20 * dn
            if not full and pos < 0:
                status = "infeasible"
                break
            t2 = (b_p - float(nv @ x)) / zn if full else np.inf
            t = min(t1, t2)
            if full:
                x = x + t * z
            if q:
                mult[:q] -= t * r
            u_p += t
            its += 1
            if t2 <= t1:
                add(row, side, d, r, u_p, False)
                break
            drop(pos)
            if its >= max_iter:
                status = "max_iter"
                break

    act = np.asarray(rows, dtype=int)
    act_side = np.asarray(sides, dtype=float)
    limit = np.where(act_side > 0, lo[act], hi[act])
    on_bound = act < n
    x[act[on_bound]] = limit[on_bound]
    x = np.minimum(np.maximum(x, prob.lb), prob.ub)  # np.clip without its overhead

    l_fac = prob.h_factor.lower()
    stat = l_fac @ (l_fac.T @ x) + prob.g - a[act].T @ (act_side * mult[:q])
    v = a @ x
    # array methods, not np.max: the same reductions without its dispatch
    viol = max(float((lo - v).max(initial=0.0)), float((v - hi).max(initial=0.0)))
    off = float(np.abs(v[act] - limit).max(initial=0.0))
    wrong_sign = float((-mult[:q][~is_eq[:q]]).max(initial=0.0))
    row_mult = np.zeros(n_rows - n)
    general = act >= n
    row_mult[act[general] - n] = -(act_side * mult[:q])[general]
    kkt = max(float(np.abs(stat).max(initial=0.0)), viol, off, wrong_sign)
    return x, its, status, kkt, row_mult, np.array((rows, sides), dtype=int).T
