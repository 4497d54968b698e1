"""Goldfarb-Idnani dual active set for strictly convex QPs with a factored Hessian.

:func:`npvdeepc.optim.solve_qp` calls :func:`dual_active_set` for a
:class:`~npvdeepc.optim.QpProblem` that carries a
:class:`~npvdeepc.optim.HessianFactor` and has no equality rows
(Goldfarb & Idnani, "A numerically stable dual method for solving strictly
convex quadratic programs", Math. Prog. 1983).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .optim import QpProblem

__all__ = ["dual_active_set"]


def dual_active_set(prob: QpProblem, tol: float, max_iter: int):
    """Goldfarb-Idnani dual active set on a factored, strictly convex QP.

    The rows are the bounds and then the general rows, stacked as
    ``A = [I; C]`` with limits ``lo <= A x <= hi``; a row is active on one
    side, as ``side * a_k'x >= side * limit``.  With H^-1 = J J', J starts as
    L^-T and is kept as J0 Q, where Q'L^-1 N = [T; 0] for the active normals
    N, so the step that adds a normal n is z = J2 J2'n and the multiplier
    change is T^-1 J1'n.  T^-1 is kept alongside T: an add borders it, a
    drop inverts the re-triangulated T.

    Rows with equal limits are equalities: they are added first, in index
    order, and never dropped.  Then each iteration adds the row whose
    violation, scaled by ``1 + |limit|``, is largest, taking the partial
    steps that drop an active row whose multiplier would turn negative.
    Adds and drops each count as an iteration.  A violated row that admits
    neither a primal nor a dual step makes the problem infeasible.

    Bound rows are snapped onto their limits and x is clipped into the
    bounds.  Returns ``(x, iterations, status, kkt_residual)``, the residual
    at that x for the active set and its multipliers: the worst of a row
    violation, the stationarity residual ``|Hx + g - N u|``, an active row
    off its limit and a negative multiplier on an active inequality.
    """
    n = prob.n
    a = np.eye(n) if prob.c is None else np.vstack([np.eye(n), prob.c])
    lo = prob.lb if prob.c is None else np.concatenate([prob.lb, prob.c_lo])
    hi = prob.ub if prob.c is None else np.concatenate([prob.ub, prob.c_hi])
    n_rows = lo.size
    # both sides as rows of  side * A x >= lim,  scaled by 1 / (1 + |limit|)
    lim = np.concatenate([lo, -hi])
    scale = 1.0 / (1.0 + np.where(np.isfinite(lim), np.abs(lim), 0.0))
    a_scaled = np.vstack([a, -a]) * scale[:, None]
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
    x = np.clip(x, prob.lb, prob.ub)

    l_fac = prob.h_factor.lower()
    stat = l_fac @ (l_fac.T @ x) + prob.g - a[act].T @ (act_side * mult[:q])
    v = a @ x
    viol = max(float(np.max(lo - v, initial=0.0)), float(np.max(v - hi, initial=0.0)))
    off = float(np.abs(v[act] - limit).max(initial=0.0))
    wrong_sign = float(np.max(-mult[:q][~is_eq[:q]], initial=0.0))
    return x, its, status, max(float(np.abs(stat).max(initial=0.0)), viol, off, wrong_sign)
