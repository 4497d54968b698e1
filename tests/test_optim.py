import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import _kkt_certificate, _violation
from npvdeepc import optim
from npvdeepc.optim import (
    HessianFactor,
    IndefiniteHessianError,
    QpProblem,
    check_jacobian,
    pinv,
    solve_qp,
    solve_sqp,
)


class TestPinv:
    def test_identity(self):
        assert np.allclose(pinv(np.eye(4)), np.eye(4), atol=1e-14)

    def test_singular_diagonal(self):
        assert np.allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14)

    def test_penrose_identities_random(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            a = rng.standard_normal((8, 5))
            x = pinv(a)
            assert np.allclose(a @ x @ a, a, atol=1e-10)
            assert np.allclose(x @ a @ x, x, atol=1e-10)
            assert np.allclose((a @ x).T, a @ x, atol=1e-10)
            assert np.allclose((x @ a).T, x @ a, atol=1e-10)

    def test_rank_deficient_penrose(self):
        rng = np.random.default_rng(1)
        base = rng.standard_normal((8, 3))
        a = base @ rng.standard_normal((3, 5))  # rank 3
        x = pinv(a)
        assert np.allclose(a @ x @ a, a, atol=1e-10)


def _projected_gradient_oracle(h, g, lb, ub, iters=200000, tol=1e-10):
    """Slow but independent solver for bound-constrained convex QPs."""
    n = g.size
    x = np.clip(np.zeros(n), lb, ub)
    step = 1.0 / np.linalg.eigvalsh(h).max()
    for _ in range(iters):
        x_new = np.clip(x - step * (h @ x + g), lb, ub)
        if np.linalg.norm(x_new - x, np.inf) < tol:
            x = x_new
            break
        x = x_new
    return x


def _box_qp(h, g, lb, ub):
    """The bound-constrained QP with the factor of h."""
    return QpProblem(h_factor=HessianFactor(h), g=g, lb=lb, ub=ub)


def _eq_qp(h, g, c, b, lb=None, ub=None):
    """The QP with the equality rows C x = b, as general rows with equal limits."""
    return QpProblem(h_factor=HessianFactor(h), g=g, lb=lb, ub=ub, c=c, c_lo=b, c_hi=b)


class TestSolveQp:
    def test_unconstrained_closed_form(self):
        c = np.array([1.0, -2.0, 0.5])
        prob = QpProblem(h_factor=HessianFactor(np.eye(3)), g=-c)
        x, diag = solve_qp(prob)
        assert diag.status == "optimal"
        assert np.allclose(x, c, atol=1e-10)

    def test_active_lower_bound(self):
        # min x^2 s.t. x >= 1
        prob = _box_qp(np.array([[2.0]]), np.array([0.0]), np.array([1.0]), np.array([np.inf]))
        x, diag = solve_qp(prob)
        assert x[0] == 1.0
        assert diag.status == "optimal"

    def test_matches_projected_gradient_oracle(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((10, 10))
        h = m.T @ m + 0.5 * np.eye(10)
        g = rng.standard_normal(10)
        lb = np.full(10, -0.5)
        ub = np.full(10, 0.5)
        x_oracle = _projected_gradient_oracle(h, g, lb, ub)
        x, diag = solve_qp(_box_qp(h, g, lb, ub), tol=1e-10)
        assert diag.status == "optimal"
        assert np.allclose(x, x_oracle, atol=1e-7)
        assert diag.kkt_residual <= 1e-9

    def test_pinned_variables_stay_put(self):
        # variables 0 and 1 have lb == ub and gradients of opposite sign that
        # push them out of their bounds; they must never leave the active
        # set.  Each enters as an ordinary bound, one iteration each
        rng = np.random.default_rng(7)
        m = rng.standard_normal((5, 5))
        h = m.T @ m + np.eye(5)
        g = np.array([8.0, -8.0, 0.3, -4.0, 4.0])
        lb = np.array([0.2, -0.3, -1.0, -1.0, -1.0])
        ub = np.array([0.2, -0.3, 1.0, 1.0, 1.0])
        x, diag = solve_qp(_box_qp(h, g, lb, ub), tol=1e-10)
        grad = h @ x + g
        assert grad[0] > 0 and grad[1] < 0
        assert diag.status == "optimal"
        assert np.array_equal(x[:2], lb[:2])
        # the same QP with the pinned variables substituted out
        h_f, g_f = h[2:, 2:], g[2:] + h[2:, :2] @ lb[:2]
        x_f, diag_f = solve_qp(_box_qp(h_f, g_f, lb[2:], ub[2:]), tol=1e-10)
        assert np.allclose(x[2:], x_f, atol=1e-9)
        assert diag.iterations == diag_f.iterations + 2

    def test_equality_constrained(self):
        # min ||x||^2 s.t. x0 + x1 = 1 -> x = (0.5, 0.5)
        prob = _eq_qp(2 * np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]), np.array([1.0]))
        x, diag = solve_qp(prob)
        assert np.allclose(x, [0.5, 0.5], atol=1e-9)
        assert diag.kkt_residual < 1e-7

    def test_equality_with_binding_bound(self):
        # min ||x||^2 s.t. x0 + x1 = 1, x0 <= 0.2 -> x = (0.2, 0.8)
        prob = _eq_qp(
            2 * np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]), np.array([1.0]),
            lb=np.array([-np.inf, -np.inf]), ub=np.array([0.2, np.inf]),
        )
        x, diag = solve_qp(prob)
        assert np.allclose(x, [0.2, 0.8], atol=1e-9)

    def test_infeasible_equalities(self):
        # x = 0 and x = 1 cannot both hold
        prob = _eq_qp(np.eye(1), np.zeros(1), np.array([[1.0], [1.0]]), np.array([0.0, 1.0]))
        x, diag = solve_qp(prob)
        assert diag.status == "infeasible"

    def test_bounds_honored_exactly(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            m = rng.standard_normal((6, 6))
            h = m.T @ m + 0.1 * np.eye(6)
            g = 3 * rng.standard_normal(6)
            lb, ub = np.full(6, -0.3), np.full(6, 0.3)
            x, _ = solve_qp(_box_qp(h, g, lb, ub))
            assert np.all(x >= lb) and np.all(x <= ub)

    def test_redundant_equality_rows(self):
        # duplicated rows must not break the solve
        a = np.array([[1.0, 1.0], [2.0, 2.0]])
        b = np.array([1.0, 2.0])
        x, diag = solve_qp(_eq_qp(2 * np.eye(2), np.zeros(2), a, b))
        assert np.allclose(x, [0.5, 0.5], atol=1e-8)

    def test_indefinite_rejected(self):
        with pytest.raises(IndefiniteHessianError):
            QpProblem(h_factor=HessianFactor(np.diag([1.0, -1.0])), g=np.zeros(2))

    def test_non_finite_g_and_nan_limits_rejected(self):
        # lb > ub is False for NaN, so NaN limits need a check of their own;
        # infinite limits stay allowed
        factor, c = HessianFactor(np.eye(2)), np.ones((1, 2))
        for bad in ({"g": [np.nan, 0.0]}, {"g": [np.inf, 0.0]}, {"lb": [np.nan, 0.0]}, {"ub": [0.0, np.nan]},
                    {"c": c, "c_lo": [np.nan]}, {"c": c, "c_hi": [np.nan]}):
            with pytest.raises(ValueError, match="finite|NaN"):
                QpProblem(**{"h_factor": factor, "g": np.zeros(2), **bad})
        prob = QpProblem(h_factor=factor, g=np.zeros(2), lb=[-np.inf, 0.0], ub=[np.inf, np.inf],
                         c=c, c_lo=[-np.inf], c_hi=[1.0])
        with pytest.raises(ValueError, match="finite"):
            prob.with_g([0.0, -np.inf])
        with pytest.raises(ValueError, match="entries"):
            prob.with_g(np.zeros(3))

    def test_with_g_shares_the_fixed_part(self):
        # a program that changes only g solves as one built from scratch,
        # and shares every other array with the program it came from
        rng = np.random.default_rng(4)
        h, g, lb, ub, c, lo, hi = _row_qp(rng, 6, 4, pinned_rows=1)
        factor = HessianFactor(h)
        for rows in ({}, {"c": c, "c_lo": lo, "c_hi": hi}):
            prob = QpProblem(h_factor=factor, g=np.zeros(6), lb=lb, ub=ub, **rows)
            step = prob.with_g(g)
            assert prob.g.max() == prob.g.min() == 0.0
            for name in ("lb", "ub", "c", "c_lo", "c_hi", "lim", "scale", "lim_scaled"):
                assert getattr(step, name) is getattr(prob, name), name
            x, diag = solve_qp(step, tol=1e-10)
            x_ref, ref = solve_qp(QpProblem(h_factor=factor, g=g, lb=lb, ub=ub, **rows), tol=1e-10)
            assert np.array_equal(x, x_ref) and diag.kkt_residual == ref.kkt_residual
            assert np.array_equal(diag.working_set, ref.working_set) and len(diag.working_set)


def _row_qp(rng, n, m, pinned_rows=0, pinned_bounds=0):
    """A random strictly convex QP with bounds and two-sided general rows.

    The linear term pushes the unconstrained minimizer well outside, so
    rows end active on both sides; the first ``pinned_rows`` rows are
    equalities, and the first ``pinned_bounds`` variables have equal bounds.
    A point inside the box satisfies every row and bound.  Returns
    (h, g, lb, ub, c, lo, hi).
    """
    a = rng.standard_normal((n, n))
    h = a.T @ a + 0.1 * np.eye(n)
    g = 5.0 * rng.standard_normal(n)
    lb, ub = -rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)
    lb[rng.random(n) < 0.2] = -np.inf
    c = rng.standard_normal((m, n))
    x_inside = rng.uniform(-0.4, 0.4, n)
    inside = c @ x_inside
    lo, hi = inside - rng.uniform(0.0, 1.0, m), inside + rng.uniform(0.0, 1.0, m)
    hi[rng.random(m) < 0.2] = np.inf
    lo[:pinned_rows] = hi[:pinned_rows] = inside[:pinned_rows]
    lb[:pinned_bounds] = ub[:pinned_bounds] = x_inside[:pinned_bounds]
    return h, g, lb, ub, c, lo, hi


class TestHessianFactor:
    def test_packs_factor_and_inverse(self):
        # l = L, and j0 = L^-T with the exact reciprocals of diag L on its diagonal
        rng = np.random.default_rng(13)
        a = rng.standard_normal((7, 7))
        h = a.T @ a + np.eye(7)
        fac = HessianFactor(h)
        assert fac.n == 7 and fac.l.shape == fac.j0.shape == (7, 7)
        assert np.array_equal(fac.l, np.tril(fac.l)) and np.array_equal(fac.j0, np.triu(fac.j0))
        assert np.array_equal(np.diagonal(fac.j0), 1.0 / np.diagonal(fac.l))
        assert np.allclose(fac.l @ fac.l.T, h, rtol=0.0, atol=1e-12)
        assert np.allclose(fac.j0.T @ fac.l, np.eye(7), rtol=0.0, atol=1e-12)

    def test_solve_leaves_factor_unchanged(self):
        # every controller step reuses one factor: the dual path must work on
        # a copy of j0, through adds, drops and a hot start alike
        rng = np.random.default_rng(14)
        h, g, lb, ub, c, lo, hi = _row_qp(rng, 8, 5, 1)
        fac = HessianFactor(h)
        l_fac, j0 = fac.l.copy(), fac.j0.copy()
        prob = QpProblem(h_factor=fac, g=g, lb=lb, ub=ub, c=c, c_lo=lo, c_hi=hi)
        _, cold = solve_qp(prob)
        _, hot = solve_qp(prob, start=cold.working_set[::2])
        assert cold.iterations > 2 and hot.iterations > 1
        assert np.array_equal(fac.l, l_fac) and np.array_equal(fac.j0, j0)

    @pytest.mark.parametrize("h", [np.diag([1.0, -1.0]), np.diag([1.0, 1e-14]), np.zeros((2, 2))])
    def test_rejects_singular_or_indefinite(self, h):
        with pytest.raises(IndefiniteHessianError):
            HessianFactor(h)


class TestDualPath:
    """The dual active set on problems with general rows."""

    @pytest.mark.parametrize("pinned_rows, pinned_bounds", [
        pytest.param(0, 0, id="0"), pytest.param(2, 0, id="2"), pytest.param(0, 2, id="bounds")])
    def test_general_rows_pass_kkt_certificate(self, pinned_rows, pinned_bounds):
        sides = {"lower": 0, "upper": 0}
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n, m = int(rng.integers(3, 12)), int(rng.integers(2, 8))
            h, g, lb, ub, c, lo, hi = _row_qp(rng, n, m, pinned_rows, pinned_bounds)
            prob = QpProblem(h_factor=HessianFactor(h), g=g, lb=lb, ub=ub, c=c, c_lo=lo, c_hi=hi)
            x, diag = solve_qp(prob, tol=1e-10)
            assert diag.status == "optimal", seed
            assert diag.kkt_residual <= 1e-8, seed
            assert _kkt_certificate(h, g, lb, ub, c, lo, hi, x), seed
            assert np.all(x >= lb) and np.all(x <= ub)
            assert _violation(x, lb, ub, c, lo, hi) <= 1e-9
            cx = c @ x
            assert np.allclose(cx[:pinned_rows], lo[:pinned_rows], rtol=0.0, atol=1e-10)
            assert np.array_equal(x[:pinned_bounds], lb[:pinned_bounds])
            # the optimal set, equal limits included, enters in one batch
            x_hot, hot = solve_qp(prob, tol=1e-10, start=diag.working_set)
            assert hot.iterations == 1 and np.max(np.abs(x_hot - x)) <= 1e-9, seed
            free = slice(pinned_rows, m)
            sides["lower"] += int(np.sum(np.abs(cx[free] - lo[free]) <= 1e-9))
            sides["upper"] += int(np.sum(np.abs(cx[free] - hi[free]) <= 1e-9))
        assert sides["lower"] >= 10 and sides["upper"] >= 10

    def test_starts_at_unconstrained_minimizer(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((6, 6))
        h = a.T @ a + np.eye(6)
        g = rng.standard_normal(6)
        x_star = np.linalg.solve(h, -g)
        x, diag = solve_qp(_box_qp(h, g, x_star - 1.0, x_star + 1.0))
        assert (diag.status, diag.iterations) == ("optimal", 0)
        assert np.allclose(x, x_star, rtol=0.0, atol=1e-12)

    def test_unreachable_row_is_infeasible(self):
        # x0 + x1 >= 3 cannot hold inside the unit box
        prob = QpProblem(
            h_factor=HessianFactor(np.eye(2)), g=np.array([-1.0, 0.5]), lb=np.zeros(2), ub=np.ones(2),
            c=np.array([[1.0, 1.0]]), c_lo=np.array([3.0]), c_hi=np.array([np.inf]),
        )
        x, diag = solve_qp(prob)
        assert diag.status == "infeasible"
        assert np.all(x >= 0.0) and np.all(x <= 1.0)
        assert diag.kkt_residual >= 3.0 - x.sum() >= 1.0

    def test_iteration_cap(self):
        rng = np.random.default_rng(12)
        h, g, lb, ub, c, lo, hi = _row_qp(rng, 8, 6)
        prob = QpProblem(h_factor=HessianFactor(h), g=g, lb=lb, ub=ub, c=c, c_lo=lo, c_hi=hi)
        _, full = solve_qp(prob)
        assert full.status == "optimal" and full.iterations > 2
        x, diag = solve_qp(prob, max_iter=2)
        assert (diag.status, diag.iterations) == ("max_iter", 2)
        assert diag.kkt_residual >= _violation(x, lb, ub, c, lo, hi) > 1e-6

    def test_kkt_residual_is_that_of_returned_point(self):
        # cut off after 1-3 iterations, the returned point violates rows and
        # the residual must cover that; at the optimum it is the stationarity
        # of the returned point against an independent multiplier fit
        statuses = set()
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n, m = int(rng.integers(3, 10)), int(rng.integers(1, 6))
            h, g, lb, ub, c, lo, hi = _row_qp(rng, n, m)
            prob = QpProblem(h_factor=HessianFactor(h), g=g, lb=lb, ub=ub, c=c, c_lo=lo, c_hi=hi)
            x, diag = solve_qp(prob, max_iter=int(rng.integers(1, 4)))
            statuses.add(diag.status)
            assert np.isfinite(diag.kkt_residual)
            assert diag.kkt_residual >= _violation(x, lb, ub, c, lo, hi), seed
            if diag.status == "optimal":
                # multipliers on the rows and bounds that hold at x, by least squares
                v = np.concatenate([x, c @ x])
                at = np.flatnonzero(
                    (np.abs(v - np.concatenate([lb, lo])) <= 1e-9) | (np.abs(v - np.concatenate([ub, hi])) <= 1e-9)
                )
                normals = np.vstack([np.eye(n), c])[at].T
                grad = h @ x + g
                lam = np.linalg.lstsq(normals, grad, rcond=None)[0] if at.size else np.zeros(0)
                stat = np.max(np.abs(grad - normals @ lam)) if at.size else np.max(np.abs(grad))
                assert stat <= max(diag.kkt_residual, 1e-9) + 1e-9, seed
        assert statuses == {"optimal", "max_iter"}


def _signs_ok(c, lo, hi, x, row_mult, tol=1e-9) -> bool:
    """Whether each general row's multiplier is negative only at its lower
    limit and positive only at its upper one (either on an equality row)."""
    cx = c @ x
    at_lo = np.abs(cx - lo) <= tol * (1.0 + np.abs(lo))
    at_hi = np.abs(cx - hi) <= tol * (1.0 + np.abs(hi))
    return bool(np.all(at_lo[row_mult < 0.0]) and np.all(at_hi[row_mult > 0.0]))


def _hot_start(kind, rng, cold_set, n, lb, hi, pinned_rows):
    """A start working set of the given kind, built from the cold solve's whole set."""
    pairs = [(int(r), int(s)) for r, s in cold_set]
    if kind == "active":
        return cold_set
    if kind == "subset":
        kept = [pair for pair in pairs if rng.random() < 0.5]
        extra = [(int(r), int(rng.choice([-1, 1]))) for r in rng.integers(0, n + hi.size, 3)]
        return kept + extra
    if kind == "wrong_sides":
        return [(r, -s) for r, s in pairs]
    if kind == "dependent":
        # a row listed twice makes the batch dependent
        first = pairs[0] if pairs else (int(np.flatnonzero(np.isfinite(lb))[0]), 1)
        return pairs + [first]
    if kind == "infinite_limit":
        # sides without a limit: lower sides of unbounded variables, upper sides of open rows
        return pairs + [(int(i), 1) for i in np.flatnonzero(~np.isfinite(lb))] + [
            (n + int(j), -1) for j in np.flatnonzero(~np.isfinite(hi))]
    if kind == "equalities":
        # both sides of each equal-limit row: a dependent batch when there is one
        return [(n + j, s) for j in range(pinned_rows) for s in (1, -1)] + pairs
    raise ValueError(kind)


class TestHotStart:
    """A start working set changes the work of a solve, never its minimizer."""

    @pytest.mark.parametrize("kind", ["active", "subset", "wrong_sides", "dependent", "infinite_limit", "equalities"])
    def test_matches_cold_start(self, kind):
        tested = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n, m = int(rng.integers(3, 12)), int(rng.integers(2, 8))
            pinned_rows = int(rng.integers(0, 3))
            h, g, lb, ub, c, lo, hi = _row_qp(rng, n, m, pinned_rows)
            prob = QpProblem(h_factor=HessianFactor(h), g=g, lb=lb, ub=ub, c=c, c_lo=lo, c_hi=hi)
            x_cold, cold = solve_qp(prob, tol=1e-10)
            assert cold.status == "optimal", seed
            start = _hot_start(kind, rng, cold.working_set, n, lb, hi, pinned_rows)
            x, diag = solve_qp(prob, tol=1e-10, start=start)
            assert diag.status == "optimal", seed
            assert diag.kkt_residual <= 1e-8, seed
            assert np.max(np.abs(x - x_cold)) <= 1e-9, seed
            assert _kkt_certificate(h, g, lb, ub, c, lo, hi, x), seed
            assert _signs_ok(c, lo, hi, x, diag.row_multipliers), seed
            assert np.all(x >= lb) and np.all(x <= ub)
            if kind == "dependent" or (kind == "equalities" and pinned_rows):
                # the batch is refused and the solve starts cold
                assert np.array_equal(x, x_cold) and diag.iterations == cold.iterations, seed
            elif kind in ("active", "infinite_limit", "equalities") and len(cold.working_set):
                # the optimal set, equal-limit rows included, in one batch
                assert diag.iterations == 1, seed
            tested += len(start) > 0
        assert tested >= 30

    def test_working_set_holds_at_the_minimizer(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n, m = int(rng.integers(3, 12)), int(rng.integers(2, 8))
            h, g, lb, ub, c, lo, hi = _row_qp(rng, n, m, 1)
            prob = QpProblem(h_factor=HessianFactor(h), g=g, lb=lb, ub=ub, c=c, c_lo=lo, c_hi=hi)
            x, diag = solve_qp(prob, tol=1e-10)
            rows, sides = diag.working_set.T
            assert set(sides) <= {-1, 1} and rows.size == np.unique(rows).size
            assert n in rows  # the equality row
            v = np.concatenate([x, c @ x])[rows]
            limit = np.where(sides > 0, np.concatenate([lb, lo])[rows], np.concatenate([ub, hi])[rows])
            assert np.allclose(v, limit, rtol=0.0, atol=1e-9), seed

    def test_empty_start_is_cold(self):
        rng = np.random.default_rng(4)
        h, g, lb, ub, c, lo, hi = _row_qp(rng, 8, 5, 1)
        prob = QpProblem(h_factor=HessianFactor(h), g=g, lb=lb, ub=ub, c=c, c_lo=lo, c_hi=hi)
        x_cold, cold = solve_qp(prob)
        for start in ([], np.zeros((0, 2), dtype=int)):
            x, diag = solve_qp(prob, start=start)
            assert np.array_equal(x, x_cold) and diag.iterations == cold.iterations

    def test_iteration_cap(self):
        # half of the optimal set leaves work after the batch; the cap still holds
        capped = 0
        for seed in range(30):
            rng = np.random.default_rng(seed)
            h, g, lb, ub, c, lo, hi = _row_qp(rng, 10, 6)
            prob = QpProblem(h_factor=HessianFactor(h), g=g, lb=lb, ub=ub, c=c, c_lo=lo, c_hi=hi)
            _, cold = solve_qp(prob)
            start = cold.working_set[::2]
            _, full = solve_qp(prob, start=start)
            for max_iter in (1, 2, 3):
                x, diag = solve_qp(prob, max_iter=max_iter, start=start)
                assert diag.iterations <= max_iter, seed
                if full.iterations > max_iter:
                    assert diag.status == "max_iter", seed
                    # the residual covers the violation, up to how c @ x is summed
                    assert diag.kkt_residual >= _violation(x, lb, ub, c, lo, hi) - 1e-12, seed
                    capped += 1
                else:
                    assert diag.status == "optimal", seed
        assert capped >= 10


def _degenerate_qp(rng, n, extra, duplicates=0, near_parallel=0, pinned=0):
    """A strictly convex QP whose minimizer x* is a degenerate vertex.

    ``n + extra`` random rows hold at x*, more than there are variables, each
    on a random side and with a multiplier that is zero for about 40 % of
    them.  ``duplicates`` of them are repeated exactly and ``near_parallel``
    repeated with their normal tilted by 1e-8, both holding at x* too, and
    ``pinned`` bounds hold at x* with their own multipliers.  Three more rows
    and the other bounds stay at least 0.1 away.  g makes the multipliers
    balance H x* + g, so x* is the unique minimizer.  Returns
    (h, g, lb, ub, c, lo, hi, x*).
    """
    a = rng.standard_normal((n, n))
    h = a.T @ a + 0.1 * np.eye(n)
    x_star = rng.uniform(-1.0, 1.0, n)
    act = rng.standard_normal((n + extra, n))
    act = np.vstack([
        act,
        act[rng.integers(0, len(act), duplicates)],
        act[rng.integers(0, len(act), near_parallel)] + 1e-8 * rng.standard_normal((near_parallel, n)),
    ])
    side = rng.choice([-1.0, 1.0], len(act))
    mult = rng.uniform(0.0, 2.0, len(act)) * (rng.random(len(act)) < 0.6)
    c = np.vstack([act, rng.standard_normal((3, n))])
    v = c @ x_star
    gap_lo, gap_hi = rng.uniform(0.1, 1.0, len(c)), rng.uniform(0.1, 1.0, len(c))
    gap_lo[:len(act)][side > 0] = 0.0
    gap_hi[:len(act)][side < 0] = 0.0
    lb, ub = x_star - rng.uniform(0.1, 1.0, n), x_star + rng.uniform(0.1, 1.0, n)
    bound_mult = np.zeros(n)
    for i, s in zip(rng.choice(n, min(pinned, n), replace=False), rng.choice([-1.0, 1.0], n)):
        (lb if s > 0 else ub)[i] = x_star[i]
        bound_mult[i] = s * rng.uniform(0.0, 2.0)
    g = -h @ x_star + act.T @ (side * mult) + bound_mult
    return h, g, lb, ub, c, v - gap_lo, v + gap_hi, x_star


def _box_vertex_qp(rng, n, pinned=0):
    """A strictly convex box-only QP whose minimizer x* lies on its bounds.

    Each variable is free, at its lower bound or at its upper bound, and an
    active bound's multiplier is zero for about 40 % of them, so x* can be
    a degenerate vertex.  The first ``pinned`` variables have equal bounds
    at x*, with a multiplier of either sign that is also zero for about
    40 % of them.  The other bounds stay at least 0.1 away.  g makes the
    multipliers balance H x* + g, so x* is the unique minimizer.  Returns
    (h, g, lb, ub, x*).
    """
    a = rng.standard_normal((n, n))
    h = a.T @ a + 0.1 * np.eye(n)
    x_star = rng.uniform(-1.0, 1.0, n)
    lb, ub = x_star - rng.uniform(0.1, 1.0, n), x_star + rng.uniform(0.1, 1.0, n)
    at = rng.integers(0, 3, n)  # 0 free, 1 at the lower bound, 2 at the upper
    lb[at == 1], ub[at == 2] = x_star[at == 1], x_star[at == 2]
    mult = rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.6)
    bound_mult = np.where(at == 1, mult, np.where(at == 2, -mult, 0.0))
    p = min(pinned, n)
    lb[:p] = ub[:p] = x_star[:p]
    bound_mult[:p] = rng.uniform(-2.0, 2.0, p) * (rng.random(p) < 0.6)
    return h, -h @ x_star + bound_mult, lb, ub, x_star


class TestCertificate:
    """Degenerate vertices that the solver and the certificate must both handle,
    and near misses the certificate must reject."""

    @staticmethod
    def _solve_and_certify(h, g, lb, ub, c, lo, hi, x_star):
        prob = QpProblem(h_factor=HessianFactor(h), g=g, lb=lb, ub=ub, c=c, c_lo=lo, c_hi=hi)
        x, diag = solve_qp(prob, tol=1e-10)
        assert diag.status == "optimal" and diag.kkt_residual <= 1e-8
        assert np.max(np.abs(x - x_star)) <= 1e-7
        assert _kkt_certificate(h, g, lb, ub, c, lo, hi, x)
        return prob, x, diag

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 9), extra=st.integers(1, 8), pinned=st.integers(0, 9))
    @settings(max_examples=60, deadline=None)
    def test_degenerate_vertex(self, seed, n, extra, pinned):
        self._solve_and_certify(*_degenerate_qp(np.random.default_rng(seed), n, extra, pinned=pinned))

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 9), extra=st.integers(0, 4),
           duplicates=st.integers(0, 3), near_parallel=st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_duplicate_and_near_parallel_rows(self, seed, n, extra, duplicates, near_parallel):
        qp = _degenerate_qp(np.random.default_rng(seed), n, extra, max(duplicates, 1), near_parallel)
        self._solve_and_certify(*qp)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 9), extra=st.integers(0, 8),
           duplicates=st.integers(0, 2), near_parallel=st.integers(0, 2), pinned=st.integers(0, 9))
    @settings(max_examples=60, deadline=None)
    def test_hot_start_from_cold_working_set(self, seed, n, extra, duplicates, near_parallel, pinned):
        qp = _degenerate_qp(np.random.default_rng(seed), n, extra, duplicates, near_parallel, pinned)
        prob, x, cold = self._solve_and_certify(*qp)
        x_hot, hot = solve_qp(prob, tol=1e-10, start=cold.working_set)
        assert hot.status == "optimal" and hot.kkt_residual <= 1e-8
        assert np.max(np.abs(x_hot - x)) <= 1e-9

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9), pinned=st.integers(0, 9))
    @settings(max_examples=60, deadline=None)
    def test_box_as_bounds_and_as_rows(self, seed, n, pinned):
        # a box-only program, solved with no identity rows, and the same box
        # written as general rows C = I with infinite bounds: one minimizer,
        # certified both ways, also where equal bounds pass through a
        # degenerate vertex
        h, g, lb, ub, x_star = _box_vertex_qp(np.random.default_rng(seed), n, pinned)
        factor = HessianFactor(h)
        x_box, box = solve_qp(QpProblem(h_factor=factor, g=g, lb=lb, ub=ub), tol=1e-10)
        x_row, row = solve_qp(QpProblem(h_factor=factor, g=g, c=np.eye(n), c_lo=lb, c_hi=ub), tol=1e-10)
        assert box.status == row.status == "optimal"
        assert max(box.kkt_residual, row.kkt_residual) <= 1e-8
        assert np.max(np.abs(x_box - x_row)) <= 1e-9
        assert np.max(np.abs(x_box - x_star)) <= 1e-7
        assert _kkt_certificate(h, g, lb, ub, np.zeros((0, n)), np.zeros(0), np.zeros(0), x_box)
        assert _kkt_certificate(h, g, np.full(n, -np.inf), np.full(n, np.inf), np.eye(n), lb, ub, x_row)

    def test_rejects_moved_and_tightened_solutions(self):
        # a minimizer moved by 1e-6, and the minimizer of the program with
        # every finite row slab narrowed by a quarter on each side, are not
        # minimizers of the program
        tightened = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n, m = int(rng.integers(3, 12)), int(rng.integers(2, 8))
            h, g, lb, ub, c, lo, hi = _row_qp(rng, n, m)
            x, _ = solve_qp(QpProblem(h_factor=HessianFactor(h), g=g, lb=lb, ub=ub, c=c, c_lo=lo, c_hi=hi), tol=1e-10)
            assert _kkt_certificate(h, g, lb, ub, c, lo, hi, x), seed
            for _ in range(2):
                assert not _kkt_certificate(h, g, lb, ub, c, lo, hi, x + 1e-6 * rng.choice([-1.0, 1.0], n)), seed
            width = np.where(np.isfinite(hi), hi - lo, 1.0)
            prob = QpProblem(h_factor=HessianFactor(h), g=g, lb=lb, ub=ub, c=c,
                             c_lo=lo + 0.25 * width, c_hi=hi - 0.25 * width)
            x_t, diag = solve_qp(prob, tol=1e-10)
            if diag.status == "optimal" and np.max(np.abs(x_t - x)) > 1e-6:
                assert not _kkt_certificate(h, g, lb, ub, c, lo, hi, x_t), seed
                tightened += 1
        assert tightened >= 30


class TestSolveSqp:
    def test_quadratic_with_linear_constraints_single_iteration(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((4, 4))
        h = m.T @ m + np.eye(4)
        g = rng.standard_normal(4)
        a = rng.standard_normal((2, 4))
        b = rng.standard_normal(2)
        lb = np.full(4, -5.0)
        ub = np.full(4, 5.0)

        def cost(x):
            return 0.5 * x @ h @ x + g @ x, h @ x + g, h

        def eq(x):
            return a @ x - b, a

        x_qp, _ = solve_qp(_eq_qp(h, g, a, b, lb=lb, ub=ub), tol=1e-10)
        x, diag = solve_sqp(cost, eq, lb, ub, x0=np.zeros(4), tol=1e-8)
        assert diag.status == "optimal"
        assert diag.iterations == 1
        assert np.allclose(x, x_qp, atol=1e-7)

    def test_rosenbrock_on_box(self):
        # Gauss-Newton on the residual form of Rosenbrock
        def cost(x):
            r = np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])
            jac = np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])
            f = float(r @ r)
            grad = 2.0 * jac.T @ r
            hess = 2.0 * jac.T @ jac
            return f, grad, hess

        lb = np.array([-2.0, -2.0])
        ub = np.array([2.0, 2.0])
        x, diag = solve_sqp(cost, None, lb, ub, x0=np.array([-1.2, 1.0]), tol=1e-10, max_iter=200)
        assert np.allclose(x, [1.0, 1.0], atol=1e-6)
        grad = cost(x)[1]
        assert np.linalg.norm(grad) < 1e-6

    def test_nonlinear_equality(self):
        # min ||x||^2 s.t. x0^2 + x1 = 1; optimum satisfies the constraint
        def cost(x):
            return float(x @ x), 2 * x, 2 * np.eye(2)

        def eq(x):
            return np.array([x[0] ** 2 + x[1] - 1.0]), np.array([[2 * x[0], 1.0]])

        x, diag = solve_sqp(cost, eq, np.full(2, -10.0), np.full(2, 10.0), x0=np.array([1.0, 1.0]))
        assert abs(x[0] ** 2 + x[1] - 1.0) < 1e-8
        assert diag.status == "optimal"

    @pytest.mark.parametrize("target, status, steps", [(5e3, "optimal", 1), (5e4, "infeasible", 0)])
    def test_trust_box_widened_once(self, target, status, steps):
        # x0 + x1 = target from the origin: the initial 1e3 trust box reaches
        # a sum of 2e3, the box widened once (x16) a sum of 3.2e4
        def cost(x):
            return float(x @ x), 2 * x, 2 * np.eye(2)

        def eq(x):
            return np.array([x[0] + x[1] - target]), np.array([[1.0, 1.0]])

        x, diag = solve_sqp(cost, eq, np.full(2, -1e5), np.full(2, 1e5), x0=np.zeros(2))
        assert diag.status == status
        assert diag.iterations == steps
        if status == "optimal":
            assert np.allclose(x, [target / 2, target / 2], rtol=1e-12)

    def test_kkt_residual_covers_returned_point(self):
        # min |x - a|^2 s.t. |x|^2 = k, cut off after a few iterations: the
        # reported residual must belong to the returned point, whether that
        # is the best iterate restored, an accepted last step or the start
        statuses = set()
        for seed in range(200):
            rng = np.random.default_rng(seed)
            dim = int(rng.integers(2, 6))
            a = 3.0 * rng.standard_normal(dim)
            k = float(rng.uniform(0.5, 10.0))

            def cost(x):
                return float((x - a) @ (x - a)), 2.0 * (x - a), 2.0 * np.eye(dim)

            def eq(x):
                return np.array([x @ x - k]), 2.0 * x[None, :]

            x, diag = solve_sqp(
                cost, eq, np.full(dim, -10.0), np.full(dim, 10.0),
                x0=rng.standard_normal(dim), max_iter=int(rng.integers(1, 5)),
            )
            statuses.add(diag.status)
            assert diag.kkt_residual >= abs(x @ x - k), seed
        assert statuses == {"max_iter", "infeasible"}

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), m=st.integers(1, 4),
           qp_max_iter=st.integers(1, 2))
    @settings(max_examples=200, deadline=None)
    def test_capped_subproblems_stay_in_box(self, seed, n, m, qp_max_iter):
        # rows A x + B x^2 = b through a point of the box, solved with one or
        # two QP iterations a subproblem: a capped step leaves the linearized
        # rows unmet, which in most of these programs sends the SQP through
        # the penalty raise of a step with no predicted merit reduction
        rng = np.random.default_rng(seed)
        a, b_sq = rng.standard_normal((m, n)), rng.standard_normal((m, n))
        x_feas = rng.uniform(-1.0, 1.0, n)
        b = a @ x_feas + b_sq @ x_feas ** 2
        target = rng.uniform(-2.0, 2.0, n)
        lb, ub = np.full(n, -2.0), np.full(n, 2.0)
        tol = 1e-6

        def cost(x):
            return 0.5 * float((x - target) @ (x - target)), x - target, np.eye(n)

        def rows(x):
            return a @ x + b_sq @ x ** 2 - b, a + b_sq * (2.0 * x)

        x, diag = solve_sqp(cost, rows, lb, ub, rng.uniform(-2.0, 2.0, n), tol=tol, qp_max_iter=qp_max_iter)
        assert np.all(lb <= x) and np.all(x <= ub)
        assert np.isfinite(diag.kkt_residual)
        if diag.status == "optimal":
            assert diag.kkt_residual <= 10 * tol

    def test_curvature_callback_gets_iterate_hessian_and_jacobian(self):
        def cost(x):
            return float(x @ x), 2.0 * x, np.diag([2.0, 4.0])

        def eq(x):
            return np.array([x[0] ** 2 + x[1] - 1.0]), np.array([[2.0 * x[0], 1.0]])

        seen = []

        def lag_hess(x, lam, hess, jac):
            seen.append((x.copy(), hess, jac))
            return np.zeros((2, 2))

        solve_sqp(cost, eq, np.full(2, -10.0), np.full(2, 10.0), x0=np.array([1.0, 1.0]),
                  lag_hess_fn=lag_hess)
        assert len(seen) > 1
        for x, hess, jac in seen:
            assert np.array_equal(hess, cost(x)[2])
            assert np.array_equal(jac, eq(x)[1])


    def test_jacobian_check_helper(self):
        a = np.array([[1.0, 2.0, -1.0], [0.5, 0.0, 3.0]])

        def fn(x):
            return np.array([np.sin(x[0]) + a[0] @ x, a[1] @ x ** 2]), np.vstack(
                [a[0] + np.array([np.cos(x[0]), 0, 0]), 2 * a[1] * x]
            )

        assert check_jacobian(fn, np.array([0.3, -0.7, 1.1])) < 1e-6

    def test_jacobian_check_catches_errors(self):
        def fn(x):
            return np.array([x[0] ** 2]), np.array([[3.0 * x[0]]])  # wrong by 1.5x

        assert check_jacobian(fn, np.array([1.0])) > 1e-2


def _convex_row_nlp(rng):
    """A strictly convex program in the plane with two-sided rows.

    The cost 0.5 |x - a|^2 + 0.1 x0^4 is pulled toward a random target; the
    rows are two linear ones with two-sided limits around 0 and the convex
    row exp(x0 / 2) + x1^2 <= r_hi, so the feasible set is convex, holds the
    origin, and the minimizer is unique.  ``curvature`` is the exact
    curvature term of the nonlinear row, and ``values`` gives the cost and
    the rows at each row of a point array.
    """
    a = rng.uniform(-3.0, 3.0, 2)
    mat = rng.standard_normal((2, 2))
    c_lo = np.concatenate([rng.uniform(-1.5, -0.2, 2), [-np.inf]])
    c_hi = np.concatenate([rng.uniform(0.2, 1.5, 2), [rng.uniform(1.2, 3.0)]])

    def cost(x):
        f = 0.5 * float((x - a) @ (x - a)) + 0.1 * x[0] ** 4
        grad = x - a + np.array([0.4 * x[0] ** 3, 0.0])
        return f, grad, np.eye(2) + np.diag([1.2 * x[0] ** 2, 0.0])

    def rows(x):
        e = np.exp(0.5 * x[0])
        return np.append(mat @ x, e + x[1] ** 2), np.vstack([mat, [0.5 * e, 2.0 * x[1]]])

    def curvature(x, lam, hess, jac):
        return lam[2] * np.diag([0.25 * np.exp(0.5 * x[0]), 2.0])

    def values(pts):
        f = 0.5 * np.sum((pts - a) ** 2, axis=1) + 0.1 * pts[:, 0] ** 4
        return f, np.column_stack([pts @ mat.T, np.exp(0.5 * pts[:, 0]) + pts[:, 1] ** 2])

    return cost, rows, curvature, values, c_lo, c_hi


def _grid_minimum(values, c_lo, c_hi, lb, ub, step=0.005):
    """Brute-force oracle: the least cost over the feasible points of a grid."""
    g0, g1 = np.meshgrid(np.arange(lb[0], ub[0] + step / 2, step), np.arange(lb[1], ub[1] + step / 2, step))
    pts = np.column_stack([g0.ravel(), g1.ravel()])
    f, c = values(pts)
    f[~np.all((c >= c_lo) & (c <= c_hi), axis=1)] = np.inf
    k = int(f.argmin())
    return float(f[k]), pts[k]


class TestSqpRows:
    """Two-sided rows c_lo <= c(x) <= c_hi."""

    def test_two_sided_rows_match_brute_force(self):
        lb, ub = np.full(2, -2.0), np.full(2, 2.0)
        sides = set()
        for seed in range(12):
            cost, rows, curvature, values, c_lo, c_hi = _convex_row_nlp(np.random.default_rng(seed))
            x, diag = solve_sqp(cost, rows, lb, ub, np.zeros(2), tol=1e-8, lag_hess_fn=curvature,
                                c_lo=c_lo, c_hi=c_hi)
            assert diag.status == "optimal", seed
            c = rows(x)[0]
            assert np.all(c >= c_lo - 1e-9) and np.all(c <= c_hi + 1e-9), seed
            f_grid, x_grid = _grid_minimum(values, c_lo, c_hi, lb, ub)
            # no feasible grid point beats the solution, and the grid's best
            # is as close as its spacing allows
            assert cost(x)[0] <= f_grid + 1e-12, seed
            assert f_grid - cost(x)[0] < 0.05 and np.max(np.abs(x - x_grid)) < 0.05, seed
            sides.update(("lo", i) for i in np.flatnonzero(np.abs(c - c_lo) < 1e-8))
            sides.update(("hi", i) for i in np.flatnonzero(np.abs(c - c_hi) < 1e-8))
        # rows were active at both limits, and the nonlinear row at its upper one
        assert {"lo", "hi"} == {side for side, _ in sides}
        assert ("hi", 2) in sides

    @staticmethod
    def _chain(monkeypatch, hot=True):
        """Solve the module's row programs, each QP recorded as (start, diag);
        with ``hot=False`` every subproblem starts cold."""
        calls = []

        def spy(prob, *args, start=None, **kwargs):
            x, diag = solve_qp(prob, *args, start=start if hot else None, **kwargs)
            calls[-1].append((start, diag))
            return x, diag

        monkeypatch.setattr(optim, "solve_qp", spy)
        lb, ub = np.full(2, -2.0), np.full(2, 2.0)
        out = []
        for seed in range(12):
            cost, rows, curvature, _, c_lo, c_hi = _convex_row_nlp(np.random.default_rng(seed))
            calls.append([])
            out.append(solve_sqp(cost, rows, lb, ub, np.zeros(2), tol=1e-8, lag_hess_fn=curvature,
                                 c_lo=c_lo, c_hi=c_hi))
        return out, calls

    def test_each_subproblem_starts_from_the_last_working_set(self, monkeypatch):
        results, calls = self._chain(monkeypatch)
        started = 0
        for (_, diag), solve in zip(results, calls):
            assert solve[0][0] is None
            last = None
            for start, qdiag in solve:
                # the widened retry of an infeasible subproblem gets the same start
                assert (start is None) if last is None else np.array_equal(start, last)
                started += start is not None and len(start) > 0
                if qdiag.status != "infeasible":
                    last = qdiag.working_set
            assert diag.qp_iterations == sum(qdiag.iterations for _, qdiag in solve)
        assert started > 0

    def test_hot_chain_matches_cold_chain(self, monkeypatch):
        hot, hot_calls = self._chain(monkeypatch)
        cold, cold_calls = self._chain(monkeypatch, hot=False)
        assert sum(d.qp_iterations for _, d in hot) < sum(d.qp_iterations for _, d in cold)
        for (x_h, d_h), (x_c, d_c), calls_h, calls_c in zip(hot, cold, hot_calls, cold_calls):
            assert np.max(np.abs(x_h - x_c)) <= 1e-10
            assert (d_h.status, d_h.iterations, d_h.clipped) == (d_c.status, d_c.iterations, d_c.clipped)
            assert len(calls_h) == len(calls_c)
            assert [q.status for _, q in calls_h] == [q.status for _, q in calls_c]

    def test_equality_limits_as_keywords(self):
        # x0^2 + x1 = 1 written with its limit, against the zero-limit form
        def cost(x):
            return float(x @ x), 2 * x, 2 * np.eye(2)

        def shifted(x):
            return np.array([x[0] ** 2 + x[1]]), np.array([[2 * x[0], 1.0]])

        def zeroed(x):
            c, jac = shifted(x)
            return c - 1.0, jac

        box = (np.full(2, -10.0), np.full(2, 10.0))
        x_a, diag_a = solve_sqp(cost, shifted, *box, x0=np.array([1.0, 1.0]), c_lo=1.0, c_hi=1.0)
        x_b, diag_b = solve_sqp(cost, zeroed, *box, x0=np.array([1.0, 1.0]))
        assert diag_a.status == diag_b.status == "optimal"
        assert np.allclose(x_a, x_b, rtol=0.0, atol=1e-9)
        assert abs(x_a[0] ** 2 + x_a[1] - 1.0) < 1e-8

    def test_kkt_residual_covers_row_violation(self):
        # cut off after a few iterations from random starts: the reported
        # residual must cover the returned point's row violation
        lb, ub = np.full(2, -2.0), np.full(2, 2.0)
        statuses = set()
        for seed in range(100):
            rng = np.random.default_rng(seed)
            cost, rows, *_, c_lo, c_hi = _convex_row_nlp(rng)
            x, diag = solve_sqp(cost, rows, lb, ub, rng.uniform(-2.0, 2.0, 2), tol=1e-8,
                                max_iter=int(rng.integers(1, 4)), c_lo=c_lo, c_hi=c_hi)
            statuses.add(diag.status)
            c = rows(x)[0]
            viol = np.max(np.maximum(c_lo - c, 0.0) + np.maximum(c - c_hi, 0.0))
            assert diag.kkt_residual >= viol, seed
        assert "max_iter" in statuses

    def test_stalled_solve_reports_infeasible_only_off_its_rows(self):
        # derivatives 1e15 times too steep: every step is too short to change
        # the merit, and the trust radius collapses at the start.  With a
        # violated row that stop is infeasible; without rows it is max_iter
        def cost(x):
            return float(x @ x), 2.0 * x, 2.0 * np.eye(1)

        def steep_row(x):
            return np.array([x[0] - 1.0]), np.array([[1e15]])

        def steep_cost(x):
            return float((x[0] - 1.0) ** 2), np.array([2e15 * (x[0] - 1.0)]), 2.0 * np.eye(1)

        box = (np.full(1, -10.0), np.full(1, 10.0))
        x, diag = solve_sqp(cost, steep_row, *box, x0=np.zeros(1))
        assert (diag.status, diag.iterations) == ("infeasible", 0)
        assert x[0] == 0.0 and diag.kkt_residual >= 1.0
        x, diag = solve_sqp(steep_cost, None, *box, x0=np.full(1, 2.0))
        assert (diag.status, diag.iterations) == ("max_iter", 0)
        assert x[0] == 2.0


def _sine_curve_nlp(target):
    """min 0.5 |x - target|^2 on the curve x1 = sin(x0), as SQP callbacks.

    ``curvature(mode)`` gives the constraint-curvature callback: ``"clip"``
    clips lam * sin(x0) at zero, and ``"gated"`` passes it unclipped only
    where the reduced Hessian over the null space (1, cos x0) of the
    linearized row stays positive, else clips.  The callback counts its
    unclipped and clipped returns.
    """
    target = np.asarray(target, dtype=float)

    def cost(x):
        return 0.5 * float((x - target) @ (x - target)), x - target, np.eye(2)

    def eq(x):
        return np.array([x[1] - np.sin(x[0])]), np.array([[-np.cos(x[0]), 1.0]])

    def curvature(mode, counts):
        def lag_hess(x, lam, hess, jac):
            c = np.zeros((2, 2))
            c[0, 0] = lam[0] * np.sin(x[0])
            z = np.array([1.0, -jac[0, 0]])
            if mode == "gated" and z @ (hess + c) @ z > 0.0:
                counts["exact"] += 1
            else:
                counts["clip"] += 1
                c[0, 0] = max(c[0, 0], 0.0)
            return c

        return lag_hess

    return cost, eq, curvature


class TestExactCurvature:
    """Exact constraint curvature where the reduced Hessian is positive definite."""

    @staticmethod
    def _solve(monkeypatch, target, x0, mode, tol):
        cost, eq, curvature = _sine_curve_nlp(target)
        counts = {"exact": 0, "clip": 0}
        qp_statuses = []
        qp = optim.solve_qp

        def spy(*args, **kwargs):
            x, diag = qp(*args, **kwargs)
            qp_statuses.append(diag.status)
            return x, diag

        monkeypatch.setattr(optim, "solve_qp", spy)
        x, diag = solve_sqp(cost, eq, np.full(2, -10.0), np.full(2, 10.0), x0=np.asarray(x0, float),
                            tol=tol, lag_hess_fn=curvature(mode, counts))
        return x, diag, counts, qp_statuses

    def test_newton_rate_where_convex(self, monkeypatch):
        # lam * sin(x0) < 0 along the whole path, while the reduced Hessian
        # 1 + cos(x0)^2 + lam * sin(x0) stays positive: the clip drops
        # curvature the model needs and stalls above 1e-10, exact curvature
        # converges there in fewer iterations.  Trial steps are judged off
        # the curve (no second-order correction), so the clipped solve stalls
        # after 11 accepted steps
        x_g, gated, counts_g, _ = self._solve(monkeypatch, (2.0, 0.0), (2.3, 0.7), "gated", 1e-10)
        x_c, clipped, counts_c, _ = self._solve(monkeypatch, (2.0, 0.0), (2.3, 0.7), "clip", 1e-10)
        assert counts_g["clip"] == 0
        assert (gated.status, gated.iterations) == ("optimal", 4)
        assert gated.kkt_residual < 1e-10
        assert (clipped.status, clipped.iterations) == ("max_iter", 11)
        assert clipped.kkt_residual > 1e-10
        assert np.allclose(x_g, x_c, atol=1e-6)

    def test_indefinite_falls_back_to_clip(self, monkeypatch):
        # from the origin the reduced Hessian is indefinite at first: the gate
        # clips there (twice).  At two later iterates the gate passes exact
        # curvature, positive on the row's null space, while hess + C is
        # indefinite, so solve_sqp clips C itself.  Every subproblem stays
        # convex and ends optimal, and the solve converges.  The merit sees
        # each trial's violation of the curve (no second-order correction),
        # so the trust box stays small on the way: 13 steps
        x, gated, counts, qp_statuses = self._solve(monkeypatch, (2.0, 0.0), (0.0, 0.0), "gated", 1e-10)
        assert counts["clip"] == 2 and counts["exact"] > 0
        assert set(qp_statuses) == {"optimal"}
        assert (gated.status, gated.iterations) == ("optimal", 13)
        assert gated.clipped == 2  # the two subproblems solve_sqp clipped itself
        assert abs(x[1] - np.sin(x[0])) < 1e-12


class TestInfNorm:
    def test_matches_numpy_norm(self):
        rng = np.random.default_rng(3)
        for n in (1, 7, 30):
            v = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
            assert optim._inf_norm(v) == np.linalg.norm(v, np.inf)
        assert optim._inf_norm(np.zeros(0)) == 0.0
        assert np.isnan(optim._inf_norm(np.array([1.0, np.nan])))
