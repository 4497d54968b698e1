import numpy as np
import pytest

from npvdeepc import optim
from npvdeepc.optim import (
    IndefiniteHessianError,
    QpProblem,
    _min_norm_step,
    _restore_equalities,
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


class TestSolveQp:
    def test_unconstrained_closed_form(self):
        c = np.array([1.0, -2.0, 0.5])
        prob = QpProblem(h=np.eye(3), g=-c)
        x, diag = solve_qp(prob)
        assert diag.status == "optimal"
        assert np.allclose(x, c, atol=1e-10)

    def test_active_lower_bound(self):
        # min x^2 s.t. x >= 1
        prob = QpProblem(h=np.array([[2.0]]), g=np.array([0.0]), lb=np.array([1.0]), ub=np.array([np.inf]))
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
        x, diag = solve_qp(QpProblem(h=h, g=g, lb=lb, ub=ub), tol=1e-10)
        assert diag.status == "optimal"
        assert np.allclose(x, x_oracle, atol=1e-7)

    def test_start_at_upper_corner_releases_bounds(self):
        # every bound starts on the working set at its upper side; the solve
        # must release the wrong ones and end with both sides active
        rng = np.random.default_rng(6)
        m = rng.standard_normal((10, 10))
        h = m.T @ m + 0.5 * np.eye(10)
        g = 3 * rng.standard_normal(10)
        lb = np.full(10, -0.5)
        ub = np.full(10, 0.5)
        x_oracle = _projected_gradient_oracle(h, g, lb, ub)
        x, diag = solve_qp(QpProblem(h=h, g=g, lb=lb, ub=ub), x0=ub, tol=1e-10)
        assert diag.status == "optimal"
        assert np.allclose(x, x_oracle, atol=1e-7)
        at_lo, at_hi = x == lb, x == ub
        assert at_lo.any() and at_hi.any() and not (at_lo | at_hi).all()

    @pytest.mark.parametrize("start", ["default", "upper"])
    def test_pinned_variables_stay_put(self, start):
        # variables 0 and 1 have lb == ub and gradients of opposite sign that
        # push them out of their bounds; they must never leave the working set
        rng = np.random.default_rng(7)
        m = rng.standard_normal((5, 5))
        h = m.T @ m + np.eye(5)
        g = np.array([8.0, -8.0, 0.3, -4.0, 4.0])
        lb = np.array([0.2, -0.3, -1.0, -1.0, -1.0])
        ub = np.array([0.2, -0.3, 1.0, 1.0, 1.0])
        x0 = None if start == "default" else ub
        x, diag = solve_qp(QpProblem(h=h, g=g, lb=lb, ub=ub), x0=x0, tol=1e-10)
        grad = h @ x + g
        assert grad[0] > 0 and grad[1] < 0
        assert diag.status == "optimal"
        assert np.array_equal(x[:2], lb[:2])
        # the same QP with the pinned variables substituted out
        h_f, g_f = h[2:, 2:], g[2:] + h[2:, :2] @ lb[:2]
        x_f, diag_f = solve_qp(
            QpProblem(h=h_f, g=g_f, lb=lb[2:], ub=ub[2:]), x0=None if x0 is None else ub[2:], tol=1e-10
        )
        assert np.allclose(x[2:], x_f, atol=1e-9)
        assert diag.iterations == diag_f.iterations

    def test_equality_constrained(self):
        # min ||x||^2 s.t. x0 + x1 = 1 -> x = (0.5, 0.5)
        prob = QpProblem(
            h=2 * np.eye(2), g=np.zeros(2), a_eq=np.array([[1.0, 1.0]]), b_eq=np.array([1.0])
        )
        x, diag = solve_qp(prob)
        assert np.allclose(x, [0.5, 0.5], atol=1e-9)
        assert diag.kkt_residual < 1e-7

    def test_equality_with_binding_bound(self):
        # min ||x||^2 s.t. x0 + x1 = 1, x0 <= 0.2 -> x = (0.2, 0.8)
        prob = QpProblem(
            h=2 * np.eye(2),
            g=np.zeros(2),
            a_eq=np.array([[1.0, 1.0]]),
            b_eq=np.array([1.0]),
            lb=np.array([-np.inf, -np.inf]),
            ub=np.array([0.2, np.inf]),
        )
        x, diag = solve_qp(prob)
        assert np.allclose(x, [0.2, 0.8], atol=1e-9)

    def test_infeasible_equalities(self):
        # x = 0 and x = 1 cannot both hold
        prob = QpProblem(
            h=np.eye(1),
            g=np.zeros(1),
            a_eq=np.array([[1.0], [1.0]]),
            b_eq=np.array([0.0, 1.0]),
        )
        x, diag = solve_qp(prob)
        assert diag.status == "infeasible"

    def test_phase1_iterations_counted(self):
        # the minimum-norm correction from x0 leaves the box, so phase 1 runs
        x0 = np.array([1.0, 0.0])
        prob = QpProblem(
            h=2 * np.eye(2), g=np.zeros(2), a_eq=np.array([[1.0, 1.0]]), b_eq=np.array([1.5]),
            lb=np.zeros(2), ub=np.ones(2),
        )
        x1, phase1_its = _restore_equalities(prob, x0, 1e-8, 200)
        assert phase1_its > 0
        x_from_x1, diag_x1 = solve_qp(prob, x0=x1)
        x, diag = solve_qp(prob, x0=x0)
        assert diag.status == diag_x1.status == "optimal"
        assert np.allclose(x, [0.75, 0.75], atol=1e-9)
        assert np.array_equal(x, x_from_x1)
        assert diag.iterations == phase1_its + diag_x1.iterations

    def test_phase1_iterations_counted_when_infeasible(self):
        # x0 + x1 = 3 cannot hold inside the unit box
        x0 = np.array([0.5, 0.5])
        prob = QpProblem(
            h=np.eye(2), g=np.zeros(2), a_eq=np.array([[1.0, 1.0]]), b_eq=np.array([3.0]),
            lb=np.zeros(2), ub=np.ones(2),
        )
        _, phase1_its = _restore_equalities(prob, x0, 1e-8, 200)
        _, diag = solve_qp(prob, x0=x0)
        assert diag.status == "infeasible"
        assert diag.iterations == phase1_its > 0

    def test_phase1_stops_once_feasible(self):
        # A = [T, I] keeps full row rank on the free coordinates, so one step
        # reaches A x = b; past it, the singular A'A only yields null-space
        # steps of rounding size, which must not run on to the cap.  The
        # minimum-norm quick path (0 iterations) serves 8 of the 100 problems.
        n = 20
        ran = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            a = np.hstack([0.3 * rng.standard_normal((n, n)), np.eye(n)])
            b = 0.01 * rng.standard_normal(n)
            ub = np.ones(2 * n)
            ub[:3] = 0.0
            prob = QpProblem(h=np.eye(2 * n), g=np.zeros(2 * n), a_eq=a, b_eq=b, lb=-np.ones(2 * n), ub=ub)
            x1, phase1_its = _restore_equalities(prob, np.zeros(2 * n), 1e-8, 200)
            assert phase1_its <= 1, seed
            ran += phase1_its
            assert np.linalg.norm(a @ x1 - b, np.inf) <= 1e-8 * (1.0 + np.linalg.norm(b, np.inf))
        assert ran >= 90

    def test_bounds_honored_exactly(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            m = rng.standard_normal((6, 6))
            h = m.T @ m + 0.1 * np.eye(6)
            g = 3 * rng.standard_normal(6)
            lb, ub = np.full(6, -0.3), np.full(6, 0.3)
            x, _ = solve_qp(QpProblem(h=h, g=g, lb=lb, ub=ub))
            assert np.all(x >= lb) and np.all(x <= ub)

    def test_redundant_equality_rows(self):
        # duplicated rows must not break the solve
        a = np.array([[1.0, 1.0], [2.0, 2.0]])
        b = np.array([1.0, 2.0])
        x, diag = solve_qp(QpProblem(h=2 * np.eye(2), g=np.zeros(2), a_eq=a, b_eq=b))
        assert np.allclose(x, [0.5, 0.5], atol=1e-8)

    @staticmethod
    def _count_kkt_solves(monkeypatch):
        calls = []
        kkt_solve = optim._kkt_solve

        def spy(*args):
            out = kkt_solve(*args)
            calls.append(out[2])
            return out

        monkeypatch.setattr(optim, "_kkt_solve", spy)
        return calls

    @pytest.mark.parametrize("with_row", [False, True])
    def test_interior_minimizer_reuses_solve(self, monkeypatch, with_row):
        # the first solve steps straight onto the interior minimizer; the
        # second iteration takes p = 0 and the same multipliers without a solve
        rng = np.random.default_rng(9)
        m = rng.standard_normal((6, 6))
        h = m.T @ m + np.eye(6)
        g = rng.standard_normal(6)
        a = rng.standard_normal((1, 6)) if with_row else None
        b = np.array([0.3]) if with_row else None
        calls = self._count_kkt_solves(monkeypatch)
        x, diag = solve_qp(QpProblem(h=h, g=g, a_eq=a, b_eq=b, lb=np.full(6, -10.0), ub=np.full(6, 10.0)))
        if with_row:
            sol = np.linalg.solve(np.block([[h, a.T], [a, np.zeros((1, 1))]]), np.concatenate([-g, b]))
            x_ref, lam_ref = sol[:6], sol[6:]
            assert np.allclose(diag.eq_multipliers, lam_ref, rtol=0.0, atol=1e-8)
        else:
            x_ref = np.linalg.solve(h, -g)
        assert np.all(np.abs(x_ref) < 9.0)
        assert np.allclose(x, x_ref, rtol=0.0, atol=1e-8)
        assert diag.status == "optimal"
        assert diag.iterations == 2
        assert calls == [True]

    def test_lstsq_fallback_does_not_reuse(self, monkeypatch):
        # the duplicated row makes the KKT matrix singular: the first solve
        # (from a feasible corner) falls back to least squares, so the second
        # iteration solves again
        a = np.array([[1.0, 1.0], [2.0, 2.0]])
        b = np.array([1.0, 2.0])
        calls = self._count_kkt_solves(monkeypatch)
        x, diag = solve_qp(QpProblem(h=2 * np.eye(2), g=np.zeros(2), a_eq=a, b_eq=b), x0=np.array([1.0, 0.0]))
        assert np.allclose(x, [0.5, 0.5], atol=1e-8)
        assert diag.status == "optimal"
        assert calls[0] is False
        assert len(calls) == diag.iterations == 2

    def test_phase1_does_not_reuse(self, monkeypatch):
        # inconsistent rows with an interior least-squares point: phase 1 steps
        # onto it unblocked, stays infeasible, and must solve again to stop
        rng = np.random.default_rng(10)
        a = rng.standard_normal((8, 3))
        b = rng.standard_normal(8)
        calls = self._count_kkt_solves(monkeypatch)
        x1, _, its, status = optim._active_set(
            a.T @ a, -a.T @ b, None, None, np.full(3, -10.0), np.full(3, 10.0), np.zeros(3),
            1e-8, 200, phase1_rows=(a, b),
        )
        assert np.allclose(x1, np.linalg.lstsq(a, b, rcond=None)[0], rtol=0.0, atol=1e-8)
        assert status == "optimal"
        assert calls == [True, True] and its == 2

    def test_indefinite_rejected(self):
        with pytest.raises(IndefiniteHessianError):
            QpProblem(h=np.diag([1.0, -1.0]), g=np.zeros(2))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            QpProblem(h=np.array([[1.0, 0.5], [0.0, 1.0]]), g=np.zeros(2))


class TestMinNormStep:
    def test_matches_lstsq_on_column_subset(self):
        rng = np.random.default_rng(6)
        jac = rng.standard_normal((4, 9))
        c = rng.standard_normal(4)
        cols = np.array([True, False, True, True, False, True, True, False, True])
        d = _min_norm_step(jac, c, cols)
        ref, *_ = np.linalg.lstsq(jac[:, cols], -c, rcond=None)
        assert np.all(d[~cols] == 0.0)
        assert np.allclose(d[cols], ref, rtol=0.0, atol=1e-12)
        assert np.allclose(jac @ d, -c, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("consistent", [True, False])
    def test_repeated_row_falls_back_to_lstsq(self, monkeypatch, consistent):
        rng = np.random.default_rng(7)
        jac = rng.standard_normal((3, 6))
        jac = np.vstack([jac, jac[1]])
        c = rng.standard_normal(4)
        if consistent:
            c[3] = c[1]
        cols = np.array([True, True, False, True, True, True])
        lstsq = np.linalg.lstsq
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", spy)
        d = _min_norm_step(jac, c, cols)
        assert len(calls) == 1
        ref, *_ = lstsq(jac[:, cols], -c, rcond=None)
        assert np.all(d[~cols] == 0.0)
        assert np.allclose(d[cols], ref, rtol=0.0, atol=1e-12)


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

        x_qp, _ = solve_qp(QpProblem(h=h, g=g, a_eq=a, b_eq=b, lb=lb, ub=ub), tol=1e-10)
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

    def test_curvature_callback_gets_iterate_hessian_and_jacobian(self):
        def cost(x):
            return float(x @ x), 2.0 * x, np.diag([2.0, 4.0])

        def eq(x):
            return np.array([x[0] ** 2 + x[1] - 1.0]), np.array([[2.0 * x[0], 1.0]])

        seen = []

        def lag_hess(x, lam, hess, jac):
            seen.append((x.copy(), hess, jac))
            return None

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


def _sine_curve_nlp(target):
    """min 0.5 |x - target|^2 on the curve x1 = sin(x0), as SQP callbacks.

    ``curvature(mode)`` gives the constraint-curvature callback: ``"clip"``
    clips lam * sin(x0) at zero, ``"exact"`` passes it unclipped and
    ``"gated"`` passes it only where the reduced Hessian over the null space
    (1, cos x0) of the linearized row stays positive, else clips.  The
    callback counts its unclipped and clipped returns.
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
            if mode == "exact" or (mode == "gated" and z @ (hess + c) @ z > 0.0):
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
        # converges there in fewer iterations
        x_g, gated, counts_g, _ = self._solve(monkeypatch, (2.0, 0.0), (2.3, 0.7), "gated", 1e-10)
        x_c, clipped, counts_c, _ = self._solve(monkeypatch, (2.0, 0.0), (2.3, 0.7), "clip", 1e-10)
        assert counts_g["clip"] == 0
        assert (gated.status, gated.iterations) == ("optimal", 4)
        assert gated.kkt_residual < 1e-10
        assert (clipped.status, clipped.iterations) == ("max_iter", 10)
        assert clipped.kkt_residual > 1e-10
        assert np.allclose(x_g, x_c, atol=1e-6)

    def test_indefinite_falls_back_to_clip(self, monkeypatch):
        # from the origin the reduced Hessian is indefinite at first: the gate
        # clips there, every subproblem stays convex and ends optimal, and the
        # solve converges; unclipped curvature leaves a subproblem at its cap
        x, gated, counts, qp_statuses = self._solve(monkeypatch, (2.0, 0.0), (0.0, 0.0), "gated", 1e-10)
        assert counts["clip"] == 2 and counts["exact"] > 0
        assert set(qp_statuses) == {"optimal"}
        assert (gated.status, gated.iterations) == ("optimal", 7)
        assert abs(x[1] - np.sin(x[0])) < 1e-12
        _, ungated, _, qp_statuses = self._solve(monkeypatch, (2.0, 0.0), (0.0, 0.0), "exact", 1e-10)
        assert "max_iter" in qp_statuses
        assert ungated.status == "max_iter"


class TestInfNorm:
    def test_matches_numpy_norm(self):
        rng = np.random.default_rng(3)
        for n in (1, 7, 30):
            v = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
            assert optim._inf_norm(v) == np.linalg.norm(v, np.inf)
        assert optim._inf_norm(np.zeros(0)) == 0.0
        assert np.isnan(optim._inf_norm(np.array([1.0, np.nan])))
