"""Tests for the FD and exact Jacobians, pivoted elimination, and damped Newton."""

import numpy as np
import pytest

from nhtrack import kernels
from nhtrack.errors import DomainError, SingularJacobianError, SingularProblemError
from nhtrack.geometry import AdaptedState
from nhtrack.shooting import (
    NewtonConfig,
    fd_jacobian,
    newton_solve,
    solve_pivoted,
    solve_tracking,
)
from nhtrack.tracking import (
    TrackingProblem,
    benchmark_problem,
    constant_z_line,
    free_flow,
    shooting_residual,
)

RNG = np.random.default_rng(3)


class TestFdJacobian:
    def test_affine_map_recovered(self):
        """Central differences are exact for affine maps up to roundoff."""
        A = RNG.uniform(-2, 2, (4, 4))
        b = RNG.uniform(-1, 1, 4)
        J = fd_jacobian(lambda x: A @ x + b, RNG.uniform(-1, 1, 4), 1e-6)
        np.testing.assert_allclose(J, A, rtol=1e-8, atol=1e-9)

    def test_identity_map(self):
        J = fd_jacobian(lambda x: x.copy(), np.array([0.3, -0.7, 2.0]), 1e-6)
        np.testing.assert_allclose(J, np.eye(3), atol=1e-10)

    def test_columns_scaled_by_magnitude(self):
        """Probe steps grow with |alpha_j|; the scaling keeps affine maps exact."""
        A = np.diag([1.0, 1.0])
        J = fd_jacobian(lambda x: A @ x, np.array([1e6, 0.0]), 1e-6)
        np.testing.assert_allclose(J, A, rtol=1e-6)

    def test_non_finite_probe_raises_with_column(self):
        def res(x):
            if x[1] > 0.5:
                return np.array([np.nan, 0.0])
            return x.copy()

        with pytest.raises(DomainError) as err:
            fd_jacobian(res, np.array([0.0, 0.5]), 1e-2)
        assert "column 1" in str(err.value)

    @pytest.mark.parametrize("step", [np.nan, np.inf, 0.0, -1.0])
    def test_finite_positive_step_required(self, step):
        """A NaN or infinite step is rejected before any probe runs."""
        calls = []

        def res(x):
            calls.append(x)
            return x.copy()

        with pytest.raises(ValueError, match="fd step must be finite and positive"):
            fd_jacobian(res, np.zeros(5), step)
        assert calls == []


class TestSolvePivoted:
    def test_matches_reference_solver(self):
        """Dual route: hand-rolled elimination vs numpy.linalg.solve."""
        for _ in range(50):
            A = RNG.uniform(-3, 3, (5, 5)) + 2.0 * np.eye(5)
            b = RNG.uniform(-3, 3, 5)
            np.testing.assert_allclose(solve_pivoted(A, b), np.linalg.solve(A, b), rtol=1e-10)

    def test_pivoting_handles_zero_diagonal(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        b = np.array([2.0, 3.0])
        np.testing.assert_allclose(solve_pivoted(A, b), [3.0, 2.0])

    def test_singular_matrix_raises(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularJacobianError):
            solve_pivoted(A, np.ones(2))


    def test_tied_pivots_take_the_first_row(self):
        """|4| ties |-4| in column 0, and the first of the two rows is the
        pivot. The exact solution is (-0.15, 0.9, 2/3); each tie choice
        rounds its own way, so the bits tell the two choices apart."""
        A = np.array([[4.0, -5.0, 9.0], [-4.0, 0.0, 0.0], [2.0, 1.0, 0.0]])
        b = np.array([0.9, 0.6, 0.6])
        first = np.array([-0.1499999999999999, 0.8999999999999995, 0.6666666666666664])
        assert np.array(solve_pivoted(A, b)).tobytes() == first.tobytes()
        # with the tied rows swapped, the other row is first and the pivot
        other = np.array([-0.15, 0.9, 0.6666666666666666])
        assert np.array(solve_pivoted(A[[1, 0, 2]], b[[1, 0, 2]])).tobytes() == other.tobytes()

    def test_matches_numpy_on_well_conditioned_systems(self):
        """The Python-float elimination sums in its own order: it agrees with
        numpy.linalg.solve to 1e-12 relative when cond(A) < 100."""
        rng = np.random.default_rng(11)
        tested = 0
        while tested < 200:
            A = rng.uniform(-1, 1, (5, 5))
            if np.linalg.cond(A) >= 100.0:
                continue
            b = rng.uniform(-1, 1, 5)
            x = np.linalg.solve(A, b)
            assert np.max(np.abs(solve_pivoted(A, b) - x)) <= 1e-12 * np.max(np.abs(x))
            tested += 1


class TestNewtonSolve:
    def test_affine_converges_in_one_iteration(self):
        A = RNG.uniform(-2, 2, (5, 5)) + 3.0 * np.eye(5)
        x_star = RNG.uniform(-1, 1, 5)
        report = newton_solve(lambda x: A @ (x - x_star), lambda x: A, np.zeros(5), NewtonConfig())
        assert report.converged
        assert report.iterations == 1
        np.testing.assert_allclose(report.alpha_star, x_star, atol=1e-9)

    def test_scalar_cube_root(self):
        """x^3 - 8 from x0 = 3: classic quadratic convergence to 2."""
        report = newton_solve(
            lambda x: np.array([x[0] ** 3 - 8.0]),
            lambda x: np.array([[3.0 * x[0] ** 2]]),
            np.array([3.0]),
            NewtonConfig(),
        )
        assert report.converged
        assert report.iterations <= 10
        np.testing.assert_allclose(report.alpha_star, [2.0], atol=1e-10)

    def test_monotone_residual_history(self):
        report = newton_solve(
            lambda x: np.array([x[0] ** 3 + x[0] - 1.0, x[1] ** 3 + x[1] - 1.0]),
            lambda x: np.diag(3.0 * x**2 + 1.0),
            np.array([2.0, -2.0]),
            NewtonConfig(),
        )
        assert report.converged
        norms = np.array(report.residual_norms)
        assert np.all(np.diff(norms) < 0)

    def test_monotone_residual_on_tracking_problem(self):
        report = solve_tracking(benchmark_problem(N=1000))
        norms = np.array(report.residual_norms)
        assert np.all(np.diff(norms) < 0)

    def test_max_iterations_reported_not_raised(self):
        report = newton_solve(
            lambda x: np.array([np.exp(x[0])]),  # no root
            lambda x: np.array([[np.exp(x[0])]]),
            np.array([0.0]),
            NewtonConfig(max_iters=5),
        )
        assert not report.converged
        assert report.message

    @pytest.mark.parametrize("position", [0, 2, 4])
    def test_trial_with_a_nan_residual_rejected(self, position):
        """res(x) = x - t, except that the full Newton step, which lands on
        t exactly, has a NaN residual entry. Every full step is rejected,
        wherever the NaN sits, and each iteration halves the distance to t."""
        t = np.array([1.0, 2.0, 3.0, 4.0, 5.0])

        def res(x):
            r = x - t
            if np.array_equal(x, t):
                r[position] = np.nan
            return r

        report = newton_solve(res, lambda x: np.eye(5), np.zeros(5), NewtonConfig(max_iters=3))
        assert report.iterations == 3 and not report.converged
        assert report.residual_norms == [5.0, 2.5, 1.25, 0.625]
        assert report.alpha_star.tobytes() == (0.875 * t).tobytes()

    def test_nan_starting_residual_reported_alike_at_every_position(self):
        """A NaN in any entry of the starting residual makes its max-norm
        NaN, as np.max gives it, so no trial can reduce it: the same
        stalled report for every position of the NaN."""
        t = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        reports = []
        for position in (0, 2, 4):

            def res(x, position=position):
                r = x - t
                if not x.any():
                    r[position] = np.nan
                return r

            rep = newton_solve(res, lambda x: np.eye(5), np.zeros(5), NewtonConfig())
            assert len(rep.residual_norms) == 1 and np.isnan(rep.residual_norms[0])
            reports.append((rep.iterations, rep.converged, rep.message, rep.alpha_star.tobytes()))
        assert reports == [
            (0, False, "line search stalled: no damping factor reduced the residual max-norm nan",
             np.zeros(5).tobytes())
        ] * 3

    def test_domain_error_at_start_reported_not_raised(self):
        def res(x):
            raise DomainError("flow blew up")

        report = newton_solve(res, lambda x: np.eye(2), np.array([1.0, 2.0]), NewtonConfig())
        assert not report.converged
        assert report.iterations == 0
        assert report.residual_norms == []
        assert "starting guess" in report.message and "flow blew up" in report.message
        np.testing.assert_array_equal(report.alpha_star, [1.0, 2.0])

    def test_domain_error_in_jacobian_probe_reported_not_raised(self):
        def res(x):
            if x[1] > 0.5:
                raise DomainError("flow blew up")
            return x - 0.25

        report = newton_solve(
            res, lambda x: fd_jacobian(res, x, 1e-2), np.array([0.0, 0.5]), NewtonConfig()
        )
        assert not report.converged
        assert report.iterations == 0
        assert len(report.residual_norms) == 1
        assert "Jacobian" in report.message and "column 1" in report.message

    def test_singular_jacobian_diagnostic_carries_iterate(self):
        """A rank-deficient Jacobian ends the solve with a report, not a raise."""

        def res(x):
            return np.array([x[0] + x[1] - 1.0, 2.0 * (x[0] + x[1]) - 2.0])

        report = newton_solve(
            res, lambda x: np.array([[1.0, 1.0], [2.0, 2.0]]), np.array([5.0, -1.0]), NewtonConfig()
        )
        assert not report.converged
        assert report.iterations == 0
        assert report.residual_norms == [6.0]
        assert "singular Jacobian" in report.message and "negligible pivot" in report.message
        np.testing.assert_array_equal(report.alpha_star, [5.0, -1.0])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NewtonConfig(tol_residual=0.0)
        with pytest.raises(ValueError):
            NewtonConfig(max_iters=0)

    @pytest.mark.parametrize("tol", [np.inf, np.nan])
    def test_rejects_non_finite_tolerance(self, tol):
        with pytest.raises(ValueError, match="finite"):
            NewtonConfig(tol_residual=tol)

    @pytest.mark.parametrize("max_iters", [np.nan, 2.5, 3.0, True])
    def test_rejects_non_integer_max_iters(self, max_iters):
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            NewtonConfig(max_iters=max_iters)


class TestSolveTracking:
    def test_benchmark_converges(self):
        """Benchmark problem from alpha0 = 0: tight residual, few iterations."""
        prob = benchmark_problem()
        report = solve_tracking(prob)
        assert report.converged
        assert report.iterations <= 50
        assert report.residual_norms[-1] <= 1e-8
        # solution verification guards against stale-state bugs
        assert np.max(np.abs(shooting_residual(report.alpha_star, prob))) <= 1e-10

    def test_quadratic_tail(self):
        """The last three norms before convergence shrink superlinearly.

        The final accepted norm itself sits at the residual's roundoff
        floor, so the contraction ratios are taken up to that point.
        """
        report = solve_tracking(benchmark_problem())
        norms = np.array(report.residual_norms[:-1])
        ratios = norms[1:] / norms[:-1]
        assert ratios[-1] < ratios[-2]
        assert ratios[-1] < 1e-3

    def test_deterministic(self):
        prob = benchmark_problem(N=500)
        a = solve_tracking(prob)
        b = solve_tracking(prob)
        assert np.all(a.alpha_star == b.alpha_star)
        assert a.residual_norms == b.residual_norms
        assert a.cost == b.cost

    def test_self_tracking_equilibrium(self):
        """Reference generated by the free flow: alpha* ~ 0, controls ~ 0."""
        s0 = AdaptedState(q=[0.5, 0.2, 0.7], v=[0.5, 0.4])
        prob = TrackingProblem(ref=free_flow(s0), epsilon=7.0, T=4.0, s0=s0)
        report = solve_tracking(prob)
        assert report.converged
        assert np.max(np.abs(report.alpha_star)) <= 1e-8
        assert np.max(np.abs(report.controls)) <= 1e-6

    def test_blowup_at_start_gives_report_without_trajectory(self):
        """epsilon = 0.1: the flow at alpha0 = 0 already leaves double range."""
        report = solve_tracking(benchmark_problem(epsilon=0.1, N=1000))
        assert not report.converged
        assert "left the domain" in report.message
        assert report.trajectory is None and report.cost is None

    def test_report_contains_trajectory_and_cost(self):
        prob = benchmark_problem(N=500)
        report = solve_tracking(prob)
        assert report.trajectory.states.shape == (501, 10)
        assert report.controls.shape == (501, 2)
        np.testing.assert_array_equal(
            report.controls, -report.trajectory.states[:, 8:] / prob.epsilon
        )
        assert report.cost > 0.0

    def test_non_finite_sensitivity_reported_not_raised(self, monkeypatch):
        """A non-finite S_N ends the solve with a Jacobian report."""
        rollout = kernels.rollout_coupled

        def nan_sensitivity(*args, sens=None):
            states = rollout(*args, sens=sens)
            if sens is not None:
                sens[0, 0] = np.nan
            return states

        monkeypatch.setattr(kernels, "rollout_coupled", nan_sensitivity)
        report = solve_tracking(benchmark_problem(N=400))
        assert not report.converged
        assert report.iterations == 0
        assert "Jacobian left the domain" in report.message and "not finite" in report.message
        np.testing.assert_array_equal(report.alpha_star, np.zeros(5))
        assert report.trajectory is not None

    def test_benchmark_solve_makes_37_rollouts(self, monkeypatch):
        """The N = 400 benchmark solve calls kernels.rollout_coupled 37 times:
        1 initial residual, 11 Jacobians (with sens), 24 line-search trials
        and 1 final flow at alpha*. Every call passes (z0, h, N, ref, eps,
        literal) positionally and sens by keyword, as perfbench/spans.py
        reads them."""
        calls = []
        rollout = kernels.rollout_coupled

        def counting(*args, **kwargs):
            calls.append((args, kwargs))
            return rollout(*args, **kwargs)

        monkeypatch.setattr(kernels, "rollout_coupled", counting)
        report = solve_tracking(benchmark_problem(N=400))
        assert report.converged and report.iterations == 11
        assert len(calls) == 37
        assert all(len(args) == 6 and args[2] == 400 and args[3].shape == (801, 5) for args, _ in calls)
        keywords = [sorted(kwargs) for _, kwargs in calls]
        assert keywords.count(["sens"]) == 11 and keywords.count([]) == 1 + 24 + 1
        plain = [args for args, kwargs in calls if not kwargs]
        assert plain[0][0][5:].tobytes() == np.zeros(5).tobytes()
        assert not calls[-1][1] and calls[-1][0][0][5:].tobytes() == report.alpha_star.tobytes()

    def test_singular_problem_rejected_before_solving(self):
        with pytest.raises(SingularProblemError):
            TrackingProblem(
                ref=constant_z_line(),
                epsilon=0.0,
                T=4.0,
                s0=AdaptedState(q=[0.5, 0.2, 0.7], v=[0.5, 0.4]),
            )


class TestFailureMap:
    """The solver over T in {4, 8, 12} x epsilon in {0.1, 1, 7}, N = 250*T.

    Every point either converges or returns a report with its reason;
    none raises. Measured outcomes: (4, 7) converges in 11 iterations,
    (4, 1) stalls in the line search, (8, 7) does not converge within 100
    iterations, and the other six points leave the finite domain at the
    starting guess alpha0 = 0.
    """

    ALPHA_T4_EPS7 = np.array(
        [-3.37386086855974, 6.125942424839123, -2.47144952335773, 7.865586351692387, -4.077189439149485]
    )

    @pytest.mark.parametrize("T", [4.0, 8.0, 12.0])
    @pytest.mark.parametrize("epsilon", [0.1, 1.0, 7.0])
    def test_converges_or_reports_reason(self, T, epsilon):
        cfg = NewtonConfig()
        report = solve_tracking(benchmark_problem(epsilon=epsilon, T=T, N=int(250 * T)), cfg=cfg)
        if (T, epsilon) == (4.0, 7.0):
            assert report.converged
            np.testing.assert_allclose(report.alpha_star, self.ALPHA_T4_EPS7, rtol=0.0, atol=cfg.tol_residual)
        elif not report.converged:
            assert report.message
