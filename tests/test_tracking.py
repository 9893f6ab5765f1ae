"""Tests for costs, Hamiltonian, adjoint modes, coupled flow, and residual."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhtrack import kernels
from nhtrack.errors import ContractError, DomainError, SingularProblemError
from nhtrack.geometry import AdaptedState
from nhtrack.integrators import Trajectory, VectorField, integrate
from nhtrack.particle import analytic_constants, analytic_flow
from nhtrack.shooting import fd_jacobian, solve_tracking
from nhtrack.tracking import (
    ADJOINT_MODES,
    TrackingProblem,
    _terminal_rows,
    benchmark_problem,
    constant_z_line,
    free_flow,
    hamiltonian,
    hamiltonian_control_gradient,
    integrate_coupled,
    particle_slopes,
    residual_from_trajectory,
    running_cost,
    shooting_maps,
    shooting_residual,
    stationary_control,
    tabulated,
    terminal_cost,
    total_cost,
    uncontrolled_cost,
)
from oracles import hamiltonian_balance_defect
from stacked_points import assert_rows_are_single_calls, stacked

RNG = np.random.default_rng(2)

S0 = AdaptedState(q=[0.5, 0.2, 0.7], v=[0.5, 0.4])

# shooting residual at alpha = 0 for the benchmark problem, frozen after
# cross-checking the kernel rollout against the generic integrator
RESIDUAL_AT_ZERO = {
    True: np.array([
        2.653577580219845, -10.043675425351053, 15.907057752942933,
        4.078987517321088, 7.076932217818834,
    ]),
    False: np.array([
        2.660494478396544, -3.5172308081219272, 3.4432657539205147,
        4.364646236819338, 3.8455347471153365,
    ]),
}


def random_costate():
    """Costate rows [l1, l2, l3, m1, m2]."""
    return RNG.uniform(-2, 2, 5)


def random_sample():
    return np.concatenate([RNG.uniform(-1, 1, 3), RNG.uniform(-1, 1, 2)])


def split_qv(rows):
    """(q_r, v_r) of reference rows [q_r, v_r]."""
    return rows[..., :3], rows[..., 3:]


def kernel_rows(z, ref, eps, mode):
    """The C kernel's coupled rows at stacked states z and reference rows
    ref, in adjoint mode `mode`."""
    return kernels.coupled_rhs(z, ref, eps, mode == "paper-literal")


class TestRunningCost:
    def test_zero_on_reference(self):
        r = random_sample()
        assert running_cost(r, r, np.zeros(2), 7.0) == 0.0

    def test_single_position_error(self):
        x = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        assert running_cost(x, np.zeros(5), np.zeros(2), 1.0) == 0.5

    def test_control_effort_term(self):
        """eps=7 with u=(1,-2): cost is 7*5/2."""
        assert running_cost(np.zeros(5), np.zeros(5), np.array([1.0, -2.0]), 7.0) == 17.5

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(SingularProblemError):
            running_cost(np.zeros(5), np.zeros(5), np.zeros(2), 0.0)

    @pytest.mark.parametrize("eps", [np.inf, np.nan])
    def test_rejects_non_finite_eps(self, eps):
        with pytest.raises(SingularProblemError, match="finite"):
            running_cost(np.zeros(5), np.zeros(5), np.zeros(2), eps)

    @staticmethod
    def _points(lead=(4,)):
        rng = np.random.default_rng(5)
        x, r = (
            np.concatenate([rng.uniform(-1, 1, lead + (3,)), rng.uniform(-1, 1, lead + (2,))], axis=-1)
            for _ in range(2)
        )
        return x, r, rng.uniform(-1, 1, lead + (2,))

    def test_row_weights_equal_single_point_calls(self):
        x, r, u = self._points()
        eps = np.array([0.5, 7.0, 2.0, 1e3])
        rows = running_cost(x, r, u, eps)
        assert rows.shape == (4,)
        for j in range(4):
            one = running_cost(x[j], r[j], u[j], eps[j])
            assert rows[j].tobytes() == np.float64(one).tobytes()

    @pytest.mark.parametrize("bad", [0.0, np.inf, np.nan])
    def test_one_bad_row_weight_rejected(self, bad):
        x, r, u = self._points()
        with pytest.raises(SingularProblemError, match="finite and positive"):
            running_cost(x, r, u, np.array([1.0, bad, 2.0, 3.0]))

    @pytest.mark.parametrize("lead, shape", [((4,), (4, 1)), ((4,), (1,)), ((), (2,))],
                             ids=["column-of-four", "one-for-four", "two-for-one-point"])
    def test_weight_that_would_reshape_the_result_rejected(self, lead, shape):
        """eps of shape (M, 1) would broadcast the M costs to (M, M)."""
        x, r, u = self._points(lead)
        with pytest.raises(ContractError, match="one weight per point"):
            running_cost(x, r, u, np.ones(shape))


class TestTerminalCost:
    def test_zero_on_reference(self):
        rT = random_sample()
        assert terminal_cost(rT, rT) == 0.0

    def test_unit_error_single_coordinate(self):
        """No 1/2 factor on the terminal penalty."""
        xT = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        assert terminal_cost(xT, np.zeros(5)) == 1.0

    def test_uniform_small_errors(self):
        np.testing.assert_allclose(terminal_cost(np.full(5, 0.1), np.zeros(5)), 0.05, rtol=1e-14)

    def test_omega_weighting(self):
        """Terminal error of squared norm 0.05 contributes 0.1 at omega=2."""
        np.testing.assert_allclose(
            2.0 * terminal_cost(np.full(5, 0.1), np.zeros(5)), 0.1, rtol=1e-14
        )


class TestHamiltonian:
    def test_zero_on_reference_with_zero_costate(self):
        r = random_sample()
        z = np.concatenate([r, np.zeros(5)])
        assert hamiltonian(z, np.zeros(2), r, 7.0) == 0.0

    def test_reduces_to_running_cost_without_costate(self):
        x = random_sample()
        r = random_sample()
        u = RNG.uniform(-1, 1, 2)
        z = np.concatenate([x, np.zeros(5)])
        assert hamiltonian(z, u, r, 7.0) == running_cost(x, r, u, 7.0)

    def test_term_by_term_arithmetic(self):
        """Every term of H summed independently for a concrete point."""
        z = np.array([0.3, 0.2, -0.1, 0.5, 0.4, 1.0, 1.0, 1.0, 0.0, 1.0])
        r = np.array([0.3, 0.2, -0.1, 0.0, 1.0])  # on-reference positions
        got = hamiltonian(z, np.zeros(2), r, 7.0)
        expected = (
            0.5 * (0.5**2 + (0.4 - 1.0) ** 2)  # velocity error
            + (-0.2 * 0.4 + 0.5 + 0.4)  # lam . qdot
            + 1.0 * (-(0.2 / 1.04) * 0.5 * 0.4)  # mu . vdot
        )
        np.testing.assert_allclose(got, expected, rtol=1e-14)


class TestStationaryControl:
    def test_exact_fixture(self):
        mu = np.array([-7.0, 14.0])
        np.testing.assert_array_equal(stationary_control(mu, 7.0), [1.0, -2.0])
        np.testing.assert_array_equal(
            hamiltonian_control_gradient(mu, np.array([1.0, -2.0]), 7.0), [0.0, 0.0]
        )

    def test_zero_costate(self):
        np.testing.assert_array_equal(stationary_control(np.zeros(2), 3.0), [0.0, 0.0])

    def test_rejects_singular_weight(self):
        mu = random_costate()[3:]
        with pytest.raises(SingularProblemError):
            stationary_control(mu, 0.0)
        with pytest.raises(SingularProblemError):
            stationary_control(mu, -1.0)

    @pytest.mark.parametrize("eps", [np.inf, np.nan])
    def test_rejects_non_finite_weight(self, eps):
        with pytest.raises(SingularProblemError, match="finite"):
            stationary_control(random_costate()[3:], eps)

    def test_global_minimizer_quadratic_expansion(self):
        """H(u* + d) - H(u*) == eps |d|^2 / 2 for every perturbation."""
        x = random_sample()
        r = random_sample()
        for _ in range(20):
            z = np.concatenate([x, random_costate()])
            eps = float(RNG.uniform(0.5, 10))
            u = stationary_control(z[8:], eps)
            d = RNG.uniform(-2, 2, 2)
            gap = hamiltonian(z, u + d, r, eps) - hamiltonian(z, u, r, eps)
            np.testing.assert_allclose(gap, 0.5 * eps * (d @ d), rtol=1e-9, atol=1e-12)


class TestStackedPoints:
    """Coupled rows, references and per-row weights stacked along leading
    axes: one value or one row per point."""

    @settings(max_examples=60, deadline=None)
    @given(stacked(10, 5, 1), st.floats(0.1, 50.0))
    def test_rows_equal_single_point_calls(self, arrays_, eps):
        def evaluate(z, r, w):
            u = stationary_control(z[..., 8:], 0.5 + w * w)  # one positive weight per row
            return {
                "stationary_control": u,
                "hamiltonian": hamiltonian(z, u, r, eps),
            }

        assert_rows_are_single_calls(evaluate, *arrays_)
        # one control row per point of axis 0, (M, 1, 2), against rows z of
        # shape (M, P, 10) gives the values of that control repeated P times
        z, r, _ = arrays_
        if z.ndim == 3:
            u = stationary_control(z[:, :1, 8:], eps)
            repeated = np.repeat(u, z.shape[1], axis=1)
            assert hamiltonian(z, u, r, eps).tobytes() == hamiltonian(z, repeated, r, eps).tobytes()

    @pytest.mark.parametrize("bad", [0.0, np.inf, np.nan])
    def test_one_bad_row_weight_rejected(self, bad):
        eps = np.array([[1.0], [bad], [2.0]])
        with pytest.raises(SingularProblemError, match="stationary condition degenerates"):
            stationary_control(np.ones((3, 2)), eps)

    def test_row_weights_give_row_controls(self):
        mu = np.array([[-7.0, 14.0], [3.0, -6.0]])
        np.testing.assert_array_equal(
            stationary_control(mu, np.array([[7.0], [3.0]])), [[1.0, -2.0], [-1.0, 2.0]]
        )
        np.testing.assert_array_equal(
            hamiltonian_control_gradient(mu, [[1.0, -2.0], [-1.0, 2.0]], np.array([[7.0], [3.0]])),
            np.zeros((2, 2)),
        )


class TestAdjointField:
    """The costate columns 5: of the C kernel's coupled rows."""

    MODES = ("derived", "paper-literal")

    def test_zero_on_reference_with_zero_costate(self):
        ref = random_sample()[None]
        z = np.concatenate([ref[0], np.zeros(5)])[None]
        for mode in self.MODES:
            np.testing.assert_array_equal(kernel_rows(z, ref, 7.0, mode)[:, 5:], np.zeros((1, 5)))

    def test_pure_position_error(self):
        """x off-reference by 0.3 drives only lam1."""
        ref = np.array([[0.0, 0.2, 0.5, 0.3, -0.4]])
        z = np.concatenate([ref[0] + [0.3, 0.0, 0.0, 0.0, 0.0], np.zeros(5)])[None]
        pdot = kernel_rows(z, ref, 7.0, "derived")[0, 5:]
        np.testing.assert_allclose(pdot[:3], [-0.3, 0.0, 0.0], atol=1e-16)
        np.testing.assert_array_equal(pdot[3:], np.zeros(2))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ContractError, match=r"adjoint_mode must be one of \('derived', 'paper-literal'\)"):
            benchmark_problem(N=10, adjoint_mode="gradient")

    def test_modes_agree_when_coupling_costate_vanishes(self):
        """With mu2 = 0 the differing terms drop out of both variants."""
        z = np.concatenate([RNG.uniform(-1, 1, 8), [0.7, 0.0]])[None]
        ref = random_sample()[None]
        a, b = (kernel_rows(z, ref, 7.0, mode) for mode in self.MODES)
        np.testing.assert_allclose(a, b, atol=1e-15)


def _gap(got, want):
    """|got - want| relative to the largest |want| of each row, or absolute
    where that is below 1."""
    scale = np.maximum(np.max(np.abs(want), axis=-1, keepdims=True), 1.0)
    return float(np.max(np.abs(got - want) / scale))


class TestSymbolicOracle:
    """The Hamiltonian and the C kernel's coupled rows, costate columns
    and all, equal the sympy derivation from the frame and the connection
    alone (`oracles.particle_oracle`), at 200 random stacked rows of
    state, costate, reference and control."""

    ROWS = np.random.default_rng(20).uniform(-3.0, 3.0, (200, 17))
    Z, R, U = ROWS[:, :10], ROWS[:, 10:15], ROWS[:, 15:17]

    @pytest.mark.parametrize("eps", [0.5, 7.0])
    def test_hamiltonian(self, oracle, eps):
        got = hamiltonian(self.Z, self.U, self.R, eps)
        assert _gap(got[:, None], oracle.hamiltonian(self.Z, self.U, self.R, eps)[:, None]) <= 1e-14

    @pytest.mark.parametrize("eps", [0.5, 7.0])
    @pytest.mark.parametrize("mode", ["derived", "paper-literal"])
    def test_adjoint_field(self, oracle, mode, eps):
        got = kernel_rows(self.Z, self.R, eps, mode)[:, 5:]
        assert _gap(got, oracle.adjoint[mode](self.Z, self.R, eps)) <= 1e-14

    @pytest.mark.parametrize("eps", [0.5, 7.0])
    @pytest.mark.parametrize("mode", ["derived", "paper-literal"])
    def test_coupled_field(self, oracle, mode, eps):
        got = kernel_rows(self.Z, self.R, eps, mode)
        assert _gap(got, oracle.field[mode](self.Z, self.R, eps)) <= 1e-14


class TestCoupledField:
    """The C kernel's coupled rows: hand-computed values, and its rollout
    against the generic integrator on the symbolic field."""

    def test_first_stage_slope_hand_computed(self):
        """k1 at the benchmark initial data with zero costate, both modes,
        against the benchmark reference at t = 0."""
        expected = np.array(
            [-0.08, 0.5, 0.4, 0.0, -(0.2 / 1.04) * 0.5 * 0.4, 0.5, -0.2, 0.3, -0.5, 0.6]
        )
        z0 = np.concatenate([S0.q, S0.v, np.zeros(5)])[None]
        ref = constant_z_line(1.0, 1.0, 1.0)(0.0)[None]
        for mode in ("derived", "paper-literal"):
            np.testing.assert_allclose(kernel_rows(z0, ref, 7.0, mode)[0], expected, rtol=1e-14)

    def test_equilibrium_on_self_generated_reference(self):
        """On-reference state with zero costate follows the reference."""
        params = analytic_constants(S0)
        t = 1.3
        ref = analytic_flow(params, t)[None]
        z = np.concatenate([ref[0], np.zeros(5)])[None]
        dz = kernel_rows(z, ref, 7.0, "derived")[0]
        # state derivative equals the free-flow derivative, costate stays 0
        h = 1e-6
        sm, sp = analytic_flow(params, t - h), analytic_flow(params, t + h)
        ref_dot = (sp - sm) / (2 * h)
        np.testing.assert_allclose(dz[:5], ref_dot, atol=1e-9)
        np.testing.assert_allclose(dz[5:], np.zeros(5), atol=1e-13)

    def test_kernel_matches_generic_integrator(self, oracle):
        """Kernel rollout vs the callback integrator on the sympy field,
        both adjoint modes."""
        for mode in ("derived", "paper-literal"):
            prob = benchmark_problem(N=400, adjoint_mode=mode)
            alpha = np.array([0.2, -0.4, 0.1, 0.3, -0.2])
            fast = integrate_coupled(prob, alpha)
            z0 = np.concatenate([S0.q, S0.v, alpha])
            field = oracle.field[mode]
            vf = VectorField(dim=10, f=lambda t, z: field(z, prob.ref(t), prob.epsilon))
            slow = integrate(vf, 0.0, z0, prob.T, prob.N)
            np.testing.assert_allclose(fast.states, slow.states, rtol=1e-9, atol=1e-12)


class TestReferenceKinds:
    def test_constant_z_line_values(self):
        ref = constant_z_line(1.0, 1.0, 1.0)
        q_r, v_r = split_qv(ref(2.5))
        np.testing.assert_array_equal(q_r, [1.0, 0.0, 3.5])
        np.testing.assert_array_equal(v_r, [0.0, 1.0])

    def test_free_flow_matches_analytic(self):
        ref = free_flow(S0)
        params = analytic_constants(S0)
        for t in (0.0, 1.0, 3.2):
            np.testing.assert_array_equal(ref(t), analytic_flow(params, t))

    def test_tabulated_interpolates_linearly(self):
        times = np.array([0.0, 1.0, 2.0])
        rows = np.array([[0, 0, 0, 0, 0], [2, 4, 6, 8, 10], [4, 8, 12, 16, 20]], dtype=float)
        ref = tabulated(times, rows)
        q_r, v_r = split_qv(ref(0.5))
        np.testing.assert_array_equal(q_r, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(v_r, [4.0, 5.0])

    @pytest.mark.parametrize("make", [
        lambda: constant_z_line(1.0, -0.5, 2.0),
        lambda: free_flow(S0),
        lambda: tabulated(np.array([0.0, 1.5, 3.0]), RNG.uniform(-1, 1, (3, 5))),
    ], ids=["line", "free-flow", "tabulated"])
    def test_time_array_rows_equal_scalar_samples(self, make):
        ref = make()
        times = np.linspace(-0.5, 4.0, 10)
        q_r, v_r = split_qv(ref(times))
        assert q_r.shape == (10, 3) and v_r.shape == (10, 2)
        for j, t in enumerate(times):
            q1, v1 = split_qv(ref(float(t)))
            np.testing.assert_array_equal(q_r[j], q1)
            np.testing.assert_array_equal(v_r[j], v1)

    def test_tabulated_validates_grid(self):
        with pytest.raises(ContractError, match=r"\(M, 5\) table"):
            tabulated(np.array([0.0, 0.5, 1.0]), np.zeros(3))
        with pytest.raises(ContractError, match=r"\(M, 5\) table"):
            tabulated(np.array([0.0, 0.5, 1.0]), np.zeros((3, 4)))
        with pytest.raises(ContractError):
            tabulated(np.array([0.0, 0.0, 1.0]), np.zeros((3, 5)))
        with pytest.raises(ContractError, match="finite"):
            tabulated(np.array([0.0, np.nan, 1.0]), np.zeros((3, 5)))
        with pytest.raises(ContractError, match="finite"):
            tabulated(np.array([0.0, 0.5, 1.0]), np.full((3, 5), np.inf))
        with pytest.raises(ContractError, match="at least one sample row"):
            tabulated(np.empty(0), np.empty((0, 5)))

    def test_problem_rejects_non_finite_reference(self):
        with pytest.raises(DomainError, match=r"^the reference is not finite at t = 0\.0$"):
            TrackingProblem(ref=constant_z_line(x_r=np.nan), epsilon=7.0, T=4.0, s0=S0, N=10)

    @pytest.mark.parametrize("z_offset", [-0.5, 1.0, 3e6, 1e9])
    def test_line_lies_on_the_distribution_exactly(self, z_offset):
        """At y = 0 the constraint coupling vanishes: the kernel's velocity
        rows at the line's rows are (0, 0, speed), the line's own velocity,
        with no rounding at all."""
        speed = 2.5
        ref = constant_z_line(x_r=0.3, z_offset=z_offset, speed=speed)
        times = np.concatenate([np.linspace(0.0, 4.0, 9), [1e7, 1e9]])
        q_dot = particle_slopes(ref(times))[:, :3]
        np.testing.assert_array_equal(q_dot, np.tile([0.0, 0.0, speed], (len(times), 1)))

    @pytest.mark.parametrize("make, T", [
        (lambda: constant_z_line(z_offset=3e6), 4.0),
        (lambda: constant_z_line(z_offset=1e9), 4.0),
        (lambda: constant_z_line(speed=1e10), 4.0),
        (lambda: free_flow(AdaptedState(q=[1e9, 0.2, 0.7], v=[0.5, 0.4])), 4.0),
        (constant_z_line, 1e7),
        (lambda: free_flow(S0), 1e7),
    ], ids=["z-offset-3e6", "z-offset-1e9", "speed-1e10", "free-flow-x-1e9",
            "line-T-1e7", "free-flow-T-1e7"])
    def test_problem_builds_on_large_reference_values(self, make, T):
        """Large but finite offsets, speeds and times give valid references."""
        prob = TrackingProblem(ref=make(), epsilon=7.0, T=T, s0=S0, N=10)
        assert prob._ref_table.shape == (21, 5)


class TestTrackingProblem:
    def test_rejects_singular_epsilon(self):
        ref = constant_z_line()
        with pytest.raises(SingularProblemError):
            TrackingProblem(ref=ref, epsilon=0.0, T=4.0, s0=S0)

    def test_rejects_bad_scalars(self):
        ref = constant_z_line()
        with pytest.raises(ContractError):
            TrackingProblem(ref=ref, epsilon=7.0, T=-1.0, s0=S0)
        with pytest.raises(ContractError):
            TrackingProblem(ref=ref, epsilon=7.0, T=4.0, s0=S0, omega=0.0)
        with pytest.raises(ContractError):
            TrackingProblem(ref=ref, epsilon=7.0, T=4.0, s0=S0, N=0)
        with pytest.raises(ContractError):
            TrackingProblem(ref=ref, epsilon=7.0, T=4.0, s0=S0, adjoint_mode="exact")

    @pytest.mark.parametrize("epsilon", [np.inf, np.nan])
    def test_rejects_non_finite_epsilon(self, epsilon):
        with pytest.raises(SingularProblemError, match="finite"):
            TrackingProblem(ref=constant_z_line(), epsilon=epsilon, T=4.0, s0=S0, N=10)

    @pytest.mark.parametrize("omega", [np.inf, np.nan])
    def test_rejects_non_finite_omega(self, omega):
        with pytest.raises(ContractError, match="omega must be finite"):
            TrackingProblem(ref=constant_z_line(), epsilon=7.0, T=4.0, s0=S0, N=10, omega=omega)

    @pytest.mark.parametrize("T", [np.inf, np.nan])
    def test_rejects_non_finite_horizon(self, T):
        with pytest.raises(ContractError, match="horizon T must be finite"):
            TrackingProblem(ref=constant_z_line(), epsilon=7.0, T=T, s0=S0, N=10)

    def test_dimensions_are_the_row_layout(self):
        """A start has 3 positions and 2 fiber velocities, and alpha the 5
        entries of a costate row."""
        for q, v in (([0.5, 0.2], [0.5, 0.4]), ([0.5, 0.2, 0.7], [0.5, 0.4, 0.1])):
            with pytest.raises(ContractError, match="initial state dimensions"):
                TrackingProblem(ref=constant_z_line(), epsilon=7.0, T=4.0, s0=AdaptedState(q, v), N=10)
        with pytest.raises(ContractError, match="alpha must have length 5"):
            shooting_residual(np.zeros(4), benchmark_problem(N=10))

    @pytest.mark.parametrize("q, v", [
        ([np.nan, 0.2, 0.7], [0.5, 0.4]),
        ([0.5, 0.2, 0.7], [0.5, np.inf]),
    ], ids=["nan-q", "inf-v"])
    def test_rejects_non_finite_start(self, q, v):
        s0 = AdaptedState(q=q, v=v)
        with pytest.raises(ContractError, match="s0 must be finite"):
            TrackingProblem(ref=constant_z_line(), epsilon=7.0, T=4.0, s0=s0, N=10)

    @pytest.mark.parametrize(
        "N", [400.0, True, np.float64(10.0), "10"], ids=["float", "bool", "numpy-float", "str"]
    )
    def test_rejects_non_integer_step_count(self, N):
        with pytest.raises(ContractError, match="N must be an integer"):
            TrackingProblem(ref=constant_z_line(), epsilon=7.0, T=4.0, s0=S0, N=N)

    def test_numpy_int_step_count_gives_the_int_problem(self):
        prob = TrackingProblem(ref=constant_z_line(), epsilon=7.0, T=4.0, s0=S0, N=np.int64(10))
        same = TrackingProblem(ref=constant_z_line(), epsilon=7.0, T=4.0, s0=S0, N=10)
        alpha = np.full(5, 0.1)
        np.testing.assert_array_equal(shooting_residual(alpha, prob), shooting_residual(alpha, same))

    def test_reference_table_matches_samples(self):
        prob = benchmark_problem(N=8)
        half = 0.5 * prob.h
        table = prob._ref_table
        assert table.shape == (17, 5)
        for j in (0, 5, 16):
            np.testing.assert_array_equal(table[j], prob.ref(j * half))

    def test_solve_and_costs_sample_the_reference_once(self):
        """The horizon row the residual and the costs read is the last row
        of the validated half-grid table, not a second sample."""
        line = constant_z_line(1.0, 1.0, 1.0)
        times = []

        def sample(t):
            times.append(t)
            return line(t)

        prob = TrackingProblem(ref=sample, epsilon=7.0, T=4.0, s0=S0, N=400)
        report = solve_tracking(prob)
        assert report.converged
        total_cost(report.trajectory, prob)
        uncontrolled_cost(prob)
        assert len(times) == 1
        assert np.shape(times[0]) == (801,)


def _sha256(table):
    return hashlib.sha256(np.ascontiguousarray(table, dtype="<f8").tobytes()).hexdigest()


class TestRefTableBitExact:
    """SHA-256 of _ref_table, recorded when it sampled the reference one
    half-grid time at a time; the whole-grid call must give the same bits."""

    def test_constant_z_line_n400(self):
        table = benchmark_problem(N=400)._ref_table
        assert _sha256(table) == "c5a71dfd2e76ca6eceb9c6c45ece53957c01904b53ef5f68cc3c13c920ebc4e7"

    @pytest.mark.parametrize("v, digest", [
        ([0.5, 0.4], "397241c8a3142edf6f9d9ffad4716e746f9755abd6a2a6433c6b5d9d1959e797"),
        ([0.0, 0.4], "ec82bc4c2c493eef84a5906e36f6616631fbe7e5abd37b96986b39809dca3887"),
    ], ids=["generic", "c1-zero"])
    def test_free_flow_n4000(self, v, digest):
        s0 = AdaptedState(q=np.array([0.5, 0.2, 0.7]), v=np.array(v))
        prob = TrackingProblem(ref=free_flow(s0), epsilon=7.0, T=4.0, s0=s0, N=4000)
        assert _sha256(prob._ref_table) == digest

    def test_tabulated_n400(self):
        # an irregular grid ending at t = 3.08, so the last samples clamp
        rng = np.random.default_rng(7)
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.2, 24))])
        ref = tabulated(times, rng.uniform(-1.0, 1.0, (25, 5)))
        prob = TrackingProblem(ref=ref, epsilon=7.0, T=4.0, s0=S0, N=400)
        assert _sha256(prob._ref_table) == "cd55e7852ec50bf75049b9350bc307c3cdb1066056f49a563bf2a317aa839188"

    @pytest.mark.parametrize("sample", [
        lambda t: np.array([1.0, 0.0, 1.0, 0.0, 1.0]),  # ignores the time vector
        lambda t: np.stack([np.ones_like(t), 0 * t, 1 + t, 0 * t, np.ones_like(t)]),
        # an old-style (q_r, v_r) pair, which numpy cannot stack into one array
        lambda t: (np.stack([np.ones_like(t), 0 * t, 1 + t], axis=-1),
                   np.stack([0 * t, np.ones_like(t)], axis=-1)),
    ], ids=["scalar-only", "transposed", "qv-pair"])
    def test_wrong_sample_shapes_rejected(self, sample):
        with pytest.raises(ContractError, match="reference sample of 21 times"):
            TrackingProblem(ref=sample, epsilon=7.0, T=4.0, s0=S0, N=10)


# The reflection (x, y, v1) -> (-x, -y, -v1), with their costates
# (l1, l2, m1) negated, maps the particle's coupled flow to itself: every
# term of the coupled rhs and of its Jacobian has the parity of its row,
# and a sign flip rounds exactly. The coupled rows and alpha flip by:
MIRROR_Z = np.array([-1.0, -1.0, 1.0, -1.0, 1.0, -1.0, -1.0, 1.0, -1.0, 1.0])
MIRROR_ALPHA = MIRROR_Z[5:]


def _jacobian(prob, alpha):
    """The Jacobian map of `shooting_maps` at alpha, as an array."""
    return np.array(shooting_maps(prob, alpha)[1](alpha))


def _mirrored(prob):
    """prob with its start reflected and tracking constant_z_line(x_r=-1),
    the reflection of the benchmark's line at x_r = 1."""
    s0 = AdaptedState(q=MIRROR_Z[:3] * prob.s0.q, v=MIRROR_Z[3:5] * prob.s0.v)
    return dataclasses.replace(prob, ref=constant_z_line(x_r=-1.0), s0=s0)


class TestReflectionSymmetry:
    """The benchmark problem at N = 400 and its mirror image agree bit for
    bit, so every sign of the kernel's coupled rows and of its Jacobian is
    checked at zero tolerance."""

    ALPHA = np.array([0.3, -0.5, 0.2, 0.1, -0.1])

    @pytest.mark.parametrize("full_transversality", [True, False])
    @pytest.mark.parametrize("mode", ADJOINT_MODES)
    def test_flow_residual_and_jacobian_mirror(self, mode, full_transversality):
        prob = benchmark_problem(N=400, adjoint_mode=mode, full_transversality=full_transversality)
        mirror = _mirrored(prob)
        beta = MIRROR_ALPHA * self.ALPHA
        states = integrate_coupled(prob, self.ALPHA).states
        assert (MIRROR_Z * states).tobytes() == integrate_coupled(mirror, beta).states.tobytes()
        r = shooting_residual(self.ALPHA, prob)
        assert (MIRROR_ALPHA * r).tobytes() == shooting_residual(beta, mirror).tobytes()
        J = _jacobian(prob, self.ALPHA)
        flipped = MIRROR_ALPHA[:, None] * J * MIRROR_ALPHA
        assert flipped.tobytes() == _jacobian(mirror, beta).tobytes()

    @pytest.mark.parametrize("full_transversality", [True, False])
    @pytest.mark.parametrize("mode", ADJOINT_MODES)
    def test_solve_mirrors(self, mode, full_transversality):
        """Newton takes the same steps on both problems: alpha*, the
        trajectory and J mirror bit for bit. The paper-literal adjoint with
        the as-printed rows stalls, and mirrors all the same."""
        prob = benchmark_problem(N=400, adjoint_mode=mode, full_transversality=full_transversality)
        rep, mirror = solve_tracking(prob), solve_tracking(_mirrored(prob))
        as_printed = mode == "paper-literal" and not full_transversality
        assert rep.converged != as_printed
        assert mirror.converged == rep.converged
        assert mirror.residual_norms == rep.residual_norms
        assert mirror.alpha_star.tobytes() == (MIRROR_ALPHA * rep.alpha_star).tobytes()
        assert mirror.trajectory.states.tobytes() == (MIRROR_Z * rep.trajectory.states).tobytes()
        assert mirror.cost == rep.cost


class TestShootingResidual:
    def test_dimension(self):
        prob = benchmark_problem(N=50)
        assert shooting_residual(np.zeros(5), prob).shape == (5,)

    def test_contrived_root_of_printed_rows(self):
        """lam(T) = -omega*(q(T)-q_r(T)) and mu(T) = 0 zeroes the
        simplified residual, by definition."""
        omega = 2.7
        prob = benchmark_problem(N=4, omega=omega, full_transversality=False)
        q_rT, v_rT = split_qv(prob.ref(prob.T))
        qT = q_rT + np.array([0.3, -0.4, 0.1])
        zT = np.concatenate([qT, v_rT, -omega * (qT - q_rT), np.zeros(2)])
        times = prob.h * np.arange(prob.N + 1)
        states = np.tile(zT, (prob.N + 1, 1))
        traj = Trajectory(times=times, states=states)
        np.testing.assert_allclose(residual_from_trajectory(traj, prob), np.zeros(5), atol=1e-15)

    def test_contrived_root_of_transversality_rows(self):
        """lam(T) = 2w(q-q_r), mu(T) = 2w(v-v_r) zeroes the default rows."""
        omega = 1.3
        prob = benchmark_problem(N=4, omega=omega, full_transversality=True)
        q_rT, v_rT = split_qv(prob.ref(prob.T))
        qT = q_rT + np.array([0.3, -0.4, 0.1])
        vT = v_rT + np.array([0.2, -0.1])
        zT = np.concatenate([qT, vT, 2 * omega * (qT - q_rT), 2 * omega * (vT - v_rT)])
        states = np.tile(zT, (prob.N + 1, 1))
        traj = Trajectory(times=prob.h * np.arange(prob.N + 1), states=states)
        np.testing.assert_allclose(residual_from_trajectory(traj, prob), np.zeros(5), atol=1e-15)

    @pytest.mark.parametrize("full_transversality", [True, False])
    def test_frozen_fixture_at_zero_costate(self, full_transversality):
        """Regression fixture, cross-checked kernel vs generic integrator."""
        prob = benchmark_problem(full_transversality=full_transversality)
        r = shooting_residual(np.zeros(5), prob)
        np.testing.assert_allclose(
            r, RESIDUAL_AT_ZERO[full_transversality], rtol=1e-9, atol=1e-12
        )

    def test_jacobian_full_rank_fixture(self):
        """Condition number of the FD Jacobian at alpha = 0, by SVD."""
        prob = benchmark_problem()
        J = fd_jacobian(lambda a: shooting_residual(a, prob), np.zeros(5), 1e-6)
        sv = np.linalg.svd(J, compute_uv=False)
        assert np.sum(sv > 1e-10 * sv[0]) == 5
        np.testing.assert_allclose(sv[0] / sv[-1], 20.9599358, rtol=1e-4)


class TestLargeOmega:
    """A terminal weight that overflows the transversality rows is a
    DomainError with a reason, never a floating-point warning."""

    def test_overflowing_rows_raise_domain_error(self):
        prob = benchmark_problem(omega=1e300, N=10)
        z = np.zeros(10)
        z[0] = 1e10
        with pytest.raises(DomainError, match=r"transversality rows are not finite \(omega = 1e\+300\)"):
            _terminal_rows(prob, z.tolist(), [0.0] * 5)

    def test_weight_overflowing_at_the_start_named_in_the_report(self):
        report = solve_tracking(benchmark_problem(omega=1e308, N=10))
        assert not report.converged and report.iterations == 0
        assert report.message == (
            "residual at the starting guess left the domain: "
            "the transversality rows are not finite (omega = 1e+308)"
        )

    def test_huge_weight_stalls_with_a_report(self):
        """At omega = 1e300 every trial that overflows is rejected, and the
        residual stops at the rounding floor of its omega-scaled rows."""
        report = solve_tracking(benchmark_problem(omega=1e300, N=10))
        assert not report.converged
        assert report.message.startswith("line search stalled: no damping factor reduced the residual max-norm")
        assert report.message.endswith(f"{report.residual_norms[-1]:.3e}")
        assert report.residual_norms[-1] < 1e-10 * report.residual_norms[0]


class TestTotalCost:
    def test_zero_on_reference(self):
        prob = benchmark_problem(N=16)
        times = prob.h * np.arange(prob.N + 1)
        states = np.empty((prob.N + 1, 10))
        for i, t in enumerate(times):
            q_r, v_r = split_qv(prob.ref(float(t)))
            states[i] = np.concatenate([q_r, v_r, np.zeros(5)])
        traj = Trajectory(times=times, states=states)
        assert total_cost(traj, prob) == 0.0

    def test_trapezoid_plus_weighted_terminal(self):
        """total_cost decomposes into quadrature plus omega * terminal."""
        prob = benchmark_problem(N=64, omega=2.0)
        alpha = np.array([0.1, 0.2, -0.3, 0.4, -0.5])
        traj = integrate_coupled(prob, alpha)
        got = total_cost(traj, prob)
        # independent recomputation
        vals = []
        for i, t in enumerate(traj.times):
            q_r, v_r = split_qv(prob.ref(float(t)))
            e_q = traj.states[i, :3] - q_r
            e_v = traj.states[i, 3:5] - v_r
            u = -traj.states[i, 8:] / prob.epsilon
            vals.append(0.5 * (e_q @ e_q + e_v @ e_v + prob.epsilon * (u @ u)))
        q_rT, v_rT = split_qv(prob.ref(prob.T))
        e_q = traj.states[-1, :3] - q_rT
        e_v = traj.states[-1, 3:5] - v_rT
        expected = np.trapezoid(vals, traj.times) + prob.omega * (e_q @ e_q + e_v @ e_v)
        np.testing.assert_allclose(got, expected, rtol=1e-14)

    @staticmethod
    def _loop_cost(prob, times, states, u):
        """Reference: running_cost summed row by row, as a Python loop."""
        values = [
            running_cost(states[i, :5], prob.ref(float(t)), u[i], prob.epsilon)
            for i, t in enumerate(times)
        ]
        return float(np.trapezoid(values, times)) + prob.omega * terminal_cost(
            states[-1, :5], prob.ref(prob.T)
        )

    @pytest.mark.parametrize("N", [400, 4000])
    def test_vectorized_costs_bit_identical_to_loop(self, N):
        """total_cost and uncontrolled_cost equal the row-by-row loop exactly."""
        from nhtrack.tracking import uncontrolled_trajectory

        prob = benchmark_problem(N=N)
        alpha = np.array([-3.3738608687695786, 6.1259424253410195, -2.471449523238801,
                          7.8655863520497284, -4.077189439249371])
        traj = integrate_coupled(prob, alpha)
        u = -traj.states[:, 8:] / prob.epsilon
        assert total_cost(traj, prob) == self._loop_cost(prob, traj.times, traj.states, u)
        drift = uncontrolled_trajectory(prob)
        assert uncontrolled_cost(prob) == self._loop_cost(
            prob, drift.times, drift.states, np.zeros((N + 1, 2))
        )

    def test_off_grid_trajectory_rejected(self):
        """The cost reads the reference on the problem grid only."""
        prob = benchmark_problem(N=16)
        traj = integrate_coupled(prob, np.zeros(5))
        with pytest.raises(ContractError):
            total_cost(Trajectory(times=0.5 * traj.times, states=traj.states), prob)

    def test_solved_problem_beats_drifting(self):
        """The converged tracking cost is below the u = 0 rollout cost."""
        from nhtrack.shooting import solve_tracking

        prob = benchmark_problem(N=1000)
        report = solve_tracking(prob)
        assert report.converged
        assert report.cost < uncontrolled_cost(prob)


class TestHamiltonianBalance:
    """Pontryagin's balance H(T) - H(0) = integral of dH/dt holds along the
    derived extremal, to the order of the RK4 flow and Simpson's rule, and
    fails at the paper-literal root, which is no extremal of the cost."""

    @staticmethod
    def _defects(mode):
        defects = []
        for N in (200, 400, 800):
            prob = benchmark_problem(N=N, adjoint_mode=mode)
            report = solve_tracking(prob)
            assert report.converged
            defects.append(hamiltonian_balance_defect(prob, report))
        return defects

    def test_derived_extremal_balances_to_fourth_order(self):
        defects = self._defects("derived")
        assert defects[1] < 3e-10
        for coarse, fine in zip(defects, defects[1:]):
            assert 14.0 <= coarse / fine <= 18.0

    def test_paper_literal_root_does_not_balance(self):
        assert min(self._defects("paper-literal")) > 1.0
