"""Tests for costs, Hamiltonian, adjoint modes, coupled flow, and residual."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhtrack.errors import ContractError, DomainError, SingularProblemError
from nhtrack.geometry import AdaptedState
from nhtrack.integrators import Trajectory, VectorField, integrate
from nhtrack.particle import analytic_constants, analytic_flow, particle_system
from nhtrack.shooting import fd_jacobian, solve_tracking
from nhtrack.tracking import (
    Costate,
    CoupledState,
    ReferenceTrajectory,
    TrackingProblem,
    _terminal_rows,
    adjoint_field,
    benchmark_problem,
    constant_z_line,
    coupled_field,
    free_flow,
    hamiltonian,
    hamiltonian_control_gradient,
    integrate_coupled,
    reference_admissibility_defect,
    residual_from_trajectory,
    running_cost,
    shooting_residual,
    stationary_control,
    tabulated,
    terminal_cost,
    total_cost,
    uncontrolled_cost,
)
from stacked_points import assert_rows_are_single_calls, stacked

RNG = np.random.default_rng(2)

SYS = particle_system()
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
    return Costate(lam=RNG.uniform(-2, 2, 3), mu=RNG.uniform(-2, 2, 2))


def random_sample():
    return (RNG.uniform(-1, 1, 3), RNG.uniform(-1, 1, 2))


class TestRunningCost:
    def test_zero_on_reference(self):
        q_r, v_r = RNG.uniform(-1, 1, 3), RNG.uniform(-1, 1, 2)
        s = AdaptedState(q=q_r, v=v_r)
        assert running_cost(s, (q_r, v_r), np.zeros(2), 7.0) == 0.0

    def test_single_position_error(self):
        s = AdaptedState(q=[1.0, 0.0, 0.0], v=[0.0, 0.0])
        assert running_cost(s, (np.zeros(3), np.zeros(2)), np.zeros(2), 1.0) == 0.5

    def test_control_effort_term(self):
        """eps=7 with u=(1,-2): cost is 7*5/2."""
        q_r, v_r = np.zeros(3), np.zeros(2)
        s = AdaptedState(q=q_r, v=v_r)
        assert running_cost(s, (q_r, v_r), np.array([1.0, -2.0]), 7.0) == 17.5

    def test_rejects_nonpositive_eps(self):
        s = AdaptedState(q=np.zeros(3), v=np.zeros(2))
        with pytest.raises(SingularProblemError):
            running_cost(s, (np.zeros(3), np.zeros(2)), np.zeros(2), 0.0)

    @pytest.mark.parametrize("eps", [np.inf, np.nan])
    def test_rejects_non_finite_eps(self, eps):
        s = AdaptedState(q=np.zeros(3), v=np.zeros(2))
        with pytest.raises(SingularProblemError, match="finite"):
            running_cost(s, (np.zeros(3), np.zeros(2)), np.zeros(2), eps)


class TestTerminalCost:
    def test_zero_on_reference(self):
        q_r, v_r = RNG.uniform(-1, 1, 3), RNG.uniform(-1, 1, 2)
        assert terminal_cost(AdaptedState(q=q_r, v=v_r), (q_r, v_r)) == 0.0

    def test_unit_error_single_coordinate(self):
        """No 1/2 factor on the terminal penalty."""
        sT = AdaptedState(q=[0.0, 0.0, 1.0], v=[0.0, 0.0])
        assert terminal_cost(sT, (np.zeros(3), np.zeros(2))) == 1.0

    def test_uniform_small_errors(self):
        sT = AdaptedState(q=[0.1, 0.1, 0.1], v=[0.1, 0.1])
        np.testing.assert_allclose(
            terminal_cost(sT, (np.zeros(3), np.zeros(2))), 0.05, rtol=1e-14
        )

    def test_omega_weighting(self):
        """Terminal error of squared norm 0.05 contributes 0.1 at omega=2."""
        sT = AdaptedState(q=[0.1, 0.1, 0.1], v=[0.1, 0.1])
        np.testing.assert_allclose(
            2.0 * terminal_cost(sT, (np.zeros(3), np.zeros(2))), 0.1, rtol=1e-14
        )


class TestHamiltonian:
    def test_zero_on_reference_with_zero_costate(self):
        q_r, v_r = random_sample()
        s = AdaptedState(q=q_r, v=v_r)
        p = Costate(lam=np.zeros(3), mu=np.zeros(2))
        assert hamiltonian(SYS, s, p, np.zeros(2), (q_r, v_r), 7.0) == 0.0

    def test_reduces_to_running_cost_without_costate(self):
        s = AdaptedState(q=RNG.uniform(-1, 1, 3), v=RNG.uniform(-1, 1, 2))
        r = random_sample()
        u = RNG.uniform(-1, 1, 2)
        p = Costate(lam=np.zeros(3), mu=np.zeros(2))
        assert hamiltonian(SYS, s, p, u, r, 7.0) == running_cost(s, r, u, 7.0)

    def test_term_by_term_arithmetic(self):
        """Every term of H summed independently for a concrete point."""
        s = AdaptedState(q=[0.3, 0.2, -0.1], v=[0.5, 0.4])
        p = Costate(lam=[1.0, 1.0, 1.0], mu=[0.0, 1.0])
        r = (np.array([0.3, 0.2, -0.1]), np.array([0.0, 1.0]))  # on-reference positions
        got = hamiltonian(SYS, s, p, np.zeros(2), r, 7.0)
        expected = (
            0.5 * (0.5**2 + (0.4 - 1.0) ** 2)  # velocity error
            + (-0.2 * 0.4 + 0.5 + 0.4)  # lam . qdot
            + 1.0 * (-(0.2 / 1.04) * 0.5 * 0.4)  # mu . vdot
        )
        np.testing.assert_allclose(got, expected, rtol=1e-14)


class TestStationaryControl:
    def test_exact_fixture(self):
        p = Costate(lam=np.zeros(3), mu=[-7.0, 14.0])
        np.testing.assert_array_equal(stationary_control(p, 7.0), [1.0, -2.0])
        np.testing.assert_array_equal(
            hamiltonian_control_gradient(p, np.array([1.0, -2.0]), 7.0), [0.0, 0.0]
        )

    def test_zero_costate(self):
        p = Costate(lam=np.zeros(3), mu=np.zeros(2))
        np.testing.assert_array_equal(stationary_control(p, 3.0), [0.0, 0.0])

    def test_rejects_singular_weight(self):
        p = random_costate()
        with pytest.raises(SingularProblemError):
            stationary_control(p, 0.0)
        with pytest.raises(SingularProblemError):
            stationary_control(p, -1.0)

    @pytest.mark.parametrize("eps", [np.inf, np.nan])
    def test_rejects_non_finite_weight(self, eps):
        with pytest.raises(SingularProblemError, match="finite"):
            stationary_control(random_costate(), eps)

    def test_global_minimizer_quadratic_expansion(self):
        """H(u* + d) - H(u*) == eps |d|^2 / 2 for every perturbation."""
        s = AdaptedState(q=RNG.uniform(-1, 1, 3), v=RNG.uniform(-1, 1, 2))
        r = random_sample()
        for _ in range(20):
            p = random_costate()
            eps = float(RNG.uniform(0.5, 10))
            u = stationary_control(p, eps)
            d = RNG.uniform(-2, 2, 2)
            gap = hamiltonian(SYS, s, p, u + d, r, eps) - hamiltonian(SYS, s, p, u, r, eps)
            np.testing.assert_allclose(gap, 0.5 * eps * (d @ d), rtol=1e-9, atol=1e-12)


class TestStackedPoints:
    """States, costates, references and per-row weights stacked along
    leading axes: one value or one row per point."""

    @settings(max_examples=60, deadline=None)
    @given(stacked(3, 2, 3, 2, 3, 2, 1), st.floats(0.1, 50.0))
    def test_rows_equal_single_point_calls(self, arrays_, eps):
        def evaluate(q, v, lam, mu, q_r, v_r, w):
            s, p, r = AdaptedState(q=q, v=v), Costate(lam=lam, mu=mu), (q_r, v_r)
            u = stationary_control(p, 0.5 + w * w)  # one positive weight per row
            derived = adjoint_field(SYS, s, p, r, eps, "derived")
            literal = adjoint_field(SYS, s, p, r, eps, "paper-literal")
            return {
                "stationary_control": u,
                "hamiltonian": hamiltonian(SYS, s, p, u, r, eps),
                "derived.lam": derived.lam,
                "derived.mu": derived.mu,
                "paper-literal.lam": literal.lam,
                "paper-literal.mu": literal.mu,
            }

        assert_rows_are_single_calls(evaluate, *arrays_)

    @pytest.mark.parametrize("bad", [0.0, np.inf, np.nan])
    def test_one_bad_row_weight_rejected(self, bad):
        p = Costate(lam=np.zeros((3, 3)), mu=np.ones((3, 2)))
        eps = np.array([[1.0], [bad], [2.0]])
        with pytest.raises(SingularProblemError, match="stationary condition degenerates"):
            stationary_control(p, eps)

    def test_row_weights_give_row_controls(self):
        p = Costate(lam=np.zeros((2, 3)), mu=[[-7.0, 14.0], [3.0, -6.0]])
        np.testing.assert_array_equal(
            stationary_control(p, np.array([[7.0], [3.0]])), [[1.0, -2.0], [-1.0, 2.0]]
        )
        np.testing.assert_array_equal(
            hamiltonian_control_gradient(p, [[1.0, -2.0], [-1.0, 2.0]], np.array([[7.0], [3.0]])),
            np.zeros((2, 2)),
        )


class TestAdjointField:
    def test_zero_on_reference_with_zero_costate(self):
        q_r, v_r = random_sample()
        s = AdaptedState(q=q_r, v=v_r)
        p = Costate(lam=np.zeros(3), mu=np.zeros(2))
        for mode in ("derived", "paper-literal"):
            d = adjoint_field(SYS, s, p, (q_r, v_r), 7.0, mode)
            np.testing.assert_array_equal(d.lam, np.zeros(3))
            np.testing.assert_array_equal(d.mu, np.zeros(2))

    def test_pure_position_error(self):
        """x off-reference by 0.3 drives only lam1."""
        q_r, v_r = np.array([0.0, 0.2, 0.5]), np.array([0.3, -0.4])
        s = AdaptedState(q=q_r + [0.3, 0.0, 0.0], v=v_r)
        p = Costate(lam=np.zeros(3), mu=np.zeros(2))
        d = adjoint_field(SYS, s, p, (q_r, v_r), 7.0, "derived")
        np.testing.assert_allclose(d.lam, [-0.3, 0.0, 0.0], atol=1e-16)
        np.testing.assert_array_equal(d.mu, np.zeros(2))

    def test_modes_agree_when_coupling_costate_vanishes(self):
        """With mu2 = 0 the differing terms drop out of both variants."""
        s = AdaptedState(q=RNG.uniform(-1, 1, 3), v=RNG.uniform(-1, 1, 2))
        p = Costate(lam=RNG.uniform(-1, 1, 3), mu=[0.7, 0.0])
        r = random_sample()
        a = adjoint_field(SYS, s, p, r, 7.0, "derived")
        b = adjoint_field(SYS, s, p, r, 7.0, "paper-literal")
        np.testing.assert_allclose(a.lam, b.lam, atol=1e-15)
        np.testing.assert_allclose(a.mu, b.mu, atol=1e-15)



class TestCoupledState:
    def test_flatten_round_trip_exact(self):
        for _ in range(20):
            cs = CoupledState(
                s=AdaptedState(q=RNG.uniform(-2, 2, 3), v=RNG.uniform(-2, 2, 2)),
                p=random_costate(),
            )
            back = CoupledState.from_flat(cs.flatten(), 3, 2)
            assert np.all(back.flatten() == cs.flatten())

    def test_bad_length_rejected(self):
        with pytest.raises(ContractError):
            CoupledState.from_flat(np.zeros(9), 3, 2)


class TestCoupledField:
    def test_dimension(self):
        prob = benchmark_problem(N=10)
        z = RNG.uniform(-1, 1, 10)
        assert coupled_field(0.5, z, prob).shape == (10,)

    def test_first_stage_slope_hand_computed(self):
        """k1 at the benchmark initial data with zero costate, both modes."""
        expected = np.array(
            [-0.08, 0.5, 0.4, 0.0, -(0.2 / 1.04) * 0.5 * 0.4, 0.5, -0.2, 0.3, -0.5, 0.6]
        )
        for mode in ("derived", "paper-literal"):
            prob = benchmark_problem(N=10, adjoint_mode=mode)
            z0 = np.concatenate([S0.q, S0.v, np.zeros(5)])
            np.testing.assert_allclose(coupled_field(0.0, z0, prob), expected, rtol=1e-14)

    def test_equilibrium_on_self_generated_reference(self):
        """On-reference state with zero costate follows the reference."""
        prob = TrackingProblem(ref=free_flow(S0), epsilon=7.0, T=4.0, s0=S0, N=10)
        params = analytic_constants(S0)
        t = 1.3
        st = analytic_flow(params, t)
        z = np.concatenate([st.q, st.v, np.zeros(5)])
        dz = coupled_field(t, z, prob)
        # state derivative equals the free-flow derivative, costate stays 0
        h = 1e-6
        sm, sp = analytic_flow(params, t - h), analytic_flow(params, t + h)
        ref_dot = (np.concatenate([sp.q, sp.v]) - np.concatenate([sm.q, sm.v])) / (2 * h)
        np.testing.assert_allclose(dz[:5], ref_dot, atol=1e-9)
        np.testing.assert_allclose(dz[5:], np.zeros(5), atol=1e-13)

    def test_kernel_matches_generic_integrator(self):
        """Kernel rollout vs callback integrator, both adjoint modes."""
        for mode in ("derived", "paper-literal"):
            prob = benchmark_problem(N=400, adjoint_mode=mode)
            alpha = np.array([0.2, -0.4, 0.1, 0.3, -0.2])
            fast = integrate_coupled(prob, alpha)
            z0 = np.concatenate([S0.q, S0.v, alpha])
            vf = VectorField(dim=10, f=lambda t, z: coupled_field(t, z, prob))
            slow = integrate(vf, 0.0, z0, prob.T, prob.N)
            np.testing.assert_allclose(fast.states, slow.states, rtol=1e-9, atol=1e-12)


class TestReferenceKinds:
    def test_constant_z_line_values(self):
        ref = constant_z_line(1.0, 1.0, 1.0)
        q_r, v_r = ref.sample(2.5)
        np.testing.assert_array_equal(q_r, [1.0, 0.0, 3.5])
        np.testing.assert_array_equal(v_r, [0.0, 1.0])

    def test_free_flow_matches_analytic(self):
        ref = free_flow(S0)
        params = analytic_constants(S0)
        for t in (0.0, 1.0, 3.2):
            q_r, v_r = ref.sample(t)
            s = analytic_flow(params, t)
            np.testing.assert_array_equal(q_r, s.q)
            np.testing.assert_array_equal(v_r, s.v)

    def test_tabulated_interpolates_linearly(self):
        times = np.array([0.0, 1.0, 2.0])
        rows = np.array([[0, 0, 0, 0, 0], [2, 4, 6, 8, 10], [4, 8, 12, 16, 20]], dtype=float)
        ref = tabulated(times, rows)
        q_r, v_r = ref.sample(0.5)
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
        q_r, v_r = ref.sample(times)
        assert q_r.shape == (10, 3) and v_r.shape == (10, 2)
        for j, t in enumerate(times):
            q1, v1 = ref.sample(float(t))
            np.testing.assert_array_equal(q_r[j], q1)
            np.testing.assert_array_equal(v_r[j], v1)

    def test_tabulated_validates_grid(self):
        with pytest.raises(ContractError):
            tabulated(np.array([0.0, 0.0, 1.0]), np.zeros((3, 5)))
        with pytest.raises(ContractError, match="finite"):
            tabulated(np.array([0.0, np.nan, 1.0]), np.zeros((3, 5)))
        with pytest.raises(ContractError, match="finite"):
            tabulated(np.array([0.0, 0.5, 1.0]), np.full((3, 5), np.inf))

    def test_problem_rejects_non_finite_reference(self):
        """A NaN defect is not taken for an admissible reference."""
        ref = constant_z_line(x_r=np.nan)
        assert np.isnan(reference_admissibility_defect(SYS, ref, np.array([1.0, 2.0])))
        with pytest.raises(ContractError, match="not an admissible curve"):
            TrackingProblem(ref=ref, epsilon=7.0, T=4.0, s0=S0, N=10)

    def test_problem_rejects_off_distribution_line(self):
        """The z-line moved to y = 0.5 moves its base as a line does, but the
        constraint there couples x to z: rho(q)^T v = (-0.5, 0, 1), so the
        defect is 0.5."""
        line = constant_z_line()

        def sample(t):
            q_r, v_r = line.sample(t)
            q_r[..., 1] = 0.5
            return q_r, v_r

        off = ReferenceTrajectory(kind=line.kind, sample=sample)
        assert reference_admissibility_defect(SYS, off, np.linspace(0.04, 3.96, 7)) == pytest.approx(0.5)
        with pytest.raises(ContractError, match=r"not an admissible curve \(kinematic defect 5\.000e-01\)"):
            TrackingProblem(ref=off, epsilon=7.0, T=4.0, s0=S0, N=10)

    @pytest.mark.parametrize("make", [constant_z_line, lambda: free_flow(S0)], ids=["line", "free-flow"])
    def test_long_horizon_builtin_references_admissible(self, make):
        """The FD probe step grows with |t|: at t ~ 1e7 a fixed 1e-4 step
        loses most of its digits to rounding and reads a false defect."""
        prob = TrackingProblem(ref=make(), epsilon=7.0, T=1e7, s0=S0, N=10)
        times = np.linspace(0.01 * prob.T, 0.99 * prob.T, 7)
        assert reference_admissibility_defect(SYS, prob.ref, times) <= 1e-9

    def test_admissibility_samples_once_per_offset(self):
        """t + step, t - step and t: three sample calls over all the times."""
        line = constant_z_line()
        calls = []

        def sample(t):
            calls.append(np.shape(t))
            return line.sample(t)

        ref = ReferenceTrajectory(kind=line.kind, sample=sample)
        assert reference_admissibility_defect(SYS, ref, np.linspace(0.04, 3.96, 7)) <= 1e-9
        assert calls == [(7,)] * 3

    def test_problem_rejects_inadmissible_reference(self):
        """Frozen base point with nonzero fiber velocity is not a curve on
        the distribution: the base must move as the fibers dictate."""
        bad = ReferenceTrajectory(
            kind="builtin-constant-z-line",
            sample=lambda t: (np.array([1.0, 0.0, 1.0]), np.array([0.0, 1.0])),
        )
        with pytest.raises(ContractError):
            TrackingProblem(ref=bad, epsilon=7.0, T=4.0, s0=S0, N=10)


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

    def test_system_is_the_particle_and_not_a_field(self):
        assert TrackingProblem.sys == particle_system()
        assert "sys" not in {f.name for f in dataclasses.fields(TrackingProblem)}

    def test_reference_table_matches_samples(self):
        prob = benchmark_problem(N=8)
        half = 0.5 * prob.h
        table = prob._ref_table
        assert table.shape == (17, 5)
        for j in (0, 5, 16):
            q_r, v_r = prob.ref.sample(j * half)
            np.testing.assert_array_equal(table[j], np.concatenate([q_r, v_r]))


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
        lambda t: (np.array([1.0, 0.0, 1.0]), np.array([0.0, 1.0])),  # ignores the time vector
        lambda t: (np.stack([np.ones_like(t), 0 * t, 1 + t]), np.stack([0 * t, np.ones_like(t)])),
    ], ids=["scalar-only", "transposed"])
    def test_wrong_sample_shapes_rejected(self, sample):
        prob = TrackingProblem(
            ref=ReferenceTrajectory(kind="user", sample=sample),
            epsilon=7.0, T=4.0, s0=S0, N=10,
        )
        with pytest.raises(ContractError, match="reference sample of 21 times"):
            prob._ref_table


class TestShootingResidual:
    def test_dimension(self):
        prob = benchmark_problem(N=50)
        assert shooting_residual(np.zeros(5), prob).shape == (5,)

    def test_contrived_root_of_printed_rows(self):
        """lam(T) = -omega*(q(T)-q_r(T)) and mu(T) = 0 zeroes the
        simplified residual, by definition."""
        omega = 2.7
        prob = benchmark_problem(N=4, omega=omega, full_transversality=False)
        q_rT, v_rT = prob.ref.sample(prob.T)
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
        q_rT, v_rT = prob.ref.sample(prob.T)
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
            _terminal_rows(prob, z)

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
            q_r, v_r = prob.ref.sample(float(t))
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
            q_r, v_r = prob.ref.sample(float(t))
            e_q = traj.states[i, :3] - q_r
            e_v = traj.states[i, 3:5] - v_r
            u = -traj.states[i, 8:] / prob.epsilon
            vals.append(0.5 * (e_q @ e_q + e_v @ e_v + prob.epsilon * (u @ u)))
        q_rT, v_rT = prob.ref.sample(prob.T)
        e_q = traj.states[-1, :3] - q_rT
        e_v = traj.states[-1, 3:5] - v_rT
        expected = np.trapezoid(vals, traj.times) + prob.omega * (e_q @ e_q + e_v @ e_v)
        np.testing.assert_allclose(got, expected, rtol=1e-14)

    @staticmethod
    def _loop_cost(prob, times, states, u):
        """Reference: running_cost summed row by row, as a Python loop."""
        values = [
            running_cost(
                AdaptedState(q=states[i, :3], v=states[i, 3:5]),
                prob.ref.sample(float(t)),
                u[i],
                prob.epsilon,
            )
            for i, t in enumerate(times)
        ]
        sT = AdaptedState(q=states[-1, :3], v=states[-1, 3:5])
        return float(np.trapezoid(values, times)) + prob.omega * terminal_cost(
            sT, prob.ref.sample(prob.T)
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
