"""Tests for the fixed-step integrator and its convergence diagnostics."""

import hashlib
import warnings

import numpy as np
import pytest

from nhtrack import cli
from nhtrack.errors import ContractError, DegenerateFitError, DomainError
from nhtrack.geometry import AdaptedState, admissible_velocity, nh_acceleration
from nhtrack.integrators import (
    Trajectory,
    VectorField,
    convergence_order,
    integrate,
    rk4_step,
    time_grid,
)
from nhtrack.particle import analytic_constants, analytic_flow, particle_system
from nhtrack.tracking import (
    benchmark_problem,
    coupled_field,
    integrate_coupled,
    uncontrolled_trajectory,
)

S0 = np.array([0.5, 0.2, 0.7, 0.5, 0.4])


def reduced_field():
    sys_ = particle_system()

    def f(t, x):
        s = AdaptedState(q=x[:3], v=x[3:])
        return np.concatenate([admissible_velocity(sys_, s), nh_acceleration(sys_, s)])

    return VectorField(dim=5, f=f)


def analytic_oracle():
    p = analytic_constants(AdaptedState(q=S0[:3], v=S0[3:]))

    def oracle(t):
        s = analytic_flow(p, t)
        return np.concatenate([s.q, s.v])

    return oracle


class TestRk4Step:
    def test_zero_field_leaves_state(self):
        vf = VectorField(dim=3, f=lambda t, x: np.zeros(3))
        x = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(rk4_step(vf, 0.0, x, 0.1), x)

    def test_exponential_truncated_taylor(self):
        """One step on x' = x reproduces the 4-term Taylor sum of e^h."""
        vf = VectorField(dim=1, f=lambda t, x: x)
        h = 0.1
        got = rk4_step(vf, 0.0, np.array([1.0]), h)
        expected = 1.0 + h + h**2 / 2 + h**3 / 6 + h**4 / 24
        np.testing.assert_allclose(got, [expected], rtol=1e-16)

    def test_constant_field_is_exact(self):
        vf = VectorField(dim=1, f=lambda t, x: np.ones(1))
        got = rk4_step(vf, 3.0, np.array([2.0]), 0.25)
        np.testing.assert_array_equal(got, [2.25])

    def test_nonpositive_step_rejected(self):
        vf = VectorField(dim=1, f=lambda t, x: x)
        with pytest.raises(ContractError):
            rk4_step(vf, 0.0, np.array([1.0]), 0.0)

    @pytest.mark.parametrize(
        "t, x, h",
        [
            pytest.param(0.0, [1.0], np.nan, id="h-nan"),
            pytest.param(0.0, [1.0], np.inf, id="h-inf"),
            pytest.param(np.nan, [1.0], 0.1, id="t-nan"),
            pytest.param(np.inf, [1.0], 0.1, id="t-inf"),
            pytest.param(0.0, [1.0, 2.0], 0.1, id="x-too-long"),
            pytest.param(0.0, [[1.0]], 0.1, id="x-2d"),
        ],
    )
    def test_invalid_input_rejected(self, t, x, h):
        vf = VectorField(dim=1, f=lambda t, x: np.zeros(1))
        with pytest.raises(ContractError):
            rk4_step(vf, t, np.array(x), h)

    def test_non_finite_stage_raises_domain_error(self):
        vf = VectorField(dim=1, f=lambda t, x: np.array([np.inf]))
        with pytest.raises(DomainError) as err:
            rk4_step(vf, 2.0, np.array([1.0]), 0.1)
        assert err.value.t == 2.0
        np.testing.assert_array_equal(err.value.x, [1.0])


class TestIntegrate:
    def test_single_step_equals_rk4_step(self):
        vf = reduced_field()
        traj = integrate(vf, 0.0, S0, 0.5, 1)
        np.testing.assert_array_equal(traj.states[1], rk4_step(vf, 0.0, S0, 0.5))
        assert traj.states.shape == (2, 5)

    def test_reduced_flow_against_closed_form(self):
        """Default grid (T=4, N=4000) stays within 1e-10 of the closed form."""
        traj = integrate(reduced_field(), 0.0, S0, 4.0, 4000)
        oracle = analytic_oracle()
        exact = np.array([oracle(t) for t in traj.times])
        assert np.max(np.abs(traj.states - exact)) <= 1e-10

    def test_halving_h_shrinks_error_sixteen_fold(self):
        oracle = analytic_oracle()
        errs = []
        for n in (250, 500):
            traj = integrate(reduced_field(), 0.0, S0, 4.0, n)
            exact = np.array([oracle(t) for t in traj.times])
            errs.append(np.max(np.abs(traj.states - exact)))
        ratio = errs[0] / errs[1]
        assert 12.0 < ratio < 20.0

    def test_every_grid_is_time_grid(self, tmp_path):
        """integrate, the tracking problem with its trajectories, and
        simulate.csv all carry time_grid's times bit for bit; the problem's
        grid is one read-only array that its trajectories share."""

        def bits(a):
            return a.shape, a.tobytes()

        assert bits(integrate(reduced_field(), 0.25, S0, 3.0, 300).times) == bits(time_grid(0.25, 3.0, 300))
        prob = benchmark_problem(N=400)
        assert bits(prob.times) == bits(time_grid(0.0, 4.0, 400))
        assert not prob.times.flags.writeable
        assert integrate_coupled(prob, np.zeros(5)).times is prob.times
        assert uncontrolled_trajectory(prob).times is prob.times
        assert cli.main(["simulate", "--out", str(tmp_path), "--T", "2.5", "--steps", "333"]) == 0
        t = cli.read_csv(tmp_path / "simulate.csv")["t"]
        assert bits(t) == bits(time_grid(0.0, 2.5, 333))

    def test_deterministic(self):
        a = integrate(reduced_field(), 0.0, S0, 4.0, 500)
        b = integrate(reduced_field(), 0.0, S0, 4.0, 500)
        assert np.all(a.states == b.states)
        assert np.all(a.times == b.times)

    def test_contract_errors(self):
        vf = reduced_field()
        with pytest.raises(ContractError):
            integrate(vf, 0.0, S0, 4.0, 0)
        with pytest.raises(ContractError):
            integrate(vf, 0.0, S0, -1.0, 10)
        with pytest.raises(ContractError):
            integrate(vf, 0.0, S0[:3], 4.0, 10)

    @pytest.mark.parametrize("N", [2.5, 4.0, True])
    def test_rejects_non_integer_step_count(self, N):
        with pytest.raises(ContractError, match="step count must be an integer"):
            integrate(reduced_field(), 0.0, S0, 4.0, N)

    def test_numpy_int_step_count_gives_the_int_trajectory(self):
        a = integrate(reduced_field(), 0.0, S0, 4.0, np.int64(40))
        b = integrate(reduced_field(), 0.0, S0, 4.0, 40)
        assert a.times.tobytes() == b.times.tobytes()
        assert a.states.tobytes() == b.states.tobytes()

    @pytest.mark.parametrize("T", [np.inf, np.nan])
    def test_rejects_non_finite_horizon(self, T):
        with pytest.raises(ContractError, match="horizon must be finite"):
            integrate(reduced_field(), 0.0, S0, T, 4)

    @pytest.mark.parametrize("t0", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_start_time(self, t0):
        with pytest.raises(ContractError, match="start time must be finite"):
            integrate(reduced_field(), t0, S0, 4.0, 4)

    def test_step_error_carries_index(self):
        def f(t, x):
            return np.array([np.nan]) if t > 0.5 else np.ones(1)

        with pytest.raises(DomainError) as err:
            integrate(VectorField(dim=1, f=f), 0.0, np.zeros(1), 1.0, 10)
        assert "step" in str(err.value)

    # The three fields below fail inside step i > 0. The expected error is
    # the one the per-stage check gave before integrate checked once per
    # step: message, t and x recorded from that integrator.

    @staticmethod
    def _rotation(t, x):
        return np.array([x[1], -x[0]])

    def _fail(self, f):
        x0 = np.array([1.0, -0.5])
        with pytest.raises(Exception) as err:
            integrate(VectorField(dim=2, f=f), 0.0, x0, 1.0, 10)
        return err.value

    def test_field_turning_non_finite_mid_run(self):
        """The second stage of step 3 (t = 0.35) is the first non-finite one."""
        err = self._fail(lambda t, x: np.array([np.inf, 1.0]) if t >= 0.35 else self._rotation(t, x))
        assert type(err) is DomainError
        assert str(err) == "step 3: vector field returned a non-finite value"
        assert err.t == 0.35000000000000003
        assert err.x.tolist() == [0.7689171499005119, -0.8135670620425827]

    def test_field_raising_on_non_finite_input(self):
        """A field that raises ValueError when fed the non-finite slope of
        an earlier stage still reports the first non-finite stage."""

        def f(t, x):
            if not np.all(np.isfinite(x)):
                raise ValueError("non-finite input")
            return np.array([np.inf, 0.0]) if t > 0.45 else self._rotation(t, x)

        err = self._fail(f)
        assert type(err) is DomainError
        assert str(err) == "step 4: vector field returned a non-finite value"
        assert err.t == 0.5
        assert err.x.tolist() == [0.6379379542733195, -0.9181524520833477]

    def test_field_error_propagates_unchanged(self):
        def f(t, x):
            if t > 0.45:
                raise ValueError("field undefined")
            return self._rotation(t, x)

        err = self._fail(f)
        assert type(err) is ValueError and str(err) == "field undefined"

    def test_failing_step_warns_as_rk4_step_does(self):
        """A failing step adds no numpy warning: its update would add inf
        to -inf, but the stage check stops at the first infinite slope."""

        def f(t, x):
            if t <= 0.42:
                return self._rotation(t, x)
            return np.array([np.inf if np.all(np.isfinite(x)) else -np.inf, 0.0])

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            err = self._fail(f)
        assert type(err) is DomainError and str(err).startswith("step 4: ")
        assert [str(w.message) for w in caught] == []

    def test_trajectory_row_count_validated(self):
        with pytest.raises(ContractError):
            Trajectory(times=np.arange(3.0), states=np.zeros((2, 1)))


def _coupled_case(mode):
    prob = benchmark_problem(N=400, adjoint_mode=mode)
    z0 = np.concatenate([S0, [0.2, -0.4, 0.1, 0.3, -0.2]])
    return VectorField(dim=10, f=lambda t, z: coupled_field(t, z, prob)), 0.0, z0, prob.T, prob.N


BIT_IDENTICAL_CASES = {
    # a zero field on the grid-endpoint check's grid, and the field of the
    # cubic-exactness check
    "grid-endpoint": lambda: (VectorField(dim=1, f=lambda t, x: np.zeros(1)), 0.25, np.zeros(1), 4.0, 4000),
    "cubic-exactness": lambda: (
        VectorField(dim=1, f=lambda t, x: np.array([3.0 * t**2 - 2.0 * t + 0.5])),
        0.0,
        np.array([1.0]),
        4.0,
        4000,
    ),
    "reduced-particle": lambda: (reduced_field(), 0.0, S0, 4.0, 1000),
    "coupled-derived": lambda: _coupled_case("derived"),
    "coupled-paper-literal": lambda: _coupled_case("paper-literal"),
    "list-slope": lambda: (VectorField(dim=2, f=lambda t, x: [x[1], -x[0] + t]), 0.0, np.array([1.0, -0.5]), 3.0, 300),
}


# SHA-256 of times.tobytes() + states.tobytes() for each case: a change to
# the grid, the RK4 arithmetic or its grouping changes them
DIGESTS = {
    "coupled-derived": "58a49308dd020dda6ec371d99ee7836a30eead7100754bc74f0045186a344057",
    "coupled-paper-literal": "f1c5a8717bc82584b77834254e4a3655a7b3de666539e33c90c6ab741e4e5e94",
    "cubic-exactness": "758f122c8c6ba8f0c622940058d9bdcc8614ef98f87b69afb87e22a5f732250c",
    "grid-endpoint": "37f4af5ad4bdb6fdef3797998afbd8277cca452380baabfacedada5b5a163dc4",
    "list-slope": "cd74fa3be01c4e0951f84b552648b710ee0298290e48454872606dfae56abcf9",
    "reduced-particle": "5170ddccc5a44a4a3dbd5809ab22246a750cb33b520ae3e8caa7b90e5a021b82",
}


class TestIntegrateBitExact:
    @pytest.mark.parametrize("case", sorted(BIT_IDENTICAL_CASES))
    def test_outputs_match_recorded_digest(self, case):
        traj = integrate(*BIT_IDENTICAL_CASES[case]())
        assert hashlib.sha256(traj.times.tobytes() + traj.states.tobytes()).hexdigest() == DIGESTS[case]

    @pytest.mark.parametrize("slope", [1.5, np.ones(1), np.ones(3)], ids=["shape-()", "shape-(1,)", "shape-(3,)"])
    def test_slope_of_wrong_shape_rejected(self, slope):
        vf = VectorField(dim=2, f=lambda t, x: slope)
        with pytest.raises(ContractError, match=r"step 0: vector field returned shape"):
            integrate(vf, 0.0, np.zeros(2), 1.0, 2)
        with pytest.raises(ContractError, match=r"vector field returned shape"):
            rk4_step(vf, 0.0, np.zeros(2), 0.5)

    def test_overflowing_stage_input_is_not_an_error(self):
        """Stage 2's input overflows to inf, yet every slope and the step's
        result are finite: the step succeeds without a warning."""
        vf = VectorField(dim=1, f=lambda t, x: np.array([1e308 if t == 0.0 else 0.0]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            traj = integrate(vf, 0.0, np.zeros(1), 4.0, 1)
        assert traj.states[1].tolist() == [6.666666666666666e307]
        assert [str(w.message) for w in caught] == []

    def test_overflowing_update_raises_domain_error(self):
        """Every slope is finite, but the update of step 1 overflows."""
        vf = VectorField(dim=1, f=lambda t, x: np.array([1e307]))
        with pytest.raises(DomainError, match="step 1: RK4 update overflowed") as err:
            integrate(vf, 0.0, np.zeros(1), 32.0, 2)
        assert err.value.t == 16.0
        assert err.value.x.tolist() == [1.6e308]
        with pytest.raises(DomainError, match="RK4 update overflowed"):
            rk4_step(vf, 16.0, np.array([1.6e308]), 16.0)


class TestConvergenceOrder:
    def test_particle_flow_is_fourth_order(self):
        """Measured over the range where truncation error stays above the
        float64 accumulation floor (~1e-13 for this flow)."""
        slope = convergence_order(
            reduced_field(), analytic_oracle(), 0.0, S0, 4.0, [125, 250, 500, 1000]
        )
        assert 3.8 <= slope <= 4.2

    def test_exponential_is_fourth_order(self):
        vf = VectorField(dim=1, f=lambda t, x: x)
        slope = convergence_order(
            vf, lambda t: np.array([np.exp(t)]), 0.0, np.ones(1), 2.0, [100, 200, 400]
        )
        assert 3.8 <= slope <= 4.2

    def test_exact_integration_degenerates(self):
        """Constant field with dyadic steps is integrated bit-exactly; the
        log fit is meaningless."""
        vf = VectorField(dim=1, f=lambda t, x: np.ones(1))
        with pytest.raises(DegenerateFitError):
            convergence_order(vf, lambda t: np.array([t]), 0.0, np.zeros(1), 1.0, [4, 8, 16])

    def test_step_counts_must_double(self):
        vf = VectorField(dim=1, f=lambda t, x: x)
        with pytest.raises(ContractError):
            convergence_order(vf, lambda t: np.array([np.exp(t)]), 0.0, np.ones(1), 1.0, [10, 30, 60])
        with pytest.raises(ContractError):
            convergence_order(vf, lambda t: np.array([np.exp(t)]), 0.0, np.ones(1), 1.0, [10, 20])
