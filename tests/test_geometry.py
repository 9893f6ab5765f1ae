"""Tests for the frame-based system description and its operations."""

import numpy as np
import pytest

from nhtrack.errors import ContractError, DomainError
from nhtrack.geometry import (
    AdaptedFrame,
    AdaptedState,
    ChristoffelField,
    NonholonomicSystem,
    PotentialGradient,
    RestrictedMetricField,
    admissible_velocity,
    christoffel_from_structure,
    constraint_residual,
    controlled_acceleration,
    frame_annihilation_defect,
    nh_acceleration,
)
from nhtrack.particle import particle_system

RNG = np.random.default_rng(0)


def random_state():
    return AdaptedState(q=RNG.uniform(-2, 2, 3), v=RNG.uniform(-2, 2, 2))


class TestAdmissibleVelocity:
    def test_hand_checked_value(self):
        """qdot = (-y v2, v1, v2) for the particle, by direct arithmetic."""
        sys_ = particle_system()
        s = AdaptedState(q=[0.0, 0.2, 0.0], v=[0.5, 0.4])
        np.testing.assert_allclose(
            admissible_velocity(sys_, s), [-0.2 * 0.4, 0.5, 0.4], rtol=0, atol=0
        )

    def test_zero_velocity(self):
        """Linear in v: v = 0 gives qdot = 0."""
        sys_ = particle_system()
        s = AdaptedState(q=RNG.uniform(-1, 1, 3), v=[0.0, 0.0])
        assert np.all(admissible_velocity(sys_, s) == 0.0)

    def test_coupling_vanishes_at_y_zero(self):
        """y = 0 kills the x-z coupling term."""
        sys_ = particle_system()
        s = AdaptedState(q=[1.0, 0.0, 2.0], v=[0.0, 1.0])
        np.testing.assert_array_equal(admissible_velocity(sys_, s), [0.0, 0.0, 1.0])

    def test_dimension_mismatch(self):
        sys_ = particle_system()
        with pytest.raises(ContractError):
            admissible_velocity(sys_, AdaptedState(q=[0.0, 0.0], v=[1.0, 1.0]))
        with pytest.raises(ContractError):
            admissible_velocity(sys_, AdaptedState(q=[0.0, 0.0, 0.0], v=[1.0]))


class TestNhAcceleration:
    def test_hand_checked_value(self):
        """vdot2 = -(y/(1+y^2)) v1 v2, no potential."""
        sys_ = particle_system()
        s = AdaptedState(q=[0.0, 0.2, 0.0], v=[0.5, 0.4])
        expected = np.array([0.0, -(0.2 / 1.04) * 0.5 * 0.4])
        np.testing.assert_allclose(nh_acceleration(sys_, s), expected, rtol=1e-15)

    def test_single_velocity_component(self):
        """v = (c, 0) makes both terms vanish (V = 0)."""
        sys_ = particle_system()
        for c in (-3.0, 0.7, 12.0):
            s = AdaptedState(q=RNG.uniform(-1, 1, 3), v=[c, 0.0])
            np.testing.assert_array_equal(nh_acceleration(sys_, s), [0.0, 0.0])

    def test_vanishes_at_y_zero(self):
        """The connection coefficient is odd in y."""
        sys_ = particle_system()
        s = AdaptedState(q=[0.3, 0.0, -0.7], v=[1.2, -0.4])
        np.testing.assert_array_equal(nh_acceleration(sys_, s), [0.0, 0.0])

    def test_domain_error_outside_declared_domain(self):
        sys_ = particle_system()
        restricted = NonholonomicSystem(
            frame=sys_.frame,
            christoffel=sys_.christoffel,
            metric=sys_.metric,
            potential=sys_.potential,
            constraint_annihilator=sys_.constraint_annihilator,
            domain=lambda q: bool(abs(q[1]) < 1.0),
        )
        with pytest.raises(DomainError):
            nh_acceleration(restricted, AdaptedState(q=[0.0, 2.0, 0.0], v=[1.0, 1.0]))


class TestControlledAcceleration:
    def test_zero_control_is_drift(self):
        sys_ = particle_system()
        s = random_state()
        np.testing.assert_array_equal(
            controlled_acceleration(sys_, s, np.zeros(2)), nh_acceleration(sys_, s)
        )

    def test_pure_control_at_y_zero(self):
        """Drift vanishes at y = 0, so vdot = u."""
        sys_ = particle_system()
        s = AdaptedState(q=[0.0, 0.0, 0.0], v=[0.0, 1.0])
        np.testing.assert_array_equal(
            controlled_acceleration(sys_, s, np.array([1.0, -2.0])), [1.0, -2.0]
        )

    def test_sum_of_drift_and_control(self):
        sys_ = particle_system()
        s = AdaptedState(q=[0.0, 0.2, 0.0], v=[0.5, 0.4])
        got = controlled_acceleration(sys_, s, np.array([0.1, 0.1]))
        np.testing.assert_allclose(got, [0.1, 0.1 - (0.2 / 1.04) * 0.5 * 0.4], rtol=1e-15)

    def test_control_dimension_checked(self):
        sys_ = particle_system()
        with pytest.raises(ContractError):
            controlled_acceleration(sys_, random_state(), np.zeros(3))


class TestChristoffelFromStructure:
    def test_single_constant_against_index_oracle(self):
        """Direct index substitution, one entry at a time."""
        c = 0.37
        C = np.zeros((2, 2, 2))
        C[1, 0, 1] = c
        C[1, 1, 0] = -c
        got = christoffel_from_structure(C)
        expected = np.zeros((2, 2, 2))
        for cc in range(2):
            for a in range(2):
                for b in range(2):
                    expected[cc, a, b] = 0.5 * (C[b, cc, a] + C[a, cc, b] + C[cc, a, b])
        np.testing.assert_array_equal(got, expected)
        # the symmetrized combination cancels in the (2,1,2) slot
        assert got[1, 0, 1] == 0.0

    def test_antisymmetry_required(self):
        C = np.zeros((2, 2, 2))
        C[1, 0, 1] = 1.0  # missing the mirrored entry
        with pytest.raises(ContractError):
            christoffel_from_structure(C)

    def test_shape_checked(self):
        with pytest.raises(ContractError):
            christoffel_from_structure(np.zeros((2, 2)))


class TestConstraintResidual:
    def test_admissible_velocity_is_in_kernel(self):
        sys_ = particle_system()
        res = constraint_residual(sys_, np.array([5.0, 0.2, -3.0]), np.array([-0.08, 0.5, 0.4]))
        np.testing.assert_allclose(res, [0.0], atol=1e-16)

    def test_unit_x_velocity(self):
        sys_ = particle_system()
        res = constraint_residual(sys_, RNG.uniform(-1, 1, 3), np.array([1.0, 0.0, 0.0]))
        np.testing.assert_array_equal(res, [1.0])

    def test_balanced_velocity_at_y_one(self):
        sys_ = particle_system()
        res = constraint_residual(sys_, np.array([0.0, 1.0, 0.0]), np.array([-1.0, 0.0, 1.0]))
        np.testing.assert_array_equal(res, [0.0])


class TestSystemConsistency:
    def test_annihilator_kills_frame(self):
        """mu(q) rho(q)^T == 0 at random base points."""
        sys_ = particle_system()
        for _ in range(50):
            q = RNG.uniform(-3, 3, 3)
            assert frame_annihilation_defect(sys_, q) <= 1e-12

    def test_frame_rows_independent(self):
        sys_ = particle_system()
        for _ in range(20):
            q = RNG.uniform(-3, 3, 3)
            assert np.linalg.matrix_rank(sys_.frame.rho(q)) == sys_.k

    def test_metric_symmetric_and_inverse_consistent(self):
        sys_ = particle_system()
        for _ in range(20):
            q = RNG.uniform(-3, 3, 3)
            g = sys_.metric.g(q)
            np.testing.assert_array_equal(g, g.T)
            np.testing.assert_allclose(g @ sys_.metric.g_inv(q), np.eye(2), atol=1e-12)

    def test_custom_system_with_potential(self):
        """The metric-weighted potential force enters with a minus sign."""
        frame = AdaptedFrame(n=2, k=2, rho=lambda q: np.eye(2))
        sys_ = NonholonomicSystem(
            frame=frame,
            christoffel=ChristoffelField(gamma=lambda q: np.zeros((2, 2, 2))),
            metric=RestrictedMetricField(g=lambda q: np.eye(2), g_inv=lambda q: np.eye(2)),
            potential=PotentialGradient(dV=lambda q: np.array([2.0 * q[0], 3.0])),
            constraint_annihilator=lambda q: np.zeros((0, 2)),
        )
        s = AdaptedState(q=[1.5, 0.0], v=[0.0, 0.0])
        np.testing.assert_allclose(nh_acceleration(sys_, s), [-3.0, -3.0])
