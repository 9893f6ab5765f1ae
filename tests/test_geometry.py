"""Tests for the frame-based system description and its operations."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings

from nhtrack.errors import ContractError
from nhtrack.geometry import (
    AdaptedState,
    NonholonomicSystem,
    admissible_velocity,
    christoffel_from_structure,
    constraint_residual,
    controlled_acceleration,
    frame_annihilation_defect,
    nh_acceleration,
)
from nhtrack.particle import particle_system
from stacked_points import assert_rows_are_single_calls, stacked

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


class TestStackedPoints:
    """q of shape (..., n) and v of shape (..., k): one result per point."""

    @settings(max_examples=60, deadline=None)
    @given(stacked(3, 2, 2))
    def test_rows_equal_single_point_calls(self, qvu):
        sys_ = particle_system()

        def evaluate(q, v, u):
            s = AdaptedState(q=q, v=v)
            qdot = admissible_velocity(sys_, s)
            return {
                "rho": sys_.rho(q),
                "gamma": sys_.gamma(q),
                "constraint_annihilator": sys_.constraint_annihilator(q),
                "d_rho": sys_.d_rho(q),
                "d_gamma": sys_.d_gamma(q),
                "admissible_velocity": qdot,
                "nh_acceleration": nh_acceleration(sys_, s),
                "controlled_acceleration": controlled_acceleration(sys_, s, u),
                "constraint_residual": constraint_residual(sys_, q, qdot),
            }

        assert_rows_are_single_calls(evaluate, *qvu)

    def test_mismatched_leading_shapes_rejected(self):
        sys_ = particle_system()
        mismatched = AdaptedState(q=np.zeros((4, 3)), v=np.zeros((5, 2)))
        with pytest.raises(ContractError, match="one leading shape"):
            admissible_velocity(sys_, mismatched)
        with pytest.raises(ContractError, match="one leading shape"):
            nh_acceleration(sys_, mismatched)
        s = AdaptedState(q=np.zeros((4, 3)), v=np.zeros((4, 2)))
        for u in (np.zeros((5, 2)), np.zeros(2), np.zeros((1, 2)), np.zeros((4, 1, 2))):
            with pytest.raises(ContractError, match="velocity shape"):
                controlled_acceleration(sys_, s, u)
        with pytest.raises(ContractError, match="one leading shape"):
            constraint_residual(sys_, np.zeros((4, 3)), np.zeros((5, 3)))


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
            assert np.linalg.matrix_rank(sys_.rho(q)) == sys_.k

    def test_rank_above_dimension_rejected(self):
        with pytest.raises(ContractError, match="1 <= k <= n"):
            dataclasses.replace(particle_system(), k=4)

    def test_fields_are_the_ones_a_path_reads(self):
        """The frame, the connection, the annihilator and the two closed-form
        derivatives the derived adjoint reads; every one is required."""
        fields = dataclasses.fields(NonholonomicSystem)
        assert [f.name for f in fields] == [
            "n", "k", "rho", "gamma", "constraint_annihilator", "d_rho", "d_gamma"
        ]
        assert all(f.default is dataclasses.MISSING for f in fields)
        assert all(f.default_factory is dataclasses.MISSING for f in fields)
