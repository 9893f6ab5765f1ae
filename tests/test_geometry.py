"""Tests for the particle's slopes, which the package reads from the C
kernel's coupled right-hand side (`tracking.particle_slopes`), against
hand-computed values, the frame model of `tests/oracles.py` and the
checks' constraint spec; and for the structure-constant helper."""

import numpy as np
import pytest
from hypothesis import given, settings

from nhtrack.checks import _constraint_defect
from nhtrack.errors import ContractError
from nhtrack.geometry import christoffel_from_structure
from nhtrack.tracking import particle_slopes
from oracles import frame_slopes
from stacked_points import assert_rows_are_single_calls, stacked

RNG = np.random.default_rng(0)


def random_row():
    """A state row [x, y, z, v1, v2]."""
    return np.concatenate([RNG.uniform(-2, 2, 3), RNG.uniform(-2, 2, 2)])


class TestAdmissibleVelocity:
    """The velocity columns [x', y', z'] of the kernel's slopes."""

    def test_hand_checked_value(self):
        """qdot = (-y v2, v1, v2) for the particle, by direct arithmetic."""
        qdot = particle_slopes(np.array([0.0, 0.2, 0.0, 0.5, 0.4]))[:3]
        np.testing.assert_allclose(qdot, [-0.2 * 0.4, 0.5, 0.4], rtol=0, atol=0)

    def test_zero_velocity(self):
        """Linear in v: v = 0 gives qdot = 0."""
        x = np.concatenate([RNG.uniform(-1, 1, 3), [0.0, 0.0]])
        assert np.all(particle_slopes(x)[:3] == 0.0)

    def test_coupling_vanishes_at_y_zero(self):
        """y = 0 kills the x-z coupling term."""
        qdot = particle_slopes(np.array([1.0, 0.0, 2.0, 0.0, 1.0]))[:3]
        np.testing.assert_array_equal(qdot, [0.0, 0.0, 1.0])

    def test_dimension_mismatch(self):
        """Rows that are not [x, y, z, v1, v2] do not fit the kernel's rows."""
        with pytest.raises(ValueError):
            particle_slopes(np.zeros(4))
        with pytest.raises(ValueError):
            particle_slopes(np.zeros((3, 6)))


class TestNhAcceleration:
    """The drift columns [v1', v2'] of the kernel's slopes at mu = 0."""

    def test_hand_checked_value(self):
        """vdot2 = -(y/(1+y^2)) v1 v2, no potential."""
        drift = particle_slopes(np.array([0.0, 0.2, 0.0, 0.5, 0.4]))[3:]
        expected = np.array([0.0, -(0.2 / 1.04) * 0.5 * 0.4])
        np.testing.assert_allclose(drift, expected, rtol=1e-15)

    def test_single_velocity_component(self):
        """v = (c, 0) makes both terms vanish (V = 0)."""
        for c in (-3.0, 0.7, 12.0):
            x = np.concatenate([RNG.uniform(-1, 1, 3), [c, 0.0]])
            np.testing.assert_array_equal(particle_slopes(x)[3:], [0.0, 0.0])

    def test_vanishes_at_y_zero(self):
        """The connection coefficient is odd in y."""
        drift = particle_slopes(np.array([0.3, 0.0, -0.7, 1.2, -0.4]))[3:]
        np.testing.assert_array_equal(drift, [0.0, 0.0])


class TestControlledAcceleration:
    """The kernel's slopes at mu = -u with eps = 1: the drift plus u."""

    def test_zero_control_is_drift(self):
        x = random_row()
        np.testing.assert_array_equal(particle_slopes(x, np.zeros(2)), particle_slopes(x))

    def test_pure_control_at_y_zero(self):
        """Drift vanishes at y = 0, so vdot = u."""
        x = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
        np.testing.assert_array_equal(particle_slopes(x, np.array([1.0, -2.0]))[3:], [1.0, -2.0])

    def test_sum_of_drift_and_control(self):
        x = np.array([0.0, 0.2, 0.0, 0.5, 0.4])
        got = particle_slopes(x, np.array([0.1, 0.1]))[3:]
        np.testing.assert_allclose(got, [0.1, 0.1 - (0.2 / 1.04) * 0.5 * 0.4], rtol=1e-15)

    def test_control_dimension_checked(self):
        """A control is [u1, u2], the width of the fiber costate."""
        with pytest.raises(ValueError):
            particle_slopes(random_row(), np.zeros(3))


class TestStackedPoints:
    """State rows x of shape (..., 5) and controls u of shape (..., 2): one
    row of slopes per point."""

    @settings(max_examples=60, deadline=None)
    @given(stacked(5, 2))
    def test_rows_equal_single_point_calls(self, xu):
        def evaluate(x, u):
            return {"free": particle_slopes(x), "controlled": particle_slopes(x, u)}

        assert_rows_are_single_calls(evaluate, *xu)

    @settings(max_examples=60, deadline=None)
    @given(stacked(5, 2))
    def test_kernel_slopes_are_the_frame_model(self, xu):
        """At lam = mu = 0 the kernel's slopes are the frame model's
        [rho^T v, -Gamma v v], and at mu = -u with eps = 1 the same with u
        added to the drift: value for value (a zero may differ in sign)."""
        x, u = xu
        want = frame_slopes(x)
        np.testing.assert_array_equal(particle_slopes(x), want)
        want[..., 3:] += u
        np.testing.assert_array_equal(particle_slopes(x, u), want)


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
    """The checks' spec of the constraint, x' + y z' = 0."""

    def test_admissible_velocity_is_in_kernel(self):
        x = np.array([5.0, 0.2, -3.0, 0.5, 0.4])
        res = _constraint_defect(x, np.array([-0.08, 0.5, 0.4]))
        np.testing.assert_allclose(res, 0.0, atol=1e-16)
        assert _constraint_defect(x, particle_slopes(x)) == 0.0

    def test_unit_x_velocity(self):
        res = _constraint_defect(random_row(), np.array([1.0, 0.0, 0.0]))
        assert res == 1.0

    def test_balanced_velocity_at_y_one(self):
        res = _constraint_defect(np.array([0.0, 1.0, 0.0, 0.0, 0.0]), np.array([-1.0, 0.0, 1.0]))
        assert res == 0.0


class TestSystemConsistency:
    def test_frame_rows_independent(self):
        """The kernel's velocity rows at the unit fiber velocities are the
        frame fields Y1 = d/dy and Y2 = d/dz - y d/dx: independent at every
        point."""
        for _ in range(20):
            q = RNG.uniform(-3, 3, 3)
            rho = particle_slopes(np.stack([np.concatenate([q, e]) for e in np.eye(2)]))[:, :3]
            np.testing.assert_array_equal(rho, [[0.0, 1.0, 0.0], [-q[1], 0.0, 1.0]])
            assert np.linalg.matrix_rank(rho) == 2
