"""Tests for the benchmark particle: closed-form flow and ambient oracle."""

import numpy as np
import pytest

from nhtrack import kernels
from nhtrack.errors import ConstraintViolationError
from nhtrack.geometry import AdaptedState, frame_annihilation_defect
from nhtrack.particle import (
    AmbientState,
    AnalyticParams,
    analytic_constants,
    analytic_flow,
    embed,
    multiplier,
    particle_system,
    project,
    restricted_energy,
    unreduced_field,
)

RNG = np.random.default_rng(1)

S0 = AdaptedState(q=[0.5, 0.2, 0.7], v=[0.5, 0.4])


def flat(s: AdaptedState) -> np.ndarray:
    return np.concatenate([s.q, s.v])


class TestParticleSystem:
    def test_connection_odd_in_y(self):
        sys_ = particle_system()
        assert sys_.gamma(np.array([1.0, 0.0, 2.0]))[1, 0, 1] == 0.0

    def test_annihilator_kills_frame(self):
        sys_ = particle_system()
        for _ in range(20):
            assert frame_annihilation_defect(sys_, RNG.uniform(-5, 5, 3)) == 0.0

    def test_derivative_hooks_match_finite_differences(self):
        sys_ = particle_system()
        h = 1e-7
        for _ in range(10):
            q = RNG.uniform(-2, 2, 3)
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                d_rho_fd = (sys_.rho(q + e) - sys_.rho(q - e)) / (2 * h)
                np.testing.assert_allclose(sys_.d_rho(q)[:, :, j], d_rho_fd, atol=1e-8)
                d_gam_fd = (sys_.gamma(q + e) - sys_.gamma(q - e)) / (2 * h)
                np.testing.assert_allclose(sys_.d_gamma(q)[:, :, :, j], d_gam_fd, atol=1e-8)


class TestAnalyticConstants:
    def test_benchmark_initial_condition(self):
        p = analytic_constants(S0)
        assert p.c1 == 0.5
        np.testing.assert_allclose(p.c2, 0.4 * np.sqrt(1.04), rtol=1e-16)
        assert (p.x0, p.y0, p.z0) == (0.5, 0.2, 0.7)

    def test_zero_v1_selects_singular_branch(self):
        p = analytic_constants(AdaptedState(q=[0.1, 0.3, -0.2], v=[0.0, 0.9]))
        assert p.c1 == 0.0
        s = analytic_flow(p, 2.0)
        assert s.q[1] == 0.3  # y frozen

    def test_zero_v2_gives_straight_line_in_y(self):
        p = analytic_constants(AdaptedState(q=[0.1, 0.3, -0.2], v=[1.0, 0.0]))
        assert p.c2 == 0.0
        s = analytic_flow(p, 1.7)
        np.testing.assert_allclose(s.q, [0.1, 0.3 + 1.7, -0.2], rtol=1e-15)
        np.testing.assert_array_equal(s.v, [1.0, 0.0])

    def test_round_trip_at_time_zero(self):
        """Reconstructing the initial state from the constants is exact."""
        for _ in range(50):
            s0 = AdaptedState(q=RNG.uniform(-2, 2, 3), v=RNG.uniform(-2, 2, 2))
            s = analytic_flow(analytic_constants(s0), 0.0)
            np.testing.assert_allclose(flat(s), flat(s0), rtol=0, atol=1e-12)


class TestAnalyticFlow:
    def test_identity_at_t_zero(self):
        p = AnalyticParams(c1=0.8, c2=-1.1, x0=0.2, y0=-0.4, z0=3.0)
        s = analytic_flow(p, 0.0)
        np.testing.assert_allclose(flat(s), [0.2, -0.4, 3.0, 0.8, -1.1 / np.sqrt(1.16)], rtol=1e-15)

    def test_singular_branch_matches_constant_reference_family(self):
        """c1 = 0, y0 = 0: x frozen, z moves linearly at speed v2."""
        p = analytic_constants(AdaptedState(q=[1.0, 0.0, 1.0], v=[0.0, 1.0]))
        for t in (0.0, 1.0, 2.5, 4.0):
            s = analytic_flow(p, t)
            np.testing.assert_allclose(flat(s), [1.0, 0.0, 1.0 + t, 0.0, 1.0], atol=1e-15)

    def test_against_fine_step_integration(self):
        """Closed form vs the RK4 kernel at h=1e-5 over T=4."""
        p = analytic_constants(S0)
        n = 400000
        states = kernels.rollout_reduced(flat(S0), 4.0 / n, n)
        for i in (0, n // 2, n):
            t = (4.0 / n) * i
            s = analytic_flow(p, t)
            np.testing.assert_allclose(states[i], flat(s), rtol=0, atol=1e-8)

    @pytest.mark.parametrize("c1", [0.8, 1e-8, 0.0], ids=["generic", "small-c1", "c1-zero"])
    def test_time_array_rows_equal_scalar_samples(self, c1):
        p = AnalyticParams(c1=c1, c2=-1.1, x0=0.2, y0=-0.4, z0=3.0)
        times = np.linspace(-1.0, 4.0, 11)
        s = analytic_flow(p, times)
        assert s.q.shape == (11, 3) and s.v.shape == (11, 2)
        for j, t in enumerate(times):
            one = analytic_flow(p, float(t))
            assert one.q.shape == (3,) and one.v.shape == (2,)
            np.testing.assert_array_equal(s.q[j], one.q)
            np.testing.assert_array_equal(s.v[j], one.v)


class TestUnreducedField:
    def test_rest_in_y_freezes_velocities(self):
        """The multiplier is linear in vy."""
        d = unreduced_field(AmbientState(q=[1.0, 2.0, 3.0], vq=[0.5, 0.0, -0.5]))
        np.testing.assert_array_equal(d.vq, [0.0, 0.0, 0.0])

    def test_hand_checked_multiplier(self):
        """lambda = -vz vy / (1+y^2) by direct substitution."""
        a = AmbientState(q=[0.0, 0.2, 0.0], vq=[-0.08, 0.5, 0.4])
        lam = multiplier(a)
        np.testing.assert_allclose(lam, -0.4 * 0.5 / 1.04, rtol=1e-15)
        d = unreduced_field(a)
        np.testing.assert_allclose(d.vq, [lam, 0.0, 0.2 * lam], rtol=1e-15)

    def test_constraint_derivative_vanishes(self):
        """d/dt (vx + y vz) = 0 along the field, by choice of multiplier."""
        for _ in range(50):
            q = RNG.uniform(-2, 2, 3)
            v1, v2 = RNG.uniform(-2, 2, 2)
            a = embed(AdaptedState(q=q, v=[v1, v2]))
            d = unreduced_field(a)
            defect = d.vq[0] + a.vq[1] * a.vq[2] + a.q[1] * d.vq[2]
            assert abs(defect) <= 1e-14


class TestEmbedProject:
    def test_embed_definition(self):
        a = embed(AdaptedState(q=[0.0, 0.2, 0.0], v=[0.5, 0.4]))
        np.testing.assert_allclose(a.vq, [-0.08, 0.5, 0.4], rtol=1e-15)

    def test_round_trip(self):
        for _ in range(50):
            s = AdaptedState(q=RNG.uniform(-2, 2, 3), v=RNG.uniform(-2, 2, 2))
            back = project(embed(s))
            np.testing.assert_allclose(flat(back), flat(s), rtol=0, atol=1e-15)
            a = embed(s)
            again = embed(project(a))
            np.testing.assert_allclose(again.vq, a.vq, rtol=0, atol=1e-15)

    def test_project_rejects_off_constraint(self):
        with pytest.raises(ConstraintViolationError):
            project(AmbientState(q=[0.0, 0.0, 0.0], vq=[1.0, 0.0, 0.0]))

    def test_project_tolerance_is_configurable(self):
        a = AmbientState(q=[0.0, 0.0, 0.0], vq=[1e-9, 0.3, 0.4])
        project(a)  # inside the default tolerance
        with pytest.raises(ConstraintViolationError):
            project(a, drift_tol=1e-12)


class TestConservation:
    def test_energy_rows_equal_scalar_values(self):
        """Rows of states give one energy each, equal to the scalar call."""
        q, v = RNG.uniform(-2, 2, (7, 3)), RNG.uniform(-2, 2, (7, 2))
        rows = restricted_energy(AdaptedState(q=q, v=v))
        assert rows.shape == (7,)
        for j in range(7):
            assert rows[j] == restricted_energy(AdaptedState(q=q[j], v=v[j]))
        assert restricted_energy(S0) == 0.5 * (0.5**2 + 1.04 * 0.4**2)
