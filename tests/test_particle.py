"""Tests for the benchmark particle: closed-form flow and ambient oracle."""

import numpy as np
import pytest

from nhtrack import kernels
from nhtrack.geometry import AdaptedState
from nhtrack.particle import (
    AnalyticParams,
    analytic_constants,
    analytic_flow,
    embed,
    restricted_energy,
)
from oracles import AmbientState, multiplier, unreduced_field

RNG = np.random.default_rng(1)

S0 = AdaptedState(q=[0.5, 0.2, 0.7], v=[0.5, 0.4])


def flat(s: AdaptedState) -> np.ndarray:
    return np.concatenate([s.q, s.v])


class TestAnalyticConstants:
    def test_benchmark_initial_condition(self):
        p = analytic_constants(S0)
        assert p.c1 == 0.5
        np.testing.assert_allclose(p.c2, 0.4 * np.sqrt(1.04), rtol=1e-16)
        assert (p.x0, p.y0, p.z0) == (0.5, 0.2, 0.7)

    def test_zero_v1_selects_singular_branch(self):
        p = analytic_constants(AdaptedState(q=[0.1, 0.3, -0.2], v=[0.0, 0.9]))
        assert p.c1 == 0.0
        row = analytic_flow(p, 2.0)
        assert row[1] == 0.3  # y frozen

    def test_zero_v2_gives_straight_line_in_y(self):
        p = analytic_constants(AdaptedState(q=[0.1, 0.3, -0.2], v=[1.0, 0.0]))
        assert p.c2 == 0.0
        row = analytic_flow(p, 1.7)
        np.testing.assert_allclose(row[:3], [0.1, 0.3 + 1.7, -0.2], rtol=1e-15)
        np.testing.assert_array_equal(row[3:], [1.0, 0.0])

    def test_round_trip_at_time_zero(self):
        """Reconstructing the initial state from the constants is exact."""
        for _ in range(50):
            s0 = AdaptedState(q=RNG.uniform(-2, 2, 3), v=RNG.uniform(-2, 2, 2))
            row = analytic_flow(analytic_constants(s0), 0.0)
            np.testing.assert_allclose(row, flat(s0), rtol=0, atol=1e-12)


class TestAnalyticFlow:
    def test_identity_at_t_zero(self):
        p = AnalyticParams(c1=0.8, c2=-1.1, x0=0.2, y0=-0.4, z0=3.0)
        row = analytic_flow(p, 0.0)
        np.testing.assert_allclose(row, [0.2, -0.4, 3.0, 0.8, -1.1 / np.sqrt(1.16)], rtol=1e-15)

    def test_singular_branch_matches_constant_reference_family(self):
        """c1 = 0, y0 = 0: x frozen, z moves linearly at speed v2."""
        p = analytic_constants(AdaptedState(q=[1.0, 0.0, 1.0], v=[0.0, 1.0]))
        for t in (0.0, 1.0, 2.5, 4.0):
            row = analytic_flow(p, t)
            np.testing.assert_allclose(row, [1.0, 0.0, 1.0 + t, 0.0, 1.0], atol=1e-15)

    def test_against_fine_step_integration(self):
        """Closed form vs the RK4 kernel at h=1e-5 over T=4."""
        p = analytic_constants(S0)
        n = 400000
        states = kernels.rollout_reduced(flat(S0), 4.0 / n, n)
        for i in (0, n // 2, n):
            t = (4.0 / n) * i
            row = analytic_flow(p, t)
            np.testing.assert_allclose(states[i], row, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("c1", [0.8, 1e-8, 0.0], ids=["generic", "small-c1", "c1-zero"])
    def test_time_array_rows_equal_scalar_samples(self, c1):
        p = AnalyticParams(c1=c1, c2=-1.1, x0=0.2, y0=-0.4, z0=3.0)
        times = np.linspace(-1.0, 4.0, 11)
        rows = analytic_flow(p, times)
        assert rows.shape == (11, 5)
        for j, t in enumerate(times):
            one = analytic_flow(p, float(t))
            assert one.shape == (5,)
            np.testing.assert_array_equal(rows[j], one)


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
            x = embed(AdaptedState(q=q, v=[v1, v2]))
            a = AmbientState(q=x[:3], vq=x[3:])
            d = unreduced_field(a)
            defect = d.vq[0] + a.vq[1] * a.vq[2] + a.q[1] * d.vq[2]
            assert abs(defect) <= 1e-14


class TestEmbed:
    def test_embed_definition(self):
        a = embed(AdaptedState(q=[0.0, 0.2, 0.0], v=[0.5, 0.4]))
        np.testing.assert_allclose(a[3:], [-0.08, 0.5, 0.4], rtol=1e-15)

    def test_embedded_state_lies_on_the_constraint(self):
        """embed keeps q, carries (v1, v2) as (vy, vz), and meets the
        constraint vx + y vz = 0 exactly."""
        for _ in range(50):
            s = AdaptedState(q=RNG.uniform(-2, 2, 3), v=RNG.uniform(-2, 2, 2))
            a = embed(s)
            assert a[:3].tobytes() == s.q.tobytes()
            assert a[4:].tobytes() == s.v.tobytes()
            assert a[3] + s.q[1] * a[5] == 0.0


class TestConservation:
    def test_energy_rows_equal_scalar_values(self):
        """Stacked state rows give one energy each, equal to the call on
        that row alone."""
        x = np.concatenate([RNG.uniform(-2, 2, (7, 3)), RNG.uniform(-2, 2, (7, 2))], axis=1)
        rows = restricted_energy(x)
        assert rows.shape == (7,)
        for j in range(7):
            assert rows[j] == restricted_energy(x[j])
        assert restricted_energy(flat(S0)) == 0.5 * (0.5**2 + 1.04 * 0.4**2)
