"""Tests for the RK4 rollouts of the particle flows."""

import hashlib
import os
import re
import tempfile
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

from nhtrack import kernels
from nhtrack.errors import DomainError, KernelBuildError
from nhtrack.geometry import AdaptedState
from nhtrack.integrators import VectorField, integrate
from nhtrack.particle import embed
from oracles import AmbientState, frame_slopes, multiplier, unreduced_field

X0 = np.array([0.5, 0.2, 0.7, 0.5, 0.4])


class TestRolloutAgainstGenericIntegrator:
    def test_reduced(self):
        slow = integrate(VectorField(dim=5, f=lambda t, x: frame_slopes(x)), 0.0, X0, 2.0, 800)
        fast = kernels.rollout_reduced(X0, 2.0 / 800, 800)
        np.testing.assert_array_equal(fast, slow.states)

    def test_unreduced(self):
        x0 = embed(AdaptedState(q=X0[:3], v=X0[3:]))

        def f(t, x):
            d = unreduced_field(AmbientState(q=x[:3], vq=x[3:]))
            return np.concatenate([d.q, d.vq])

        slow = integrate(VectorField(dim=6, f=f), 0.0, x0, 2.0, 800)
        fast = kernels.rollout_unreduced(x0, 2.0 / 800, 800)
        np.testing.assert_array_equal(fast, slow.states)

    def test_multiplier_definition_inside_kernel(self):
        """One kernel step reproduces the multiplier-driven accelerations."""
        x0 = embed(AdaptedState(q=X0[:3], v=X0[3:]))
        a0 = AmbientState(q=x0[:3], vq=x0[3:])
        h = 1e-3
        states = kernels.rollout_unreduced(x0, h, 1)
        lam = multiplier(a0)
        euler_v = x0[3:] + h * np.array([lam, 0.0, a0.q[1] * lam])
        np.testing.assert_allclose(states[1, 3:], euler_v, atol=1e-5)


class TestCoupledRollout:
    def test_reference_table_shape_checked(self):
        with pytest.raises(ValueError):
            kernels.rollout_coupled(np.zeros(10), 0.1, 10, np.zeros((5, 5)), 7.0, False)

    @pytest.mark.parametrize(
        "block",
        [
            np.zeros((10, 6)),
            np.zeros(50),
            np.zeros((10, 5), dtype=np.float32),
            np.asfortranarray(np.zeros((10, 5))),
            np.zeros((10, 10))[:, ::2],
            np.broadcast_to(0.0, (10, 5)),
            np.zeros((10, 5)).tolist(),
        ],
        ids=["shape", "flat", "float32", "fortran", "strided", "read-only", "list"],
    )
    def test_malformed_sensitivity_block_rejected_before_the_library(self, block, monkeypatch):
        """A block the kernel would read or write out of bounds never
        reaches it: the library is not called and the block is untouched."""
        from nhtrack.tracking import _kernel_args, benchmark_problem

        args = _kernel_args(benchmark_problem(N=10), np.zeros(5))
        before = np.array(block, copy=True)

        def no_library():
            raise AssertionError("the library was called")

        monkeypatch.setattr(kernels, "_library", no_library)
        with pytest.raises(ValueError, match="sens must be a writeable C-contiguous float64"):
            kernels.rollout_coupled(*args, sens=block)
        assert np.array_equal(np.asarray(block), before)

    def test_sensitivity_block_view_advanced_in_place(self):
        """A C-contiguous view into a larger caller array is a valid block:
        the kernel writes exactly that slice."""
        from nhtrack.tracking import _kernel_args, benchmark_problem

        args = _kernel_args(benchmark_problem(N=40), np.zeros(5))
        whole = np.zeros((3, 10, 5))
        whole[1] = _seed()
        own = _seed()
        kernels.rollout_coupled(*args, sens=own)
        kernels.rollout_coupled(*args, sens=whole[1])
        assert np.array_equal(whole[1], own)
        assert not whole[0].any() and not whole[2].any()

    def test_blowup_raises_domain_error(self):
        """A wildly wrong costate drives the flow out of double range.

        The overflow is reported by the DomainError alone, with no stray
        floating-point warning on the way.
        """
        from nhtrack.tracking import benchmark_problem, integrate_coupled

        prob = benchmark_problem()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="at step 6$"):
                integrate_coupled(prob, np.array([0.0, 0.0, 0.0, 0.0, 1e9]))


class TestCoupledRows:
    """`coupled_rhs`, the coupled rhs of `_rk4.c` at stacked rows."""

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_one_row_per_state(self, m):
        assert kernels.coupled_rhs(np.zeros((m, 10)), np.zeros((m, 5)), 7.0, False).shape == (m, 10)

    @pytest.mark.parametrize("literal", [False, True], ids=["derived", "paper-literal"])
    def test_rows_are_the_rollout_stage_slopes(self, literal):
        """RK4 written in numpy on the exported rows, reading the half-grid
        reference at stage rows 2i, 2i+1, 2i+1, 2i+2, gives the kernel's
        rollout bit for bit."""
        from nhtrack.tracking import _kernel_args, benchmark_problem

        z0, h, n, ref, eps, _ = _kernel_args(benchmark_problem(N=8), TRACK_ALPHA)
        states = kernels.rollout_coupled(z0, h, n, ref, eps, literal)

        def k(z, j):
            return kernels.coupled_rhs(z[None], ref[j][None], eps, literal)[0]

        x = z0
        for i in range(n):
            j = 2 * i
            k1 = k(x, j)
            k2 = k(x + 0.5 * h * k1, j + 1)
            k3 = k(x + 0.5 * h * k2, j + 1)
            k4 = k(x + h * k3, j + 2)
            x = x + h * ((k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0)
            assert x.tobytes() == states[i + 1].tobytes(), i

    @pytest.mark.parametrize(
        "z, ref",
        [
            (np.zeros(10), np.zeros(5)),
            (np.zeros((3, 9)), np.zeros((3, 5))),
            (np.zeros((3, 11)), np.zeros((3, 5))),
            (np.zeros((3, 10)), np.zeros((2, 5))),
            (np.zeros((3, 10)), np.zeros((3, 4))),
            (np.zeros((3, 10)), np.zeros(5)),
            (np.zeros((2, 3, 10)), np.zeros((2, 3, 5))),
        ],
        ids=["flat", "9-wide", "11-wide", "too-few-ref-rows", "4-wide-ref", "flat-ref", "3-d"],
    )
    def test_malformed_rows_rejected_before_the_library(self, z, ref, monkeypatch):
        """Rows the kernel would read or write out of bounds never reach it."""

        def no_library():
            raise AssertionError("the library was called")

        monkeypatch.setattr(kernels, "_library", no_library)
        with pytest.raises(ValueError, match=r"coupled_rhs needs states of shape \(m, 10\)"):
            kernels.coupled_rhs(z, ref, 7.0, False)


class TestStepArguments:
    """Each rollout rejects a bad step count or step size by name, before
    the library sees it."""

    @staticmethod
    def _rollouts():
        from nhtrack.tracking import benchmark_problem

        prob = benchmark_problem(N=4)
        z0 = np.concatenate([X0, np.zeros(5)])
        return {
            "reduced": lambda h, n: kernels.rollout_reduced(X0, h, n),
            "unreduced": lambda h, n: kernels.rollout_unreduced(np.zeros(6), h, n),
            "coupled": lambda h, n: kernels.rollout_coupled(z0, h, n, prob._ref_table, 7.0, False),
            "paired": lambda h, n: kernels.rollout_paired(np.zeros(11), h, n),
        }

    @pytest.mark.parametrize("kind", ["reduced", "unreduced", "coupled", "paired"])
    @pytest.mark.parametrize("n_steps", [-1, 2.5, True, np.float64(4.0), "4", None])
    def test_bad_step_count(self, kind, n_steps):
        with pytest.raises(ValueError, match="n_steps must be a non-negative int"):
            self._rollouts()[kind](0.01, n_steps)

    @pytest.mark.parametrize("kind", ["reduced", "unreduced", "coupled", "paired"])
    @pytest.mark.parametrize("h", [np.nan, np.inf, -np.inf])
    def test_non_finite_step_size(self, kind, h):
        with pytest.raises(ValueError, match="step size h must be finite"):
            self._rollouts()[kind](h, 4)

    @pytest.mark.parametrize("kind", ["reduced", "unreduced", "coupled", "paired"])
    def test_numpy_step_arguments_accepted(self, kind):
        rollout = self._rollouts()[kind]
        assert np.array_equal(rollout(0.01, np.int64(4)), rollout(0.01, 4))
        assert np.array_equal(rollout(np.float32(0.25), 4), rollout(0.25, 4))

    def test_zero_steps_return_the_start(self):
        z0 = np.concatenate([X0, np.ones(5)])
        assert np.array_equal(kernels.rollout_reduced(X0, 0.01, 0), [X0])
        assert np.array_equal(kernels.rollout_coupled(z0, 0.01, 0, np.zeros((1, 5)), 7.0, False), [z0])


def _sha256(states):
    return hashlib.sha256(np.ascontiguousarray(states, dtype="<f8").tobytes()).hexdigest()


# The initial costate the benchmark problem converges to at N=400 (the
# track-400 benchmark's alpha*), and the rollouts' outputs recorded from the
# numpy-scalar kernels that the Python-float driver replaced: the final row
# and a SHA-256 of the whole little-endian float64 array.
TRACK_ALPHA = np.array(
    [-3.3738608687695786, 6.1259424253410195, -2.471449523238801, 7.8655863520497284, -4.077189439249371]
)
TRACK_J = 5.271431831871028

# alpha* and J of the N=400 benchmark solve with the exact Newton Jacobian.
# They differ from TRACK_ALPHA and TRACK_J, found with finite-difference
# Jacobians, by at most 9 units in the last place.
SOLVE_ALPHA = np.array(
    [-3.3738608687695826, 6.125942425341016, -2.471449523238801, 7.865586352049729, -4.077189439249364]
)
SOLVE_J = 5.271431831871029

REDUCED_DIGEST = "df092858a4565df7ac23aa45d60935f8b12135aa6d0822e80baecdba75dce2b5"
UNREDUCED_DIGEST = "27872f03fab33b030f8d9c776cd8f6e2e3fa0bf5d3ccd34863dd07c326e2e609"


def _blocks(rollout, x0, h, lengths):
    """One rollout per block length, each from the last row of the one
    before; returns their rows with every repeated first row dropped."""
    states = np.asarray(x0, dtype=float)[None]
    parts = [states]
    for n_steps in lengths:
        states = rollout(states[-1], h, n_steps)
        parts.append(states[1:])
    return np.concatenate(parts)


class TestBitExactOutputs:
    def test_reduced_n4000(self):
        states = kernels.rollout_reduced(X0, 4.0 / 4000, 4000)
        assert states.shape == (4001, 5)
        assert np.array_equal(
            states[-1],
            [-0.6395739904958507, 2.1999999999999016, 1.7858630342094854, 0.5, 0.1687991430219091],
        )
        assert _sha256(states) == REDUCED_DIGEST

    def test_unreduced_n40000(self):
        x0 = embed(AdaptedState(q=X0[:3], v=X0[3:]))
        states = kernels.rollout_unreduced(x0, 40.0 / 40000, 40000)
        assert states.shape == (40001, 6)
        assert np.array_equal(
            states[-1],
            [-15.168212847112233, 20.199999999998273, 3.556064276300842,
             -0.4074226231073626, 0.5, 0.02016943678749533],
        )
        assert _sha256(states) == UNREDUCED_DIGEST

    @pytest.mark.parametrize("lengths", [(1000,) * 4, (1, 999, 0, 2000, 1000)])
    def test_reduced_n4000_from_restarted_blocks(self, lengths):
        states = _blocks(kernels.rollout_reduced, X0, 4.0 / 4000, lengths)
        assert _sha256(states) == REDUCED_DIGEST

    @pytest.mark.parametrize("lengths", [(4000,) * 10, (1, 39999)])
    def test_unreduced_n40000_from_restarted_blocks(self, lengths):
        x0 = embed(AdaptedState(q=X0[:3], v=X0[3:]))
        states = _blocks(kernels.rollout_unreduced, x0, 40.0 / 40000, lengths)
        assert _sha256(states) == UNREDUCED_DIGEST

    def test_coupled_restart_needs_the_table_from_row_2k(self):
        """A coupled rollout reads its reference table from row 0 in every
        call: a restart after k steps gives the rows of one rollout only
        when it is passed the table from row 2k on."""
        from nhtrack.tracking import _kernel_args, benchmark_problem

        z0, h, n, ref, eps, literal = _kernel_args(benchmark_problem(N=400), TRACK_ALPHA)
        k = 100
        head = kernels.rollout_coupled(z0, h, k, ref[: 2 * k + 1], eps, literal)
        tail = kernels.rollout_coupled(head[-1], h, n - k, ref[2 * k :], eps, literal)
        assert _sha256(np.concatenate([head, tail[1:]])) == COUPLED_DIGESTS["derived"]
        restarted = kernels.rollout_coupled(head[-1], h, n - k, ref[: 2 * (n - k) + 1], eps, literal)
        assert not np.array_equal(restarted, tail)

    @pytest.mark.parametrize(
        "mode, final, digest",
        [
            (
                "derived",
                [0.6697679291443679, -0.3790540207966312, 4.784901605849978, -0.11401831175961577,
                 1.173910484480592, -0.6604641417112486, -0.7581080415932698, -0.43019678830004743,
                 -0.22803662351924486, 0.34782096896117426],
                "1d068cb43a790a7e49a03dec63c5aa8721d0c1fbd04c3f6cb28eb55e333aa3a0",
            ),
            (
                "paper-literal",
                [1.107393201810873, -1.441440036759172, 4.36586385194509, -1.543766813829407,
                 0.6327578985544077, -0.9362722406299632, -4.245170955128282, -0.09501700150049562,
                 9.356655859974412, 0.9855651833879888],
                "f95d2c72cbcc9b6ae8b559547fccf070304557449b9ae25536f0f8e6342bb46c",
            ),
        ],
    )
    def test_coupled_benchmark_n400(self, mode, final, digest):
        from nhtrack.tracking import benchmark_problem, integrate_coupled

        states = integrate_coupled(benchmark_problem(N=400, adjoint_mode=mode), TRACK_ALPHA).states
        assert states.shape == (401, 10)
        assert np.array_equal(states[-1], final)
        assert _sha256(states) == digest

    def test_benchmark_solve_n400(self):
        from nhtrack.shooting import solve_tracking
        from nhtrack.tracking import benchmark_problem

        report = solve_tracking(benchmark_problem(N=400))
        assert report.converged
        assert np.array_equal(report.alpha_star, SOLVE_ALPHA)
        assert report.cost == SOLVE_J

    @pytest.mark.parametrize(
        "mode, full_transversality, alpha, norms, message, cost, controls_digest, drift_cost",
        [
            (
                "derived",
                False,
                [0.024367706869238268, 4.243620305007816, -2.9593912935379287, 10.216639852171653,
                 -1.8692942675292639],
                [4.36464623694698, 4.137238340261731, 2.683984762526932, 0.9574414098854196,
                 0.03697010357405464, 5.2412286098257876e-05, 1.3664960829551376e-10,
                 2.733924198139448e-14],
                "",
                "114.3943387199583",
                "0f2b622cbe3e944c00b9cc949c380951c2bc06ff3f8b7013e617fba4d131e898",
                "33.130440013771626",
            ),
            (
                "paper-literal",
                True,
                [-2.409968108871364, 8.071933268270811, -2.406901179189351, 9.49528972890647,
                 -4.479318472409965],
                [14.888912469994267, 11.613075221094444, 9.13636124618105, 7.343288701508869,
                 6.729927033728954, 4.5470162496311275, 4.243637954367053, 4.028596982411856,
                 0.1612783476997488, 0.0013257736577126228, 4.155934212324297e-07,
                 4.8377968298041196e-14],
                "",
                "5.5310935218831805",
                "561e85f828b8eef45fc7432a7a361513edaac8d556cebefcd0bad24283b0a971",
                "33.130440013771626",
            ),
            (
                "paper-literal",
                False,
                [-2.511318952604941, 2.4097133938138864, -2.5220710117650547, 4.13895307992515,
                 -3.1281241856804574],
                [4.908216050395336, 3.2506692924923843, 3.099448167619989, 2.09326185508697,
                 1.5725055138015762, 1.519680710222586, 1.063731529647359, 1.034308678356278,
                 0.9889571137376505, 0.8810821951062026, 0.7368382043387252, 0.7367332409753191,
                 0.736730530334116, 0.7367283153435451, 0.7367256424433314, 0.7367256389807572,
                 0.7367256387422396],
                "line search stalled: no damping factor reduced the residual max-norm 7.367e-01",
                "14.491176457845807",
                "f029a52347ff666eb73fd7686aa4f1e8ded429d0f196acc6171260515f694cb2",
                "33.130440013771626",
            ),
        ],
        ids=["derived-as-printed", "paper-literal-full", "paper-literal-as-printed"],
    )
    def test_benchmark_variant_solves_n400(
        self, mode, full_transversality, alpha, norms, message, cost, controls_digest, drift_cost
    ):
        """The other three adjoint-mode x transversality variants of the
        N=400 benchmark solve, pinned bit for bit: alpha*, the iteration
        count, every residual norm, the flag and the message, and the
        outputs computed from the solved flow: J, a SHA-256 of the
        controls and the cost of the u = 0 rollout. The
        paper-literal as-printed solve stalls after 16 iterations: its line
        searches reject 25 trials whose flow leaves the finite domain and
        others for too small a decrease, and the last one rejects all 31."""
        from nhtrack.shooting import solve_tracking
        from nhtrack.tracking import benchmark_problem, uncontrolled_cost

        prob = benchmark_problem(N=400, adjoint_mode=mode, full_transversality=full_transversality)
        report = solve_tracking(prob)
        assert report.alpha_star.tobytes() == np.array(alpha).tobytes()
        assert report.iterations == len(norms) - 1
        assert report.residual_norms == norms
        assert report.converged == (message == "")
        assert report.message == message
        assert repr(report.cost) == cost
        assert hashlib.sha256(report.controls.tobytes()).hexdigest() == controls_digest
        assert repr(uncontrolled_cost(prob)) == drift_cost


def _paired_start():
    """[X0 | embed(X0)]: the starts of the reduced and unreduced digests."""
    return np.concatenate([X0, embed(AdaptedState(q=X0[:3], v=X0[3:]))])


class TestPairedRollout:
    """The product flow [reduced | unreduced] gives each half's own
    rollout bit for bit."""

    def test_reduced_columns_n4000(self):
        states = kernels.rollout_paired(_paired_start(), 4.0 / 4000, 4000)
        assert states.shape == (4001, 11)
        assert _sha256(states[:, :5]) == REDUCED_DIGEST

    def test_unreduced_columns_n40000(self):
        states = kernels.rollout_paired(_paired_start(), 40.0 / 40000, 40000)
        assert states.shape == (40001, 11)
        assert _sha256(states[:, 5:]) == UNREDUCED_DIGEST

    @pytest.mark.parametrize("lengths", [(1000,) * 4, (1, 999, 0, 2000, 1000)])
    def test_restarted_blocks_are_one_rollout(self, lengths):
        whole = kernels.rollout_paired(_paired_start(), 1e-3, 4000)
        states = _blocks(kernels.rollout_paired, _paired_start(), 1e-3, lengths)
        assert states.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("x0", [np.zeros(10), np.zeros(12), np.zeros((1, 11)), np.zeros((11, 1))])
    def test_start_not_11_long_rejected_before_the_library(self, x0, monkeypatch):
        def no_library():
            raise AssertionError("the library was called")

        monkeypatch.setattr(kernels, "_library", no_library)
        with pytest.raises(ValueError, match="paired initial state must have length 11"):
            kernels.rollout_paired(x0, 1e-3, 10)

    @pytest.mark.parametrize(
        "x0, step",
        [
            # x' = -y*v2 = -1e307 in the reduced half
            (np.concatenate([[0.0, 1e307, 0.0, 0.0, 1.0], np.zeros(6)]), 17),
            # x' = vx = 5e306 in the unreduced half
            (np.concatenate([np.zeros(5), [0.0, 0.0, 0.0, 5e306, 0.0, 0.0]]), 35),
        ],
        ids=["reduced", "unreduced"],
    )
    def test_overflowing_half_raises_domain_error(self, x0, step):
        """Either half leaving double range stops the rollout at the step
        its own rollout stops at, with the last finite row as payload."""
        whole = kernels.rollout_paired(x0, 1.0, step)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^paired rollout left the finite domain at step {step}$") as err:
                kernels.rollout_paired(x0, 1.0, 100)
        assert err.value.x.tobytes() == whole[-1].tobytes()
        for rollout, half in ((kernels.rollout_reduced, slice(0, 5)), (kernels.rollout_unreduced, slice(5, 11))):
            assert rollout(x0[half], 1.0, step).tobytes() == whole[:, half].tobytes()


COUPLED_DIGESTS = {
    "derived": "1d068cb43a790a7e49a03dec63c5aa8721d0c1fbd04c3f6cb28eb55e333aa3a0",
    "paper-literal": "f95d2c72cbcc9b6ae8b559547fccf070304557449b9ae25536f0f8e6342bb46c",
}


def _seed():
    """S = dz/dalpha at the start, [0; I]: alpha is the costate, z[5:]."""
    return np.eye(10, 5, -5)


class TestSensitivity:
    """The forward sensitivity S_N = dz_N/dalpha carried by the RK4 kernel,
    and the exact shooting Jacobian built from it."""

    @pytest.mark.parametrize("mode", ["derived", "paper-literal"])
    def test_states_bit_identical_to_plain_rollout(self, mode):
        from nhtrack.tracking import _kernel_args, benchmark_problem

        prob = benchmark_problem(N=400, adjoint_mode=mode)
        sens = _seed()
        states = kernels.rollout_coupled(*_kernel_args(prob, TRACK_ALPHA), sens=sens)
        assert _sha256(states) == COUPLED_DIGESTS[mode]
        assert not np.array_equal(sens, _seed())

    @pytest.mark.parametrize("mode", ["derived", "paper-literal"])
    def test_every_row_matches_central_differences(self, mode):
        from nhtrack.tracking import _kernel_args, benchmark_problem

        prob = benchmark_problem(N=400, adjoint_mode=mode)
        sens = _seed()
        kernels.rollout_coupled(*_kernel_args(prob, TRACK_ALPHA), sens=sens)
        fd = np.empty((10, 5))
        for j in range(5):
            e = np.zeros(5)
            e[j] = 1e-6 * max(1.0, abs(TRACK_ALPHA[j]))
            plus = kernels.rollout_coupled(*_kernel_args(prob, TRACK_ALPHA + e))[-1]
            minus = kernels.rollout_coupled(*_kernel_args(prob, TRACK_ALPHA - e))[-1]
            fd[:, j] = (plus - minus) / (2.0 * e[j])
        scale = np.max(np.abs(fd), axis=1, keepdims=True)
        assert np.max(np.abs(sens - fd) / scale) <= 1e-6

    @pytest.mark.parametrize("mode", ["derived", "paper-literal"])
    def test_matches_variational_recursion_through_oracle_jacobian(self, oracle, mode):
        """S_N equals RK4's variational recursion S += h(dk1 + 2dk2 + 2dk3 +
        dk4)/6 with dk_i = A(stage i)(S + c_i dk_{i-1}), where A is the
        symbolic Jacobian of `oracles.particle_oracle`. It runs on the
        kernel's states; their stages come from the symbolic field, with
        the reference read from the half-grid table."""
        from nhtrack.tracking import _kernel_args, benchmark_problem

        prob = benchmark_problem(N=400, adjoint_mode=mode)
        sens = _seed()
        states = kernels.rollout_coupled(*_kernel_args(prob, TRACK_ALPHA), sens=sens)
        field, jac = oracle.field[mode], oracle.jacobian[mode]
        h, eps, ref = prob.h, prob.epsilon, prob._ref_table
        z = states[:-1]
        k1 = field(z, ref[:-1:2], eps)
        z2 = z + 0.5 * h * k1
        z3 = z + 0.5 * h * field(z2, ref[1::2], eps)
        z4 = z + h * field(z3, ref[1::2], eps)
        a1, a2, a3, a4 = (jac(stage, eps) for stage in (z, z2, z3, z4))
        S = _seed()
        for i in range(prob.N):
            dk1 = a1[i] @ S
            dk2 = a2[i] @ (S + 0.5 * h * dk1)
            dk3 = a3[i] @ (S + 0.5 * h * dk2)
            dk4 = a4[i] @ (S + h * dk3)
            S = S + h * ((dk1 + 2.0 * dk2 + 2.0 * dk3 + dk4) / 6.0)
        scale = np.max(np.abs(S), axis=1, keepdims=True)
        assert np.max(np.abs(sens - S) / scale) <= 1e-14

    @pytest.mark.parametrize("mode", ["derived", "paper-literal"])
    def test_oracle_jacobian_has_the_kernels_27_nonzeros(self, oracle, mode):
        """`coupled_jac` in `_rk4.c` forms 27 nonzero entries; the symbolic
        Jacobian has exactly as many."""
        assert int(oracle.sparsity[mode].sum()) == 27

    # (T, epsilon, N, alpha): the N=400 benchmark at alpha = 0 and at
    # TRACK_ALPHA, and the failure-map points (N = 250*T) whose flow is
    # finite at alpha = 0; the other six leave the finite domain there.
    POINTS = [
        (4.0, 7.0, 400, np.zeros(5)),
        (4.0, 7.0, 400, TRACK_ALPHA),
        (4.0, 1.0, 1000, np.zeros(5)),
        (4.0, 7.0, 1000, np.zeros(5)),
        (8.0, 7.0, 2000, np.zeros(5)),
    ]

    @pytest.mark.parametrize("mode", ["derived", "paper-literal"])
    @pytest.mark.parametrize("full_transversality", [True, False])
    @pytest.mark.parametrize("T, epsilon, N, alpha", POINTS)
    def test_shooting_jacobian_matches_fd_oracle(self, mode, full_transversality, T, epsilon, N, alpha):
        from nhtrack.shooting import fd_jacobian
        from nhtrack.tracking import benchmark_problem, shooting_maps, shooting_residual

        prob = benchmark_problem(
            epsilon=epsilon, T=T, N=N, adjoint_mode=mode, full_transversality=full_transversality
        )
        fd = fd_jacobian(lambda a: shooting_residual(a, prob), alpha, 1e-6)
        _, jacobian = shooting_maps(prob, alpha)
        exact = np.array(jacobian(alpha))
        assert np.max(np.abs(exact - fd)) <= 1e-6 * np.max(np.abs(fd))


class TestBackendSelection:
    def test_backend_reported(self):
        assert kernels.backend() == "c"


class TestKernelBuild:
    DERIVED_DIGEST = "1d068cb43a790a7e49a03dec63c5aa8721d0c1fbd04c3f6cb28eb55e333aa3a0"

    @staticmethod
    def _coupled_digest(lib):
        from nhtrack.tracking import benchmark_problem

        prob = benchmark_problem(N=400)
        states = np.empty((401, 10))
        states[0] = np.concatenate([prob.s0.q, prob.s0.v, TRACK_ALPHA])
        ref = np.ascontiguousarray(prob._ref_table)
        kind, _ = kernels._COUPLED
        assert lib.nh_rk4(kind, states.ctypes.data, 400, prob.h, ref.ctypes.data, prob.epsilon, 0, None) == -1
        return _sha256(states)

    def test_fresh_build_matches_pinned_digest(self, tmp_path):
        lib = kernels._build(tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == [p.name for p in tmp_path.glob("_rk4-*.so")]
        assert self._coupled_digest(lib) == self.DERIVED_DIGEST

    def test_second_load_reuses_cached_library(self, tmp_path):
        kernels._build(tmp_path)
        built = list(tmp_path.iterdir())
        # a compiler that does not exist is never called when the cache is warm
        lib = kernels._build(tmp_path, compiler="nhtrack-no-such-cc")
        assert list(tmp_path.iterdir()) == built
        assert self._coupled_digest(lib) == self.DERIVED_DIGEST

    def test_unwritable_cache_builds_in_a_private_directory_it_removes(self, tmp_path, monkeypatch):
        """With `__pycache__` not writable, the library is compiled in a
        private temporary directory, which is gone once the library is
        loaded; the loaded library still works."""
        monkeypatch.setattr(os, "access", lambda path, mode: False)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        lib = kernels._library.__wrapped__()
        assert list(tmp_path.glob("nhtrack-*")) == []
        assert list(tmp_path.iterdir()) == []
        assert self._coupled_digest(lib) == self.DERIVED_DIGEST

    def test_missing_compiler_raises_clear_error(self, tmp_path):
        with pytest.raises(KernelBuildError, match="nhtrack-no-such-cc"):
            kernels._build(tmp_path, compiler="nhtrack-no-such-cc")
        assert list(tmp_path.iterdir()) == []

    def test_source_edit_renames_library(self, tmp_path, monkeypatch):
        """An edit to either source changes the cached file name, so a stale
        library, such as one built from _rk4.c alone before the CSV
        formatter existed, is never loaded."""
        rk4_only = zlib.crc32(kernels._SOURCES[0].read_bytes() + " ".join(kernels._CFLAGS).encode())
        names = {f"_rk4-{rk4_only:08x}.so", kernels._library_name()}
        copies = []
        for src in kernels._SOURCES:
            copy = tmp_path / src.name
            copy.write_bytes(src.read_bytes())
            copies.append(copy)
        monkeypatch.setattr(kernels, "_SOURCES", tuple(copies))
        assert kernels._library_name() in names
        for copy in copies:
            copy.write_bytes(copy.read_bytes() + b"/* edited */\n")
            names.add(kernels._library_name())
        assert len(names) == 4

    def test_build_errors_name_both_sources(self, tmp_path):
        with pytest.raises(KernelBuildError, match=r"to build _rk4\.c and _csv\.cc: "):
            kernels._build(tmp_path, compiler="nhtrack-no-such-cc")
        fake_cc = tmp_path / "fake-cc"
        fake_cc.write_text("#!/bin/sh\nexit 2\n")
        fake_cc.chmod(0o755)
        out = tmp_path / "lib"
        out.mkdir()
        with pytest.raises(KernelBuildError, match=r"failed to build _rk4\.c and _csv\.cc \(exit 2\)"):
            kernels._build(out, compiler=str(fake_cc))

    def test_system_wider_than_max_dim_fails_to_compile(self, tmp_path, monkeypatch):
        """The RK4 stage arrays hold MAX_DIM entries: a copy of _rk4.c whose
        MAX_DIM is 10 does not compile, since the paired system is 11 wide."""
        copies = []
        for src in kernels._SOURCES:
            copy = tmp_path / src.name
            copy.write_text(src.read_text())
            copies.append(copy)
        text = copies[0].read_text()
        assert text.count("#define MAX_DIM 11\n") == 1
        copies[0].write_text(text.replace("#define MAX_DIM 11\n", "#define MAX_DIM 10\n"))
        monkeypatch.setattr(kernels, "_SOURCES", tuple(copies))
        out = tmp_path / "lib"
        out.mkdir()
        with pytest.raises(KernelBuildError, match="the paired system is wider than MAX_DIM"):
            kernels._build(out)
        assert list(out.iterdir()) == []

    def test_compiler_failure_carries_stderr(self, tmp_path):
        fake_cc = tmp_path / "fake-cc"
        fake_cc.write_text("#!/bin/sh\necho 'fake-cc: unsupported flag' >&2\nexit 1\n")
        fake_cc.chmod(0o755)
        out = tmp_path / "lib"
        out.mkdir()
        with pytest.raises(KernelBuildError, match="(?s)fake-cc' failed.*exit 1.*unsupported flag"):
            kernels._build(out, compiler=str(fake_cc))
        assert list(out.iterdir()) == []


class TestPackaging:
    def test_every_kernel_source_is_package_data(self):
        """A wheel carries every source _build compiles. pyproject.toml is
        read as text: tomllib needs Python 3.11."""
        text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
        section = text.split("[tool.setuptools.package-data]", 1)[1].split("\n[", 1)[0]
        declared = re.search(r"^nhtrack = \[(.*)\]$", section, re.MULTILINE).group(1)
        names = {name.strip().strip('"') for name in declared.split(",")}
        assert {src.name for src in kernels._SOURCES} <= names


def _format(table):
    table = np.asarray(table, dtype=float)
    return bytes(kernels.format_csv(table, np.empty(kernels.CSV_VALUE_BYTES * table.size, dtype=np.uint8)))


def _repr_lines(table):
    return "".join(",".join(map(repr, row)) + "\n" for row in np.asarray(table).tolist()).encode()


class TestFormatCsv:
    """kernels.format_csv writes each value exactly as repr does."""

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(8)
        bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64)
        bits[::16] &= np.uint64(0x800F_FFFF_FFFF_FFFF)  # subnormals and signed zeros
        bits[1::16] |= np.uint64(0x7FF0_0000_0000_0000)  # NaNs of either sign
        bits[2::4096] &= np.uint64(0xFFF0_0000_0000_0000)  # +-inf
        bits[2::4096] |= np.uint64(0x7FF0_0000_0000_0000)
        table = bits.view(np.float64).reshape(-1, 20)
        assert np.isinf(table).any() and np.isnan(table).any()
        assert _format(table) == _repr_lines(table)

    def test_boundary_values(self):
        values = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e-5, 1e-4, 0.1,
                  9999999999999998.0, 1e15, 1e16, 1e22, 1e23, np.inf]
        table = np.array([values, [-v for v in values]])
        text = _format(table)
        assert text == _repr_lines(table)
        assert text.startswith(b"0.0,5e-324,2.2250738585072014e-308,1.7976931348623157e+308,1e-05,0.0001,")
        assert _format([[np.copysign(np.nan, -1.0), np.nan]]) == b"nan,nan\n"

    def test_longest_values_fill_the_buffer_bound(self):
        table = np.full((3, 18), -2.2250738585072014e-308)
        out = np.empty(kernels.CSV_VALUE_BYTES * table.size, dtype=np.uint8)
        text = kernels.format_csv(table, out)
        assert text.size == out.size
        assert bytes(text) == _repr_lines(table)
        with pytest.raises(ValueError, match="at least 1350 bytes"):
            kernels.format_csv(table, out[:-1])

    def test_non_contiguous_input(self):
        table = np.random.default_rng(9).standard_normal((40, 30)) * 1e3
        for view in (table[::3, 1::4], table.T):
            assert _format(view) == _repr_lines(view)
