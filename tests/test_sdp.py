import math

import numpy as np
import pytest

from sirsupport.errors import InvalidArgumentError, NumericalError
from sirsupport.sdp import (
    SdpConfig,
    SdpSolution,
    default_lambda,
    project_spectraplex,
    sdp_sign_recover,
    sdp_solve,
)
from sirsupport.sir import SirMatrix, inv_sqrt_sym


def _solution_from_z(z, rank1_gap=0.0, dual=None):
    return SdpSolution(
        z=z,
        objective=0.0,
        iterations=1,
        converged=True,
        rank1_gap=rank1_gap,
        dual=np.zeros_like(z) if dual is None else dual,
        duality_gap=0.0,
    )


def _certified_gap(a, lam, sol):
    """Weak-duality gap of a solve, recomputed from its dual and z."""
    assert np.all(np.abs(sol.dual) <= 1.0)
    assert np.array_equal(sol.dual, sol.dual.T)
    upper = np.linalg.eigvalsh(a - lam * sol.dual)[-1]
    return upper - (np.trace(a @ sol.z) - lam * np.abs(sol.z).sum())


class TestProjectSpectraplex:
    def test_feasible_point_is_fixed(self):
        z = np.zeros((3, 3))
        z[0, 0] = 1.0
        np.testing.assert_allclose(project_spectraplex(z), z, atol=1e-12)

    def test_scaled_identity_spreads_evenly(self):
        got = project_spectraplex(5.0 * np.eye(3))
        np.testing.assert_allclose(got, np.eye(3) / 3.0, atol=1e-12)

    def test_output_feasible_and_idempotent(self):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((6, 6))
        m = (g + g.T) / 2.0
        z = project_spectraplex(m)
        assert np.array_equal(z, z.T)
        assert abs(np.trace(z) - 1.0) < 1e-10
        assert np.linalg.eigvalsh(z)[0] >= -1e-10
        np.testing.assert_allclose(project_spectraplex(z), z, atol=1e-10)

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidArgumentError):
            project_spectraplex(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestSdpConfig:
    def test_defaults(self):
        cfg = SdpConfig(lam=0.1)
        assert (cfg.max_iter, cfg.tol) == (20000, 1e-7)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam": -0.1},
            {"lam": math.nan},
            {"lam": 0.1, "max_iter": 0},
            {"lam": 0.1, "tol": 0.0},
            {"lam": 0.1, "tol": math.inf},
            {"lam": 0.1, "tol": math.nan},
            {"lam": None},
            {"lam": "0.1"},
            {"lam": True},
            {"lam": 0.1, "max_iter": True},
            {"lam": 0.1, "tol": True},
            {"lam": 0.1, "tol": "1e-7"},
        ],
    )
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(InvalidArgumentError):
            SdpConfig(**kwargs)

    def test_accepts_numpy_scalars(self):
        cfg = SdpConfig(lam=np.float64(0.1), max_iter=np.int64(5), tol=np.float64(1e-6))
        assert (cfg.lam, cfg.max_iter, cfg.tol) == (0.1, 5, 1e-6)


class TestSdpSolutionValidation:
    def test_rejects_asymmetric_z(self):
        with pytest.raises(InvalidArgumentError):
            _solution_from_z(np.array([[0.5, 0.1], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvalidArgumentError):
            _solution_from_z(np.eye(2))

    def test_rejects_indefinite(self):
        z = np.array([[1.5, 0.0], [0.0, -0.5]])
        with pytest.raises(InvalidArgumentError):
            _solution_from_z(z)

    def test_rejects_bad_rank1_gap(self):
        z = np.eye(2) / 2.0
        with pytest.raises(InvalidArgumentError):
            _solution_from_z(z, rank1_gap=1.5)

    @pytest.mark.parametrize(
        "dual",
        [
            np.array([[0.0, 0.5], [0.0, 0.0]]),
            np.zeros((3, 3)),
            np.array([[1.5, 0.0], [0.0, 0.0]]),
        ],
        ids=["asymmetric", "wrong_shape", "above_one"],
    )
    def test_rejects_bad_dual(self, dual):
        with pytest.raises(InvalidArgumentError, match="dual"):
            _solution_from_z(np.eye(2) / 2.0, rank1_gap=0.5, dual=dual)

    @pytest.mark.parametrize("field", ["z", "dual"])
    def test_stores_the_exact_mirror(self, field):
        # asymmetric by 1e-13, within the gate's rounding tolerance
        near = np.array([[0.5, 0.1], [0.1 + 1e-13, 0.5]])
        matrices = {"z": np.eye(2) / 2.0, "dual": np.zeros((2, 2)), field: near}
        sol = _solution_from_z(matrices["z"], rank1_gap=0.4, dual=matrices["dual"])
        stored = getattr(sol, field)
        assert stored.tobytes() == np.array([[0.5, 0.1], [0.1, 0.5]]).tobytes()

    @pytest.mark.parametrize("field", ["z", "dual"])
    def test_non_finite_matrix_is_a_numerical_error(self, field):
        matrices = {"z": np.eye(2) / 2.0, "dual": np.zeros((2, 2)),
                    field: np.array([[0.5, np.nan], [np.nan, 0.5]])}
        with pytest.raises(NumericalError, match=f"{field} has non-finite"):
            _solution_from_z(matrices["z"], rank1_gap=0.5, dual=matrices["dual"])


class TestSolveHandExamples:
    def test_no_penalty_picks_top_eigendirection(self):
        a = np.diag([2.0, 1.0])
        sol = sdp_solve(a, SdpConfig(lam=0.0))
        assert sol.objective == pytest.approx(2.0, abs=1e-6)
        np.testing.assert_allclose(sol.z, np.diag([1.0, 0.0]), atol=1e-5)
        assert sol.rank1_gap < 1e-5

    def test_rank_one_all_ones(self):
        a = np.ones((2, 2))
        sol = sdp_solve(a, SdpConfig(lam=0.0))
        assert sol.objective == pytest.approx(2.0, abs=1e-6)
        np.testing.assert_allclose(sol.z, np.full((2, 2), 0.5), atol=1e-5)

    def test_heavy_penalty_keeps_unit_trace(self):
        # trace is pinned at 1, so the l1 term costs at least lam and the
        # best move is to spend it all on the largest diagonal entry
        a = np.diag([2.0, 1.0])
        sol = sdp_solve(a, SdpConfig(lam=100.0))
        assert sol.objective == pytest.approx(-98.0, abs=1e-5)
        np.testing.assert_allclose(sol.z, np.diag([1.0, 0.0]), atol=1e-4)

    def test_one_by_one(self):
        sol = sdp_solve(np.array([[2.0]]), SdpConfig(lam=0.5))
        np.testing.assert_allclose(sol.z, [[1.0]], atol=1e-9)
        assert sol.objective == pytest.approx(1.5, abs=1e-9)

    def test_accepts_matrix_wrapper(self):
        v = SirMatrix(v=np.diag([2.0, 1.0]), mode="raw", h=2)
        sol = sdp_solve(v, SdpConfig(lam=0.0))
        assert sol.objective == pytest.approx(2.0, abs=1e-6)


class TestSolveDiagnostics:
    def test_rejects_asymmetric_input(self):
        with pytest.raises(InvalidArgumentError):
            sdp_solve(np.array([[1.0, 1.0], [0.0, 1.0]]), SdpConfig(lam=0.1))

    @pytest.mark.parametrize(
        "call",
        [
            lambda m: sdp_solve(m, SdpConfig(lam=0.1)),
            project_spectraplex,
            inv_sqrt_sym,
        ],
        ids=["sdp_solve", "project_spectraplex", "inv_sqrt_sym"],
    )
    def test_rejects_empty_matrix(self, call):
        with pytest.raises(InvalidArgumentError, match="must be nonempty"):
            call(np.zeros((0, 0)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_input(self, bad):
        a = np.array([[1.0, bad], [bad, 1.0]])
        with pytest.raises(NumericalError, match="non-finite"):
            sdp_solve(a, SdpConfig(lam=0.1))

    def test_splitting_converges_with_small_gap(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((5, 5))
        a = (g @ g.T) / 5.0
        tol = 1e-9
        sol = sdp_solve(a, SdpConfig(lam=0.1, tol=tol))
        assert sol.converged
        assert sol.duality_gap <= tol * max(1.0, np.linalg.norm(a, 2))
        assert sol.duality_gap == pytest.approx(_certified_gap(a, 0.1, sol), abs=1e-12)
        assert sol.iterations >= 1

    def test_capped_solve_is_uncertified(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((8, 8))
        a = (g @ g.T) / 8.0
        tol = 1e-7
        sol = sdp_solve(a, SdpConfig(lam=0.1, max_iter=1, tol=tol))
        assert sol.iterations == 1
        assert not sol.converged
        # the returned certificate is the one that refused the stop
        gap = _certified_gap(a, 0.1, sol)
        assert sol.duality_gap == pytest.approx(gap, abs=1e-12)
        assert gap > tol * max(1.0, np.linalg.norm(a, 2))

    def test_certifies_slow_residual_case(self):
        # matrix 41 of test_06's draw at lam = 0.1: its duality gap meets
        # the tolerance within tens of iterations, while its iterates keep
        # moving by more than tol for the whole 20000-iteration budget
        rng = np.random.default_rng(1234)
        for _ in range(42):
            g = rng.standard_normal((6, 6))
        a = (g @ g.T) / 6.0
        sol = sdp_solve(a, SdpConfig(lam=0.1))
        assert sol.converged
        assert sol.iterations <= 200
        assert _certified_gap(a, 0.1, sol) <= 1e-7 * max(1.0, np.linalg.norm(a, 2))

    def test_certified_gap_on_sample(self):
        rng = np.random.default_rng(99)
        for _ in range(3):
            g = rng.standard_normal((6, 6))
            a = (g @ g.T) / 6.0
            for lam in (0.0, 0.1):
                sol = sdp_solve(a, SdpConfig(lam=lam))
                gap = _certified_gap(a, lam, sol)
                assert gap <= 1e-5
                assert sol.duality_gap == pytest.approx(gap, abs=1e-12)
                if lam == 0.0:
                    assert not sol.dual.any()


class TestSignRecover:
    def test_flat_vector_keeps_exactly_s_signs(self):
        sol = _solution_from_z(np.full((5, 5), 0.2))
        # entries are 1/sqrt(5) up to rounding; top-s rounding keeps s of them
        assert sdp_sign_recover(sol, 1).s_hat == 1
        np.testing.assert_array_equal(sdp_sign_recover(sol, 5).signs, np.ones(5, dtype=np.int8))
        # both entries of the 2 x 2 flat vector are exactly 1/sqrt(2): the tie goes to index 0
        tied = _solution_from_z(np.full((2, 2), 0.5))
        np.testing.assert_array_equal(sdp_sign_recover(tied, 1).signs, [1, 0])

    def test_keeps_the_s_largest_magnitudes(self):
        vec = np.array([0.1, -0.7, 0.0, 0.5, -0.4])
        vec /= np.linalg.norm(vec)
        sol = _solution_from_z(np.outer(vec, vec))
        # -0.7 leads, so orientation flips every sign
        np.testing.assert_array_equal(sdp_sign_recover(sol, 2).signs, [0, 1, 0, -1, 0])
        np.testing.assert_array_equal(sdp_sign_recover(sol, 4).signs, [-1, 1, 0, -1, 1])

    def test_exact_zero_entry_keeps_sign_zero(self):
        vec = np.array([0.8, 0.6, 0.0])
        sol = _solution_from_z(np.outer(vec, vec))
        np.testing.assert_array_equal(sdp_sign_recover(sol, 3).signs, [1, 1, 0])

    def test_orientation_fixes_global_flip(self):
        vec = np.array([-0.8, 0.6])
        sol = _solution_from_z(np.outer(vec, vec))
        np.testing.assert_array_equal(sdp_sign_recover(sol, 2).signs, [1, -1])

    def test_rejects_bad_arguments(self):
        sol = _solution_from_z(np.diag([1.0, 0.0]))
        with pytest.raises(InvalidArgumentError):
            sdp_sign_recover(sol.z, 1)
        with pytest.raises(InvalidArgumentError):
            sdp_sign_recover(sol, 0)
        with pytest.raises(InvalidArgumentError, match="s=1000, p=2"):
            sdp_sign_recover(sol, 1000)


class TestDefaultLambda:
    def test_half_sth_largest_diagonal(self):
        a = np.diag([4.0, 3.0, 2.0, 1.0])
        assert default_lambda(a, 1) == pytest.approx(2.0)
        assert default_lambda(a, 2) == pytest.approx(1.5)
        assert default_lambda(a, 4) == pytest.approx(0.5)

    def test_order_of_diagonal_does_not_matter(self):
        a = np.diag([1.0, 4.0, 2.0, 3.0])
        assert default_lambda(a, 2) == pytest.approx(1.5)

    def test_rejects_out_of_range_s(self):
        with pytest.raises(InvalidArgumentError):
            default_lambda(np.eye(3), 0)
        with pytest.raises(InvalidArgumentError):
            default_lambda(np.eye(3), 4)
