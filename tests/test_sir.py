import tracemalloc

import numpy as np
import pytest

from sirsupport.dt import dt_select, dt_sir
from sirsupport.errors import (
    InvalidArgumentError,
    NotPositiveDefiniteError,
    NumericalError,
    RankDeficientError,
)
from sirsupport.models import Dataset, ModelSpec, generate_beta, sample_sim
from sirsupport.sdp import SdpConfig, default_lambda, project_spectraplex, sdp_solve
from sirsupport.sir import (
    MODES,
    SirMatrix,
    _mirror_upper,
    as_matrix,
    inv_sqrt_sym,
    sir_matrix,
    sir_matrix_whitened,
    slice_data,
)


def tiny_dataset():
    x = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [0.0, 2.0]])
    y = np.array([1.0, 2.0, 3.0, 4.0])
    return Dataset(x=x, y=y)


class TestSliceData:
    def test_even_split_hand_example(self):
        sl = slice_data(tiny_dataset(), 2)
        assert sl.h == 2 and sl.m == 2 and sl.dropped == 0
        np.testing.assert_allclose(sl.slice_means, [[0.5, 0.5], [1.0, 1.0]])
        np.testing.assert_array_equal(sl.order, [0, 1, 2, 3])

    def test_sorts_by_response(self):
        x = np.arange(8.0).reshape(4, 2)
        y = np.array([4.0, 1.0, 3.0, 2.0])
        sl = slice_data(Dataset(x=x, y=y), 2)
        np.testing.assert_array_equal(sl.order, [1, 3, 2, 0])

    def test_ties_keep_original_order(self):
        x = np.arange(8.0).reshape(4, 2)
        y = np.array([1.0, 1.0, 1.0, 1.0])
        sl = slice_data(Dataset(x=x, y=y), 2)
        np.testing.assert_array_equal(sl.order, [0, 1, 2, 3])

    def test_surplus_rows_dropped_deterministically(self):
        x = np.arange(14.0).reshape(7, 2)
        y = np.arange(7.0)
        a = slice_data(Dataset(x=x, y=y), 2, seed=5)
        b = slice_data(Dataset(x=x, y=y), 2, seed=5)
        assert a.dropped == 1
        assert a.order.size == 6
        np.testing.assert_array_equal(a.order, b.order)

    def test_memory_peak_is_a_fraction_of_the_design(self):
        # averaging through the sorted indices builds no sorted n x p copy
        rng = np.random.default_rng(0)
        data = Dataset(x=rng.standard_normal((5000, 1000)), y=rng.standard_normal(5000))
        tracemalloc.start()
        try:
            slice_data(data, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= data.x.nbytes / 4

    def test_preconditions(self):
        with pytest.raises(InvalidArgumentError):
            slice_data(tiny_dataset(), 1)
        with pytest.raises(InvalidArgumentError):
            slice_data(tiny_dataset(), 3)  # n=4 < 2h=6
        # n=4 is a multiple of h=2, so no row is dropped and the seed is unused
        with pytest.raises(InvalidArgumentError):
            slice_data(tiny_dataset(), 2, seed=-1)
        with pytest.raises(InvalidArgumentError):
            slice_data(tiny_dataset(), 2, seed=True)


class TestSirMatrix:
    def test_raw_hand_example(self):
        sl = slice_data(tiny_dataset(), 2)
        v = sir_matrix(sl, "raw")
        # (1/2) * ([.5,.5] outer + [1,1] outer) has every entry 0.625
        np.testing.assert_allclose(v.v, np.full((2, 2), 0.625))
        assert v.mode == "raw"

    def test_centered_hand_example(self):
        sl = slice_data(tiny_dataset(), 2)
        v = sir_matrix(sl, "centered")
        # grand mean [.75,.75]; deviations +-[.25,.25]
        np.testing.assert_allclose(v.v, np.full((2, 2), 0.0625))

    def test_result_exactly_symmetric_and_psd(self):
        beta = generate_beta(8, 3, "fixed", 0)
        data = sample_sim(ModelSpec(link="atan2"), beta, 400, seed=3)
        for mode in ("raw", "centered"):
            v = sir_matrix(slice_data(data, 10), mode)
            assert np.array_equal(v.v, v.v.T)
            assert np.linalg.eigvalsh(v.v)[0] >= -1e-12

    def test_centered_invariant_to_design_shift(self):
        beta = generate_beta(6, 2, "fixed", 0)
        data = sample_sim(ModelSpec(link="linear"), beta, 300, seed=9)
        shifted = Dataset(x=data.x + np.linspace(-2, 5, 6), y=data.y)
        v0 = sir_matrix(slice_data(data, 5, seed=1), "centered").v
        v1 = sir_matrix(slice_data(shifted, 5, seed=1), "centered").v
        assert np.abs(v0 - v1).max() < 1e-10

    def test_whitened_mode_rejected_here(self):
        sl = slice_data(tiny_dataset(), 2)
        with pytest.raises(InvalidArgumentError):
            sir_matrix(sl, "whitened")

    def test_wrapper_validates_symmetry(self):
        with pytest.raises(InvalidArgumentError):
            SirMatrix(v=np.array([[1.0, 2.0], [3.0, 4.0]]), mode="raw")
        with pytest.raises(InvalidArgumentError):
            SirMatrix(v=np.eye(2), mode="diagonal")

    def test_wrapper_rejects_non_finite(self):
        with pytest.raises(NumericalError, match="non-finite"):
            SirMatrix(v=np.diag([np.inf, 1.0]), mode="raw")

    def test_modes_tuple(self):
        assert MODES == ("raw", "centered", "whitened")

    @pytest.mark.parametrize("mode", MODES)
    def test_wrapper_stores_the_exact_mirror(self, mode):
        # asymmetric by 1e-13, within the gate's rounding tolerance
        v = SirMatrix(v=np.array([[1.0, 2.0], [2.0 + 1e-13, 3.0]]), mode=mode)
        assert v.v.tobytes() == np.array([[1.0, 2.0], [2.0, 3.0]]).tobytes()


def _special_entries(p: int, layout: str) -> np.ndarray:
    """A p x p matrix with signed zeros, NaNs and infinities in both triangles."""
    rng = np.random.default_rng(p)
    m = rng.standard_normal((p, p))
    cells = rng.permutation(p * p)[: max(1, p * p // 4)]
    specials = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf])
    m.flat[cells] = specials[np.arange(cells.size) % specials.size]
    if layout == "fortran":
        return np.asfortranarray(m)
    if layout == "strided":
        wide = np.zeros((p, 2 * p))
        wide[:, ::2] = m
        return wide[:, ::2]
    return m


class TestMirrorUpper:
    @pytest.mark.parametrize("layout", ["c", "fortran", "strided"])
    @pytest.mark.parametrize("p", [1, 2, 3, 7, 100])
    def test_bit_identical_to_two_triangles(self, p, layout):
        m = _special_entries(p, layout)
        want = np.triu(m) + np.triu(m, 1).T
        got = _mirror_upper(m)
        assert got.dtype == want.dtype and got.strides == want.strides
        assert got.tobytes() == want.tobytes()

    def test_zero_sign_and_nan_entries(self):
        m = np.array([[-0.0, -0.0, np.nan], [1.0, 2.0, -0.0], [np.nan, 5.0, -0.0]])
        got = _mirror_upper(m)
        # -0.0 + 0.0 is +0.0, on the diagonal and off it
        assert not np.signbit(got).any()
        assert np.isnan(got[0, 2]) and np.isnan(got[2, 0])
        assert got[1, 0] == 0.0 and got[2, 1] == 0.0
        assert m[0, 0] == -0.0 and np.signbit(m[0, 0])  # the input is not touched

    def test_empty_matrix(self):
        assert _mirror_upper(np.zeros((0, 0))).shape == (0, 0)


class TestAsMatrix:
    def test_unwraps_and_validates(self):
        v = SirMatrix(v=np.eye(3), mode="raw")
        assert as_matrix(v) is v.v
        np.testing.assert_array_equal(as_matrix(np.eye(2)), np.eye(2))
        with pytest.raises(InvalidArgumentError):
            as_matrix(np.zeros((2, 3)))

    def test_returns_the_exact_mirror(self):
        a = np.array([[1.0, 2.0], [2.0 + 1e-12, 3.0]])
        np.testing.assert_array_equal(as_matrix(a), [[1.0, 2.0], [2.0, 3.0]])

    @pytest.mark.parametrize(
        "call",
        [
            lambda m: dt_select(m, 1),
            lambda m: dt_sir(m, 1),
            lambda m: default_lambda(m, 1),
            lambda m: sdp_solve(m, SdpConfig(lam=0.1)),
            project_spectraplex,
            inv_sqrt_sym,
        ],
        ids=["dt_select", "dt_sir", "default_lambda", "sdp_solve", "project_spectraplex",
             "inv_sqrt_sym"],
    )
    @pytest.mark.parametrize(
        ("bad", "error", "message"),
        [
            (np.array([[2.0, 5.0], [-5.0, 1.0]]), InvalidArgumentError, "must be symmetric"),
            (np.diag([1.0, np.nan]), NumericalError, "non-finite"),
            (np.array([[1.0, np.inf], [np.inf, 2.0]]), NumericalError, "non-finite"),
            (np.zeros((0, 0)), InvalidArgumentError, "must be nonempty"),
            (np.zeros((2, 3)), InvalidArgumentError, "must be a square matrix"),
        ],
        ids=["asymmetric", "nan", "inf", "empty", "2x3"],
    )
    def test_every_entry_point_applies_the_gate(self, call, bad, error, message):
        with pytest.raises(error, match=message):
            call(bad)


class TestInvSqrtSym:
    def test_diagonal_hand_example(self):
        np.testing.assert_allclose(
            inv_sqrt_sym(np.diag([4.0, 9.0])), np.diag([0.5, 1.0 / 3.0]), atol=1e-14
        )

    def test_squares_to_inverse(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((5, 5))
        sigma = g @ g.T + 5 * np.eye(5)
        w = inv_sqrt_sym(sigma)
        assert np.array_equal(w, w.T)
        np.testing.assert_allclose(w @ sigma @ w, np.eye(5), atol=1e-10)

    def test_eigenvalue_below_floor_raises_with_details(self):
        sigma = np.diag([1.0, 1e-14])
        with pytest.raises(NotPositiveDefiniteError) as err:
            inv_sqrt_sym(sigma)
        assert err.value.eigenvalue == pytest.approx(1e-14)
        assert err.value.floor == pytest.approx(1e-10)
        assert "eigenvalue" in str(err.value)

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidArgumentError):
            inv_sqrt_sym(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestWhitened:
    def test_needs_more_rows_than_columns(self):
        beta = generate_beta(10, 3, "fixed", 0)
        data = sample_sim(ModelSpec(link="linear"), beta, 10, seed=0)
        with pytest.raises(RankDeficientError):
            sir_matrix_whitened(data, 2)

    def test_spectrum_invariant_under_invertible_transform(self):
        beta = generate_beta(6, 2, "fixed", 0)
        base = sample_sim(ModelSpec(link="atan2"), beta, 2000, seed=8)
        w0 = np.linalg.eigvalsh(sir_matrix_whitened(base, 10, seed=4).v)
        rng = np.random.default_rng(3)
        t = rng.standard_normal((6, 6)) + 3 * np.eye(6)
        moved = Dataset(x=base.x @ t, y=base.y)
        w1 = np.linalg.eigvalsh(sir_matrix_whitened(moved, 10, seed=4).v)
        assert np.abs(w0 - w1).max() < 1e-8

    def test_mode_label(self):
        beta = generate_beta(4, 2, "fixed", 0)
        data = sample_sim(ModelSpec(link="linear"), beta, 100, seed=1)
        v = sir_matrix_whitened(data, 5)
        assert v.mode == "whitened"
        assert np.array_equal(v.v, v.v.T)
