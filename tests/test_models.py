import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sirsupport.errors import InvalidArgumentError
from sirsupport.models import (
    BETA_SCHEMES,
    LINK_NAMES,
    Dataset,
    ModelSpec,
    SparseDirection,
    estimate_cv,
    generate_beta,
    sample_sim,
)


class TestModelSpec:
    def test_named_links_evaluate(self):
        u = np.array([0.0, 1.0, -2.0])
        eps = np.array([0.5, -0.5, 0.25])
        got = {name: ModelSpec(link=name).response(u, eps) for name in LINK_NAMES}
        np.testing.assert_allclose(got["linear"], u + eps)
        np.testing.assert_allclose(got["sin_plus_identity"], u + np.sin(u) + eps)
        np.testing.assert_allclose(got["atan2"], 2.0 * np.arctan(u) + eps)
        np.testing.assert_allclose(got["cubic"], u**3 + eps)
        np.testing.assert_allclose(got["sinh"], np.sinh(u) + eps)

    def test_custom_link(self):
        model = ModelSpec.custom(lambda u, eps: u * 2 + eps, noise_sd=0.0)
        np.testing.assert_allclose(model.response([1.0, 2.0], [0.0, 1.0]), [2.0, 5.0])

    def test_custom_without_callable_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ModelSpec(link="custom")

    def test_unknown_link_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ModelSpec(link="quadratic")

    def test_negative_noise_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ModelSpec(link="linear", noise_sd=-1.0)

    @pytest.mark.parametrize("noise_sd", [math.inf, math.nan])
    def test_non_finite_noise_rejected(self, noise_sd):
        with pytest.raises(InvalidArgumentError, match="finite"):
            ModelSpec(link="linear", noise_sd=noise_sd)

    @pytest.mark.parametrize("noise_sd", [True, None, "1", pytest.param(10**400, id="10**400")])
    def test_non_real_noise_rejected(self, noise_sd):
        with pytest.raises(InvalidArgumentError, match="noise_sd must be finite"):
            ModelSpec(link="linear", noise_sd=noise_sd)


class TestSparseDirection:
    def test_support_and_signs(self):
        d = SparseDirection(values=np.array([0.6, 0.0, -0.8]))
        assert d.support == (0, 2)
        assert d.p == 3 and d.s == 2
        np.testing.assert_array_equal(d.signs(), np.array([1, 0, -1], dtype=np.int8))

    def test_non_unit_norm_rejected(self):
        with pytest.raises(InvalidArgumentError):
            SparseDirection(values=np.array([1.0, 1.0]))

    def test_values_are_read_only(self):
        d = SparseDirection(values=np.array([1.0]))
        with pytest.raises(ValueError):
            d.values[0] = 0.5


class TestGenerateBeta:
    def test_fixed_splits_last_coordinate_negative(self):
        beta = generate_beta(4, 4, "fixed", 0)
        np.testing.assert_allclose(beta.values, [0.5, 0.5, 0.5, -0.5])

    def test_fixed_single_coordinate_is_negative(self):
        # with s = 1 the "last of the first s" coordinates is the only one
        beta = generate_beta(1, 1, "fixed", 0)
        np.testing.assert_allclose(beta.values, [-1.0])

    def test_fixed_ignores_seed(self):
        a = generate_beta(7, 3, "fixed", 1)
        b = generate_beta(7, 3, "fixed", 99)
        np.testing.assert_array_equal(a.values, b.values)

    def test_random_uniform_structure(self):
        beta = generate_beta(10, 5, "random_uniform", 7)
        assert beta.support == (0, 1, 2, 3, 4)
        vals = beta.values[:5]
        assert (vals[:2] > 0).all() and (vals[2:] < 0).all()
        # magnitudes were uniform on (1/2, 1) before normalization
        mags = np.abs(vals)
        ratio = mags.max() / mags.min()
        assert ratio < 2.0
        assert math.isclose(float(np.linalg.norm(beta.values)), 1.0, abs_tol=1e-12)

    def test_random_uniform_seed_determinism(self):
        a = generate_beta(10, 4, "random_uniform", 3)
        b = generate_beta(10, 4, "random_uniform", 3)
        c = generate_beta(10, 4, "random_uniform", 4)
        np.testing.assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_invalid_arguments(self):
        with pytest.raises(InvalidArgumentError):
            generate_beta(3, 4, "fixed", 0)
        with pytest.raises(InvalidArgumentError):
            generate_beta(3, 0, "fixed", 0)
        with pytest.raises(InvalidArgumentError):
            generate_beta(3, 2, "gaussian", 0)
        with pytest.raises(InvalidArgumentError):
            generate_beta(5, True)
        with pytest.raises(InvalidArgumentError):
            generate_beta(10, 2, "random_uniform", seed=-1)
        with pytest.raises(InvalidArgumentError):
            generate_beta(10, 2, "fixed", seed=-1)
        with pytest.raises(InvalidArgumentError):
            generate_beta(10, 2, "random_uniform", seed=True)

    @settings(max_examples=40, deadline=None)
    @given(
        p=st.integers(min_value=1, max_value=40),
        frac=st.floats(min_value=0.0, max_value=1.0),
        scheme=st.sampled_from(BETA_SCHEMES),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_always_unit_norm_with_s_nonzeros(self, p, frac, scheme, seed):
        s = max(1, min(p, int(round(frac * p))))
        beta = generate_beta(p, s, scheme, seed)
        assert beta.s == s
        assert math.isclose(float(np.linalg.norm(beta.values)), 1.0, abs_tol=1e-12)
        assert beta.support == tuple(range(s))


class TestSampleSim:
    def test_shapes_and_provenance(self):
        beta = generate_beta(6, 2, "fixed", 0)
        data = sample_sim(ModelSpec(link="atan2"), beta, 50, seed=11)
        assert data.x.shape == (50, 6)
        assert data.y.shape == (50,)
        assert data.seed_provenance["seed"] == 11
        assert data.seed_provenance["bit_generator"] == "PCG64"

    def test_seed_determinism(self):
        beta = generate_beta(5, 2, "fixed", 0)
        model = ModelSpec(link="cubic")
        a = sample_sim(model, beta, 20, seed=4)
        b = sample_sim(model, beta, 20, seed=4)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_response_is_link_of_projection(self):
        beta = generate_beta(4, 4, "fixed", 0)
        model = ModelSpec(link="linear", noise_sd=0.0)
        data = sample_sim(model, beta, 30, seed=2)
        np.testing.assert_allclose(data.y, data.x @ beta.values, atol=1e-12)

    def test_bad_n_rejected(self):
        beta = generate_beta(4, 2, "fixed", 0)
        with pytest.raises(InvalidArgumentError):
            sample_sim(ModelSpec(link="linear"), beta, 0)
        with pytest.raises(InvalidArgumentError):
            sample_sim(ModelSpec(link="linear"), beta, True)
        with pytest.raises(InvalidArgumentError):
            sample_sim(ModelSpec(link="linear"), beta, 10, seed=-3)
        with pytest.raises(InvalidArgumentError):
            sample_sim(ModelSpec(link="linear"), beta, 10, seed=True)

    def test_accepts_numpy_scalars(self):
        beta = generate_beta(np.int64(4), np.int64(2), "fixed", 0)
        data = sample_sim(ModelSpec(link="linear", noise_sd=np.float64(0.5)), beta, np.int64(9))
        assert (data.n, data.p) == (9, 4)


class TestDataset:
    def test_row_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Dataset(x=np.zeros((3, 2)), y=np.zeros(4))

    def test_x_must_be_2d(self):
        with pytest.raises(InvalidArgumentError):
            Dataset(x=np.zeros(3), y=np.zeros(3))


class TestEstimateCv:
    def test_linear_matches_closed_form(self):
        # for y = z + sd * eps the conditional mean is y / (1 + sd^2),
        # whose variance is 1 / (1 + sd^2)
        for sd in (0.5, 1.0, 2.0):
            got = estimate_cv(ModelSpec(link="linear", noise_sd=sd), mc_n=200_000, seed=0)
            assert abs(got - 1.0 / (1.0 + sd * sd)) < 0.01

    def test_frozen_values_per_link(self):
        frozen = {
            "sin_plus_identity": 0.7117828023278521,
            "atan2": 0.6226264818893933,
            "cubic": 0.7054860958492916,
            "sinh": 0.6804170134323242,
        }
        for link, value in frozen.items():
            got = estimate_cv(ModelSpec(link=link), mc_n=1_000_000, oracle_slices=1000, seed=0)
            assert got == pytest.approx(value, abs=1e-12)

    def test_noiseless_linear_approaches_one(self):
        got = estimate_cv(ModelSpec(link="linear", noise_sd=0.0), mc_n=200_000, seed=1)
        assert abs(got - 1.0) < 0.01

    def test_mc_n_precondition(self):
        with pytest.raises(InvalidArgumentError):
            estimate_cv(ModelSpec(link="linear"), mc_n=500, oracle_slices=1000)
        with pytest.raises(InvalidArgumentError):
            estimate_cv(ModelSpec(link="linear"), mc_n=2000.0, oracle_slices=10)
        with pytest.raises(InvalidArgumentError):
            estimate_cv(ModelSpec(link="linear"), mc_n=2000, oracle_slices=10, seed=-1)
        with pytest.raises(InvalidArgumentError):
            estimate_cv(ModelSpec(link="linear"), mc_n=2000, oracle_slices=10, seed=True)

    def test_oracle_slices_precondition(self):
        with pytest.raises(InvalidArgumentError):
            estimate_cv(ModelSpec(link="linear"), mc_n=1000, oracle_slices=1)
