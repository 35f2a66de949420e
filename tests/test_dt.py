import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sirsupport.dt import SignedSupport, dt_select, dt_sir, signed_support_match
from sirsupport.errors import InvalidArgumentError
from sirsupport.sir import SirMatrix


class TestSignedSupport:
    def test_counts(self):
        s = SignedSupport(signs=np.array([1, 0, -1, 0]))
        assert s.p == 4 and s.s_hat == 2
        assert s.signs.dtype == np.int8

    def test_rejects_other_values(self):
        with pytest.raises(InvalidArgumentError):
            SignedSupport(signs=np.array([2, 0]))

    def test_accepts_exactly_what_isin_accepted(self):
        values = [
            [1, 0, -1],
            [0.5, 1],
            [2, 0],
            [-2, 1],
            [1.0, -0.0, -1.0],
            [np.nan, 1],
            [np.inf, 0],
            [-np.inf, -1],
            [True, False],
            [True, 2],
            [255, 0],
        ]
        verdicts = []
        for vals in values:
            for dtype in (None, np.int8, np.uint8, np.int64, np.float32, bool):
                try:
                    signs = np.array(vals, dtype=dtype)
                except (OverflowError, ValueError):
                    continue  # not representable in this dtype
                accepted = bool(np.isin(signs, (-1, 0, 1)).all())
                verdicts.append(accepted)
                if accepted:
                    got = SignedSupport(signs=signs).signs
                    np.testing.assert_array_equal(got, signs.astype(np.int8))
                else:
                    with pytest.raises(InvalidArgumentError):
                        SignedSupport(signs=signs)
        assert len(verdicts) >= 40 and 10 <= sum(verdicts) <= len(verdicts) - 10

    def test_read_only(self):
        s = SignedSupport(signs=np.array([1, -1]))
        with pytest.raises(ValueError):
            s.signs[0] = 0


class TestDtSelect:
    def test_largest_diagonals(self):
        v = np.diag([5.0, 1.0, 9.0, 3.0])
        np.testing.assert_array_equal(dt_select(v, 2), [0, 2])

    def test_tie_breaks_toward_lower_index(self):
        v = np.diag([1.0, 2.0, 2.0, 0.0])
        np.testing.assert_array_equal(dt_select(v, 1), [1])
        np.testing.assert_array_equal(dt_select(v, 2), [1, 2])

    def test_accepts_wrapper(self):
        v = SirMatrix(v=np.diag([1.0, 3.0, 2.0]), mode="raw")
        np.testing.assert_array_equal(dt_select(v, 2), [1, 2])

    def test_result_sorted_ascending(self):
        v = np.diag([0.0, 9.0, 1.0, 8.0])
        np.testing.assert_array_equal(dt_select(v, 2), [1, 3])

    def test_s_bounds(self):
        with pytest.raises(InvalidArgumentError):
            dt_select(np.eye(3), 0)
        with pytest.raises(InvalidArgumentError):
            dt_select(np.eye(3), 4)


class TestDtSir:
    def test_hand_example_signs(self):
        v = np.array(
            [
                [2.0, -0.9, 0.0],
                [-0.9, 1.5, 0.0],
                [0.0, 0.0, 0.1],
            ]
        )
        got = dt_sir(v, 2)
        np.testing.assert_array_equal(got.signs, np.array([1, -1, 0], dtype=np.int8))

    def test_orientation_largest_entry_positive(self):
        # the principal eigenvector of this block is dominated by coordinate 1,
        # so after orientation that coordinate must be positive
        v = np.array([[1.0, 0.5], [0.5, 3.0]])
        got = dt_sir(v, 2)
        assert got.signs[1] == 1

    def test_unselected_coordinates_are_zero(self):
        v = np.diag([1.0, 9.0, 8.0, 0.5])
        got = dt_sir(v, 2)
        assert got.signs[0] == 0 and got.signs[3] == 0
        assert got.s_hat <= 2

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(42)
        g = rng.standard_normal((7, 7))
        v = (g @ g.T) / 7
        perm = rng.permutation(7)
        pm = np.eye(7)[perm]
        vp = pm @ v @ pm.T
        base = dt_sir(v, 3).signs
        moved = dt_sir(vp, 3).signs
        same = np.array_equal(moved, pm @ base)
        flipped = np.array_equal(moved, -(pm @ base))
        assert same or flipped
        inv = np.argsort(perm)
        np.testing.assert_array_equal(dt_select(vp, 3), np.sort(inv[dt_select(v, 3)]))


class TestSignedSupportMatch:
    def test_equal_and_negated_match(self):
        a = SignedSupport(signs=np.array([1, 0, -1]))
        b = SignedSupport(signs=np.array([-1, 0, 1]))
        assert signed_support_match(a, a)
        assert signed_support_match(a, b)

    def test_different_support_does_not_match(self):
        a = SignedSupport(signs=np.array([1, 0, -1]))
        c = SignedSupport(signs=np.array([1, 0, 1]))
        d = SignedSupport(signs=np.array([1, 1, -1]))
        assert not signed_support_match(a, c)
        assert not signed_support_match(a, d)

    def test_length_mismatch_rejected(self):
        a = SignedSupport(signs=np.array([1]))
        b = SignedSupport(signs=np.array([1, -1]))
        with pytest.raises(InvalidArgumentError):
            signed_support_match(a, b)

    def test_type_checked(self):
        with pytest.raises(InvalidArgumentError):
            signed_support_match(np.array([1, -1]), SignedSupport(signs=np.array([1, -1])))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=6))
    def test_symmetric_and_flip_invariant(self, signs):
        a = SignedSupport(signs=np.array(signs))
        b = SignedSupport(signs=-np.array(signs))
        assert signed_support_match(a, b)
        assert signed_support_match(b, a)
