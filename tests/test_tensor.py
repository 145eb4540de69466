"""Dense-array helpers: validation, normalization, SVD, rotations."""

import numpy as np
import pytest

from fedstruct.errors import ContractError, DegenerateInputError
from fedstruct.tensor import (
    as_matrix,
    normalize_rows,
    random_orthogonal,
    svd,
)


class TestAsMatrix:
    def test_accepts_2d(self):
        m = as_matrix([[1.0, 2.0], [3.0, 4.0]])
        assert m.shape == (2, 2)
        assert m.dtype == np.float64

    def test_rejects_1d(self):
        with pytest.raises(ContractError):
            as_matrix([1.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(ContractError):
            as_matrix(np.zeros((0, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ContractError):
            as_matrix([[1.0, np.nan]])


class TestNormalizeRows:
    def test_hand_example(self):
        np.testing.assert_allclose(
            normalize_rows(np.array([[3.0, 4.0]])), [[0.6, 0.8]], atol=1e-15
        )

    def test_zero_row_rejected_with_index(self):
        with pytest.raises(DegenerateInputError, match="row 1"):
            normalize_rows(np.array([[1.0, 0.0], [0.0, 0.0]]))


class TestSvd:
    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((4, 3))
        res = svd(m)
        np.testing.assert_allclose(res.reconstruct(), m, atol=1e-9)

    def test_singular_values_sorted_nonnegative(self):
        rng = np.random.default_rng(8)
        s = svd(rng.standard_normal((5, 4))).singular_values
        assert np.all(s >= 0.0)
        assert np.all(np.diff(s) <= 0.0)

    def test_deterministic_signs(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((4, 4))
        a, b = svd(m), svd(m.copy())
        np.testing.assert_array_equal(a.left_factor, b.left_factor)
        np.testing.assert_array_equal(a.right_factor, b.right_factor)


class TestRandomOrthogonal:
    def test_dim_one_sign_convention(self):
        np.testing.assert_array_equal(random_orthogonal(1, seed=0), [[1.0]])
        np.testing.assert_array_equal(random_orthogonal(1, seed=123), [[1.0]])

    def test_orthogonality(self):
        r = random_orthogonal(5, seed=11)
        np.testing.assert_allclose(r @ r.T, np.eye(5), atol=1e-12)

    def test_deterministic(self):
        np.testing.assert_array_equal(
            random_orthogonal(4, seed=12), random_orthogonal(4, seed=12)
        )
