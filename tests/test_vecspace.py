import numpy as np
import pytest
from scipy.linalg import lu_solve

from normsplit.errors import (
    DimensionMismatchError,
    InconsistentSystemError,
    SingularSystemError,
)
from normsplit.vecspace import (
    as_vector,
    least_norm,
    length,
    lu_factor_checked,
    nullspace,
)


class TestAsVector:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            as_vector([1, 2, 3], dim=2)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_vector([1.0, float("nan")])


class TestLength:
    def test_a_finite_squared_sum_keeps_the_bits_of_np_linalg_norm(self):
        gen = np.random.default_rng(5)
        block = gen.normal(size=(50, 7)) * 10.0 ** gen.integers(-150, 150, size=(50, 1))
        np.testing.assert_array_equal(length(block), np.linalg.norm(block, axis=1))
        assert all(length(row) == np.linalg.norm(row) for row in block)

    def test_an_overflowing_squared_sum_is_rescaled(self):
        assert length(np.array([3e200, -4e200])) == pytest.approx(5e200, rel=1e-15)
        rows = length(np.array([[3e200, -4e200], [3.0, 4.0]]))
        np.testing.assert_allclose(rows, [5e200, 5.0], rtol=1e-15)

    def test_a_non_finite_entry_gives_a_non_finite_length(self):
        assert not np.isfinite(length(np.array([np.inf, 1.0])))
        rows = length(np.array([[np.inf, 1e200], [np.nan, 0.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(np.isfinite(rows), [False, False, True])


def checked_lu_solve(m, b):
    """Solve m x = b through the checked LU and scipy's lu_solve."""
    return lu_solve(lu_factor_checked(m), as_vector(b))


class TestSolveLinear:
    def test_identity_system(self):
        np.testing.assert_allclose(checked_lu_solve(np.eye(2), [1, 2]), [1, 2])

    def test_diagonal(self):
        np.testing.assert_allclose(checked_lu_solve([[2, 0], [0, 2]], [2, 4]), [1, 2])

    def test_hand_elimination(self):
        np.testing.assert_allclose(
            checked_lu_solve([[1, -1], [1, 1]], [0, 2]), [1, 1], atol=1e-14
        )

    def test_singular_raises(self):
        with pytest.raises(SingularSystemError):
            lu_factor_checked([[1, 1], [1, 1]])

    def test_zero_matrix_raises(self):
        with pytest.raises(SingularSystemError):
            lu_factor_checked(np.zeros((2, 2)))

    @pytest.mark.parametrize("dim", [2, 5, 17, 50])
    def test_roundtrip_well_conditioned(self, dim):
        gen = np.random.default_rng(42 + dim)
        for _ in range(5):
            m = gen.normal(size=(dim, dim)) + dim * np.eye(dim)
            b = gen.normal(size=dim)
            x = checked_lu_solve(m, b)
            assert np.linalg.norm(m @ x - b) <= 1e-9 * np.linalg.norm(b)


class TestLeastNorm:
    def test_projection_onto_constraint(self):
        np.testing.assert_allclose(least_norm([[1, 0]], [3]), [3, 0])

    def test_lagrange_by_hand(self):
        np.testing.assert_allclose(least_norm([[1, 1]], [2]), [1, 1])

    def test_determined_system(self):
        np.testing.assert_allclose(least_norm(np.eye(2), [1, 2]), [1, 2])

    def test_inconsistent_raises(self):
        with pytest.raises(InconsistentSystemError):
            least_norm([[1, 0], [1, 0]], [0, 1])

    def test_empty_constraints_give_zero(self):
        np.testing.assert_allclose(least_norm(np.zeros((0, 3)), []), [0, 0, 0])

    def test_nullspace_of_no_rows_is_the_whole_space(self):
        basis = nullspace(np.zeros((0, 3)))
        np.testing.assert_allclose(basis.T @ basis, np.eye(3), atol=1e-15)

    def test_orthogonal_to_nullspace(self):
        gen = np.random.default_rng(7)
        for rows, cols in [(1, 4), (2, 5), (3, 8)]:
            c = gen.normal(size=(rows, cols))
            d = gen.normal(size=rows)
            y = least_norm(c, d)
            kernel = nullspace(c)
            for _ in range(20):
                z = kernel @ gen.normal(size=kernel.shape[1])
                assert abs(y @ z) <= 1e-9 * max(np.linalg.norm(y) * np.linalg.norm(z), 1e-30)
