import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tensim import (
    EntryLimitError,
    OrderError,
    ShapeError,
    Tensor,
    clean,
    diagonal_tensor,
    is_diagonal,
    is_diagonal_matrix,
    is_generalized_permutation,
    is_invertible,
    is_lower_triangular,
    is_permutation_matrix,
    is_upper_triangular,
    majorization_matrix,
    multi_index_to_offset,
    nnz,
    offset_to_multi_index,
    unit_tensor,
    zero_pattern,
)


def single_entry(order, dim, idx, value):
    data = np.zeros((dim,) * order, dtype=complex)
    data[tuple(i - 1 for i in idx)] = value
    return Tensor(data)


class TestUnitTensor:
    def test_order3_dim2_nonzeros(self):
        t = unit_tensor(3, 2)
        assert t.data[0, 0, 0] == 1 and t.data[1, 1, 1] == 1
        assert nnz(t) == 2

    def test_order2_is_identity(self):
        for n in (1, 2, 5):
            assert np.array_equal(unit_tensor(2, n).data, np.eye(n))

    @pytest.mark.parametrize("m,n", [(1, 3), (2, 4), (3, 4), (4, 2), (5, 3)])
    def test_nnz_equals_dim(self, m, n):
        assert nnz(unit_tensor(m, n)) == n

    def test_rejects_bad_shapes(self):
        with pytest.raises(OrderError):
            unit_tensor(0, 2)
        with pytest.raises(ShapeError):
            unit_tensor(2, 0)
        with pytest.raises(EntryLimitError):
            unit_tensor(30, 10)


class TestTensorConstruction:
    def test_rejects_non_hypercubic(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 3)))

    def test_rejects_scalar(self):
        with pytest.raises(ShapeError):
            Tensor(np.complex128(1.0))

    def test_entry_limit(self):
        with pytest.raises(EntryLimitError):
            Tensor(np.zeros((10, 10)), entry_limit=99)

    def test_data_is_read_only(self):
        t = unit_tensor(2, 2)
        with pytest.raises(ValueError):
            t.data[0, 0] = 5.0

    def test_value_equality(self):
        a = Tensor([[1, 2], [3, 4]])
        assert a == Tensor([[1, 2], [3, 4]])
        assert a != Tensor([[1, 2], [3, 5]])


class TestMajorization:
    def test_unit_tensor_gives_identity(self):
        for m in range(2, 6):
            for n in range(1, 5):
                assert majorization_matrix(unit_tensor(m, n)) == unit_tensor(2, n)

    def test_single_entry_readoff(self):
        a = single_entry(3, 2, (1, 2, 2), 5.0)
        assert majorization_matrix(a) == Tensor([[0, 5], [0, 0]])

    def test_product_image_slice(self):
        # oracle: (I Q) at (i, j, ..., j) equals q_ij^(m-1), frozen for
        # Q = [[1, 2], [0, 1]], m = 3
        from tensim import general_product

        q = Tensor([[1, 2], [0, 1]])
        image = general_product(unit_tensor(3, 2), q)
        assert majorization_matrix(image) == Tensor([[1, 4], [0, 1]])

    def test_rejects_vectors(self):
        with pytest.raises(OrderError):
            majorization_matrix(Tensor([1.0, 2.0]))


class TestZeroPattern:
    def test_unit_tensor_fixed_point(self):
        t = unit_tensor(3, 3)
        assert zero_pattern(t) == t

    def test_single_negative_entry(self):
        a = single_entry(3, 2, (1, 2, 2), -3.5)
        assert zero_pattern(a) == single_entry(3, 2, (1, 2, 2), 1.0)

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(3, 3, 3)) * (rng.uniform(size=(3, 3, 3)) < 0.5)
        a = Tensor(data.astype(complex))
        assert zero_pattern(zero_pattern(a)) == zero_pattern(a)

    def test_nnz_matches_pattern(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            data = rng.normal(size=(2,) * 4) * (rng.uniform(size=(2,) * 4) < 0.4)
            a = Tensor(data.astype(complex))
            assert nnz(a) == nnz(zero_pattern(a))


class TestNnz:
    def test_examples(self):
        assert nnz(unit_tensor(3, 4)) == 4
        assert nnz(Tensor(np.zeros((2, 2, 2)))) == 0
        assert nnz(Tensor([[-1, 1], [-1, 1]])) == 4

    def test_exact_zero_semantics(self):
        a = Tensor([[1e-300, 0], [0, 1]])
        assert nnz(a) == 2
        assert nnz(clean(a)) == 1


class TestClean:
    def test_thresholding(self):
        a = Tensor([[1e-13, 1e-11], [1.0, -1e-13j]])
        c = clean(a)
        assert c == Tensor([[0, 1e-11], [1.0, 0]])

    def test_custom_eps(self):
        a = Tensor([[0.5, 0], [0, 1]])
        assert clean(a, eps=0.6) == Tensor([[0, 0], [0, 1]])


class TestTriangularPredicates:
    def test_unit_tensor_is_everything(self):
        t = unit_tensor(3, 3)
        assert is_diagonal(t) and is_upper_triangular(t) and is_lower_triangular(t)

    def test_single_upper_entry(self):
        a = single_entry(3, 2, (1, 2, 2), 1.0)
        assert is_upper_triangular(a)
        assert not is_lower_triangular(a)
        assert not is_diagonal(a)

    def test_single_lower_entry(self):
        a = single_entry(3, 2, (2, 1, 1), 1.0)
        assert not is_upper_triangular(a)
        assert is_lower_triangular(a)

    def test_mixed_tail_fails_both(self):
        # (2, 1, 3): min 1 < 2 violates upper, max 3 > 2 violates lower
        a = single_entry(3, 3, (2, 1, 3), 1.0)
        assert not is_upper_triangular(a)
        assert not is_lower_triangular(a)

    def test_both_triangular_implies_diagonal(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            data = rng.normal(size=(3, 3, 3)) * (rng.uniform(size=(3, 3, 3)) < 0.25)
            a = Tensor(data.astype(complex))
            both = is_upper_triangular(a) and is_lower_triangular(a)
            assert both == is_diagonal(a)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_match_entrywise_definition(self, m):
        rng = np.random.default_rng(m)
        n = 4
        positions = list(itertools.product(range(n), repeat=m))
        upper = [t for t in positions if min(t[1:]) >= t[0]]
        lower = [t for t in positions if max(t[1:]) <= t[0]]
        cases = [Tensor(np.zeros((n,) * m))]
        for allowed in (positions, upper, lower):
            for count in (1, 3, 8):
                data = np.zeros((n,) * m, dtype=complex)
                for k in rng.choice(len(allowed), size=count, replace=False):
                    data[allowed[k]] = rng.normal() + 1j * rng.normal()
                cases.append(Tensor(data))
                data[positions[rng.integers(len(positions))]] = 1.0
                cases.append(Tensor(data))
        for a in cases:
            nonzero = [t for t in positions if a.data[t] != 0]
            assert is_upper_triangular(a) == all(min(t[1:]) >= t[0] for t in nonzero)
            assert is_lower_triangular(a) == all(max(t[1:]) <= t[0] for t in nonzero)
        assert is_upper_triangular(cases[0]) and is_lower_triangular(cases[0])

    def test_rejects_vectors(self):
        with pytest.raises(OrderError):
            is_diagonal(Tensor([1.0]))


class TestMatrixPredicates:
    def test_permutation_implies_generalized(self):
        p = Tensor([[0, 1], [1, 0]])
        assert is_permutation_matrix(p)
        assert is_generalized_permutation(p)

    def test_generalized_implies_invertible(self):
        g = Tensor([[0, 2], [-3, 0]])
        assert is_generalized_permutation(g)
        assert not is_permutation_matrix(g)
        assert is_invertible(g)

    def test_diagonal_matrix(self):
        assert is_diagonal_matrix(Tensor([[2, 0], [0, 3j]]))
        assert not is_diagonal_matrix(Tensor([[2, 1], [0, 3]]))

    def test_singular_not_invertible(self):
        assert not is_invertible(Tensor([[1, 2], [2, 4]]))

    def test_two_entries_in_row(self):
        assert not is_generalized_permutation(Tensor([[1, 1], [0, 1]]))


class TestDiagonalTensor:
    def test_entries_placed(self):
        t = diagonal_tensor(3, [2, 3])
        assert t.data[0, 0, 0] == 2 and t.data[1, 1, 1] == 3
        assert nnz(t) == 2
        assert is_diagonal(t)


class TestLinearization:
    def test_roundtrip_exhaustive(self):
        for m in range(1, 6):
            for n in range(1, 7):
                for offset in range(n**m):
                    idx = offset_to_multi_index(offset, m, n)
                    assert multi_index_to_offset(idx, m, n) == offset

    @given(st.integers(1, 5), st.integers(1, 6), st.data())
    def test_roundtrip_matches_numpy_order(self, m, n, data):
        idx = tuple(data.draw(st.integers(1, n)) for _ in range(m))
        offset = multi_index_to_offset(idx, m, n)
        grid = np.arange(n**m).reshape((n,) * m)
        assert grid[tuple(i - 1 for i in idx)] == offset

    def test_bounds_checked(self):
        with pytest.raises(ShapeError):
            multi_index_to_offset((0, 1), 2, 2)
        with pytest.raises(ShapeError):
            offset_to_multi_index(8, 3, 2)
