import itertools
import json

import numpy as np
import pytest

from tensim import (
    DiagonalScaling,
    EntryLimitError,
    OrderError,
    Permutation,
    ShapeError,
    StructuredWitness,
    Tensor,
    clean,
    decide_similar,
    diagonal_tensor,
    diagonal_transform,
    is_diagonal,
    is_diagonal_matrix,
    is_generalized_permutation,
    is_lower_triangular,
    is_upper_triangular,
    majorization_matrix,
    nnz,
    permutation_transform,
    similarity_invariants,
    structured_transform,
    unit_tensor,
    zero_pattern,
)
from tensim import core
from tensim.io import tensor_from_dict, tensor_to_dict


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

    def test_entry_limit(self, monkeypatch):
        monkeypatch.setattr(core, "DEFAULT_ENTRY_LIMIT", 99)
        with pytest.raises(EntryLimitError):
            Tensor(np.zeros((10, 10)))
        assert Tensor(np.zeros(99)).dim == 99

    def test_nonzeros_are_one_read_only_row_major_list(self):
        data = np.zeros((3, 3, 3), dtype=complex)
        data[2, 0, 1], data[0, 1, 2], data[1, 1, 1] = 1.0, 2j, -0.5
        t = Tensor(data)
        assert t.nonzeros is t.nonzeros
        assert t.nonzeros.tolist() == [[0, 1, 2], [1, 1, 1], [2, 0, 1]]
        with pytest.raises(ValueError):
            t.nonzeros[0, 0] = 2
        assert Tensor(np.zeros((2, 2))).nonzeros.shape == (0, 2)

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
        assert is_generalized_permutation(p)

    def test_generalized_implies_invertible(self):
        g = Tensor([[0, 2], [-3, 0]])
        assert is_generalized_permutation(g)
        assert np.linalg.matrix_rank(g.data) == 2

    def test_diagonal_matrix(self):
        assert is_diagonal_matrix(Tensor([[2, 0], [0, 3j]]))
        assert not is_diagonal_matrix(Tensor([[2, 1], [0, 3]]))

    def test_two_entries_in_row(self):
        assert not is_generalized_permutation(Tensor([[1, 1], [0, 1]]))


class TestDiagonalTensor:
    def test_entries_placed(self):
        t = diagonal_tensor(3, [2, 3])
        assert t.data[0, 0, 0] == 2 and t.data[1, 1, 1] == 3
        assert nnz(t) == 2
        assert is_diagonal(t)

    def test_entry_limit_checked_before_allocating(self):
        # 2**64 entries: numpy would refuse the allocation with a ValueError
        with pytest.raises(EntryLimitError, match=r"2\*\*64 entries"):
            diagonal_tensor(64, [1, 2])

    def test_order_past_numpy_limit_checked_before_allocating(self):
        # a single entry: past numpy's 64 indices, not past the entry limit
        with pytest.raises(OrderError):
            unit_tensor(70, 1)
        with pytest.raises(OrderError):
            diagonal_tensor(65, [1])
        with pytest.raises(EntryLimitError):  # 2 or more labels: past the entry limit too
            unit_tensor(70, 2)

    def test_numpy_integer_order_checked_as_an_int(self):
        # 2 ** np.int64(64) wraps to 0, which once passed the entry-limit check
        with pytest.raises(EntryLimitError, match=r"2\*\*64 entries"):
            unit_tensor(np.int64(64), 2)
        with pytest.raises(EntryLimitError, match=r"2\*\*64 entries"):
            diagonal_tensor(np.int64(64), [1, 2])
        assert unit_tensor(np.int64(3), 2) == unit_tensor(3, 2)


class TestEveryOrderTheGateAdmits:
    """A tensor of each order either fails the gate or supports every reader
    of its entries by m-tuple: dim 1 is the only dimension that reaches
    order 62, since 2**27 entries are past the entry limit."""

    @pytest.mark.parametrize("m", range(1, 71))
    def test_dim1_order(self, m):
        if m >= 63:
            with pytest.raises(OrderError):
                unit_tensor(m, 1)
            if m <= 64:  # past numpy's 64 axes no array exists to pass
                with pytest.raises(OrderError):
                    Tensor(np.ones((1,) * m))
            return
        t = Tensor(np.ones((1,) * m))
        assert unit_tensor(m, 1) == t
        report = similarity_invariants(t)
        assert (report.order, report.nnz, report.is_diagonal) == (m, 1, m >= 2)
        sigma, d = Permutation.identity(1), DiagonalScaling([2.0])
        assert permutation_transform(t, sigma) == t
        if m >= 2:
            assert diagonal_transform(t, d) == t and is_upper_triangular(t)
        if m >= 3:
            s = decide_similar(t, t)
            assert s is not None and s.sigma == sigma
            assert structured_transform(t, StructuredWitness(sigma, d, m)) == t
        for fmt in ("dense", "sparse"):
            doc = json.loads(json.dumps(tensor_to_dict(t, fmt)))
            assert tensor_from_dict(doc) == t
