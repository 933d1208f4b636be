import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tensim import (
    EntryLimitError,
    OrderError,
    ShapeError,
    Tensor,
    apply_to_vector,
    general_product,
    left_matrix_product,
    max_abs_diff,
    right_matrix_product,
    unit_tensor,
)
from tensim import core
from tensim.generate import random_tensor

from reference import naive_general_product


def test_matches_naive_formula():
    rng = np.random.default_rng(42)
    for m in (2, 3, 4):
        for k in (1, 2, 3):
            a = random_tensor(rng, m, 3)
            b = random_tensor(rng, k, 3)
            got = general_product(a, b)
            expected = naive_general_product(a, b)
            assert got.shape == expected.shape
            assert max_abs_diff(got, expected) < 1e-12


@given(st.integers(2, 4), st.integers(1, 4), st.integers(1, 3), st.integers(0, 10**6))
def test_order_law(m, k, n, seed):
    rng = np.random.default_rng(seed)
    a = random_tensor(rng, m, n)
    b = random_tensor(rng, k, n)
    assert general_product(a, b).order == (m - 1) * (k - 1) + 1


def test_identity_laws_exact():
    rng = np.random.default_rng(1)
    for m in (2, 3, 4):
        a = random_tensor(rng, m, 3)
        eye = unit_tensor(2, 3)
        assert left_matrix_product(eye, a) == a
        assert right_matrix_product(a, eye) == a


def test_unit_times_matrix_closed_form():
    # (I Q)[i_1, ..., i_m] = q[i_1, i_2] * ... * q[i_1, i_m]
    rng = np.random.default_rng(2)
    for m in (2, 3, 4):
        for n in (2, 3):
            q = random_tensor(rng, 2, n)
            image = general_product(unit_tensor(m, n), q)
            idx = np.indices(image.shape)
            expected = np.ones(image.shape, dtype=complex)
            for r in range(1, m):
                expected *= q.data[idx[0], idx[r]]
            assert np.max(np.abs(image.data - expected)) < 1e-12


def test_unit_times_matrix_frozen_entries():
    q = Tensor([[1, 2], [0, 1]])
    image = general_product(unit_tensor(3, 2), q)
    assert image.data[0, 0, 1] == 2  # q11 * q12
    assert image.data[0, 1, 1] == 4  # q12^2


def test_right_product_frozen_sparse_case():
    q = Tensor([[0, 2], [3, 0]])
    image = right_matrix_product(unit_tensor(3, 2), q)
    expected = np.zeros((2, 2, 2), dtype=complex)
    expected[0, 1, 1] = 4.0
    expected[1, 0, 0] = 9.0
    assert image == Tensor(expected)


def test_associativity_of_matrix_actions():
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = random_tensor(rng, 3, 2)
        p = random_tensor(rng, 2, 2)
        q = random_tensor(rng, 2, 2)
        left_first = right_matrix_product(left_matrix_product(p, a), q)
        right_first = left_matrix_product(p, right_matrix_product(a, q))
        assert max_abs_diff(left_first, right_first) < 1e-10


def test_bilinearity_in_left_factor():
    rng = np.random.default_rng(4)
    a1 = random_tensor(rng, 3, 2)
    a2 = random_tensor(rng, 3, 2)
    q = random_tensor(rng, 2, 2)
    combined = general_product(Tensor(a1.data + a2.data), q)
    separate = Tensor(general_product(a1, q).data + general_product(a2, q).data)
    assert max_abs_diff(combined, separate) < 1e-12


def test_right_scaling_degree():
    # I (c Q) = c^(m-1) (I Q): the right factor enters with degree m - 1
    rng = np.random.default_rng(5)
    for m in (3, 4):
        q = random_tensor(rng, 2, 2)
        c = 0.7 - 1.9j
        scaled = general_product(unit_tensor(m, 2), Tensor(c * q.data))
        plain = general_product(unit_tensor(m, 2), q)
        assert np.max(np.abs(scaled.data - c ** (m - 1) * plain.data)) < 1e-10


class TestApplyToVector:
    def test_unit_tensor_powers(self):
        x = np.array([1.0, 2.0])
        for m in (2, 3, 4):
            got = apply_to_vector(unit_tensor(m, 2), x)
            assert np.allclose(got, x ** (m - 1))

    def test_zero_tensor(self):
        assert np.array_equal(
            apply_to_vector(Tensor(np.zeros((2, 2, 2))), [1.0, 2.0]), np.zeros(2)
        )

    def test_frozen_two_entry_case(self):
        data = np.zeros((2, 2, 2), dtype=complex)
        data[0, 0, 1] = 1.0
        data[0, 1, 0] = 1.0
        got = apply_to_vector(Tensor(data), [1.0, 2.0])
        assert np.allclose(got, [4.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            apply_to_vector(unit_tensor(3, 2), [1.0, 2.0, 3.0])


class TestErrors:
    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            general_product(unit_tensor(3, 2), unit_tensor(2, 3))

    def test_left_order_too_small(self):
        with pytest.raises(OrderError):
            general_product(Tensor([1.0, 2.0]), unit_tensor(2, 2))

    def test_matrix_helpers_enforce_order(self):
        with pytest.raises(OrderError):
            left_matrix_product(unit_tensor(3, 2), unit_tensor(3, 2))
        with pytest.raises(OrderError):
            right_matrix_product(unit_tensor(3, 2), unit_tensor(3, 2))

    def test_result_entry_limit(self, monkeypatch):
        a = unit_tensor(4, 3)
        b = unit_tensor(4, 3)
        monkeypatch.setattr(core, "DEFAULT_ENTRY_LIMIT", 1000)
        with pytest.raises(EntryLimitError):
            general_product(a, b)

    def test_result_order_past_numpy_limit(self):
        a = unit_tensor(9, 1)
        with pytest.raises(OrderError):
            general_product(a, a)  # order 8 * 8 + 1 = 65
