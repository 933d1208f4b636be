import itertools
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tensim import (
    STRUCTURAL_TOL,
    DiagonalScaling,
    EntryLimitError,
    OrderError,
    Permutation,
    ShapeError,
    StructuredWitness,
    Tensor,
    Witness,
    WitnessError,
    check_unit_preserving,
    compose_witness,
    decompose_witness,
    diagonal_transform,
    factor_similarity,
    general_transform,
    is_diagonal_matrix,
    is_generalized_permutation,
    left_matrix_product,
    max_abs_diff,
    permutation_transform,
    right_matrix_product,
    structured_transform,
    unit_tensor,
    witness_products,
    witness_structure_report,
)
from tensim.generate import (
    random_diagonal,
    random_permutation,
    random_structured_witness,
    random_tensor,
    random_unit_preserving_witness,
)

from reference import (
    dense_witness_report,
    naive_diagonal_transform,
    naive_general_product,
    naive_relabel,
)


def swap2():
    return Permutation((2, 1))


class TestPermutation:
    def test_validates_bijection(self):
        with pytest.raises(ShapeError):
            Permutation((1, 1))

    def test_matrix_realization(self):
        r = Permutation((2, 3, 1)).matrix()
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 2] = expected[2, 0] = 1
        assert np.array_equal(r.data, expected)

    def test_inverse(self):
        s = Permutation((2, 3, 1))
        assert s.compose(s.inverse()) == Permutation.identity(3)
        assert s.inverse().compose(s) == Permutation.identity(3)

    def test_compose_matches_relabeling(self):
        rng = np.random.default_rng(0)
        a = random_tensor(rng, 3, 4)
        s, t = random_permutation(rng, 4), random_permutation(rng, 4)
        twice = permutation_transform(permutation_transform(a, s), t)
        once = permutation_transform(a, s.compose(t))
        assert twice == once


class TestDiagonalScaling:
    def test_rejects_zero_entry(self):
        with pytest.raises(WitnessError):
            DiagonalScaling([1.0, 0.0])

    @pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan, complex(1, np.inf), complex(np.nan, 1)])
    def test_rejects_non_finite_entry(self, entry):
        # one rule, and one message, with the zero and tiny entries
        with pytest.raises(WitnessError, match="finite and nonzero"):
            DiagonalScaling([entry, 1.0])

    def test_matrix_powers(self):
        d = DiagonalScaling([2.0, 4.0])
        assert np.allclose(d.matrix(-1).data, np.diag([0.5, 0.25]))
        assert np.allclose(d.matrix(0).data, np.eye(2))


class TestCheckUnitPreserving:
    def test_identity_pair(self):
        for m in (2, 3, 4):
            eye = unit_tensor(2, 3)
            assert check_unit_preserving(Witness(eye, eye, m))

    def test_frozen_true_pair(self):
        # compose((1 2), diag(2, 3), m=3) written out by hand
        p = Tensor([[0, 1 / 9], [1 / 4, 0]])
        q = Tensor([[0, 2], [3, 0]])
        assert check_unit_preserving(Witness(p, q, 3))

    def test_frozen_false_pair(self):
        t = Tensor([[1, 1], [0, 1]])
        assert not check_unit_preserving(Witness(t, t, 3))

    def test_order2_reduces_to_pq_identity(self):
        p = Tensor([[1, 0], [1, 1]])
        q = Tensor([[1, 0], [-1, 1]])
        assert check_unit_preserving(Witness(p, q, 2))


class TestComposeWitness:
    def test_identity_witness(self):
        s = StructuredWitness(Permutation.identity(2), DiagonalScaling([1.0, 1.0]), 3)
        w = compose_witness(s)
        eye = unit_tensor(2, 2)
        assert w.p == eye and w.q == eye

    def test_frozen_example(self):
        s = StructuredWitness(swap2(), DiagonalScaling([2.0, 3.0]), 3)
        w = compose_witness(s)
        assert w.q == Tensor([[0, 2], [3, 0]])
        assert max_abs_diff(w.p, Tensor([[0, 1 / 9], [1 / 4, 0]])) == 0

    def test_scalar_case(self):
        for m in (3, 4, 5):
            c = 1.5 - 0.5j
            s = StructuredWitness(
                Permutation.identity(3), DiagonalScaling([c, c, c]), m
            )
            w = compose_witness(s)
            assert np.allclose(w.q.data, c * np.eye(3))
            assert np.allclose(w.p.data, c ** (1 - m) * np.eye(3))

    def test_always_unit_preserving(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            m = int(rng.integers(3, 6))
            n = int(rng.integers(2, 6))
            w = compose_witness(random_structured_witness(rng, m, n))
            assert check_unit_preserving(w)
            assert is_generalized_permutation(w.q)
            assert is_generalized_permutation(w.p)

    def test_rejects_small_order(self):
        with pytest.raises(OrderError):
            StructuredWitness(Permutation.identity(2), DiagonalScaling([1.0, 1.0]), 2)

    def test_rejects_order_past_numpy_rank_limit(self):
        # no tensor of order 65 exists, and a huge order would make the
        # powers d**(1-m) and q**(m-1) loop m times
        eye, sigma, d = unit_tensor(2, 2), Permutation.identity(2), DiagonalScaling([1.0, 2.0])
        assert Witness(eye, eye, 64).m == StructuredWitness(sigma, d, 64).m == 64
        for m in (65, 10**9):
            with pytest.raises(OrderError):
                Witness(eye, eye, m)
            with pytest.raises(OrderError):
                StructuredWitness(sigma, d, m)


class TestDecomposeWitness:
    def test_identity(self):
        eye = unit_tensor(2, 3)
        s = decompose_witness(Witness(eye, eye, 4))
        assert s.sigma == Permutation.identity(3)
        assert np.array_equal(s.d.values, np.ones(3))

    def test_frozen_example(self):
        p = Tensor([[0, 1 / 9], [1 / 4, 0]])
        q = Tensor([[0, 2], [3, 0]])
        s = decompose_witness(Witness(p, q, 3))
        assert s.sigma == swap2()
        assert np.array_equal(s.d.values, [2.0, 3.0])

    def test_complex_roundtrip(self):
        d = DiagonalScaling([1 + 1j, 2.0])
        s = StructuredWitness(Permutation.identity(2), d, 3)
        back = decompose_witness(compose_witness(s))
        assert back.sigma == Permutation.identity(2)
        assert np.array_equal(back.d.values, d.values)

    @given(st.integers(0, 10**6))
    def test_roundtrip_random(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 6))
        n = int(rng.integers(2, 7))
        s = random_structured_witness(rng, m, n)
        back = decompose_witness(compose_witness(s))
        assert back.sigma == s.sigma
        assert np.max(np.abs(back.d.values - s.d.values) / np.abs(s.d.values)) <= 1e-12

    def test_rejects_order_two(self):
        eye = unit_tensor(2, 2)
        with pytest.raises(OrderError):
            decompose_witness(Witness(eye, eye, 2))

    def test_rejects_non_unit_preserving(self):
        t = Tensor([[1, 1], [0, 1]])
        with pytest.raises(WitnessError):
            decompose_witness(Witness(t, t, 3))

    def test_structural_tol_applies_to_unit_check(self):
        s = random_structured_witness(np.random.default_rng(0), 3, 4)
        w = compose_witness(s)
        p = w.p.data.copy()
        p[0, np.flatnonzero(p[0])[0]] += 1e-8
        w = Witness(Tensor(p), w.q, 3)
        report = witness_structure_report(w, tol=1e-6)
        assert 1e-10 < report.unit_deviation <= 1e-6 and report.unit_preserving
        back = decompose_witness(w, structural_tol=1e-6, compare_tol=1e-6)
        assert back.sigma == s.sigma
        with pytest.raises(WitnessError):
            decompose_witness(w)

    @pytest.mark.parametrize("m", [3, 4])
    def test_rejects_a_row_with_two_entries(self, m):
        # d = (100, 1) shrinks P, so an extra 2e-10 in Q passes the unit check
        s = StructuredWitness(Permutation.identity(2), DiagonalScaling([100, 1]), m)
        w = compose_witness(s)
        q = w.q.data.copy()
        q[0, 1] = 2e-10
        w = Witness(w.p, Tensor(q), m)
        assert check_unit_preserving(w)
        with pytest.raises(WitnessError) as info:
            decompose_witness(w)
        assert str(info.value) == "row 1 of Q has 2 entries above 1e-10; expected exactly one"

    def test_rejects_inconsistent_p(self):
        s = StructuredWitness(swap2(), DiagonalScaling([2.0, 3.0]), 3)
        w = compose_witness(s)
        # a Q tampered with by 1e-3 is already caught by the unit check
        q_bad = Tensor(w.q.data * 1.0)
        with pytest.raises(WitnessError):
            decompose_witness(Witness(w.p, Tensor(q_bad.data + 1e-3), 3))
        # a wrong P can pass the unit check: with d = 0.1 at m = 4, P off by
        # 5e-8 moves P (I Q) by 5e-8 * 0.1**3 = 5e-11, within STRUCTURAL_TOL,
        # while P itself is off by more than COMPARE_TOL
        s = StructuredWitness(Permutation((2, 3, 1)), DiagonalScaling([0.1] * 3), 4)
        w = compose_witness(s)
        p_bad = w.p.data.copy()
        p_bad[1, 0] += 5e-8
        bad = Witness(Tensor(p_bad), w.q, 4)
        assert check_unit_preserving(bad)
        with pytest.raises(WitnessError, match="inconsistent"):
            decompose_witness(bad)


def report_cases(rng, m):
    """Witness pairs for n = 1..5: a true witness, the same with one extra
    entry of 1e-11 in Q, and random P with Q dense, sparse or with a zero row."""
    for n in range(1, 6):
        w = random_unit_preserving_witness(rng, max(m, 3), n)
        p = np.linalg.inv(w.q.data) if m == 2 else w.p.data
        near = w.q.data.copy()
        near[rng.integers(n), rng.integers(n)] += 1e-11
        dense = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        zero_row = dense.copy()
        zero_row[rng.integers(n)] = 0
        for pp, qq in ((p, w.q.data), (p, near), (dense.T, dense),
                       (dense.conj(), dense * (rng.random((n, n)) < 0.5)), (dense, zero_row)):
            yield Witness(Tensor(pp), Tensor(qq), m)


class TestWitnessStructureReport:
    def test_identity_passes(self):
        eye = unit_tensor(2, 2)
        report = witness_structure_report(Witness(eye, eye, 3))
        assert report.passed and report.unit_preserving

    def test_composed_witness_passes(self):
        s = StructuredWitness(swap2(), DiagonalScaling([2.0, 3.0]), 3)
        report = witness_structure_report(compose_witness(s))
        assert report.passed
        assert report.tail_max <= 1e-10
        assert report.majorization_residual <= 1e-10

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_bad_pair_fails_tail_check(self, m):
        t = Tensor([[1, 1], [0, 1]])
        report = witness_structure_report(Witness(t, t, m))
        # (I Q)[1, 1, 2] = q11 * q12 = 1 survives; at m = 2 every tail is a
        # single index, so there is no tail to check
        assert report.tail_ok == (m == 2)
        assert report.tail_max == (0.0 if m == 2 else pytest.approx(1.0))
        assert not report.unit_preserving
        rng = np.random.default_rng(m)
        for q in (t, Tensor(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))):
            image = naive_general_product(unit_tensor(m, q.dim), q)
            positions = itertools.product(range(q.dim), repeat=m)
            off = [abs(image.data[pos]) for pos in positions if len(set(pos[1:])) > 1]
            tail_max = witness_structure_report(Witness(q, q, m)).tail_max
            assert tail_max == pytest.approx(max(off, default=0.0), rel=1e-12)
        # every field against the dense image P (I Q), on seeded pairs of each kind
        for w in report_cases(rng, m):
            got = witness_structure_report(w).to_dict()
            for key, ref in dense_witness_report(w.p, w.q, m, STRUCTURAL_TOL).items():
                if isinstance(ref, bool):
                    assert got[key] == ref, key
                else:
                    assert abs(got[key] - ref) <= 1e-12 * max(1.0, abs(ref)), key

    def test_random_composed_all_pass(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            w = random_unit_preserving_witness(rng, int(rng.integers(3, 6)), int(rng.integers(2, 6)))
            assert witness_structure_report(w).passed


class Counted(np.ndarray):
    """An array that adds ``rows * inner * columns`` of each matrix product it
    enters to ``Counted.work``."""

    work = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            Counted.work += np.shape(inputs[0])[0] * np.size(inputs[1])
        inputs = [x.view(np.ndarray) if isinstance(x, Counted) else x for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


class CountedTensor(Tensor):
    """A tensor whose ``data`` counts the matrix products it enters."""

    __slots__ = ()

    @property
    def data(self):
        return self._data.view(Counted)


class TestWitnessChecksPastTheDenseLimit:
    """A generalized-permutation Q enumerates no tail, so the checks cost
    O(n**2) where the dense image P (I Q) held n**m entries."""

    @pytest.mark.parametrize("m, n", [(6, 22), (4, 60)])
    def test_composed_witness_checks_and_decomposes(self, m, n):
        s = random_structured_witness(np.random.default_rng(n), m, n)
        w = compose_witness(s)
        start = time.perf_counter()
        report = witness_structure_report(w)
        back = decompose_witness(w)
        assert time.perf_counter() - start < 0.5
        assert report.passed and report.unit_preserving and report.tail_max == 0.0
        assert back.sigma == s.sigma
        assert np.max(np.abs(back.d.values - s.d.values) / np.abs(s.d.values)) <= 1e-12

    def test_dense_q_is_over_the_enumeration_limit(self):
        # 22 rows of 22 nonzeros span 22 * 22**5 > 10**8 tails of order 6
        q = Tensor(np.random.default_rng(0).normal(size=(22, 22)))
        for check in (check_unit_preserving, witness_structure_report, decompose_witness):
            with pytest.raises(EntryLimitError):
                check(Witness(q, q, 6))

    def test_work_past_the_limit_is_refused_at_once(self):
        # 120 rows of 20 nonzeros: 957,600 non-constant tails of order 4, each a
        # column of 120 entries of I Q (114,912,000 > 10**8); enumerated, they took seconds
        rng = np.random.default_rng(0)
        q = np.zeros((120, 120))
        for row in q:
            row[rng.choice(120, 20, replace=False)] = rng.normal(size=20)
        start = time.perf_counter()
        for check in (check_unit_preserving, witness_structure_report, decompose_witness):
            with pytest.raises(EntryLimitError, match="tails"):
                check(Witness(Tensor(np.eye(120)), Tensor(q), 4))
        assert time.perf_counter() - start < 0.5

    def test_sparse_rows_cost_only_the_rows_that_hold_a_tail(self, monkeypatch):
        # 400 rows of 10 nonzeros: a tail's column of I Q is zero off the few rows
        # holding both its labels.  The products with P cost about 3 n^3
        # multiply-adds, n^3 of them for P M; P C over all 400 rows costs 82 n^3
        n = 400
        rng = np.random.default_rng(0)
        q = np.zeros((n, n))
        for row in q:
            row[rng.choice(n, 10, replace=False)] = rng.normal(size=10)
        monkeypatch.setattr(Counted, "work", 0)
        assert not check_unit_preserving(Witness(CountedTensor(np.eye(n)), Tensor(q), 3))
        assert Counted.work < 10 * n**3

    @pytest.mark.parametrize("m, n, per_row", [(3, 24, 3), (4, 10, 3), (5, 6, 2)])
    def test_sparse_rows_match_the_dense_image(self, m, n, per_row):
        rng = np.random.default_rng(n)
        for _ in range(3):
            q = np.zeros((n, n), dtype=complex)
            for row in q:
                cols = rng.choice(n, per_row, replace=False)
                row[cols] = rng.normal(size=per_row) + 1j * rng.normal(size=per_row)
            w = Witness(Tensor(rng.normal(size=(n, n))), Tensor(q), m)
            got = witness_structure_report(w).to_dict()
            for key, ref in dense_witness_report(w.p, w.q, m, STRUCTURAL_TOL).items():
                if isinstance(ref, bool):
                    assert got[key] == ref, key
                else:
                    assert abs(got[key] - ref) <= 1e-12 * max(1.0, abs(ref)), key

    def test_dense_order2_pair_is_not_over_the_limit(self):
        # at m = 2 every tail is constant: the check is P Q = I, whatever n * nnz(Q)
        q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(500, 500)))
        w = Witness(Tensor(q.T), Tensor(q), 2)
        assert check_unit_preserving(w)
        assert witness_structure_report(w).unit_preserving


class TestPermutationTransform:
    def test_identity(self):
        rng = np.random.default_rng(3)
        a = random_tensor(rng, 3, 3)
        assert permutation_transform(a, Permutation.identity(3)) == a

    def test_unit_tensor_invariant(self):
        for n in (2, 4):
            rng = np.random.default_rng(n)
            s = random_permutation(rng, n)
            assert permutation_transform(unit_tensor(3, n), s) == unit_tensor(3, n)

    def test_frozen_relabel(self):
        data = np.zeros((2, 2, 2), dtype=complex)
        data[0, 1, 1] = 5.0
        b = permutation_transform(Tensor(data), swap2())
        expected = np.zeros((2, 2, 2), dtype=complex)
        expected[1, 0, 0] = 5.0
        assert b == Tensor(expected)

    def test_matches_naive_relabel(self):
        rng = np.random.default_rng(4)
        a = random_tensor(rng, 3, 4)
        s = random_permutation(rng, 4)
        assert permutation_transform(a, s) == naive_relabel(a, s.images)

    def test_matches_product_route(self):
        # R_sigma A R_sigma^T computed through the general product
        rng = np.random.default_rng(5)
        a = random_tensor(rng, 3, 3)
        s = random_permutation(rng, 3)
        r = s.matrix()
        via_products = left_matrix_product(r, right_matrix_product(a, Tensor(r.data.T)))
        assert max_abs_diff(permutation_transform(a, s), via_products) < 1e-12


class TestDiagonalTransform:
    def test_uniform_scaling_is_exact_identity(self):
        rng = np.random.default_rng(6)
        for m in (2, 3, 5):
            a = random_tensor(rng, m, 3)
            c = complex(rng.normal(), rng.normal())
            b = diagonal_transform(a, DiagonalScaling([c] * 3))
            assert b == a  # exact, no tolerance

    def test_frozen_example(self):
        data = np.zeros((2, 2, 2), dtype=complex)
        data[0, 1, 1] = 5.0
        b = diagonal_transform(Tensor(data), DiagonalScaling([2.0, 3.0]))
        assert b.data[0, 1, 1] == 11.25

    def test_diagonal_tensors_are_exact_fixed_points(self):
        rng = np.random.default_rng(7)
        from tensim import diagonal_tensor

        a = diagonal_tensor(4, [1.5, -2j, 3.0])
        d = random_diagonal(rng, 3)
        assert diagonal_transform(a, d) == a  # exact

    def test_matches_naive_closed_form(self):
        rng = np.random.default_rng(8)
        a = random_tensor(rng, 3, 3)
        d = random_diagonal(rng, 3)
        assert max_abs_diff(diagonal_transform(a, d), naive_diagonal_transform(a, d.values)) < 1e-9

    def test_matches_naive_closed_form_entrywise(self):
        rng = np.random.default_rng(8)
        for m, n in [(3, 3), (2, 4), (4, 3), (5, 2)]:
            a = random_tensor(rng, m, n)
            d = random_diagonal(rng, n)
            naive = naive_diagonal_transform(a, d.values).data
            diff = np.abs(diagonal_transform(a, d).data - naive)
            assert np.all(diff <= 1e-12 * np.abs(naive))

    def test_matches_product_route(self):
        rng = np.random.default_rng(9)
        for m in (3, 4):
            a = random_tensor(rng, m, 2)
            d = random_diagonal(rng, 2)
            via_products = left_matrix_product(
                d.matrix(1 - m), right_matrix_product(a, d.matrix())
            )
            rel = max_abs_diff(diagonal_transform(a, d), via_products)
            assert rel < 1e-9 * max(1.0, float(np.max(np.abs(via_products.data))))

    def test_group_action(self):
        rng = np.random.default_rng(10)
        a = random_tensor(rng, 3, 3)
        d1 = random_diagonal(rng, 3)
        d2 = random_diagonal(rng, 3)
        twice = diagonal_transform(diagonal_transform(a, d1), d2)
        once = diagonal_transform(a, DiagonalScaling(d1.values * d2.values))
        assert max_abs_diff(twice, once) < 1e-9 * max(1.0, float(np.max(np.abs(once.data))))

    def test_rejects_size_mismatch(self):
        with pytest.raises(ShapeError):
            diagonal_transform(unit_tensor(3, 2), DiagonalScaling([1.0, 2.0, 3.0]))


class TestGeneralTransform:
    def test_identity_witness(self):
        rng = np.random.default_rng(11)
        a = random_tensor(rng, 3, 2)
        eye = unit_tensor(2, 2)
        assert general_transform(a, Witness(eye, eye, 3)) == a

    def test_matches_structured_route(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            m = int(rng.integers(3, 5))
            n = int(rng.integers(2, 5))
            a = random_tensor(rng, m, n)
            s = random_structured_witness(rng, m, n)
            via_witness = general_transform(a, compose_witness(s))
            via_factors = structured_transform(a, s)
            scale = max(1.0, float(np.max(np.abs(via_factors.data))))
            assert max_abs_diff(via_witness, via_factors) <= 1e-9 * scale

    def test_order2_frozen_counterexample(self):
        # order-2 pair with P Q = I where the nonzero count is not preserved
        p = Tensor([[1, 0], [1, 1]])
        q = Tensor([[1, 0], [-1, 1]])
        a = Tensor([[0, 1], [0, 0]])
        b = general_transform(a, Witness(p, q, 2))
        assert b == Tensor([[-1, 1], [-1, 1]])

    def test_order2_requires_inverse_pair(self):
        p = Tensor([[1, 1], [0, 1]])
        with pytest.raises(WitnessError):
            general_transform(Tensor([[1, 0], [0, 1]]), Witness(p, p, 2))

    def test_rejects_non_unit_preserving_for_order3(self):
        t = Tensor([[1, 1], [0, 1]])
        with pytest.raises(WitnessError):
            general_transform(unit_tensor(3, 2), Witness(t, t, 3))

    def test_sequential_witnesses_compose(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            m, n = 3, 3
            a = random_tensor(rng, m, n)
            w1 = random_unit_preserving_witness(rng, m, n)
            w2 = random_unit_preserving_witness(rng, m, n)
            stepwise = general_transform(general_transform(a, w1), w2)
            combined = Witness(
                Tensor(w2.p.data @ w1.p.data), Tensor(w1.q.data @ w2.q.data), m
            )
            direct = general_transform(a, combined)
            scale = max(1.0, float(np.max(np.abs(direct.data))))
            assert max_abs_diff(stepwise, direct) <= 1e-9 * scale


class TestFactorSimilarity:
    def test_identity_witness(self):
        rng = np.random.default_rng(14)
        a = random_tensor(rng, 3, 2)
        eye = unit_tensor(2, 2)
        c, sigma, d = factor_similarity(a, Witness(eye, eye, 3))
        assert c == a and sigma == Permutation.identity(2)

    def test_frozen_example(self):
        data = np.zeros((2, 2, 2), dtype=complex)
        data[0, 1, 1] = 5.0
        a = Tensor(data)
        w = compose_witness(StructuredWitness(swap2(), DiagonalScaling([2.0, 3.0]), 3))
        c, sigma, d = factor_similarity(a, w)
        assert c.data[0, 1, 1] == 11.25
        b = general_transform(a, w)
        assert abs(b.data[1, 0, 0] - 11.25) < 1e-12

    def test_factorization_identity(self):
        rng = np.random.default_rng(15)
        a = random_tensor(rng, 3, 4)
        w = random_unit_preserving_witness(rng, 3, 4)
        c, sigma, d = factor_similarity(a, w)
        b = general_transform(a, w)
        relabeled = permutation_transform(c, sigma.inverse())
        scale = max(1.0, float(np.max(np.abs(b.data))))
        assert max_abs_diff(b, relabeled) <= 1e-9 * scale

    def test_purely_diagonal_witness(self):
        rng = np.random.default_rng(16)
        a = random_tensor(rng, 3, 3)
        s = StructuredWitness(Permutation.identity(3), random_diagonal(rng, 3), 3)
        w = compose_witness(s)
        c, sigma, d = factor_similarity(a, w)
        b = general_transform(a, w)
        scale = max(1.0, float(np.max(np.abs(b.data))))
        assert max_abs_diff(b, c) <= 1e-9 * scale


class TestWitnessProducts:
    def test_identity(self):
        eye = unit_tensor(2, 3)
        qp, pq = witness_products(Witness(eye, eye, 3))
        assert qp == eye and pq == eye

    def test_frozen_example(self):
        w = compose_witness(StructuredWitness(swap2(), DiagonalScaling([2.0, 3.0]), 3))
        qp, pq = witness_products(w)
        assert max_abs_diff(qp, Tensor(np.diag([0.5, 1 / 3]))) < 1e-15
        assert max_abs_diff(pq, Tensor(np.diag([1 / 3, 0.5]))) < 1e-15

    def test_products_are_diagonal_powers(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            m = int(rng.integers(3, 6))
            n = int(rng.integers(2, 5))
            s = random_structured_witness(rng, m, n)
            qp, pq = witness_products(compose_witness(s))
            assert is_diagonal_matrix(qp) and is_diagonal_matrix(pq)
            expected = s.d.matrix(2 - m)
            assert max_abs_diff(qp, expected) <= 1e-10 * max(
                1.0, float(np.max(np.abs(expected.data)))
            )
