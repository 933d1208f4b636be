import itertools
import math

import numpy as np
import pytest

from tensim import (
    DiagonalScaling,
    OrderError,
    Permutation,
    ShapeError,
    StructuredWitness,
    Tensor,
    canonical_pattern_hash,
    clean,
    decide_similar,
    diagonal_tensor,
    general_transform,
    max_abs_diff,
    nnz,
    pattern_permutations,
    permutation_transform,
    similarity_invariants,
    solve_diagonal,
    structured_transform,
    triangularizable_pattern,
    unit_tensor,
    zero_pattern,
)
from tensim import decision
from tensim.decision import DECISION_TOL
from tensim.generate import (
    random_structured_witness,
    random_tensor,
    random_unit_preserving_witness,
)

from reference import brute_force_pattern_key, naive_relabel, oracle_similar


def sparse(order, dim, entries):
    data = np.zeros((dim,) * order, dtype=complex)
    for idx, val in entries.items():
        data[tuple(i - 1 for i in idx)] = val
    return Tensor(data)


def relabeled(a, perm):
    """``a`` with every index ``i`` replaced by ``perm[i]`` (0-based)."""
    return Tensor(a.data[np.ix_(*([perm] * a.order))])


def brute_force_pattern_perms(za, zb):
    n = za.dim
    found = []
    for images in itertools.permutations(range(1, n + 1)):
        if naive_relabel(za, images) == zb:
            found.append(Permutation(images))
    return found


class TestPatternPermutations:
    def test_unit_pattern_full_symmetry(self):
        z = zero_pattern(unit_tensor(3, 2))
        got = list(pattern_permutations(z, z))
        assert got == [Permutation((1, 2)), Permutation((2, 1))]

    def test_frozen_single_entry(self):
        za = sparse(3, 2, {(1, 2, 2): 1})
        zb = sparse(3, 2, {(2, 1, 1): 1})
        assert list(pattern_permutations(za, zb)) == [Permutation((2, 1))]

    def test_count_mismatch_is_empty(self):
        za = zero_pattern(unit_tensor(3, 2))
        zb = sparse(3, 2, {(1, 1, 1): 1, (2, 2, 2): 1, (1, 2, 2): 1})
        assert list(pattern_permutations(za, zb)) == []

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            m = int(rng.integers(3, 5))
            n = int(rng.integers(2, 5))
            za = zero_pattern(random_tensor(rng, m, n, density=0.35))
            images = tuple(int(v) + 1 for v in rng.permutation(n))
            zb = naive_relabel(za, images)
            got = list(pattern_permutations(za, zb))
            expected = brute_force_pattern_perms(za, zb)
            assert got == expected
            assert len(got) >= 1

    def test_yields_in_lexicographic_order(self):
        z = zero_pattern(Tensor(np.zeros((2, 2, 2))))
        got = [p.images for p in pattern_permutations(z, z)]
        assert got == sorted(got)

    def test_valued_tensors_match_their_patterns(self):
        # only the zero patterns are read: values give the same list as 0/1
        rng = np.random.default_rng(9)
        found = 0
        for _ in range(30):
            m = int(rng.integers(3, 5))
            n = int(rng.integers(2, 6 if m == 3 else 5))
            a = random_tensor(rng, m, n, density=float(rng.choice([0.1, 0.3, 0.6])))
            forward = structured_transform(a, random_structured_witness(rng, m, n))
            unrelated = random_tensor(rng, m, n, density=0.3)
            for b in (forward, unrelated):
                got = list(pattern_permutations(a, b))
                assert got == list(pattern_permutations(zero_pattern(a), zero_pattern(b)))
                found += len(got)
        assert found >= 30

    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("kind", ["zero", "unit", "dense"])
    def test_symmetric_patterns_match_brute_force(self, n, kind):
        shape = (n,) * 3
        z = {
            "zero": Tensor(np.zeros(shape)),
            "unit": zero_pattern(unit_tensor(3, n)),
            "dense": Tensor(np.ones(shape)),
        }[kind]
        got = list(pattern_permutations(z, z))
        assert got == brute_force_pattern_perms(z, z)
        assert len(got) == math.factorial(n)

    @pytest.mark.parametrize("n", [5, 6])
    def test_random_patterns_match_brute_force(self, n):
        rng = np.random.default_rng(n)
        for density in (0.1, 0.3, 0.6):
            za = zero_pattern(random_tensor(rng, 3, n, density=density))
            images = tuple(int(v) + 1 for v in rng.permutation(n))
            unrelated = zero_pattern(random_tensor(rng, 3, n, density=density))
            for zb in (naive_relabel(za, images), unrelated):
                assert list(pattern_permutations(za, zb)) == brute_force_pattern_perms(za, zb)

    def test_allowed_mask_filters_in_order(self):
        rng = np.random.default_rng(11)
        cases = [zero_pattern(unit_tensor(3, 5)), zero_pattern(unit_tensor(4, 4))]
        cases += [zero_pattern(random_tensor(rng, 3, 5, density=0.1)) for _ in range(4)]
        for z in cases:
            n = z.dim
            images = tuple(int(v) + 1 for v in rng.permutation(n))
            zb = naive_relabel(z, images)
            unmasked = list(pattern_permutations(z, zb))
            for _ in range(5):
                allowed = rng.uniform(size=(n, n)) < 0.6
                expected = [
                    p for p in unmasked if all(allowed[v, w - 1] for v, w in enumerate(p.images))
                ]
                assert list(pattern_permutations(z, zb, allowed=allowed)) == expected
                assert list(pattern_permutations(z, zb, allowed=allowed.tolist())) == expected
            assert list(pattern_permutations(z, zb, allowed=np.ones((n, n), bool))) == unmasked

    def test_allowed_mask_shape_checked(self):
        z = zero_pattern(unit_tensor(3, 3))
        with pytest.raises(ShapeError):
            list(pattern_permutations(z, z, allowed=np.ones((3, 2), bool)))


class TestSolveDiagonal:
    def test_same_tensor_identity(self):
        rng = np.random.default_rng(1)
        a = random_tensor(rng, 3, 3, density=0.5)
        d = solve_diagonal(a, a, Permutation.identity(3))
        assert d is not None
        assert np.allclose(d.values, 1.0)

    def test_frozen_forward_case(self):
        a = sparse(3, 2, {(1, 2, 2): 5})
        b = sparse(3, 2, {(2, 1, 1): 11.25})
        d = solve_diagonal(a, b, Permutation((2, 1)))
        assert d is not None
        rebuilt = permutation_transform(
            structured_diag(a, d), Permutation((2, 1)).inverse()
        )
        assert max_abs_diff(rebuilt, b) < 1e-10

    def test_complex_branch_case(self):
        # one constraint, two unknowns: d1^(-2) d2^2 = -2.25 forces a complex d
        a = sparse(3, 2, {(1, 2, 2): 5})
        b = sparse(3, 2, {(2, 1, 1): -11.25})
        d = solve_diagonal(a, b, Permutation((2, 1)))
        assert d is not None
        ratio = d.values[0] ** (-2) * d.values[1] ** 2
        assert abs(ratio - (-2.25)) < 1e-10

    def test_inconsistent_returns_none(self):
        # two constraints force d2/d1 to differ: no scaling exists
        a = sparse(3, 2, {(1, 1, 2): 1, (1, 2, 1): 1})
        b = sparse(3, 2, {(1, 1, 2): 2, (1, 2, 1): 3})
        assert solve_diagonal(a, b, Permutation.identity(2)) is None

    def test_pattern_mismatch_returns_none(self):
        a = sparse(3, 2, {(1, 2, 2): 5})
        b = sparse(3, 2, {(1, 1, 2): 5})
        assert solve_diagonal(a, b, Permutation.identity(2)) is None

    def test_empty_system_returns_identity(self):
        z = Tensor(np.zeros((2, 2, 2)))
        d = solve_diagonal(z, z, Permutation.identity(2))
        assert d is not None
        assert np.array_equal(d.values, np.ones(2))

    def test_rejects_order_two(self):
        with pytest.raises(OrderError):
            solve_diagonal(unit_tensor(2, 2), unit_tensor(2, 2), Permutation.identity(2))


def structured_diag(a, d):
    from tensim import diagonal_transform

    return diagonal_transform(a, d)


def seeded_forward_pair(seed, m, n, density):
    rng = np.random.default_rng(seed)
    a = random_tensor(rng, m, n, density=density)
    return a, clean(structured_transform(a, random_structured_witness(rng, m, n)))


class TestScalingRegressions:
    """Forward pairs that an elimination carrying float right-hand sides
    through integer row operations decided "not similar"."""

    @pytest.mark.parametrize(
        "m, n, density, seed",
        [(3, 30, 0.05, 0), (3, 40, 0.05, 0), (3, 60, 0.02, 0), (3, 20, 0.02, 44)],
    )
    def test_forward_pair_decided_similar(self, m, n, density, seed):
        a, b = seeded_forward_pair(seed, m, n, density)
        w = decide_similar(a, b)
        assert w is not None
        scale = max(1.0, float(np.max(np.abs(b.data))))
        assert max_abs_diff(structured_transform(a, w), b) <= 1e-8 * scale

    def test_phase_coset_case(self):
        # the rows (-2, 2) and (-3, 3) span Z(-1, 1) together, neither alone:
        # the phase of d2/d1 is fixed only by combining the two entries
        a = sparse(4, 2, {(1, 1, 2, 2): 1, (1, 2, 2, 2): 1})
        d = DiagonalScaling([1.0, np.exp(0.9j * np.pi)])
        b = structured_transform(a, StructuredWitness(Permutation.identity(2), d, 4))
        got = solve_diagonal(a, b, Permutation.identity(2))
        assert got is not None
        rebuilt = structured_transform(a, StructuredWitness(Permutation.identity(2), got, 4))
        assert max_abs_diff(rebuilt, b) < 1e-12

    def test_large_index_support(self):
        # the size-2 rows 2(e_j - e_1) come first and are independent, but
        # span a sublattice of index 2^38 in the row lattice: the rows of the
        # path (2; 1, 3), (2; 3, 4), ..., (2; 39, 40) are needed to close it
        n = 40
        entries = {(1, j, j): 1 for j in range(2, n + 1)}
        entries[(2, 1, 3)] = 1
        entries.update({(2, j, j + 1): 1 for j in range(3, n)})
        a = sparse(3, n, entries)
        rng = np.random.default_rng(0)
        d = DiagonalScaling(np.exp(rng.uniform(-1, 1, n) + 1j * rng.uniform(-np.pi, np.pi, n)))
        sigma = Permutation(tuple(int(v) + 1 for v in rng.permutation(n)))
        b = structured_transform(a, StructuredWitness(sigma, d, 3))
        got = solve_diagonal(a, b, sigma)
        assert got is not None
        rebuilt = structured_transform(a, StructuredWitness(sigma, got, 3))
        assert max_abs_diff(rebuilt, b) <= 1e-8 * max(1.0, float(np.max(np.abs(b.data))))
        assert decide_similar(a, a) is not None


def perturbed(b, position, factor):
    data = b.data.copy()
    data[position] *= factor
    return Tensor(data)


class TestSearchRegressions:
    """Dense pairs, whose every permutation matches the zero pattern: a
    search that does not look at values tries up to ``n!`` solves."""

    @pytest.mark.parametrize("m, n", [(3, 5), (4, 4)])
    def test_one_solve_per_dense_decide(self, m, n, monkeypatch):
        solves = []
        solve = decision._ScalingSolve.solve

        def counted(self, *args):
            solves.append(args)
            return solve(self, *args)

        monkeypatch.setattr(decision._ScalingSolve, "solve", counted)
        a, b = seeded_forward_pair(m * 10 + n, m, n, 1.0)
        assert decide_similar(a, b) is not None
        assert len(solves) == 1
        solves.clear()
        assert decide_similar(a, perturbed(b, (0,) * (m - 1) + (1,), 1.5)) is None
        assert len(solves) == 1

    @pytest.mark.parametrize("m", [3, 4])
    def test_dense_dim_8(self, m):
        a, b = seeded_forward_pair(m, m, 8, 1.0)
        w = decide_similar(a, b)
        assert w is not None
        scale = max(1.0, float(np.max(np.abs(b.data))))
        assert max_abs_diff(structured_transform(a, w), b) <= 1e-8 * scale
        assert decide_similar(a, perturbed(b, (1,) * (m - 1) + (0,), 1.5)) is None

    def test_diagonal_mask_boundary(self):
        # a diagonal entry is a fixed point of every scaling: within the
        # acceptance tolerance the witness is unchanged, beyond it there is none
        a, b = seeded_forward_pair(12, 3, 5, 1.0)
        w = decide_similar(a, b)
        assert w is not None
        near = decide_similar(a, perturbed(b, (2, 2, 2), 1 + 0.5 * DECISION_TOL))
        assert near is not None
        assert near.sigma == w.sigma
        assert np.allclose(near.d.values, w.d.values, rtol=1e-12, atol=0)
        assert decide_similar(a, perturbed(b, (2, 2, 2), 1 + 4 * DECISION_TOL)) is None


class TestDecideSimilar:
    def test_self_similarity(self):
        rng = np.random.default_rng(2)
        a = random_tensor(rng, 3, 3, density=0.5)
        w = decide_similar(a, a)
        assert w is not None
        assert w.sigma == Permutation.identity(3)
        assert np.allclose(w.d.values, 1.0)

    def test_forward_generated_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            m = int(rng.choice([3, 4]))
            n = int(rng.integers(2, 5))
            density = float(rng.choice([0.1, 0.5, 1.0]))
            a = random_tensor(rng, m, n, density=density)
            s = random_structured_witness(rng, m, n)
            b = structured_transform(a, s)
            w = decide_similar(a, clean(b))
            assert w is not None
            scale = max(1.0, float(np.max(np.abs(b.data))))
            assert max_abs_diff(structured_transform(a, w), b) <= 1e-8 * scale

    def test_phase_wrap_case(self):
        # doubled exponents with a large phase: the branch-sensitive case
        a = sparse(3, 2, {(1, 2, 2): 1, (1, 1, 2): 1, (2, 1, 1): 1})
        d = DiagonalScaling([1.0, np.exp(0.9j * np.pi)])
        s = StructuredWitness(Permutation.identity(2), d, 3)
        b = structured_transform(a, s)
        assert decide_similar(a, b) is not None

    def test_nnz_mismatch(self):
        a = unit_tensor(3, 2)
        b = sparse(3, 2, {(1, 1, 1): 1, (2, 2, 2): 1, (1, 2, 2): 1})
        assert decide_similar(a, b) is None

    def test_returned_witness_is_deterministic(self):
        rng = np.random.default_rng(4)
        a = random_tensor(rng, 3, 3, density=0.4)
        s = random_structured_witness(rng, 3, 3)
        b = clean(structured_transform(a, s))
        w1 = decide_similar(a, b)
        w2 = decide_similar(a, b)
        assert w1.sigma == w2.sigma
        assert np.array_equal(w1.d.values, w2.d.values)

    def test_builds_no_tensor(self, monkeypatch):
        # the patterns are read from the nonzero lists, not from 0/1 tensors
        a, b = seeded_forward_pair(7, 3, 12, 0.2)
        c = perturbed(b, tuple(np.argwhere(b.data != 0)[0]), 1.5)
        built = []
        init = Tensor.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counted)
        assert decide_similar(a, b) is not None
        assert decide_similar(a, c) is None
        assert built == []

    def test_order_and_shape_errors(self):
        with pytest.raises(OrderError):
            decide_similar(unit_tensor(2, 2), unit_tensor(2, 2))
        with pytest.raises(ShapeError):
            decide_similar(unit_tensor(3, 2), unit_tensor(3, 3))

    def test_agrees_with_oracle_on_perturbations(self):
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(30):
            n = int(rng.integers(2, 4))
            a = random_tensor(rng, 3, n, density=0.5)
            if nnz(a) == 0:
                continue
            s = random_structured_witness(rng, 3, n)
            b = structured_transform(a, s)
            data = b.data.copy()
            positions = np.argwhere(data != 0)
            pos = tuple(positions[rng.integers(len(positions))])
            data[pos] *= rng.uniform(1.5, 2.0)
            perturbed = clean(Tensor(data))
            got = decide_similar(a, perturbed) is not None
            expected = oracle_similar(a, perturbed)
            assert got == expected
            checked += 1
        assert checked >= 25


class TestOracleSelfChecks:
    def test_oracle_positive_on_forward_pairs(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(2, 4))
            a = random_tensor(rng, 3, n, density=0.6)
            s = random_structured_witness(rng, 3, n)
            b = structured_transform(a, s)
            assert oracle_similar(a, clean(b))

    def test_oracle_negative_on_incompatible(self):
        a = sparse(3, 2, {(1, 1, 2): 1, (1, 2, 1): 1})
        b = sparse(3, 2, {(1, 1, 2): 2, (1, 2, 1): 3})
        assert not oracle_similar(a, b)

    def test_oracle_handles_phase_wrap(self):
        a = sparse(3, 2, {(1, 2, 2): 1, (1, 1, 2): 1, (2, 1, 1): 1})
        d = DiagonalScaling([1.0, np.exp(0.9j * np.pi)])
        b = structured_transform(a, StructuredWitness(Permutation.identity(2), d, 3))
        assert oracle_similar(a, b)


class TestTriangularizable:
    def test_diagonal_tensor_identity(self):
        assert triangularizable_pattern(diagonal_tensor(3, [1, 2, 3])) == Permutation.identity(3)

    def test_frozen_cycle_returns_none(self):
        a = sparse(3, 2, {(1, 2, 2): 1, (2, 1, 1): 1})
        assert triangularizable_pattern(a) is None

    def test_frozen_single_lower_entry(self):
        a = sparse(3, 2, {(2, 1, 1): 1})
        assert triangularizable_pattern(a) == Permutation((2, 1))

    def test_certificate_is_valid(self):
        from tensim import is_upper_triangular

        rng = np.random.default_rng(7)
        hits = 0
        for _ in range(40):
            a = random_tensor(rng, 3, int(rng.integers(2, 5)), density=0.2)
            sigma = triangularizable_pattern(a)
            if sigma is not None:
                assert is_upper_triangular(permutation_transform(zero_pattern(a), sigma))
                hits += 1
        assert hits >= 5

    def test_none_is_certified_by_exhaustion(self):
        rng = np.random.default_rng(8)
        count = 0
        for _ in range(40):
            n = int(rng.integers(2, 4))
            a = random_tensor(rng, 3, n, density=0.4)
            if triangularizable_pattern(a) is None:
                za = zero_pattern(a)
                for images in itertools.permutations(range(1, n + 1)):
                    from tensim import is_upper_triangular

                    assert not is_upper_triangular(naive_relabel(za, images))
                count += 1
        assert count >= 5

    @pytest.mark.parametrize("n", [11, 60])
    def test_large_dim_certificates(self, n):
        from tensim import is_upper_triangular

        rng = np.random.default_rng(n)
        data = np.zeros((n,) * 3)
        pos = rng.integers(n, size=(4 * n, 3))
        data[tuple(pos[pos[:, 0] <= pos[:, 1:].min(axis=1)].T)] = 1.0
        for i in range(n - 1):
            data[i, i + 1, i + 1] = 1.0  # a chain through every label
        relabel = Permutation(tuple(int(v) + 1 for v in rng.permutation(n)))
        a = permutation_transform(Tensor(data), relabel)
        sigma = triangularizable_pattern(a)
        assert sigma is not None
        assert is_upper_triangular(permutation_transform(zero_pattern(a), sigma))
        data[n - 1, 0, 0] = 1.0  # closes the chain into a cycle
        assert triangularizable_pattern(permutation_transform(Tensor(data), relabel)) is None

    def test_rejects_order_two(self):
        with pytest.raises(OrderError):
            triangularizable_pattern(unit_tensor(2, 3))


class TestSimilarityInvariants:
    def test_unit_tensor_report(self):
        report = similarity_invariants(unit_tensor(3, 2))
        assert report.nnz == 2
        assert report.is_diagonal
        assert report.triangularizable
        assert report.canonical_hash is not None

    def test_invariance_under_witness(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            m = int(rng.choice([3, 4]))
            n = int(rng.integers(2, 5))
            a = random_tensor(rng, m, n, density=0.5)
            w = random_unit_preserving_witness(rng, m, n)
            b = clean(general_transform(a, w))
            assert similarity_invariants(a) == similarity_invariants(b)

    def test_non_triangularizable_case(self):
        a = sparse(3, 2, {(1, 2, 2): 1, (2, 1, 1): 1})
        report = similarity_invariants(a)
        assert report.triangularizable is False

    def test_hash_computed_at_large_dim(self):
        for n in (9, 12):
            report = similarity_invariants(Tensor(np.zeros((n,) * 2)))
            assert len(report.canonical_hash) == 64
            assert "canonical_hash_omitted" not in report.to_dict()
        rng = np.random.default_rng(12)
        a = random_tensor(rng, 3, 12, density=0.1)
        b = relabeled(a, rng.permutation(12))
        assert similarity_invariants(a) == similarity_invariants(b)

    def test_triangular_reported_for_large_dim(self):
        data = np.zeros((11,) * 3)
        data[10, 0, 0] = data[0, 10, 10] = 1.0
        assert similarity_invariants(Tensor(np.zeros((11,) * 3))).triangularizable is True
        report = similarity_invariants(Tensor(data))
        assert report.triangularizable is False
        assert "triangularizable_omitted" not in report.to_dict()

    def test_canonical_hash_matches_relabeling(self):
        rng = np.random.default_rng(10)
        a = random_tensor(rng, 3, 4, density=0.3)
        images = tuple(int(v) + 1 for v in rng.permutation(4))
        b = naive_relabel(a, images)
        assert canonical_pattern_hash(a) == canonical_pattern_hash(b)


def unit_pattern(m, n):
    data = np.zeros((n,) * m)
    data[(np.arange(n),) * m] = 1.0
    return Tensor(data)


def hashes_agree_with_oracle(a, b):
    same_class = brute_force_pattern_key(a) == brute_force_pattern_key(b)
    return (canonical_pattern_hash(a) == canonical_pattern_hash(b)) == same_class


class TestCanonicalPatternHash:
    def test_agrees_with_oracle_on_random_pairs(self):
        rng = np.random.default_rng(21)
        outcomes = set()
        for m in (2, 3, 4):
            for trial in range(45):
                n = int(rng.integers(1, 7))
                if trial % 3 == 2:  # few nonzeros, so unrelated patterns often match
                    a, b = (
                        Tensor((rng.uniform(size=(n,) * m) < 2.5 / n**m).astype(float))
                        for _ in range(2)
                    )
                else:
                    a = Tensor((rng.uniform(size=(n,) * m) < rng.uniform(0.05, 0.6)).astype(float))
                    data = relabeled(a, rng.permutation(n)).data.copy()
                    if trial % 3 == 1:  # toggle one entry of the relabeled copy
                        idx = tuple(rng.integers(n, size=m))
                        data[idx] = 1.0 - data[idx]
                    b = Tensor(data)
                assert hashes_agree_with_oracle(a, b), (m, n, trial)
                outcomes.add(canonical_pattern_hash(a) == canonical_pattern_hash(b))
        assert outcomes == {True, False}

    def test_agrees_with_oracle_on_empty_dense_and_unit(self):
        rng = np.random.default_rng(22)
        for m in (2, 3, 4):
            for n in range(1, 7):
                patterns = [Tensor(np.zeros((n,) * m)), Tensor(np.ones((n,) * m)), unit_pattern(m, n)]
                patterns += [relabeled(p, rng.permutation(n)) for p in patterns]
                for a, b in itertools.combinations(patterns, 2):
                    assert hashes_agree_with_oracle(a, b), (m, n)

    def test_separates_what_colour_refinement_cannot(self):
        # every label heads one (i, j, j) entry and ends one: colour refinement
        # leaves all six labels in one cell for both patterns
        two_triangles = sparse(3, 6, {(i + 1, j + 1, j + 1): 1 for i, j in
                                      [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]})
        hexagon = sparse(3, 6, {(i + 1, (i + 1) % 6 + 1, (i + 1) % 6 + 1): 1 for i in range(6)})
        assert canonical_pattern_hash(two_triangles) != canonical_pattern_hash(hexagon)
        assert hashes_agree_with_oracle(two_triangles, hexagon)

    def test_invariant_under_relabeling_at_scale(self):
        rng = np.random.default_rng(23)
        for n, density in [(40, 0.05), (60, 0.02)]:
            a = random_tensor(rng, 3, n, density=density)
            b = relabeled(a, rng.permutation(n))
            assert canonical_pattern_hash(a) == canonical_pattern_hash(b)

    def test_shape_is_part_of_the_hash(self):
        # equal n**m, so the parent's 0/1 encodings of the empty patterns coincided
        assert canonical_pattern_hash(Tensor(np.zeros((2,) * 3))) != canonical_pattern_hash(
            Tensor(np.zeros(8))
        )
