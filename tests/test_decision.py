import inspect
import itertools
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

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

from reference import (
    brute_force_pattern_key,
    chain_pair,
    cycles_pair,
    naive_relabel,
    numpy_pair,
    oracle_similar,
    reference_echelon,
    reference_scaling_lattice,
    sts_ag,
    sts_pg,
)


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


def brute_force_masked(za, zb, allowed=None):
    """The n! loop with one gather per permutation, optionally masked:
    label ``v`` of ``zb`` may map only to ``w`` with ``allowed[v, w]``."""
    pa, pb = za.data != 0, zb.data != 0
    found = []
    for images in itertools.permutations(range(za.dim)):
        idx = np.asarray(images)
        if allowed is not None and not allowed[np.arange(za.dim), idx].all():
            continue
        if np.array_equal(pa[np.ix_(*([idx] * za.order))], pb):
            found.append(Permutation(tuple(int(w) + 1 for w in idx)))
    return found


def label_statistics(z):
    """Per label: the nonzeros it leads, and the nonzeros in whose trailing
    indices it occurs."""
    stats = [[0, 0] for _ in range(z.dim)]
    for head, *tail in np.argwhere(z.data != 0).tolist():
        stats[head][0] += 1
        for v in set(tail):
            stats[v][1] += 1
    return [tuple(s) for s in stats]


def tied_pattern(rng, m, n):
    """Each label leads one nonzero and occurs among the trailing indices of
    ``m - 1`` others, at random slots: the statistics of all labels tie."""
    while True:
        tails = rng.permutation(np.repeat(np.arange(n), m - 1)).reshape(n, m - 1)
        if all(len(set(t)) == m - 1 for t in tails.tolist()):
            data = np.zeros((n,) * m)
            data[(np.arange(n), *tails.T)] = 1
            return Tensor(data)


def symmetric_support(kind, copies):
    """A value-free order-3 support of ``copies`` disjoint blocks, all alike:
    the nonzero ``(3t, 3t+1, 3t+2)``, the 3-cycle ``(3t+k, 3t+(k+1)%3,
    3t+(k+1)%3)``, or the complete 3-uniform hypergraph on ``4t .. 4t+3`` as a
    symmetric adjacency tensor (every ordering of every 3-subset)."""
    size = 4 if kind == "k4" else 3
    n = size * copies
    data = np.zeros((n,) * 3)
    for t in range(copies):
        block = range(size * t, size * t + size)
        if kind == "nonzero":
            data[tuple(block)] = 1
        elif kind == "cycles":
            for k in range(3):
                data[3 * t + k, 3 * t + (k + 1) % 3, 3 * t + (k + 1) % 3] = 1
        else:
            for p in itertools.permutations(block, 3):
                data[p] = 1
    return Tensor(data)


def refined(*patterns):
    """The joint stable colouring of the patterns' labels, or ``None``."""
    n = patterns[0].dim
    j = np.vstack([np.argwhere(z.data != 0) + i * n for i, z in enumerate(patterns)])
    return decision._refine(np.zeros(len(patterns) * n, dtype=np.intp), j, n)


class TestPatternPermutations:
    def test_unit_pattern_full_symmetry(self):
        z = zero_pattern(unit_tensor(3, 2))
        got = list(pattern_permutations(z, z))
        assert got == [Permutation((1, 2)), Permutation((2, 1))]

    def test_frozen_single_entry(self):
        za = sparse(3, 2, {(1, 2, 2): 1})
        zb = sparse(3, 2, {(2, 1, 1): 1})
        assert list(pattern_permutations(za, zb)) == [Permutation((2, 1))]

    def test_frozen_membership_check(self):
        # (2, 4, 5, 3, 1) and (4, 2, 1, 3, 5) pass the count of closed tuples, yet
        # send (1, 1, 3) of b outside Z(a): only the membership check drops them
        za = sparse(3, 5, {(2, 2, 1): 1, (4, 4, 5): 1})
        zb = sparse(3, 5, {(1, 1, 3): 1, (2, 2, 5): 1})
        expected = [Permutation((2, 4, 1, 3, 5)), Permutation((4, 2, 5, 3, 1))]
        assert brute_force_pattern_perms(za, zb) == expected
        assert list(pattern_permutations(za, zb)) == expected

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
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_random_patterns_match_brute_force(self, m, n):
        rng = np.random.default_rng(n if m == 3 else (m, n))
        for density in (0.1, 0.3, 0.6):
            za = zero_pattern(random_tensor(rng, m, n, density=density))
            images = tuple(int(v) + 1 for v in rng.permutation(n))
            unrelated = zero_pattern(random_tensor(rng, m, n, density=density))
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

    @pytest.mark.parametrize("m, n", [(3, 5), (3, 6), (3, 7), (4, 5), (4, 6)])
    def test_tied_statistics_separated_by_refinement(self, m, n):
        rng = np.random.default_rng(10 * m + n)
        for _ in range(3):
            za = tied_pattern(rng, m, n)
            assert len(set(label_statistics(za))) == 1
            assert len(set(refined(za).tolist())) > 1
            perm = rng.permutation(n)
            zb = relabeled(za, perm)
            got = list(pattern_permutations(za, zb))
            assert got == brute_force_masked(za, zb)
            assert Permutation(tuple(int(w) + 1 for w in perm)) in got

    @pytest.mark.parametrize("m, n", [(3, 5), (3, 6), (3, 7), (4, 5), (4, 6)])
    def test_unequal_refined_classes_yield_nothing(self, m, n):
        rng = np.random.default_rng(20 * m + n)
        unequal = 0
        for _ in range(5):
            za, zb = tied_pattern(rng, m, n), tied_pattern(rng, m, n)
            assert label_statistics(za) == label_statistics(zb)
            got = list(pattern_permutations(za, zb))
            assert got == brute_force_masked(za, zb)
            if refined(za, zb) is None:
                assert got == []
                unequal += 1
        assert unequal >= 3

    @pytest.mark.parametrize("m, n", [(3, 5), (3, 6), (3, 7), (4, 5), (4, 6)])
    def test_forced_relabeling_checked_against_every_nonzero(self, m, n):
        # distinct statistics give one candidate per label before any
        # refinement round; moving a slot between two nonzeros keeps the
        # statistics but breaks the pattern, and the one relabeling must fail
        rng = np.random.default_rng(30 * m + n)
        found = 0
        for _ in range(200):
            za = zero_pattern(random_tensor(rng, m, n, density=0.25))
            stats = label_statistics(za)
            j = np.argwhere(za.data != 0)
            if len(set(stats)) < n or len(j) < 2:
                continue
            p, q = rng.choice(len(j), 2, replace=False)
            k = j.copy()
            k[[p, q], 1] = j[[q, p], 1]
            data = np.zeros(za.shape)
            data[tuple(k.T)] = 1
            if np.count_nonzero(data) < len(j) or np.array_equal(data != 0, za.data != 0):
                continue
            zb = relabeled(Tensor(data), rng.permutation(n))
            if sorted(label_statistics(zb)) != sorted(stats):
                continue
            assert list(pattern_permutations(za, zb)) == brute_force_masked(za, zb) == []
            found += 1
        assert found >= 3

    @pytest.mark.parametrize(
        "kind, m, n",
        [("dense", 3, 5), ("dense", 3, 6), ("unit", 3, 6), ("unit", 3, 7), ("unit", 4, 5)],
    )
    def test_dense_and_unit_patterns_under_masks(self, kind, m, n):
        shape = (n,) * m
        z = Tensor(np.ones(shape)) if kind == "dense" else zero_pattern(unit_tensor(m, n))
        rng = np.random.default_rng(n)
        perm = rng.permutation(n)
        single = np.eye(n, dtype=bool)[perm]  # one candidate per label
        collide = single.copy()
        collide[1] = collide[0]  # one candidate per label, two labels share it
        masks = [rng.uniform(size=(n, n)) < p for p in (0.3, 0.6)] + [single, collide]
        for allowed in masks:
            got = list(pattern_permutations(z, z, allowed=allowed))
            assert got == brute_force_masked(z, z, allowed)
        assert list(pattern_permutations(z, z, allowed=single)) == [
            Permutation(tuple(int(w) + 1 for w in perm))
        ]
        assert list(pattern_permutations(z, z, allowed=collide)) == []

    @pytest.mark.parametrize("kind, n", [("nonzero", 6), ("cycles", 6), ("k4", 8), ("pg", 7)])
    def test_symmetric_supports_match_brute_force(self, kind, n):
        # refinement cannot tell the blocks (or the points of the Fano plane)
        # apart, so the search branches
        za = Tensor(sts_pg(2)) if kind == "pg" else symmetric_support(kind, 2)
        rng = np.random.default_rng(n)
        perm = rng.permutation(n)
        if kind == "cycles":  # one 6-cycle: the stable colouring of two 3-cycles
            unrelated = np.zeros((n,) * 3)
            unrelated[np.arange(n), (np.arange(n) + 1) % n, (np.arange(n) + 1) % n] = 1
            assert refined(za, Tensor(unrelated)) is not None
        else:
            unrelated = np.zeros(n**3)
            unrelated[rng.choice(n**3, nnz(za), replace=False)] = 1
        for zb in (relabeled(za, perm), Tensor(unrelated.reshape((n,) * 3))):
            coin = rng.uniform(size=(n, n)) < 0.5
            for allowed in (None, coin, coin | np.eye(n, dtype=bool)[perm]):  # the last keeps perm
                got = list(pattern_permutations(za, zb, allowed=allowed))
                assert got == brute_force_masked(za, zb, allowed)


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


def large_index_support(n):
    """The support of ``TestScalingRegressions.test_large_index_support``."""
    entries = {(1, j, j): 1 for j in range(2, n + 1)}
    entries[(2, 1, 3)] = 1
    entries.update({(2, j, j + 1): 1 for j in range(3, n)})
    return sparse(3, n, entries)


class TestScalingLatticeOracle:
    """The lattice data of the scaling solve, built from the distinct rows of
    the exponent matrix, equal to the byte those of the reference build,
    which makes the rows of every nonzero anew at each step: the witness
    bytes depend on them."""

    @staticmethod
    def assert_same_lattice(a):
        g_rows, p, interp, gram_inv = reference_scaling_lattice(a)
        s = decision._ScalingSolve(a)
        assert s.g_rows.tolist() == g_rows.tolist()
        assert list(s.p) == list(p)
        for got, want in ((s.interp, interp), (s.gram_inv, gram_inv)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "m, n, density",
        [(3, 8, 0.05), (3, 12, 0.2), (3, 20, 0.02), (3, 6, 1.0), (4, 6, 0.1), (4, 5, 1.0),
         (5, 4, 0.2), (5, 3, 1.0)],
    )
    def test_seeded_supports(self, m, n, density):
        for seed in range(5):
            self.assert_same_lattice(random_tensor(np.random.default_rng(seed), m, n, density=density))

    @pytest.mark.parametrize(
        "m, n, density, seed",
        [(3, 30, 0.05, 0), (3, 40, 0.05, 0), (3, 60, 0.02, 0), (3, 20, 0.02, 44)],
    )
    def test_regression_supports(self, m, n, density, seed):
        self.assert_same_lattice(seeded_forward_pair(seed, m, n, density)[0])

    def test_phase_coset_support(self):
        self.assert_same_lattice(sparse(4, 2, {(1, 1, 2, 2): 1, (1, 2, 2, 2): 1}))

    def test_large_index_support(self):
        n = 40
        entries = {(1, j, j): 1 for j in range(2, n + 1)}
        entries[(2, 1, 3)] = 1
        entries.update({(2, j, j + 1): 1 for j in range(3, n)})
        self.assert_same_lattice(sparse(3, n, entries))

    def test_echelon_past_int64_products(self):
        # entries near 2**30 take the reduction step past 2**31: the sparse rows
        # hold Python integers, which the reference switches to at that bound
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = rng.integers(-(2**30), 2**30, size=(4, 6))
            rows = [{k: y for k, y in enumerate(r) if y} for r in m.tolist()]
            got, pivots = decision._echelon(rows, 6)
            want, want_pivots = reference_echelon(m.copy())
            assert pivots == want_pivots
            assert [[r.get(k, 0) for k in range(6)] for r in got] == want.tolist()

    def test_empty_and_diagonal_supports(self):
        self.assert_same_lattice(Tensor(np.zeros((3, 3, 3))))
        self.assert_same_lattice(unit_tensor(4, 3))

    # The rows are picked up to the rank bound n - c (c components of the
    # support), then in one pass over the rest: supports where the bound is
    # never reached, or reached late.

    def test_single_nonzero_component(self):
        # (1, 2, 3) alone has rank 1, below |C| - 1 = 2
        self.assert_same_lattice(sparse(3, 3, {(1, 2, 3): 1}))
        self.assert_same_lattice(sparse(3, 7, {(1, 2, 3): 1, (4, 5, 6): 2, (6, 4, 5): 3, (7, 7, 7): 1}))
        self.assert_same_lattice(sparse(4, 5, {(1, 2, 3, 4): 1, (5, 5, 1, 1): 2}))

    def test_isolated_labels(self):
        self.assert_same_lattice(sparse(3, 8, {(2, 5, 5): 1, (5, 2, 2): 1, (5, 2, 5): 2}))
        self.assert_same_lattice(sparse(4, 6, {(6, 1, 1, 1): 1, (1, 6, 6, 6): 1}))

    def test_labels_only_on_the_diagonal(self):
        entries = {(v, v, v): v + 1 for v in range(1, 6)}
        entries.update({(1, 2, 2): 1, (2, 3, 3): 1, (3, 1, 2): 1})
        self.assert_same_lattice(sparse(3, 8, entries))
        self.assert_same_lattice(sparse(5, 3, {(1,) * 5: 2, (2,) * 5: 3, (3, 2, 2, 3, 3): 1}))

    def test_several_components(self):
        for seed in range(5):
            a = random_tensor(np.random.default_rng(seed), 3, 60, density=0.005)
            self.assert_same_lattice(a)

    def test_large_index_support_at_60(self):
        self.assert_same_lattice(large_index_support(60))

    @pytest.mark.parametrize("n, density", [(3, 0.5), (4, 0.1)])
    def test_order_six(self, n, density):
        for seed in range(5):
            self.assert_same_lattice(random_tensor(np.random.default_rng(seed), 6, n, density=density))

    def test_one_echelon_per_build(self, monkeypatch):
        # closing the lattice of the large-index support takes n - 1 more rows;
        # each joins the basis of L(G) as it is read, and [G | I] is reduced once
        calls = []
        echelon = decision._echelon

        def counted(*args):
            calls.append(1)
            return echelon(*args)

        monkeypatch.setattr(decision, "_echelon", counted)
        s = decision._ScalingSolve(large_index_support(40))
        assert len(s.g_rows) == 2 * 40 - 3
        assert calls == [1]
        # a decide closes the lattice once, at the first candidate whose magnitudes fit
        calls.clear()
        a, rng = large_index_support(40), np.random.default_rng(0)
        d = DiagonalScaling(np.exp(rng.uniform(-1, 1, 40) + 1j * rng.uniform(-np.pi, np.pi, 40)))
        sigma = Permutation(tuple(int(v) + 1 for v in rng.permutation(40)))
        assert decide_similar(a, structured_transform(a, StructuredWitness(sigma, d, 3))) is not None
        assert calls == [1]

    def test_build_memory_is_bounded_by_the_nonzero_list(self):
        # each distinct row of E is held as one nonzero's labels and its count:
        # no array of one row per distinct row and one column per label
        a = Tensor(np.random.default_rng(0).uniform(1, 2, (60,) * 3))
        a.nonzeros  # the list itself is the tensor's, built once
        tracemalloc.start()
        try:
            decision._ScalingSolve(a).interp
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * a.nonzeros.nbytes


class TestFloatRange:
    """Inputs near the ends of the float range: the diagonal mask, and
    witnesses whose gauge puts some ``|d|`` past the range."""

    def test_opposite_diagonals_near_the_float_maximum(self):
        # b[v..v] - a[w..w] overflows to inf, which is never within the tolerance
        t = np.zeros((3, 3, 3))
        t[0, 0, 0], t[1, 1, 1], t[2, 0, 1] = 1.7e308, -1.7e308, 1.0
        w = decide_similar(Tensor(t), Tensor(t))
        assert w is not None and w.sigma == Permutation.identity(3)

    @pytest.mark.parametrize("step", [700.0, -700.0])
    def test_witness_centred_into_the_float_range(self, step):
        # d = 1 at label 4 gives |log d_1| = 1050, past the range; centred,
        # log|d| is (-525, -175, 175, 525) times the sign of the step
        a, b = map(Tensor, chain_pair(4, step))
        w = decide_similar(a, b)
        assert w is not None and w.sigma == Permutation.identity(4)
        log_d = np.log(w.d.values)
        assert np.allclose(log_d.real, np.sign(step) * np.array([-525, -175, 175, 525]))
        j = a.nonzeros  # a[j] d_j1^(1-m) d_j2 d_j3, in logs: exp(E log d) overflows no float
        rebuilt = np.exp(np.log(a.data[tuple(j.T)]) + log_d[j] @ np.array([-2, 1, 1]))
        assert np.allclose(rebuilt, b.data[tuple(j.T)], rtol=1e-8, atol=0)

    def test_in_range_witness_is_not_centred(self):
        # a spread that fits keeps the gauge: d = 1 at the highest label
        a, b = map(Tensor, chain_pair(4, 200.0))
        w = decide_similar(a, b)
        assert w.d.values[-1] == 1
        assert np.allclose(np.log(w.d.values).real, [-300, -200, -100, 0])

    @pytest.mark.parametrize("step", [700.0, -700.0])
    def test_no_witness_in_the_float_range(self, step):
        # log|d| spans 1750 over the one component: no shift fits it in floats
        a, b = map(Tensor, chain_pair(6, step))
        with pytest.raises(OverflowError):
            decide_similar(a, b)
        with pytest.raises(OverflowError):
            solve_diagonal(a, b, Permutation.identity(6))


class TestTiedStatistics:
    """Forward pairs from the package's generators in which some label of
    ``b`` shares its statistics with more than one label of ``a``: the
    joint refinement must keep the generating relabeling."""

    @pytest.mark.parametrize(
        "m, n, density, seeds", [(3, 40, 0.05, (1, 3, 11)), (3, 60, 0.02, (0, 3))]
    )
    def test_decided_with_the_generating_sigma(self, m, n, density, seeds):
        tied = 0
        for seed in seeds:
            rng = np.random.default_rng(seed)
            a = random_tensor(rng, m, n, density=density)
            w = random_structured_witness(rng, m, n)
            b = clean(structured_transform(a, w))
            stats = label_statistics(a)
            tied = max(tied, max(stats.count(s) for s in label_statistics(b)))
            got = decide_similar(a, b)
            assert got is not None
            assert got.sigma == w.sigma
            scale = max(1.0, float(np.max(np.abs(b.data))))
            assert max_abs_diff(structured_transform(a, got), b) <= 1e-8 * scale
        assert tied >= 2


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


class TestPinnedRelabelings:
    """A mask that leaves every label one candidate pins the relabeling: one
    gather decides it, and no colour refinement runs."""

    @pytest.fixture
    def refinements(self, monkeypatch):
        calls = []
        refine = decision._refine

        def counted(*args):
            calls.append(args)
            return refine(*args)

        monkeypatch.setattr(decision, "_refine", counted)
        return calls

    @pytest.mark.parametrize("m, n", [(3, 5), (4, 4), (3, 8)])
    def test_distinct_diagonals_refine_nothing(self, m, n, refinements):
        a, b = seeded_forward_pair(m * 10 + n, m, n, 1.0)
        assert decide_similar(a, b) is not None
        assert decide_similar(a, perturbed(b, (0,) * (m - 1) + (1,), 1.5)) is None
        assert refinements == []

    def test_zero_diagonals_still_refine(self, refinements):
        a, b = seeded_forward_pair(7, 3, 12, 0.2)
        assert decide_similar(a, b) is not None
        assert len(refinements) == 1

    def test_a_label_without_candidates_refines_nothing(self, refinements):
        # no diagonal entry of a is three times b[12,12,12]: label 12 of b has
        # no candidate, and the sequence is empty before any label statistics
        a, b = seeded_forward_pair(0, 3, 30, 0.05)
        assert b.data[12, 12, 12] != 0
        assert decide_similar(a, perturbed(b, (12, 12, 12), 3.0)) is None
        assert list(pattern_permutations(a, b, allowed=np.zeros((30, 30), dtype=bool))) == []
        assert refinements == []
        za = zero_pattern(random_tensor(np.random.default_rng(5), 3, 5, density=0.4))
        zb = relabeled(za, [4, 2, 0, 3, 1])
        allowed = np.ones((5, 5), dtype=bool)
        allowed[3] = False
        assert brute_force_masked(za, zb) != []
        assert list(pattern_permutations(za, zb, allowed=allowed)) == []
        assert refinements == []

    @pytest.mark.parametrize("m, n, density", [(3, 5, 0.3), (3, 6, 0.5), (4, 4, 0.4)])
    def test_pinned_masks_match_brute_force(self, m, n, density):
        rng = np.random.default_rng(100 * m + n)
        for _ in range(8):
            za = zero_pattern(random_tensor(rng, m, n, density=density))
            zb = relabeled(za, rng.permutation(n))
            isomorphisms = brute_force_masked(za, zb)
            pin = np.eye(n, dtype=bool)
            hit = pin[np.array(isomorphisms[rng.integers(len(isomorphisms))].images) - 1]
            others = [p for p in itertools.permutations(range(n))
                      if Permutation(tuple(w + 1 for w in p)) not in isomorphisms]
            miss = pin[list(others[rng.integers(len(others))])]  # not a pattern isomorphism
            collide = hit.copy()
            collide[1] = collide[0]  # one candidate per label, two labels share it
            for allowed in (hit, miss, collide):
                got = list(pattern_permutations(za, zb, allowed=allowed))
                assert got == brute_force_masked(za, zb, allowed)
            assert list(pattern_permutations(za, zb, allowed=miss)) == []
            assert list(pattern_permutations(za, zb, allowed=collide)) == []


class TestBranchingSearch:
    """Supports whose labels colour refinement cannot separate: the search
    individualizes one label of ``b`` and one of ``a`` at a time and refines
    again, so copies of one block cost a few refinements, not a search over
    the blocks' relabelings."""

    @pytest.mark.parametrize("kind, copies", [("nonzero", 7), ("k4", 4)])
    def test_disjoint_copies_take_bounded_work(self, kind, copies):
        a = symmetric_support(kind, copies)
        n = a.dim
        sigma = Permutation(tuple((np.random.default_rng(0).permutation(n) + 1).tolist()))
        b = structured_transform(a, StructuredWitness(sigma, DiagonalScaling(np.ones(n)), 3))
        calls = [0]

        def count(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == decision.__file__:
                calls[0] += 1

        sys.setprofile(count)
        try:
            w = decide_similar(a, b)
        finally:
            sys.setprofile(None)
        assert w is not None
        assert max_abs_diff(structured_transform(a, w), b) == 0
        assert calls[0] <= 10**4

    def test_depth_is_not_bounded_by_the_recursion_limit(self):
        # the unit pattern at n = 300 is individualized 299 levels deep, in
        # both searches: neither may take a Python frame per level
        e = Tensor(np.eye(300))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            assert next(pattern_permutations(e, e)) == Permutation(tuple(range(1, 301)))
            assert canonical_pattern_hash(e)
        finally:
            sys.setrecursionlimit(limit)

    def test_cycles_cost_per_solve(self, monkeypatch):
        # four 3-cycles with generic values: every pattern isomorphism reaches
        # the solve, and each costs a bounded number of refinements
        counts = {"solve": 0, "refine": 0}
        solve, refine = decision._ScalingSolve.solve, decision._refine

        def counted_solve(self, *args):
            counts["solve"] += 1
            return solve(self, *args)

        def counted_refine(*args):
            counts["refine"] += 1
            return refine(*args)

        monkeypatch.setattr(decision._ScalingSolve, "solve", counted_solve)
        monkeypatch.setattr(decision, "_refine", counted_refine)
        a, b = cycles_pair(0, 4)
        w = decide_similar(Tensor(a), Tensor(b))
        assert w is not None
        assert w.sigma.images == (5, 12, 11, 7, 8, 9, 3, 4, 10, 1, 2, 6)
        assert counts["solve"] == 1567
        assert counts["refine"] <= 2 * counts["solve"]


class TestMagnitudesFirst:
    """The scaling solve fits and checks the magnitudes first; the second
    pass of the join and the one echelon form of the phase lattice run only
    at a candidate whose magnitudes fit, and never change the answer."""

    @pytest.fixture
    def echelons(self, monkeypatch):
        calls = []
        echelon = decision._echelon

        def counted(*args):
            calls.append(1)
            return echelon(*args)

        monkeypatch.setattr(decision, "_echelon", counted)
        return calls

    @pytest.mark.parametrize(
        "seed, m, n, density, similar",
        [(0, 3, 5, 1.0, True), (1, 4, 4, 1.0, False), (2, 3, 12, 0.2, True)],
    )
    def test_echelons_of_the_golden_pairs(self, echelons, seed, m, n, density, similar):
        # the inputs of tests/test_cli.py::TestDecideGolden: dense_fwd, dense_not, sparse_fwd
        a, b = numpy_pair(seed, m, n, density)
        if not similar:
            b[(n - 1,) + (0,) * (m - 1)] *= 1.5  # a modulus no scaling reaches
        assert (decide_similar(Tensor(a), Tensor(b)) is not None) == similar
        assert len(echelons) == similar

    @staticmethod
    def eager_solve(a, b, sigma, rtol):
        """``d`` by the rebuild test alone, with the phase lattice built
        before the candidate is read and no magnitude check, or ``None``."""
        s = decision._ScalingSolve(a)
        g_rows, interp = s.g_rows, s.interp
        b_vals = b.data[tuple(sigma.zero_based()[s.j].T)]
        if b_vals.size != np.count_nonzero(b.data) or not b_vals.all():
            return None
        a_vals = a.data[tuple(s.j.T)]
        ratio = b_vals / a_vals
        turns = np.angle(ratio) / (2.0 * np.pi)
        base = np.zeros(s.n)
        base[s.p] = interp @ turns[g_rows]
        wraps = np.rint(base[s.j] @ s.w - turns)
        x = s._fit(np.log(np.abs(ratio))) + 2j * np.pi * s._fit(turns + wraps)
        if np.all(np.abs(a_vals * np.exp(x[s.j] @ s.w) - b_vals) <= rtol * np.abs(b_vals)):
            return np.exp(x)
        return None

    def assert_same_as_eager(self, a, b, sigma):
        """The solve's answer at each tolerance, checked against the eager one."""
        answers = []
        for rtol in (0.0, 1e-14, 1e-12, 1e-8, 1e-4):
            got = decision._ScalingSolve(a).solve(a, b, sigma, rtol)
            want = self.eager_solve(a, b, sigma, rtol)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.values.tobytes() == want.tobytes()
            answers.append(got is not None)
        return answers

    @pytest.mark.parametrize("m, n, density", [(3, 6, 0.5), (4, 4, 0.5), (5, 3, 1.0)])
    def test_witness_iff_the_eager_rebuild_accepts(self, m, n, density):
        # moduli off by 1e-13 .. 50%, phases off by 1e-9 and 0.3 rad, at every tolerance
        factors = (1, 1 + 1e-13, 1 + 1e-9, 1 + 1e-6, 1.5, np.exp(1e-9j), np.exp(0.3j))
        answers = []
        for seed in range(4):
            rng = np.random.default_rng(seed)
            a = random_tensor(rng, m, n, density=density)
            w = random_structured_witness(rng, m, n)
            b = structured_transform(a, w)
            last = tuple(np.argwhere(b.data != 0)[-1])
            for factor in factors:
                answers += self.assert_same_as_eager(a, perturbed(b, last, factor), w.sigma)
        assert any(answers) and not all(answers)

    def test_unit_modulus_scaling_and_rtol_zero(self):
        rng = np.random.default_rng(9)
        a = random_tensor(rng, 3, 6, density=0.5)
        d = DiagonalScaling(np.exp(2j * np.pi * rng.uniform(size=6)))  # log|d| = 0
        sigma = Permutation(tuple(int(v) + 1 for v in rng.permutation(6)))
        b = structured_transform(a, StructuredWitness(sigma, d, 3))
        assert self.assert_same_as_eager(a, b, sigma)[-2:] == [True, True]
        # the identity is the only relabeling of this pattern; numpy's complex
        # a / a is 1 up to 6e-17j, and the real part of a is rebuilt exactly
        one = Permutation.identity(6)
        assert list(pattern_permutations(a, a)) == [one]
        for t in (a, Tensor(a.data.real)):
            w, want = decide_similar(t, t, rtol=0), self.eager_solve(t, t, one, 0.0)
            assert (w is None) == (want is None)
            if t is not a:
                assert w.sigma == one and np.array_equal(w.d.values, np.ones(6))


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

    @pytest.mark.parametrize("tiny", [1e-310, 5e-324, 1e-310j, 2e-309 - 3e-320j])
    def test_subnormal_entries(self, tiny):
        # numpy's complex quotient 1e-310 / 1e-310 is inf + nan j: such a
        # tensor was once decided not similar to itself
        a = sparse(3, 2, {(1, 1, 2): tiny, (2, 1, 1): 2})
        sigma = Permutation((2, 1))
        for b, want in ((a, Permutation.identity(2)), (permutation_transform(a, sigma), sigma)):
            w = decide_similar(a, b)
            assert w is not None and w.sigma == want and np.allclose(w.d.values, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.inf, 1.0)])
    def test_non_finite_nonzero_is_an_error(self, bad):
        # Tensor accepts a non-finite entry, and every relabeling then failed
        # the solve: such a tensor was decided not similar to itself
        t = sparse(3, 3, {(1, 2, 2): 1, (2, 3, 3): bad})
        with pytest.raises(ValueError, match="not finite"):
            decide_similar(t, t)
        # patterns that correspond under no relabeling are still not similar
        assert decide_similar(t, sparse(3, 3, {(1, 2, 2): 1, (1, 3, 3): 1})) is None
        rng = np.random.default_rng(26)
        for trial in range(12):
            data = random_tensor(rng, 3, 4, density=0.4).data.copy()
            idx = (trial % 4,) * 3 if trial < 4 else tuple(rng.integers(4, size=3))  # diagonal first
            finite = data.copy()
            finite[idx] = 1.0
            data[idx] = bad
            a, b = Tensor(finite), Tensor(data)
            for x, y in ((b, b), (a, b)):
                with pytest.raises(ValueError, match="not finite"):
                    decide_similar(x, y)
                with pytest.raises(ValueError, match="not finite"):
                    solve_diagonal(x, y, Permutation.identity(4))
            if len(set(idx)) > 1:  # off the diagonal, where no value bars a relabeling
                with pytest.raises(ValueError, match="not finite"):
                    decide_similar(b, a)

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

    def test_placement_is_lexicographically_first(self):
        from tensim import is_upper_triangular

        rng = np.random.default_rng(20)
        found = 0
        for k in range(60):
            m = 3 + k % 2
            n = int(rng.integers(2, 6 - k % 2))
            mask = rng.uniform(size=(n,) * m) < rng.uniform(0.1, 0.5)
            a = Tensor(mask)
            if k % 3:  # triangular by construction, then relabeled
                idx = np.indices(mask.shape)
                upper = Tensor(mask & (idx[1:].min(axis=0) >= idx[0]))
                a = naive_relabel(upper, tuple(int(v) + 1 for v in rng.permutation(n)))
            first = next(
                (images for images in itertools.permutations(range(1, n + 1))
                 if is_upper_triangular(naive_relabel(a, images))),
                None,
            )
            sigma = triangularizable_pattern(a)
            assert (None if sigma is None else sigma.images) == first
            found += first is not None
        assert 20 <= found < 60

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


def cubic_pattern(rng, n):
    """A random 3-regular graph on ``n`` labels, each edge ``{i, j}`` written
    as the entries ``(i, j, j)`` and ``(j, i, i)``."""
    while True:
        edges = rng.permutation(np.repeat(np.arange(n), 3)).reshape(-1, 2)
        pairs = {frozenset(e) for e in edges.tolist()}
        if len(pairs) == len(edges) and all(len(e) == 2 for e in pairs):  # a simple graph
            break
    data = np.zeros((n,) * 3)
    data[edges[:, 0], edges[:, 1], edges[:, 1]] = data[edges[:, 1], edges[:, 0], edges[:, 0]] = 1.0
    return Tensor(data)


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
        assert canonical_pattern_hash(two_triangles()) != canonical_pattern_hash(hexagon())
        assert hashes_agree_with_oracle(two_triangles(), hexagon())

    def test_cubic_graphs_need_the_best_leaf(self):
        # refinement leaves every label of a 3-regular graph in one cell, and
        # the first leaf is often not the smallest: the search must keep its
        # best leaf up to date
        rng = np.random.default_rng(24)
        for n in (6, 8, 10):
            for _ in range(15):
                a = cubic_pattern(rng, n)
                b = relabeled(a, rng.permutation(n))
                assert canonical_pattern_hash(a) == canonical_pattern_hash(b), n
        outcomes = set()
        for n, count in [(6, 8), (8, 3)]:
            patterns = [cubic_pattern(rng, n) for _ in range(count)]
            patterns.append(relabeled(patterns[0], rng.permutation(n)))
            keys = [brute_force_pattern_key(p) for p in patterns]
            hashes = [canonical_pattern_hash(p) for p in patterns]
            for i, j in itertools.combinations(range(len(patterns)), 2):
                assert (hashes[i] == hashes[j]) == (keys[i] == keys[j]), (n, i, j)
                outcomes.add(hashes[i] == hashes[j])
        assert outcomes == {True, False}

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


def two_triangles():
    return sparse(3, 6, {(i + 1, j + 1, j + 1): 1 for i, j in
                         [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]})


def hexagon():
    return sparse(3, 6, {(i + 1, (i + 1) % 6 + 1, (i + 1) % 6 + 1): 1 for i in range(6)})


#: Frozen digests of ``canonical_pattern_hash``, each with the pattern it is
#: taken of.
HASH_GOLDENS = {
    "empty-3-5": (
        lambda: Tensor(np.zeros((5,) * 3)),
        "4ad0321c6c547cf39072a64f9a4cf6f549b342bb8b692aeb304227544b84bb92",
    ),
    "dense-3-5": (
        lambda: Tensor(np.ones((5,) * 3)),
        "19884f5f487a973810914780cc79990277dd5e8ca097b98fdce7d2d26e547a6f",
    ),
    "unit-3-5": (
        lambda: unit_pattern(3, 5),
        "987395ce73c031e186b9c20ac334eceeb33930a861ff99c74c265506d2cb3ca2",
    ),
    "eye-50": (
        lambda: Tensor(np.eye(50)),
        "a1f0db5519e058f7f8672a745e81132bc89352a21cb5508740ab7c80fa8609af",
    ),
    "cubic-10": (
        lambda: cubic_pattern(np.random.default_rng(24), 10),
        "4e526032cf8c4d0fe3cf2557f981775810b7638ccf3375e7d626af01d589e334",
    ),
    "two-triangles": (
        two_triangles,
        "d6ee8d07629b4e0b0a347780c0737cced1877cff7db61865f215f18fac951f73",
    ),
    "hexagon": (
        hexagon,
        "98c0c8ce3246896d5a13284aa8de74c4ac03fa551a2175f549f1fdc10ca6d2f1",
    ),
    "cycles-4": (
        lambda: Tensor(cycles_pair(0, 4)[0]),
        "9757e72df25ec2dcb85b47fef7566575ba23597fc96a4670c9681c81bab7363b",
    ),
    "sts-pg-2": (
        lambda: Tensor(sts_pg(2)),
        "a78929c01899c2946ddf4778ad462e5676e7e34bfab53af671485caabeab43b4",
    ),
    "sts-ag-2": (
        lambda: Tensor(sts_ag(2)),
        "37eeac984a65efac86a874eec08dee339999427d32fe0dcb927744c3956036b1",
    ),
    "sts-pg-3": (
        lambda: Tensor(sts_pg(3)),
        "f18a49be86f1d11f31b9f5143000e1b3cf3cebe140df11fb1967ffd430e1a593",
    ),
    "sts-ag-3": (
        lambda: Tensor(sts_ag(3)),
        "d3bb68c1f5f9ad3c08c3bf28c227f5ce87e303513b09e34eea5cae3f642249ce",
    ),
}


class TestHashGoldens:
    @pytest.mark.parametrize("name", list(HASH_GOLDENS))
    def test_frozen_digest(self, name):
        make, digest = HASH_GOLDENS[name]
        assert canonical_pattern_hash(make()) == digest


#: The Steiner triple systems and the orders of their automorphism groups:
#: PGL(3, 2), AGL(2, 3), PGL(4, 2) and AGL(3, 3).
STEINER = [("pg", 2, 168), ("ag", 2, 432), ("pg", 3, 20160), ("ag", 3, 303264)]


def steiner(kind, k):
    return Tensor(sts_pg(k) if kind == "pg" else sts_ag(k))


class TestSteinerTripleSystems:
    """Colour refinement leaves every point of a Steiner triple system in one
    cell, and the pattern has a large automorphism group: the hash must prune
    by orbits and jump back, and a decide that tells the pattern's
    relabelings apart by value alone walks every one of them."""

    @pytest.mark.parametrize("kind, k, order", STEINER)
    def test_hash_equal_on_relabeled_copies(self, kind, k, order):
        a = steiner(kind, k)
        rng = np.random.default_rng(k)
        for _ in range(2):
            assert canonical_pattern_hash(relabeled(a, rng.permutation(a.dim))) == HASH_GOLDENS[
                f"sts-{kind}-{k}"
            ][1]

    @pytest.mark.parametrize("kind, k, order", STEINER)
    def test_forward_pairs_are_similar(self, kind, k, order):
        a = steiner(kind, k)
        b = structured_transform(a, random_structured_witness(np.random.default_rng(k), 3, a.dim))
        w = decide_similar(a, b)
        assert w is not None
        assert max_abs_diff(structured_transform(a, w), b) <= 1e-8 * max(1.0, np.abs(b.data).max())

    @pytest.mark.parametrize("kind, k, order", STEINER[:2])
    def test_one_entry_set_to_two_is_not_similar(self, kind, k, order):
        # the six orders of one line hold exponent rows that sum to zero, so
        # the product of their values is invariant: 1 in a, 2 in b
        a = steiner(kind, k)
        data = relabeled(a, np.random.default_rng(k).permutation(a.dim)).data.copy()
        data[tuple(np.argwhere(data)[0])] = 2
        b = Tensor(data)
        assert sum(1 for _ in pattern_permutations(a, b)) == order  # every automorphism
        assert decide_similar(a, b) is None


class TestDeferredScalingSolve:
    """The per-support part of the scaling solve is built only once the
    pattern search yields a candidate."""

    @pytest.fixture
    def builds(self, monkeypatch):
        count = []

        class Counting(decision._ScalingSolve):
            def __init__(self, a):
                count.append(1)
                super().__init__(a)

        monkeypatch.setattr(decision, "_ScalingSolve", Counting)
        return count

    def test_no_build_without_a_candidate(self, builds):
        a = unit_tensor(3, 2)
        data = np.zeros((2, 2, 2), dtype=complex)
        data[0, 0, 0] = data[0, 1, 1] = 1.0  # nnz 2, but not a relabeling of Z(a)
        assert decide_similar(a, Tensor(data)) is None
        rng = np.random.default_rng(4)
        a = random_tensor(rng, 3, 12, density=0.05)
        b = Tensor(rng.permutation(a.data.ravel()).reshape(a.data.shape))  # scattered nonzeros
        assert decide_similar(a, b) is None
        assert builds == []

    def test_one_build_for_a_similar_pair(self, builds):
        rng = np.random.default_rng(6)
        a = random_tensor(rng, 3, 5, density=0.4)
        b = clean(structured_transform(a, random_structured_witness(rng, 3, 5)))
        assert decide_similar(a, b) is not None
        assert builds == [1]


class TestOneNonzeroScan:
    """Every pattern reader takes the nonzero list from ``Tensor.nonzeros``,
    so a tensor's entries are scanned for it at most once."""

    @pytest.fixture
    def scans(self, monkeypatch):
        shapes, argwhere = [], np.argwhere

        def counting(x):
            shapes.append(x.shape)
            return argwhere(x)

        monkeypatch.setattr(np, "argwhere", counting)
        return shapes

    @pytest.mark.parametrize("similar", [True, False])
    def test_decide_scans_each_tensor_once(self, scans, similar):
        rng = np.random.default_rng(21)
        a = random_tensor(rng, 3, 6, density=0.4)
        b = clean(structured_transform(a, random_structured_witness(rng, 3, 6)))
        if not similar:
            b = perturbed(b, tuple(b.nonzeros[0]), 1.5)
            scans.clear()
        assert (decide_similar(a, b) is not None) == similar
        assert len(scans) == 2  # a's list serves both the search and the solve
        assert (decide_similar(a, b) is not None) == similar
        assert len(scans) == 2

    def test_invariants_scan_once(self, scans):
        a = random_tensor(np.random.default_rng(22), 3, 5, density=0.3)
        similarity_invariants(a)
        assert len(scans) == 1


def answer(w):
    """A decision as comparable bytes: ``None``, or sigma and the bytes of d."""
    return None if w is None else (w.sigma.images, w.d.values.tobytes())


def state(v):
    """``v`` with every array, also inside tuples, lists and dicts, as its bytes."""
    if isinstance(v, np.ndarray):
        return v.dtype.str, v.shape, v.tobytes()
    if isinstance(v, (tuple, list)):
        return tuple(map(state, v))
    if isinstance(v, dict):
        return tuple((k, state(x)) for k, x in v.items())
    return v


class TestFullSupportCache:
    """A support with no zero entry depends on the shape alone, so its scaling
    solve is built once per shape and process and shared by every tensor of
    that shape; the values stay in the solve."""

    @staticmethod
    def dense_cases():
        """Per shape, m = 3..5 and n = 3..8: a complex and a real forward pair
        ``(a, b)``, each with ``bp``, ``b`` with ``b[n-1, 0, ..., 0]`` times 1.5."""
        for m in range(3, 6):
            for n in range(3, 9):
                seed = 10 * m + n
                for a, b in (seeded_forward_pair(seed, m, n, 1.0), map(Tensor, numpy_pair(seed, m, n, 1.0))):
                    yield a, b, perturbed(b, (n - 1,) + (0,) * (m - 1), 1.5)

    @classmethod
    def pairs(cls):
        """The pairs of :meth:`dense_cases`: same-shape tensors with other
        values follow one another, the forward pairs both ways."""
        for a, b, bp in cls.dense_cases():
            yield from [(a, b), (a, bp), (b, a)]

    def test_warm_answers_equal_cold_ones(self):
        pairs = list(self.pairs())
        cold = []
        for a, b in pairs:
            decision._full_supports.cache_clear()
            cold.append(answer(decide_similar(a, b)))
        decision._full_supports.cache_clear()
        warm = [answer(decide_similar(a, b)) for a, b in pairs]
        assert warm == cold
        assert [w is not None for w in warm] == [True, False, True] * 36
        info = decision._full_supports.cache_info()
        assert (info.misses, info.hits) == (18, len(pairs) - 18)

    def test_entry_holds_no_value(self):
        # the state built from one tensor equals, byte for byte, the state
        # built from another tensor of the shape
        a, b = seeded_forward_pair(0, 4, 5, 1.0)
        states = []
        for t in (a, b, Tensor(np.ones((5,) * 4))):
            s = decision._ScalingSolve(t)
            s.interp  # closes the lattice
            states.append(state(vars(s)))
        assert states[0] == states[1] == states[2]

    def test_one_zero_keeps_the_support_out(self):
        a, _ = seeded_forward_pair(1, 3, 5, 1.0)
        data = a.data.copy()
        data[1, 2, 3] = 0
        a = Tensor(data)
        b = clean(structured_transform(a, random_structured_witness(np.random.default_rng(1), 3, 5)))
        w = decide_similar(a, b)
        assert w is not None
        assert solve_diagonal(a, b, w.sigma) is not None
        info = decision._full_supports.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)

    def test_the_bound_holds(self):
        bound = decision._FULL_SHAPES
        for n in range(2, bound + 5):
            a, b = seeded_forward_pair(n, 3, n, 1.0)
            assert decide_similar(a, b) is not None
        info = decision._full_supports.cache_info()
        assert (info.maxsize, info.currsize, info.misses) == (bound, bound, bound + 3)
        a, b = seeded_forward_pair(2, 3, 2, 1.0)  # the least recently used shape was dropped
        assert decide_similar(a, b) is not None
        assert decision._full_supports.cache_info().misses == bound + 4

    @pytest.mark.parametrize("warm", [False, True])
    def test_solve_diagonal_agrees_with_decide(self, warm):
        for a, b, bp in self.dense_cases():
            if not warm:
                decision._full_supports.cache_clear()
            w = decide_similar(a, b)
            assert solve_diagonal(a, b, w.sigma).values.tobytes() == w.d.values.tobytes()
            assert decide_similar(a, bp) is None
            assert solve_diagonal(a, bp, w.sigma) is None

    def test_threads_share_an_entry(self):
        # threads decide pairs of one dense shape from an empty cache, so they
        # may build the entry and close its lattice at once (the second pass
        # of the join adds no row to a support with no zero entry, whose first
        # pass leaves every pivot +-1); every answer is the one a single
        # thread gives
        pairs = [seeded_forward_pair(seed, 3, 6, 1.0) for seed in range(8)]
        want = [answer(decide_similar(a, b)) for a, b in pairs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                decision._full_supports.cache_clear()
                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [pool.submit(decide_similar, a, b) for a, b in pairs]
                    got = [answer(f.result(timeout=60)) for f in futures]
                assert got == want
        finally:
            sys.setswitchinterval(interval)


class TestOracleFreeRelations:
    """Relations the structure theorem gives at every size, with no oracle:
    ``decide(A, B)`` and ``decide(B, A)`` agree, and the verdict stays when
    ``B`` is replaced by a random similar copy.  Dense pairs run warm, on the
    scaling solve kept for their shape."""

    @staticmethod
    def assert_relations(a, b, rng):
        c = clean(structured_transform(b, random_structured_witness(rng, a.order, a.dim)))
        verdicts = [decide_similar(x, y) is not None for x, y in ((a, b), (b, a), (a, c), (c, a))]
        assert len(set(verdicts)) == 1, verdicts
        return verdicts[0]

    @pytest.mark.parametrize("m, n", [(3, 6), (3, 7), (3, 8), (4, 5), (4, 6)])
    def test_dense_pairs(self, m, n):
        # 4 decides per pair, 50 forward and 50 perturbed pairs per shape
        for seed in range(50):
            rng = np.random.default_rng([m, n, seed])
            a = random_tensor(rng, m, n)
            b = clean(structured_transform(a, random_structured_witness(rng, m, n)))
            assert self.assert_relations(a, b, rng)
            self.assert_relations(a, perturbed(b, tuple(rng.integers(n, size=m)), 1.5), rng)
        assert decision._full_supports.cache_info().misses == 1

    @pytest.mark.parametrize("n, density", [(40, 0.05), (50, 0.03), (60, 0.02)])
    def test_sparse_forward_pairs(self, n, density):
        for seed in range(8):
            rng = np.random.default_rng([3, n, seed])
            a = random_tensor(rng, 3, n, density=density)
            b = clean(structured_transform(a, random_structured_witness(rng, 3, n)))
            assert self.assert_relations(a, b, rng)
