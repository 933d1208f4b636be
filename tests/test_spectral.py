import cmath
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tensim
from tensim import (
    CharPoly,
    OrderError,
    ShapeError,
    Tensor,
    UnsupportedDimensionError,
    char_poly_dim2,
    charpolys_equivalent,
    diagonal_tensor,
    eigen_residual,
    eigenvector_dim2,
    spectra_match,
    spectrum_dim2,
    structured_transform,
    unit_tensor,
)
from tensim.generate import random_tensor
from tensim.spectral import _binary_form_coeffs, charpoly_distance

from reference import binary_form_coeffs, sylvester_resultant_dim2, witness_in_range


def poly_from_roots(roots):
    coeffs = np.poly(np.asarray(roots, dtype=complex))[::-1]
    return CharPoly(tuple(complex(c) for c in coeffs))


class TestCharPolyFrozen:
    def test_unit_tensor_order3(self):
        # oracle: Sylvester matrix is diagonal with entries (1 - lambda),
        # so phi = (1 - lambda)^4, i.e. (lambda - 1)^4 up to normalization
        cp = char_poly_dim2(unit_tensor(3, 2))
        assert cp.degree == 4
        assert charpoly_distance(cp, CharPoly((1, -4, 6, -4, 1))) < 1e-12

    def test_diagonal_order3(self):
        # oracle: resultant of (d1 - lambda) x1^2 and (d2 - lambda) x2^2
        # factors as ((lambda - d1)(lambda - d2))^2; expanded by hand
        cp = char_poly_dim2(diagonal_tensor(3, [2, 3]))
        assert charpoly_distance(cp, CharPoly((36, -60, 37, -10, 1))) < 1e-12

    def test_zero_tensor(self):
        cp = char_poly_dim2(Tensor(np.zeros((2, 2, 2))))
        assert charpoly_distance(cp, CharPoly((0, 0, 0, 0, 1))) < 1e-12

    def test_order2_delegates_to_matrix(self):
        cp = char_poly_dim2(Tensor([[1, 2], [0, 1]]))
        assert cp.degree == 2
        assert np.allclose(cp.coeffs, [1, -2, 1])

    def test_degree_law(self):
        rng = np.random.default_rng(0)
        for m in (3, 4, 5):
            cp = char_poly_dim2(random_tensor(rng, m, 2))
            assert cp.degree == 2 * (m - 1)
            assert len(cp.coeffs) == 2 * m - 1
            assert abs(cp.coeffs[-1]) > 1e-8  # leading resultant coefficient

    def test_rejects_other_dims(self):
        with pytest.raises(UnsupportedDimensionError):
            char_poly_dim2(unit_tensor(3, 3))

    def test_rejects_vectors(self):
        with pytest.raises(OrderError):
            char_poly_dim2(Tensor([1.0, 2.0]))


#: The witness magnitude ranges: the generators' default and a wide one.
WITNESS_RANGES = ((0.1, 10.0), (0.01, 100.0))


class TestSimilarityInvariance:
    def test_random_witness_pairs(self):
        rng = np.random.default_rng(1)
        for m in range(3, 9):
            for magnitudes in WITNESS_RANGES:
                for _ in range(10):
                    a = random_tensor(rng, m, 2)
                    s = witness_in_range(rng, m, 2, magnitudes)
                    b = structured_transform(a, s)
                    assert charpolys_equivalent(char_poly_dim2(a), char_poly_dim2(b), rtol=1e-7)

    def test_spectra_agree_too(self):
        rng = np.random.default_rng(2)
        for m in range(3, 9):
            for magnitudes in WITNESS_RANGES:
                for _ in range(10):
                    a = random_tensor(rng, m, 2)
                    s = witness_in_range(rng, m, 2, magnitudes)
                    b = structured_transform(a, s)
                    spec_a = spectrum_dim2(a)
                    atol = 1e-6 * max(1.0, float(np.max(np.abs(spec_a))))
                    assert spectra_match(spec_a, spectrum_dim2(b), atol=atol)


class TestSpectrum:
    def test_unit_tensor_all_ones(self):
        spec = spectrum_dim2(unit_tensor(3, 2))
        assert spectra_match(spec, [1, 1, 1, 1], atol=1e-6)

    def test_diagonal_ground_truth_frozen(self):
        for vals in ([2, 3], [1000, 1000], [1000, 2000]):
            spec = spectrum_dim2(diagonal_tensor(3, vals))
            expected = np.repeat(vals, 2)
            assert len(spec) == 4
            assert np.max(np.abs(np.asarray(spec) - expected)) < 1e-8 * max(vals)

    def test_diagonal_ground_truth_random(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            m = int(rng.choice([3, 4]))
            vals = np.exp(rng.uniform(np.log(0.1), np.log(10), 2))
            vals = vals * np.exp(2j * np.pi * rng.uniform(size=2))
            if abs(vals[0] - vals[1]) < 0.05 * (1 + max(abs(vals[0]), abs(vals[1]))):
                continue
            spec = spectrum_dim2(diagonal_tensor(m, vals))
            expected = sorted(
                [complex(vals[0])] * (m - 1) + [complex(vals[1])] * (m - 1),
                key=lambda z: (z.real, z.imag),
            )
            assert np.max(np.abs(np.asarray(spec) - expected)) < 1e-8

    def test_zero_tensor(self):
        spec = spectrum_dim2(Tensor(np.zeros((2, 2, 2))))
        assert spectra_match(spec, [0, 0, 0, 0], atol=1e-8)

    def test_multiplicity_count(self):
        rng = np.random.default_rng(4)
        for m in range(3, 9):
            for magnitudes in WITNESS_RANGES:
                for _ in range(5):
                    a = random_tensor(rng, m, 2)
                    b = structured_transform(a, witness_in_range(rng, m, 2, magnitudes))
                    assert len(spectrum_dim2(a)) == 2 * (m - 1)
                    assert len(spectrum_dim2(b)) == 2 * (m - 1)


class TestPastTheFloatRange:
    def test_overflowing_forms_give_non_finite_results(self):
        # the first form sums 1e308 + 1e308, past the float range: NaN, not a
        # LinAlgError, and no RuntimeWarning
        a = Tensor(np.array([[[1e308, 1e308], [1e308, 1e308]], [[0, 0], [0, 1]]]))
        cp, spectrum = char_poly_dim2(a), spectrum_dim2(a)
        assert cp.degree == 4 and len(spectrum) == 4
        assert not np.isfinite(cp.coeffs).all() and not np.isfinite(spectrum).any()

    def test_eigenvalues_that_do_not_converge_give_non_finite_results(self):
        # finite forms whose Sylvester matrix spans 1e20 .. 1e170: LAPACK's
        # iteration fails, and no root of S or of a transposed or scaled S is
        # trusted (the two disagree on the small root), so none is reported
        a = Tensor(np.array([[[0, 1e60], [-1e70, 1e20]], [[1e20, -1e170], [0, 1e70]]]))
        cp, spectrum = char_poly_dim2(a), spectrum_dim2(a)
        assert cp.degree == 4 and len(spectrum) == 4
        assert not np.isfinite(cp.coeffs).all() and not np.isfinite(spectrum).any()


class TestSylvesterResultant:
    def test_fresh_samples_match_determinant(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = int(rng.choice([3, 4]))
            a = random_tensor(rng, m, 2)
            cp = char_poly_dim2(a)
            for rho in (1.0, 1.0 + float(np.max(np.abs(a.data)))):
                for k in range(5):
                    lam = rho * cmath.exp(2j * cmath.pi * (k + 0.37) / 5)
                    direct = sylvester_resultant_dim2(a, lam)
                    assert abs(direct - cp(lam)) <= 1e-7 * max(1.0, abs(direct))


class TestBinaryForms:
    @pytest.mark.parametrize("m", range(2, 15))
    def test_bytes_match_the_per_tail_sums(self, m):
        rng = np.random.default_rng(m)
        for scale in (np.ones((2,) * m), 10.0 ** rng.integers(-8, 9, size=(2,) * m)):
            a = Tensor(scale * (rng.normal(size=(2,) * m) + 1j * rng.normal(size=(2,) * m)))
            assert _binary_form_coeffs(a).tobytes() == binary_form_coeffs(a).tobytes()


class TestEigenResidual:
    def test_unit_tensor(self):
        assert eigen_residual(unit_tensor(3, 2), 1.0, [1.0, 1.0]) == 0.0

    def test_decoupled_diagonal(self):
        assert eigen_residual(diagonal_tensor(3, [2, 3]), 2.0, [1.0, 0.0]) == 0.0

    def test_rejects_zero_vector(self):
        with pytest.raises(ShapeError):
            eigen_residual(unit_tensor(3, 2), 1.0, [0.0, 0.0])

    def test_back_substitution(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m = int(rng.choice([3, 4]))
            a = random_tensor(rng, m, 2)
            spec = spectrum_dim2(a)
            lam = spec[int(rng.integers(len(spec)))]
            x = eigenvector_dim2(a, lam)
            assert eigen_residual(a, lam, x) < 1e-6


class TestComparisonHelpers:
    def test_scaled_polynomials_are_equivalent(self):
        p = CharPoly((1, 2, 3))
        q = CharPoly((2j, 4j, 6j))
        assert charpolys_equivalent(p, q, rtol=1e-12)

    def test_different_polynomials_are_not(self):
        assert not charpolys_equivalent(CharPoly((1, 2, 3)), CharPoly((1, 2, 4)), rtol=1e-6)

    def test_spectra_match_permutation_insensitive(self):
        assert spectra_match([1 + 1j, 2], [2, 1 + 1j])

    def test_spectra_match_detects_difference(self):
        assert not spectra_match([1.0, 2.0], [1.0, 2.1], atol=1e-6)

    def test_spectra_match_near_ties(self):
        # canonical sort flips the order of near-tied roots; the optimal
        # assignment check must still match them up
        a = [1.0 + 1e-9j, 1.0 - 1e-9j]
        b = [1.0 - 1e-9j, 1.0 + 1e-9j]
        assert spectra_match(a, b, atol=1e-6)

    def test_spectra_match_pairs_across_a_sort_flip(self):
        # the real parts tie within 1e-9, so the sort pairs 1+1j with 1-1j;
        # only the optimal assignment finds the match
        a = [1.0 + 1j, 1.0 + 1e-9 - 1j]
        b = [1.0 + 1e-9 + 1j, 1.0 - 1j]
        assert spectra_match(a, b, atol=1e-6)
        assert not spectra_match(a, [1.0 + 1j, 1.0 + 1j], atol=1e-6)


def test_import_leaves_scipy_unloaded():
    env = {**os.environ, "PYTHONPATH": str(Path(tensim.__file__).parents[1])}
    code = "import sys, tensim, tensim.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
