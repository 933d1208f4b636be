"""Characteristic polynomials and spectra for dimension-2 tensors.

An eigenpair of an order-``m`` tensor satisfies ``A x^(m-1) = lambda x^[m-1]``
componentwise, where ``x^[m-1]`` raises each component to the ``m-1`` power.
At dimension 2 the two components of ``A x^(m-1) - lambda x^[m-1]`` are binary
forms of degree ``m - 1`` in ``(x_1, x_2)``, and the characteristic polynomial
``phi(lambda)`` is their resultant: a polynomial of degree ``2*(m-1)`` whose
root multiset is the spectrum.  Similar tensors share ``phi`` up to a nonzero
constant factor.

The resultant is the determinant of the Sylvester matrix of the two forms.
The shift by ``lambda`` touches only the ``x_1^(m-1)`` coefficient of the first
form and the ``x_2^(m-1)`` coefficient of the second, and those sit on the
diagonal of the Sylvester matrix ``S`` of the unshifted forms.  So
``phi(lambda) = det(S - lambda I)`` is the (monic) characteristic polynomial
of ``S``, and the spectrum is the eigenvalue multiset of ``S``.  At order 2,
``S`` is ``A`` itself.

Dimensions 3 and up are refused: the corresponding resultants need Macaulay
machinery that is out of scope here.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .core import Tensor
from .errors import OrderError, ShapeError, UnsupportedDimensionError
from .product import apply_to_vector
from .similarity import _int_pow

#: Roots closer than this (relative to the spectral scale) are averaged into
#: their cluster centroid, restoring the accuracy of multiple eigenvalues.
#: Computed eigenvalues of a defective k-fold eigenvalue split by roughly
#: eps**(1/k), which reaches the 1e-4 range for triple roots.
_CLUSTER_TOL = 1e-3

#: Newton steps that polish an eigenvector's affine root in :func:`eigenvector_dim2`.
_NEWTON_STEPS = 3

#: Default absolute tolerance for matching two spectra as multisets.
ROOT_MATCH_TOL = 1e-6


@dataclass(frozen=True)
class CharPoly:
    """Polynomial in one variable, coefficients lowest degree first."""

    coeffs: tuple[complex, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, lam: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * lam + c
        return acc


def _binary_form_coeffs(a: Tensor) -> np.ndarray:
    """Coefficient table of the two forms ``(A x^(m-1))_i``.

    Row ``i`` holds coefficients ``c[i, j]`` of ``x_1^(m-1-j) x_2^j``.
    """
    weight = np.zeros(1, dtype=np.intp)  # the power of x_2 of each tail, in C order
    for _ in range(a.order - 1):
        weight = np.concatenate((weight, weight + 1))
    coeffs = np.zeros((2, a.order), dtype=np.complex128)
    # unbuffered, in tail order: the same sums as adding one tail at a time
    np.add.at(coeffs, (np.arange(2)[:, None], weight), a.data.reshape(2, -1))
    return coeffs


def _sylvester_matrix(a: Tensor) -> np.ndarray:
    """Sylvester matrix ``S`` of the two forms of a dimension-2 tensor, with
    ``phi(lambda) = det(S - lambda I)``."""
    if a.dim != 2:
        raise UnsupportedDimensionError(
            f"characteristic polynomials are implemented for dim 2 only, got {a.dim}"
        )
    if a.order < 2:
        raise OrderError("characteristic polynomial needs order >= 2")
    forms = _binary_form_coeffs(a)
    p = a.order - 1
    s = np.zeros((2 * p, 2 * p), dtype=np.complex128)
    for r in range(p):
        s[r, r : r + p + 1] = forms[0]
        s[p + r, r : r + p + 1] = forms[1]
    return s


def char_poly_dim2(a: Tensor) -> CharPoly:
    """Characteristic polynomial of a dimension-2 tensor of order ``m >= 2``.

    Monic of degree exactly ``2*(m-1)`` (coefficient array of length
    ``2m - 1``).  Order 2 gives the matrix characteristic polynomial
    ``lambda^2 - tr(A) lambda + det(A)`` in closed form.  When the binary
    forms overflow, the coefficients are not finite, as the entries of
    :func:`~tensim.product.general_product` past the float range are.
    """
    return _char_poly_and_spectrum(a)[0]


def _cluster_roots(roots: np.ndarray, tol: float) -> np.ndarray:
    """Average runs of near-coincident roots into their centroid.

    The centroid of the cluster produced by a perturbed multiple root is far
    more accurate than any individual member.
    """
    order = np.lexsort((roots.imag, roots.real))
    rs = roots[order]
    out = np.empty_like(rs)
    i = 0
    pos = 0
    while i < rs.size:
        j = i + 1
        while j < rs.size and abs(rs[j] - rs[j - 1]) <= tol:
            j += 1
        centroid = rs[i:j].mean()
        out[pos : pos + (j - i)] = centroid
        pos += j - i
        i = j
    return out


def spectrum_dim2(a: Tensor) -> list[complex]:
    """Root multiset of the characteristic polynomial, canonically sorted
    (by real part, then imaginary part): the ``2*(m-1)`` eigenvalues of the
    Sylvester matrix, with near-coincident ones clustered; NaN when the
    binary forms overflow."""
    return _char_poly_and_spectrum(a)[1]


@np.errstate(over="ignore", invalid="ignore")  # past the float range: not finite, no warning
def _char_poly_and_spectrum(a: Tensor) -> tuple[CharPoly, list[complex]]:
    """:func:`char_poly_dim2` and :func:`spectrum_dim2` from one eigenvalue
    computation of the Sylvester matrix.  Past the float range no finite
    polynomial exists, and where LAPACK's eigenvalue iteration does not
    converge there are no roots to trust: the coefficients and roots are then
    not finite."""
    s = _sylvester_matrix(a)
    roots = np.full(len(s), np.nan + 0j)
    if np.isfinite(s).all():
        with suppress(np.linalg.LinAlgError):  # "Eigenvalues did not converge"
            roots = np.linalg.eigvals(s)
    if a.order == 2:
        m = a.data
        tr = m[0, 0] + m[1, 1]
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        cp = CharPoly((complex(det), complex(-tr), 1.0 + 0j))
    else:
        # np.poly(S) is np.poly(eigvals(S))
        cp = CharPoly(tuple(complex(c) for c in np.poly(roots)[::-1]))
    radius = _CLUSTER_TOL * (1.0 + float(np.max(np.abs(roots))))
    roots = _cluster_roots(roots, radius)
    order = np.lexsort((roots.imag, roots.real))
    return cp, [complex(r) for r in roots[order]]


def eigen_residual(a: Tensor, lam: complex, x) -> float:
    """Sup-norm residual of the eigen equation at ``(lam, x)``:
    ``|A x^(m-1) - lam * x^[m-1]|_inf``."""
    vec = np.asarray(x, dtype=np.complex128)
    if not np.any(vec):
        raise ShapeError("eigenvector candidate must be nonzero")
    powered = _int_pow(vec, a.order - 1)
    return float(np.max(np.abs(apply_to_vector(a, vec) - lam * powered)))


def eigenvector_dim2(a: Tensor, lam: complex) -> np.ndarray:
    """An eigenvector for a spectrum element of a dimension-2 tensor.

    Solves the first form ``f_1(x_1, 1) = 0`` for its roots, picks the one on
    which the second form is smallest, and polishes with a few Newton steps.
    A vanishing leading block signals the projective root ``(1, 0)``.
    """
    if a.dim != 2:
        raise UnsupportedDimensionError("eigenvector recovery is dim-2 only")
    if a.order < 3:
        raise OrderError("eigenvector recovery expects order >= 3")
    p = a.order - 1
    forms = _binary_form_coeffs(a)
    f = forms[0].copy()
    g = forms[1].copy()
    f[0] -= lam
    g[p] -= lam
    # candidates from f's affine roots (x_2 = 1), plus the point at infinity
    candidates: list[np.ndarray] = []
    if np.any(np.abs(f) > 0):
        trimmed = np.trim_zeros(f, trim="f")
        if trimmed.shape[0] > 1:
            candidates.extend(np.column_stack((np.roots(trimmed), np.ones(trimmed.shape[0] - 1))))
    candidates.append(np.array([1.0, 0.0], dtype=np.complex128))

    def form_value(coeffs: np.ndarray, vec: np.ndarray) -> complex:
        total = 0j
        for j, c in enumerate(coeffs):
            total += c * vec[0] ** (p - j) * vec[1] ** j
        return total

    best = min(candidates, key=lambda v: abs(form_value(g, v)) + abs(form_value(f, v)))
    if best[1] != 0:
        # Newton polish on f(t, 1)
        t = best[0]
        dpoly = np.array([(p - j) * f[j] for j in range(p)], dtype=np.complex128)
        for _ in range(_NEWTON_STEPS):
            val = np.polyval(f, t)
            dval = np.polyval(dpoly, t)
            if dval == 0:
                break
            t = t - val / dval
        best = np.array([t, 1.0], dtype=np.complex128)
    norm = np.max(np.abs(best))
    return best / norm


def charpoly_distance(p1: CharPoly, p2: CharPoly) -> float:
    """Coefficientwise distance between the polynomials up to a nonzero
    constant factor.

    Both coefficient vectors are scaled to unit max magnitude, then the
    second is aligned to the first by the least-squares optimal complex
    scalar.  The result is the largest remaining coefficient difference,
    relative to the polynomial scale; it is zero exactly when the
    polynomials are proportional.
    """
    u = np.asarray(p1.coeffs, dtype=np.complex128)
    v = np.asarray(p2.coeffs, dtype=np.complex128)
    if u.shape != v.shape:
        return float("inf")
    su, sv = float(np.max(np.abs(u))), float(np.max(np.abs(v)))
    if su == 0.0 or sv == 0.0:
        return 0.0 if su == sv else float("inf")
    u = u / su
    v = v / sv
    mu = np.vdot(v, u) / np.vdot(v, v)
    return float(np.max(np.abs(u - mu * v)))


def charpolys_equivalent(p1: CharPoly, p2: CharPoly, rtol: float = 1e-7) -> bool:
    """True iff the two polynomials agree coefficientwise within ``rtol``
    after normalization (see :func:`charpoly_distance`)."""
    return charpoly_distance(p1, p2) <= rtol


def spectra_match(r1, r2, atol: float = ROOT_MATCH_TOL) -> bool:
    """Multiset equality of two root lists under optimal matching.

    Greedy pairing on the canonical sort is verified against the optimal
    assignment cost, guarding against order flips near ties.
    """
    a = np.asarray(r1, dtype=np.complex128)
    b = np.asarray(r2, dtype=np.complex128)
    if a.shape != b.shape:
        return False
    if a.size == 0:
        return True
    a = a[np.lexsort((a.imag, a.real))]
    b = b[np.lexsort((b.imag, b.real))]
    if float(np.max(np.abs(a - b))) <= atol:
        return True
    # imported here: scipy.optimize takes longer to import than all of tensim
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max()) <= atol
