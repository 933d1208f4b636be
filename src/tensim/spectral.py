"""Characteristic polynomials and spectra for dimension-2 tensors.

An eigenpair of an order-``m`` tensor satisfies ``A x^(m-1) = lambda x^[m-1]``
componentwise, where ``x^[m-1]`` raises each component to the ``m-1`` power.
At dimension 2 the two components of ``A x^(m-1) - lambda x^[m-1]`` are binary
forms of degree ``m - 1`` in ``(x_1, x_2)``, and the characteristic polynomial
``phi(lambda)`` is their resultant: a polynomial of degree ``2*(m-1)`` whose
root multiset is the spectrum.  Similar tensors share ``phi`` up to a nonzero
constant factor.

The resultant is evaluated as a Sylvester determinant at ``2m - 1`` sample
points on a circle and recovered exactly by inverse discrete Fourier
transform, which keeps the interpolation well conditioned.

Dimensions 3 and up are refused: the corresponding resultants need Macaulay
machinery that is out of scope here.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from itertools import product as _iter_product

import numpy as np

from .core import Tensor
from .errors import OrderError, ShapeError, UnsupportedDimensionError
from .product import apply_to_vector
from .similarity import _int_pow

#: Roots closer than this (relative to the spectral scale) are averaged into
#: their cluster centroid, restoring the accuracy of multiple eigenvalues.
#: Companion-matrix estimates of a k-fold root split by roughly eps**(1/k),
#: which reaches the 1e-4 range for triple roots.
_CLUSTER_TOL = 1e-3

#: Default absolute tolerance for matching two spectra as multisets.
ROOT_MATCH_TOL = 1e-6


@dataclass(frozen=True)
class CharPoly:
    """Polynomial in one variable, coefficients lowest degree first."""

    coeffs: tuple[complex, ...]
    #: radius of the sampling circle used to interpolate the coefficients
    #: (None when the polynomial was not produced by interpolation)
    sample_radius: float | None = field(default=None, compare=False)

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
    m = a.order
    coeffs = np.zeros((2, m), dtype=np.complex128)
    for tail in _iter_product((0, 1), repeat=m - 1):
        j = sum(tail)
        coeffs[0, j] += a.data[(0,) + tail]
        coeffs[1, j] += a.data[(1,) + tail]
    return coeffs


def _sylvester_det(f: np.ndarray, g: np.ndarray) -> complex:
    """Resultant of two binary forms of the same formal degree ``p``,
    given as coefficient vectors of length ``p + 1``."""
    p = f.shape[0] - 1
    size = 2 * p
    mat = np.zeros((size, size), dtype=np.complex128)
    for r in range(p):
        mat[r, r : r + p + 1] = f
        mat[p + r, r : r + p + 1] = g
    return complex(np.linalg.det(mat))


def char_poly_dim2(a: Tensor) -> CharPoly:
    """Characteristic polynomial of a dimension-2 tensor of order ``m >= 2``.

    Order 2 falls back to the matrix characteristic polynomial
    ``lambda^2 - tr(A) lambda + det(A)``; for ``m >= 3`` the degree is
    exactly ``2*(m-1)`` (coefficient array of length ``2m - 1``).
    """
    if a.dim != 2:
        raise UnsupportedDimensionError(
            f"characteristic polynomials are implemented for dim 2 only, got {a.dim}"
        )
    if a.order < 2:
        raise OrderError("characteristic polynomial needs order >= 2")
    if a.order == 2:
        m = a.data
        tr = m[0, 0] + m[1, 1]
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        return CharPoly((complex(det), complex(-tr), 1.0 + 0j))
    coeffs, rho = _resultant_coefficients(a)
    return CharPoly(tuple(coeffs), sample_radius=rho)


def _interpolate_at_radius(forms: np.ndarray, p: int, rho: float) -> np.ndarray:
    """Coefficients of the resultant polynomial from ``2p + 1`` Sylvester
    determinants sampled on the circle of radius ``rho``.

    The samples sit at scaled roots of unity, so the Vandermonde system is a
    DFT and the degree <= 2p polynomial is recovered exactly.
    """
    nsamp = 2 * p + 1
    omega = cmath.exp(2j * cmath.pi / nsamp)
    samples = [rho * omega**k for k in range(nsamp)]
    assert len(set(samples)) == nsamp, "sample points must be distinct"
    dets = np.empty(nsamp, dtype=np.complex128)
    for k, lam in enumerate(samples):
        f = forms[0].copy()
        g = forms[1].copy()
        f[0] -= lam  # x_1^(m-1) term of the first form
        g[p] -= lam  # x_2^(m-1) term of the second form
        dets[k] = _sylvester_det(f, g)
    ks = np.arange(nsamp)
    coeffs = np.empty(nsamp, dtype=np.complex128)
    for j in range(nsamp):
        acc = np.sum(dets * np.exp(-2j * np.pi * j * ks / nsamp)) / nsamp
        coeffs[j] = acc / rho**j
    return coeffs


def _resultant_coefficients(a: Tensor) -> tuple[np.ndarray, float]:
    """Resultant coefficients with an adaptively chosen sampling radius.

    Starting from ``1 + max entry magnitude``, the radius is pulled toward
    the geometric mean of the root magnitudes, estimated from the ratio of
    the constant to the leading coefficient.  Sampling far from the root
    scale makes the determinant values dwarf the small coefficients (the
    absolute noise of the constant term grows like ``eps * rho**(2p)``), so
    a couple of refinement passes are essential when the entries are much
    larger than the eigenvalues, as happens after strong diagonal scalings.
    """
    m = a.order
    p = m - 1
    degree = 2 * p
    forms = _binary_form_coeffs(a)
    rho = 1.0 + float(np.max(np.abs(a.data)))
    coeffs = _interpolate_at_radius(forms, p, rho)
    for _ in range(5):
        c0, clead = abs(coeffs[0]), abs(coeffs[degree])
        if c0 == 0.0 or clead == 0.0:
            break
        estimate = (c0 / clead) ** (1.0 / degree)
        estimate = min(max(estimate, 1e-6), 1e6)
        if 0.5 <= estimate / rho <= 2.0:
            break
        rho = estimate
        coeffs = _interpolate_at_radius(forms, p, rho)
    return coeffs, rho


def _cluster_roots(roots: np.ndarray, tol: float) -> np.ndarray:
    """Average runs of near-coincident roots into their centroid.

    The centroid of the cluster produced by a perturbed multiple root is far
    more accurate than any individual member.
    """
    if roots.size == 0:
        return roots
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


def spectrum_dim2(a: Tensor, cluster_tol: float = _CLUSTER_TOL) -> list[complex] | None:
    """Root multiset of the characteristic polynomial, canonically sorted
    (by real part, then imaginary part).

    Returns ``None`` for a degenerate tensor whose polynomial vanishes
    identically (every scalar would be an eigenvalue).
    """
    cp = char_poly_dim2(a)
    arr = np.asarray(cp.coeffs, dtype=np.complex128)
    scale = float(np.max(np.abs(arr)))
    if scale == 0.0:
        return None
    high_first = arr[::-1].copy()
    high_first[np.abs(high_first) <= 1e-12 * scale] = 0.0
    lead = np.nonzero(high_first)[0]
    high_first = high_first[lead[0] :]
    if high_first.shape[0] <= 1:
        return []
    roots = np.roots(high_first)
    radius = cluster_tol * (1.0 + float(np.max(np.abs(roots))))
    roots = _cluster_roots(roots, radius)
    order = np.lexsort((roots.imag, roots.real))
    return [complex(r) for r in roots[order]]


def eigen_residual(a: Tensor, lam: complex, x) -> float:
    """Sup-norm residual of the eigen equation at ``(lam, x)``:
    ``|A x^(m-1) - lam * x^[m-1]|_inf``."""
    vec = np.asarray(x, dtype=np.complex128)
    if not np.any(vec):
        raise ShapeError("eigenvector candidate must be nonzero")
    powered = _int_pow(vec, a.order - 1)
    return float(np.max(np.abs(apply_to_vector(a, vec) - lam * powered)))


def eigenvector_dim2(a: Tensor, lam: complex, newton_steps: int = 3) -> np.ndarray:
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
            for t in np.roots(trimmed):
                candidates.append(np.array([t, 1.0], dtype=np.complex128))
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
        poly = f
        dpoly = np.array([(p - j) * poly[j] for j in range(p)], dtype=np.complex128)
        for _ in range(newton_steps):
            val = np.polyval(poly, t)
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
