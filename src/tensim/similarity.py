"""Similarity transforms and the structure of unit-preserving witness pairs.

Two order-``m`` tensors ``A`` and ``B`` are similar when ``B = P A Q`` for a
matrix pair satisfying ``P I Q = I`` (``I`` the unit tensor of order ``m``).
For ``m >= 3`` every such pair factors through a permutation ``sigma`` and an
invertible diagonal matrix ``D``:

    Q = D R_sigma,    P = R_sigma^T D^(1-m)

so a witness is equivalently the structured pair ``(sigma, D)``.  This module
provides both representations, conversions between them, the elementary
transforms (permutation relabeling and diagonal scaling), and executable
checks of the identities every unit-preserving pair satisfies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Tensor, majorization_matrix, max_abs_diff, unit_tensor
from .errors import OrderError, ShapeError, WitnessError
from .product import general_product, left_matrix_product, right_matrix_product

#: Magnitude threshold for structural detection (which entries count as "the"
#: nonzero of a generalized permutation row).
STRUCTURAL_TOL = 1e-10

#: Default elementwise tolerance for equality of reconstructed matrices.
COMPARE_TOL = 1e-9

#: Diagonal entries smaller than this are treated as zero (not invertible).
_MIN_DIAGONAL_MAGNITUDE = 1e-300


def _int_pow(values: np.ndarray, exponent: int) -> np.ndarray:
    """Elementwise integer power by repeated multiplication.

    Negative exponents multiply the reciprocal; no log/exp is used, so exact
    integer exponents never hit a branch cut and exponent 0 gives exactly 1.
    """
    base = values if exponent >= 0 else 1.0 / values
    out = np.ones_like(values)
    for _ in range(abs(exponent)):
        out = out * base
    return out


@dataclass(frozen=True)
class Permutation:
    """A bijection of ``{1, ..., n}`` stored as the tuple of images.

    ``images[i-1]`` is the image of ``i``.  The matrix realization has a 1 in
    row ``i``, column ``sigma(i)``.
    """

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ShapeError(f"not a bijection of 1..{n}: {self.images}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Permutation(tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """Function composition: ``(self.compose(other))(i) = self(other(i))``.

        Relabeling twice multiplies the same way:
        ``permutation_transform(permutation_transform(A, s), t)`` equals
        ``permutation_transform(A, s.compose(t))``.
        """
        if self.n != other.n:
            raise ShapeError("cannot compose permutations of different sizes")
        return Permutation(tuple(self(other(i)) for i in range(1, self.n + 1)))

    def matrix(self) -> Tensor:
        data = np.zeros((self.n, self.n), dtype=np.complex128)
        for i, img in enumerate(self.images, start=1):
            data[i - 1, img - 1] = 1.0
        return Tensor(data)

    def zero_based(self) -> np.ndarray:
        """Images as a 0-based integer array, for numpy indexing."""
        return np.asarray(self.images, dtype=np.intp) - 1


class DiagonalScaling:
    """An invertible diagonal matrix, stored as its ``n`` nonzero entries."""

    __slots__ = ("_values",)

    def __init__(self, values):
        vals = np.asarray(values, dtype=np.complex128)
        if vals.ndim != 1 or vals.shape[0] < 1:
            raise ShapeError("diagonal scaling needs a 1-d vector of entries")
        if np.any(np.abs(vals) <= _MIN_DIAGONAL_MAGNITUDE):
            raise WitnessError("diagonal scaling entries must be nonzero")
        vals = vals.copy()
        vals.setflags(write=False)
        self._values = vals

    @classmethod
    def ones(cls, n: int) -> "DiagonalScaling":
        return cls(np.ones(n, dtype=np.complex128))

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def n(self) -> int:
        return self._values.shape[0]

    def matrix(self, exponent: int = 1) -> Tensor:
        """Matrix realization of ``D**exponent`` (integer powers only)."""
        return Tensor(np.diag(_int_pow(self._values, exponent)))

    def __repr__(self) -> str:
        return f"DiagonalScaling({self._values.tolist()!r})"


@dataclass(frozen=True)
class Witness:
    """A raw similarity witness: matrices ``(P, Q)`` intended for order ``m``.

    Nothing is enforced at construction; run :func:`check_unit_preserving`
    to test the defining identity ``P I Q = I``.
    """

    p: Tensor
    q: Tensor
    m: int

    def __post_init__(self):
        if self.p.order != 2 or self.q.order != 2:
            raise OrderError("witness members must be matrices")
        if self.p.dim != self.q.dim:
            raise ShapeError("witness matrices must share their dimension")
        if self.m < 2:
            raise OrderError("witness order must be at least 2")

    @property
    def dim(self) -> int:
        return self.p.dim


@dataclass(frozen=True)
class StructuredWitness:
    """The canonical form ``(sigma, D)`` of a unit-preserving pair, ``m >= 3``."""

    sigma: Permutation
    d: DiagonalScaling
    m: int

    def __post_init__(self):
        if self.m < 3:
            raise OrderError("structured witnesses exist only for order >= 3")
        if self.sigma.n != self.d.n:
            raise ShapeError("permutation and scaling sizes differ")

    @property
    def dim(self) -> int:
        return self.sigma.n


def check_unit_preserving(w: Witness, tol: float = STRUCTURAL_TOL) -> bool:
    """True iff ``P (I Q)`` equals the unit tensor of order ``w.m`` within ``tol``."""
    ident = unit_tensor(w.m, w.dim)
    image = left_matrix_product(w.p, general_product(ident, w.q))
    return max_abs_diff(image, ident) <= tol


def compose_witness(s: StructuredWitness) -> Witness:
    """Realize ``(sigma, D)`` as the matrix pair ``Q = D R_sigma``,
    ``P = R_sigma^T D^(1-m)``.  The result is always unit preserving."""
    n, m = s.dim, s.m
    d = s.d.values
    d_inv_pow = _int_pow(d, 1 - m)
    q = np.zeros((n, n), dtype=np.complex128)
    p = np.zeros((n, n), dtype=np.complex128)
    for i in range(1, n + 1):
        q[i - 1, s.sigma(i) - 1] = d[i - 1]
        p[s.sigma(i) - 1, i - 1] = d_inv_pow[i - 1]
    return Witness(Tensor(p), Tensor(q), m)


def decompose_witness(
    w: Witness,
    structural_tol: float = STRUCTURAL_TOL,
    compare_tol: float = COMPARE_TOL,
) -> StructuredWitness:
    """Recover ``(sigma, D)`` from a unit-preserving pair with ``m >= 3``.

    ``Q`` alone determines the answer: ``sigma(i)`` is the unique column of
    row ``i`` above the structural threshold and ``d_i`` is that entry.
    ``P`` is then *verified* against ``R_sigma^T D^(1-m)``; a mismatch is an
    error, not a repair.
    """
    if w.m < 3:
        raise OrderError("decomposition requires order >= 3")
    if not check_unit_preserving(w):
        raise WitnessError("witness is not unit preserving")
    qd = w.q.data
    n = w.dim
    images = []
    d = np.zeros(n, dtype=np.complex128)
    for i in range(n):
        cols = np.nonzero(np.abs(qd[i]) > structural_tol)[0]
        if cols.shape[0] != 1:
            raise WitnessError(
                f"row {i + 1} of Q has {cols.shape[0]} entries above {structural_tol}; "
                "expected exactly one"
            )
        images.append(int(cols[0]) + 1)
        d[i] = qd[i, cols[0]]
    if len(set(images)) != n:
        raise WitnessError("columns of Q selected twice; not a generalized permutation")
    s = StructuredWitness(Permutation(tuple(images)), DiagonalScaling(d), w.m)
    rebuilt = compose_witness(s)
    if max_abs_diff(rebuilt.p, w.p) > compare_tol or max_abs_diff(rebuilt.q, w.q) > compare_tol:
        raise WitnessError("P is inconsistent with the structure read from Q")
    return s


@dataclass(frozen=True)
class WitnessStructureReport:
    """Result of the structural identity checks on a witness pair.

    ``tail_*`` concerns the image ``A = I Q``: every entry whose trailing
    indices are not all equal must vanish.  ``majorization_*`` checks that
    ``P`` inverts the majorization matrix of ``A``.
    """

    m: int
    dim: int
    tol: float
    unit_preserving: bool
    unit_deviation: float
    tail_max: float
    tail_ok: bool
    majorization_residual: float
    majorization_ok: bool

    @property
    def passed(self) -> bool:
        return self.tail_ok and self.majorization_ok

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "dim": self.dim,
            "tolerance": self.tol,
            "unit_preserving": self.unit_preserving,
            "unit_deviation": self.unit_deviation,
            "tail_zero_max": self.tail_max,
            "tail_zero_ok": self.tail_ok,
            "majorization_residual": self.majorization_residual,
            "majorization_ok": self.majorization_ok,
            "passed": self.passed,
        }


def witness_structure_report(w: Witness, tol: float = STRUCTURAL_TOL) -> WitnessStructureReport:
    """Run the two structural checks every unit-preserving pair must satisfy.

    Unlike :func:`decompose_witness` this never raises on a failing witness;
    it reports what holds and what does not.
    """
    n, m = w.dim, w.m
    ident = unit_tensor(m, n)
    image = general_product(ident, w.q)
    unit_dev = max_abs_diff(left_matrix_product(w.p, image), ident)

    off = image.data.copy()
    off[(slice(None),) + (np.arange(n),) * (m - 1)] = 0  # positions (i, j, ..., j)
    tail_max = float(np.max(np.abs(off)))

    maj = np.max(
        np.abs(w.p.data @ majorization_matrix(image).data - np.eye(n, dtype=np.complex128))
    )
    return WitnessStructureReport(
        m=m,
        dim=n,
        tol=tol,
        unit_preserving=unit_dev <= tol,
        unit_deviation=float(unit_dev),
        tail_max=tail_max,
        tail_ok=tail_max <= tol,
        majorization_residual=float(maj),
        majorization_ok=float(maj) <= tol,
    )


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------


def permutation_transform(a: Tensor, sigma: Permutation) -> Tensor:
    """Relabel all indices by ``sigma``: ``B = R_sigma A R_sigma^T``,
    entrywise ``B[i_1, ..., i_m] = a[sigma(i_1), ..., sigma(i_m)]``."""
    if sigma.n != a.dim:
        raise ShapeError("permutation size does not match tensor dimension")
    s0 = sigma.zero_based()
    return Tensor(a.data[np.ix_(*([s0] * a.order))])


def diagonal_transform(a: Tensor, scaling: DiagonalScaling) -> Tensor:
    """Scale by an invertible diagonal matrix: ``B = D^(1-m) A D``, entrywise

        B[i_1, ..., i_m] = a[i_1, ..., i_m] * d_{i_1}^(1-m) * d_{i_2} ... d_{i_m}

    The factor is ``d^(1-m)`` broadcast along the first slot times ``d``
    broadcast along each other slot.  Diagonal positions (net exponent zero)
    get the factor exactly 1, so they are exact fixed points, and a uniform
    scaling vector acts as the exact identity.
    """
    if a.order < 2:
        raise OrderError("diagonal similarity needs order >= 2")
    if scaling.n != a.dim:
        raise ShapeError("scaling size does not match tensor dimension")
    d = scaling.values
    if bool(np.all(d == d[0])):
        # gauge: c*I scales every entry by c^(1-m) * c^(m-1) = 1
        return Tensor(a.data)
    m = a.order
    factor = _int_pow(d, 1 - m).reshape((-1,) + (1,) * (m - 1))
    for slot in range(1, m):
        factor = factor * d.reshape((-1,) + (1,) * (m - 1 - slot))
    factor[(np.arange(a.dim),) * m] = 1.0
    return Tensor(a.data * factor)


def general_transform(a: Tensor, w: Witness, tol: float = STRUCTURAL_TOL) -> Tensor:
    """Apply a witness: ``B = P (A Q)``.

    For ``m >= 3`` the pair must be unit preserving; for ``m = 2`` the weaker
    classical requirement ``P Q = I`` applies (any invertible pair).
    """
    if a.order != w.m:
        raise ShapeError(f"witness is for order {w.m}, tensor has order {a.order}")
    if a.dim != w.dim:
        raise ShapeError("witness dimension does not match tensor dimension")
    if w.m == 2:
        pq = w.p.data @ w.q.data
        if np.max(np.abs(pq - np.eye(w.dim))) > tol:
            raise WitnessError("order-2 transform requires P Q = I")
    elif not check_unit_preserving(w, tol):
        raise WitnessError("witness is not unit preserving")
    return left_matrix_product(w.p, right_matrix_product(a, w.q))


def structured_transform(a: Tensor, s: StructuredWitness) -> Tensor:
    """Apply a structured witness through its factorization:
    diagonal scaling first, then the relabeling by ``sigma`` inverse, i.e.
    ``B = R_sigma^T (D^(1-m) A D) R_sigma``.

    Matches :func:`general_transform` on ``compose_witness(s)`` up to
    floating-point noise.
    """
    c = diagonal_transform(a, s.d)
    return permutation_transform(c, s.sigma.inverse())


def factor_similarity(
    a: Tensor, w: Witness
) -> tuple[Tensor, Permutation, DiagonalScaling]:
    """Split the similarity ``B = P A Q`` through the intermediate tensor
    ``C = D^(1-m) A D``: diagonal similarity takes ``A`` to ``C`` and the pure
    relabeling ``R_sigma^T C R_sigma`` takes ``C`` to ``B``.

    Returns ``(C, sigma, D)`` with ``(sigma, D)`` from
    :func:`decompose_witness`.
    """
    s = decompose_witness(w)
    c = diagonal_transform(a, s.d)
    return c, s.sigma, s.d


def witness_products(w: Witness) -> tuple[Tensor, Tensor]:
    """The two matrix products ``(Q P, P Q)`` of a unit-preserving pair.

    Both are diagonal for ``m >= 3``: ``Q P = D^(2-m)`` and
    ``P Q = R_sigma^T D^(2-m) R_sigma``.
    """
    decompose_witness(w)  # enforces m >= 3 and the structural preconditions
    qp = Tensor(w.q.data @ w.p.data)
    pq = Tensor(w.p.data @ w.q.data)
    return qp, pq
