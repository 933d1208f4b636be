"""Dense complex tensors: storage, distinguished tensors, pattern predicates.

A tensor of order ``m`` and dimension ``n`` is a dense hypercubic array of
``n**m`` complex scalars.  Entries are addressed by multi-indices
``(i_1, ..., i_m)`` with ``i_1`` most significant (row-major).  All file
formats and documentation use 1-based indices; the in-memory numpy array is
0-based as usual.

Tensors are immutable after construction, so every operation in this package
is a pure function and safe to call concurrently.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import EntryLimitError, OrderError, ShapeError

#: Dense storage budget: constructors refuse tensors with more scalars.
DEFAULT_ENTRY_LIMIT = 10**8

#: Default magnitude below which ``clean`` zeroes an entry.
DEFAULT_CLEAN_EPS = 1e-12


class Tensor:
    """Dense order-``m``, dimension-``n`` tensor over the complex numbers.

    Wraps a read-only ``numpy`` array of shape ``(n,) * m`` with dtype
    ``complex128``.  Order-2 tensors serve as matrices everywhere a matrix
    is expected.
    """

    __slots__ = ("_data",)

    def __init__(self, data, entry_limit: int = DEFAULT_ENTRY_LIMIT):
        arr = np.asarray(data, dtype=np.complex128, order="C")
        if arr.ndim == 0:
            raise ShapeError("a tensor needs at least one index (order >= 1)")
        n = arr.shape[0]
        if n < 1:
            raise ShapeError("dimension must be at least 1")
        if any(s != n for s in arr.shape):
            raise ShapeError(f"tensor must be hypercubic, got shape {arr.shape}")
        if arr.size > entry_limit:
            raise EntryLimitError(
                f"{arr.size} entries exceed the dense storage limit of {entry_limit}"
            )
        if arr is data or arr.base is not None:
            # the caller's own array or a view of one: own the entries, so
            # that no caller can mutate them afterwards
            arr = arr.copy()
        arr.setflags(write=False)
        self._data = arr

    @property
    def data(self) -> np.ndarray:
        """Read-only numpy view of the entries, shape ``(dim,) * order``."""
        return self._data

    @property
    def order(self) -> int:
        return self._data.ndim

    @property
    def dim(self) -> int:
        return self._data.shape[0]

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self._data, other._data))

    __hash__ = None  # mutable-free but equality is by value; keep unhashable

    def __repr__(self) -> str:
        return f"Tensor(order={self.order}, dim={self.dim}, nnz={nnz(self)})"


def unit_tensor(order: int, dim: int, entry_limit: int = DEFAULT_ENTRY_LIMIT) -> Tensor:
    """Generalized Kronecker delta: 1 where all indices agree, 0 elsewhere.

    For ``order == 2`` this is the identity matrix; for any order it has
    exactly ``dim`` nonzero entries.
    """
    if order < 1:
        raise OrderError("unit tensor needs order >= 1")
    if dim < 1:
        raise ShapeError("unit tensor needs dim >= 1")
    if dim**order > entry_limit:
        raise EntryLimitError(f"{dim}**{order} entries exceed the limit of {entry_limit}")
    data = np.zeros((dim,) * order, dtype=np.complex128)
    idx = np.arange(dim)
    data[(idx,) * order] = 1.0
    return Tensor(data, entry_limit=entry_limit)


def identity_matrix(dim: int) -> Tensor:
    """Identity matrix as an order-2 tensor."""
    return unit_tensor(2, dim)


def majorization_matrix(a: Tensor) -> Tensor:
    """The n-by-n matrix whose (i, j) entry is ``a[i, j, j, ..., j]``."""
    if a.order < 2:
        raise OrderError("majorization matrix needs order >= 2")
    j = np.arange(a.dim)
    data = a.data[(slice(None),) + (j,) * (a.order - 1)]
    return Tensor(data)


def zero_pattern(a: Tensor) -> Tensor:
    """0/1 tensor marking the positions of (exactly) nonzero entries.

    Comparison against zero is exact; run :func:`clean` first on tensors
    that were produced by floating-point arithmetic.
    """
    return Tensor((a.data != 0).astype(np.complex128))


def nnz(a: Tensor) -> int:
    """Number of entries that differ from zero exactly."""
    return int(np.count_nonzero(a.data))


def clean(a: Tensor, eps: float = DEFAULT_CLEAN_EPS) -> Tensor:
    """Zero out entries with magnitude strictly below ``eps``.

    Bridges floating-point noise and the exact-zero semantics of
    :func:`zero_pattern` and :func:`nnz`.
    """
    data = a.data.copy()
    data[np.abs(data) < eps] = 0.0
    return Tensor(data)


def is_upper_triangular(a: Tensor) -> bool:
    """True iff every entry with ``min(i_2, ..., i_m) < i_1`` is zero."""
    if a.order < 2:
        raise OrderError("triangularity needs order >= 2")
    j = np.argwhere(a.data != 0)
    return not np.any(j[:, 1:].min(axis=1) < j[:, 0])


def is_lower_triangular(a: Tensor) -> bool:
    """True iff every entry with ``max(i_2, ..., i_m) > i_1`` is zero."""
    if a.order < 2:
        raise OrderError("triangularity needs order >= 2")
    j = np.argwhere(a.data != 0)
    return not np.any(j[:, 1:].max(axis=1) > j[:, 0])


def is_diagonal(a: Tensor) -> bool:
    """True iff only entries of the form ``(i, i, ..., i)`` are nonzero."""
    if a.order < 2:
        raise OrderError("diagonality needs order >= 2")
    return int(np.count_nonzero(a.data[(np.arange(a.dim),) * a.order])) == nnz(a)


def diagonal_tensor(order: int, values: Sequence[complex]) -> Tensor:
    """Tensor with ``values`` on the positions ``(i, ..., i)`` and zeros elsewhere."""
    vals = np.asarray(values, dtype=np.complex128)
    if order < 2:
        raise OrderError("diagonal tensor needs order >= 2")
    n = vals.shape[0]
    data = np.zeros((n,) * order, dtype=np.complex128)
    idx = np.arange(n)
    data[(idx,) * order] = vals
    return Tensor(data)


# ---------------------------------------------------------------------------
# Matrix predicates (order-2 tensors)
# ---------------------------------------------------------------------------


def _matrix_data(m: Tensor) -> np.ndarray:
    if m.order != 2:
        raise OrderError("expected an order-2 tensor (matrix)")
    return m.data


def is_generalized_permutation(m: Tensor) -> bool:
    """Exactly one nonzero entry in every row and every column.

    Uses exact zero comparison, matching the pattern semantics of
    :func:`zero_pattern`.
    """
    data = _matrix_data(m)
    mask = data != 0
    return bool(np.all(mask.sum(axis=0) == 1) and np.all(mask.sum(axis=1) == 1))


def is_permutation_matrix(m: Tensor) -> bool:
    """Generalized permutation matrix whose nonzero entries all equal 1."""
    data = _matrix_data(m)
    if not is_generalized_permutation(m):
        return False
    return bool(np.all(data[data != 0] == 1))


def is_diagonal_matrix(m: Tensor) -> bool:
    data = _matrix_data(m)
    off = data[~np.eye(m.dim, dtype=bool)]
    return not np.any(off)


def is_invertible(m: Tensor, tol: float = 1e-10) -> bool:
    """True iff the smallest singular value exceeds ``tol``."""
    data = _matrix_data(m)
    smin = np.linalg.svd(data, compute_uv=False)[-1]
    return bool(smin > tol)


# ---------------------------------------------------------------------------
# Multi-index linearization (1-based external convention)
# ---------------------------------------------------------------------------


def multi_index_to_offset(index: Iterable[int], order: int, dim: int) -> int:
    """Row-major offset of a 1-based multi-index, ``i_1`` most significant."""
    idx = tuple(index)
    if len(idx) != order:
        raise ShapeError(f"expected {order} components, got {len(idx)}")
    offset = 0
    for c in idx:
        if not 1 <= c <= dim:
            raise ShapeError(f"index component {c} outside [1, {dim}]")
        offset = offset * dim + (c - 1)
    return offset


def offset_to_multi_index(offset: int, order: int, dim: int) -> tuple[int, ...]:
    """Inverse of :func:`multi_index_to_offset`."""
    if not 0 <= offset < dim**order:
        raise ShapeError(f"offset {offset} outside [0, {dim ** order})")
    out = []
    for _ in range(order):
        out.append(offset % dim + 1)
        offset //= dim
    return tuple(reversed(out))


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------


def max_abs_diff(a: Tensor, b: Tensor) -> float:
    """Largest elementwise absolute difference; infinity on shape mismatch."""
    if a.shape != b.shape:
        return float("inf")
    if a.data.size == 0:
        return 0.0
    return float(np.max(np.abs(a.data - b.data)))


def allclose(a: Tensor, b: Tensor, tol: float = 1e-9) -> bool:
    return max_abs_diff(a, b) <= tol
