"""Dense complex tensors: storage, distinguished tensors, pattern predicates.

A tensor of order ``m`` and dimension ``n`` is a dense hypercubic array of
``n**m`` complex scalars.  Entries are addressed by multi-indices
``(i_1, ..., i_m)`` with ``i_1`` most significant (row-major).  All file
formats and documentation use 1-based indices; the in-memory numpy array is
0-based as usual.

Every tensor passes one gate, ``Tensor.__init__``: it applies the size and
order rule of :func:`_check_size` and keeps a private read-only copy of the
entries.  So tensors are immutable, and every operation in this package is a
pure function and safe to call concurrently.  The one lazy part is
``Tensor.nonzeros``, the list of nonzero positions, computed at its first read
and kept: every pattern reader takes it from there, so a tensor is scanned
once.  Two threads that fill it at once each store an equal read-only array,
so the race is harmless.
"""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

from .errors import EntryLimitError, OrderError, ShapeError

#: Dense storage budget: constructors refuse tensors with more scalars.
DEFAULT_ENTRY_LIMIT = 10**8

#: Default magnitude below which ``clean`` zeroes an entry.
DEFAULT_CLEAN_EPS = 1e-12

_MAX_ORDER = 64  #: numpy's rank limit, the bound of a witness order.
_MAX_TENSOR_ORDER = 62  #: numpy indexes or ravels at most 63 arrays in one call.


def _check_size(order: int, dim: int) -> None:
    """The one size and order rule, applied by ``Tensor`` and, before they
    allocate, by the constructors and the reader: at most ``DEFAULT_ENTRY_LIMIT``
    entries and order at most 62, as the scaling solve ravels order + 1 axes.
    Past order 62, ``dim >= 2`` is past the entry limit too (``2**63``)."""
    if order > _MAX_TENSOR_ORDER and dim == 1:
        raise OrderError(f"order {order} is past the limit of {_MAX_TENSOR_ORDER}")
    if order > _MAX_TENSOR_ORDER or dim**order > DEFAULT_ENTRY_LIMIT:
        raise EntryLimitError(f"{dim}**{order} entries exceed the limit of {DEFAULT_ENTRY_LIMIT}")


class Tensor:
    """Dense order-``m``, dimension-``n`` tensor over the complex numbers.

    Wraps a read-only ``numpy`` array of shape ``(n,) * m`` with dtype
    ``complex128``.  Order-2 tensors serve as matrices everywhere a matrix
    is expected.
    """

    __slots__ = ("_data", "_nonzeros")

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.complex128)
        if arr.ndim == 0:
            raise ShapeError("a tensor needs at least one index (order >= 1)")
        n = arr.shape[0]
        if n < 1:
            raise ShapeError("dimension must be at least 1")
        if any(s != n for s in arr.shape):
            raise ShapeError(f"tensor must be hypercubic, got shape {arr.shape}")
        _check_size(arr.ndim, n)
        self._data, self._nonzeros = arr.copy(), None  # no caller can mutate the copy
        self._data.setflags(write=False)

    @property
    def data(self) -> np.ndarray:
        """Read-only numpy view of the entries, shape ``(dim,) * order``."""
        return self._data

    @property
    def nonzeros(self) -> np.ndarray:
        """Read-only ``(nnz, order)`` array of the 0-based indices of the
        exactly nonzero entries, in row-major order; scanned at first read."""
        if self._nonzeros is None:
            j = np.argwhere(self._data != 0)
            j.setflags(write=False)
            self._nonzeros = j
        return self._nonzeros

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


def _diagonal(order: int, values: np.ndarray) -> Tensor:
    """``values`` on the positions ``(i, ..., i)``; the size is checked before allocating."""
    dim, order = values.shape[0], operator.index(order)
    _check_size(order, dim)
    data = np.zeros((dim,) * order, dtype=np.complex128)
    data[(np.arange(dim),) * order] = values
    return Tensor(data)


def unit_tensor(order: int, dim: int) -> Tensor:
    """Generalized Kronecker delta: 1 where all indices agree, 0 elsewhere.

    For ``order == 2`` this is the identity matrix; for any order it has
    exactly ``dim`` nonzero entries, out of ``dim**order`` (see :func:`_check_size`).
    """
    if order < 1:
        raise OrderError("unit tensor needs order >= 1")
    if dim < 1:
        raise ShapeError("unit tensor needs dim >= 1")
    return _diagonal(order, np.ones(dim))


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
    return not np.any(a.nonzeros[:, 1:].min(axis=1) < a.nonzeros[:, 0])


def is_lower_triangular(a: Tensor) -> bool:
    """True iff every entry with ``max(i_2, ..., i_m) > i_1`` is zero."""
    if a.order < 2:
        raise OrderError("triangularity needs order >= 2")
    return not np.any(a.nonzeros[:, 1:].max(axis=1) > a.nonzeros[:, 0])


def is_diagonal(a: Tensor) -> bool:
    """True iff only entries of the form ``(i, i, ..., i)`` are nonzero."""
    if a.order < 2:
        raise OrderError("diagonality needs order >= 2")
    return int(np.count_nonzero(a.data[(np.arange(a.dim),) * a.order])) == nnz(a)


def diagonal_tensor(order: int, values: Sequence[complex]) -> Tensor:
    """Tensor with ``values`` on the positions ``(i, ..., i)`` and zeros elsewhere."""
    if order < 2:
        raise OrderError("diagonal tensor needs order >= 2")
    return _diagonal(order, np.asarray(values, dtype=np.complex128))


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


def is_diagonal_matrix(m: Tensor) -> bool:
    data = _matrix_data(m)
    off = data[~np.eye(m.dim, dtype=bool)]
    return not np.any(off)


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------


def max_abs_diff(a: Tensor, b: Tensor) -> float:
    """Largest elementwise absolute difference; infinity on shape mismatch."""
    if a.shape != b.shape:
        return float("inf")
    return float(np.max(np.abs(a.data - b.data)))
