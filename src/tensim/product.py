"""The general tensor product and its matrix/vector special cases.

For an order-``m`` tensor ``A`` and an order-``k`` tensor ``B`` of the same
dimension ``n``, the product is the order ``(m-1)*(k-1) + 1`` tensor ``D``
with

    D[i, a_1, ..., a_{m-1}] = sum over i_2..i_m of
        A[i, i_2, ..., i_m] * B[i_2, a_1] * ... * B[i_m, a_{m-1}]

where each ``a_t`` ranges over ``[n]**(k-1)``.  Multiplying by a matrix on
the left or right (``k = 2``) preserves the order; applying to a vector
(``k = 1``) contracts down to a vector.

The contraction is evaluated as a fixed sequence of single-mode matrix
contractions, which is deterministic for given inputs.
"""

from __future__ import annotations

import numpy as np

from .core import Tensor, _check_size
from .errors import OrderError, ShapeError


def general_product(a: Tensor, b: Tensor) -> Tensor:
    """Product of an order-``m >= 2`` tensor with an order-``k >= 1`` tensor."""
    if a.order < 2:
        raise OrderError("left operand must have order >= 2")
    if b.order < 1:
        raise OrderError("right operand must have order >= 1")
    if a.dim != b.dim:
        raise ShapeError(f"dimension mismatch: {a.dim} vs {b.dim}")
    n = a.dim
    m, k = a.order, b.order
    out_order = (m - 1) * (k - 1) + 1
    _check_size(out_order, n)
    # b_flat[j, a] = B[j, a] with a running row-major over the trailing k-1 slots
    b_flat = b.data.reshape(n, -1)
    out = a.data
    for _ in range(m - 1):
        # contract the leading remaining slot of A, appending one alpha block
        out = np.tensordot(out, b_flat, axes=([1], [0]))
    return Tensor(out.reshape((n,) * out_order))


def left_matrix_product(p: Tensor, a: Tensor) -> Tensor:
    """``P A`` for a matrix ``P``; the order of ``A`` is preserved."""
    if p.order != 2:
        raise OrderError("left factor must be a matrix (order 2)")
    return general_product(p, a)


def right_matrix_product(a: Tensor, q: Tensor) -> Tensor:
    """``A Q`` for a matrix ``Q``; the order of ``A`` is preserved."""
    if q.order != 2:
        raise OrderError("right factor must be a matrix (order 2)")
    return general_product(a, q)


def apply_to_vector(a: Tensor, x) -> np.ndarray:
    """Contract all trailing slots with a vector: component ``i`` equals
    ``sum a[i, i_2, ..., i_m] * x[i_2] * ... * x[i_m]``."""
    vec = np.asarray(x, dtype=np.complex128)
    if vec.ndim != 1:
        raise ShapeError("expected a 1-d vector")
    if vec.shape[0] != a.dim:
        raise ShapeError(f"vector length {vec.shape[0]} does not match dim {a.dim}")
    return general_product(a, Tensor(vec)).data.copy()
