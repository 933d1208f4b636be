"""Independent checks of tensim outputs.

Nothing here imports tensim.  Each check recomputes the expected answer
from the defining formulas with numpy and returns ``True`` only when the
program's output agrees.  ``selftest.py`` shows that every check rejects a
corrupted output.
"""

from __future__ import annotations

import json
import string

import numpy as np
from scipy.optimize import linear_sum_assignment

#: Reconstruction tolerance for witnesses, as a multiple of max(1, |B|_inf).
WITNESS_TOL = 1e-8

#: Tolerance for matching two dimension-2 spectra, relative to max(1, |root|).
SPECTRUM_TOL = 1e-6

#: Two pair products closer than this (relative) could be equal up to rounding.
PAIR_PRODUCT_GAP = 1e-6


def transform_closed_form(a: np.ndarray, sigma0, d) -> np.ndarray:
    """``B`` with ``B[sigma(j_1), ..., sigma(j_m)] = a[j] d_{j_1}^(1-m) d_{j_2} ... d_{j_m}``.

    ``sigma0`` holds the 0-based images of the witness permutation and ``d``
    the diagonal entries.  The scaling is built from one broadcast factor per
    index slot.
    """
    m, n = a.ndim, a.shape[0]
    d = np.asarray(d, dtype=np.complex128)
    factor = (d ** (1 - m)).reshape((n,) + (1,) * (m - 1))
    for slot in range(1, m):
        shape = [1] * m
        shape[slot] = n
        factor = factor * d.reshape(shape)
    out = np.empty_like(a)
    out[np.ix_(*([np.asarray(sigma0, dtype=np.intp)] * m))] = a * factor
    return out


def witness_rebuilds(a: np.ndarray, b: np.ndarray, sigma_images, d) -> bool:
    """A 1-based witness ``(sigma, d)`` takes ``a`` to ``b`` within WITNESS_TOL."""
    sigma0 = np.asarray(sigma_images, dtype=np.intp) - 1
    n = a.shape[0]
    if sigma0.shape != (n,) or sorted(sigma0.tolist()) != list(range(n)):
        return False
    d = np.asarray(d, dtype=np.complex128)
    if d.shape != (n,) or not np.all(np.isfinite(d)) or np.any(d == 0):
        return False
    rebuilt = transform_closed_form(a, sigma0, d)
    scale = max(1.0, float(np.max(np.abs(b))))
    return bool(np.max(np.abs(rebuilt - b)) <= WITNESS_TOL * scale)


def pair_products(a: np.ndarray) -> np.ndarray:
    """``a[i, j, ..., j] * a[j, i, ..., i]`` for every ``i < j``.

    Every similarity of order >= 3 maps this multiset onto itself: the
    scaling cancels within each product and a relabeling permutes the pairs.
    """
    m, n = a.ndim, a.shape[0]
    i, j = np.triu_indices(n, k=1)
    return a[(i,) + (j,) * (m - 1)] * a[(j,) + (i,) * (m - 1)]


def provably_not_similar(a: np.ndarray, b: np.ndarray) -> bool:
    """Some pair product of ``b`` is no rounding error away from every one of ``a``."""
    pa, pb = pair_products(a), pair_products(b)
    gap = np.abs(pb[:, None] - pa[None, :])
    scale = np.maximum(1e-300, np.abs(pb))[:, None]
    return bool(np.any(np.all(gap > PAIR_PRODUCT_GAP * scale, axis=1)))


# ---------------------------------------------------------------------------
# JSON documents printed by the command line
# ---------------------------------------------------------------------------


def _scalar(value) -> complex:
    if isinstance(value, list):
        return complex(value[0], value[1])
    return complex(value)


def decode_tensor(doc) -> np.ndarray:
    """Array of a tensor document in the documented dense or sparse format."""
    order, dim = doc["order"], doc["dim"]
    if doc["format"] == "sparse":
        out = np.zeros((dim,) * order, dtype=np.complex128)
        for entry in doc["entries"]:
            out[tuple(c - 1 for c in entry["idx"])] = _scalar(entry["val"])
        return out
    flat = doc["entries"]
    for _ in range(order - 1):
        flat = [x for sub in flat for x in sub]
    return np.array([_scalar(v) for v in flat], dtype=np.complex128).reshape((dim,) * order)


def encode_tensor(a: np.ndarray, fmt: str) -> dict:
    """Tensor document for ``a``; scalars are a number or ``[re, im]``."""

    def scalar(v):
        v = complex(v)
        return v.real if v.imag == 0.0 else [v.real, v.imag]

    doc = {"order": a.ndim, "dim": a.shape[0], "format": fmt}
    if fmt == "sparse":
        doc["entries"] = [
            {"idx": [int(c) + 1 for c in pos], "val": scalar(a[tuple(pos)])}
            for pos in np.argwhere(a != 0)
        ]
    else:
        doc["entries"] = np.vectorize(scalar, otypes=[object])(a).tolist()
    return doc


def product_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``D[i, alpha_1, ..., alpha_{m-1}] = sum a[i, i_2..i_m] b[i_2, alpha_1] ... b[i_m, alpha_{m-1}]``."""
    m, k, n = a.ndim, b.ndim, a.shape[0]
    letters = iter(string.ascii_letters)
    head = next(letters)
    tail = [next(letters) for _ in range(m - 1)]
    alphas = ["".join(next(letters) for _ in range(k - 1)) for _ in range(m - 1)]
    spec = (
        head + "".join(tail) + ","
        + ",".join(t + al for t, al in zip(tail, alphas))
        + "->" + head + "".join(alphas)
    )
    out = np.einsum(spec, a, *([b] * (m - 1)))
    return out.reshape((n,) * ((m - 1) * (k - 1) + 1))


def close(got: np.ndarray, want: np.ndarray, rtol: float = 1e-9) -> bool:
    if got.shape != want.shape:
        return False
    scale = max(1.0, float(np.max(np.abs(want))))
    return bool(np.max(np.abs(got - want)) <= rtol * scale)


def spectra_agree(r1, r2) -> bool:
    """Equal root multisets within SPECTRUM_TOL under an optimal matching."""
    a = np.array([_scalar(r) for r in r1], dtype=np.complex128)
    b = np.array([_scalar(r) for r in r2], dtype=np.complex128)
    if a.shape != b.shape or a.size == 0:
        return False
    cost = np.abs(a[:, None] - b[None, :]) / np.maximum(1.0, np.abs(a))[:, None]
    rows, cols = linear_sum_assignment(cost)
    return bool(cost[rows, cols].max() <= SPECTRUM_TOL)


def parse_stdout(text: str):
    """The single JSON document a command prints, or ``None``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None
