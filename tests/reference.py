"""Independent reference implementations used as test oracles.

Everything here is written against the defining formulas, as literal loops
or via a different algorithm than the library, so that the two routes can
disagree when one is wrong.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from tensim.core import Tensor, majorization_matrix, max_abs_diff, unit_tensor
from tensim.generate import random_permutation
from tensim.product import general_product, left_matrix_product
from tensim.similarity import DiagonalScaling, StructuredWitness


def naive_general_product(a: Tensor, b: Tensor) -> Tensor:
    """Literal summation of the product formula, one output entry at a time."""
    m, k, n = a.order, b.order, a.dim
    out_order = (m - 1) * (k - 1) + 1
    out = np.zeros((n,) * out_order, dtype=np.complex128)
    alphas = list(itertools.product(range(n), repeat=k - 1))
    for i in range(n):
        for alpha in itertools.product(alphas, repeat=m - 1):
            total = 0j
            for tail in itertools.product(range(n), repeat=m - 1):
                term = a.data[(i,) + tail]
                for t, it in enumerate(tail):
                    term *= b.data[(it,) + alpha[t]]
                total += term
            flat_alpha = tuple(c for block in alpha for c in block)
            out[(i,) + flat_alpha] = total
    return Tensor(out)


def dense_witness_report(p: Tensor, q: Tensor, m: int, tol: float) -> dict:
    """The fields of ``WitnessStructureReport.to_dict`` from the dense image
    ``P (I Q)``: the unit tensor of order ``m``, two general products, and the
    entries of ``I Q`` off the constant tails, all ``n**m`` of them."""
    n = q.dim
    ident = unit_tensor(m, n)
    image = general_product(ident, q)
    unit_dev = max_abs_diff(left_matrix_product(p, image), ident)
    off = image.data.copy()
    off[(slice(None),) + (np.arange(n),) * (m - 1)] = 0  # positions (i, j, ..., j)
    tail = float(np.max(np.abs(off)))
    maj = float(np.max(np.abs(p.data @ majorization_matrix(image).data - np.eye(n))))
    return {
        "m": m,
        "dim": n,
        "tolerance": tol,
        "unit_preserving": unit_dev <= tol,
        "unit_deviation": unit_dev,
        "tail_zero_max": tail,
        "tail_zero_ok": tail <= tol,
        "majorization_residual": maj,
        "majorization_ok": maj <= tol,
        "passed": tail <= tol and maj <= tol,
    }


def naive_diagonal_transform(a: Tensor, d: np.ndarray) -> Tensor:
    """Closed form ``a * d_{i1}^(1-m) * d_{i2} ... d_{im}``, per entry."""
    m = a.order
    out = np.zeros_like(a.data)
    for idx in itertools.product(range(a.dim), repeat=m):
        factor = d[idx[0]] ** (1 - m)
        for c in idx[1:]:
            factor *= d[c]
        out[idx] = a.data[idx] * factor
    return Tensor(out)


def naive_relabel(a: Tensor, images: tuple[int, ...]) -> Tensor:
    """``B[t] = a[sigma(t)]`` with ``images`` the 1-based image list."""
    out = np.zeros_like(a.data)
    for idx in itertools.product(range(a.dim), repeat=a.order):
        out[idx] = a.data[tuple(images[c] - 1 for c in idx)]
    return Tensor(out)


def brute_force_pattern_key(a: Tensor) -> bytes:
    """Lexicographically smallest row-major 0/1 encoding of ``Z(a)`` over all
    ``n!`` relabelings: equal for two tensors of one shape iff their patterns
    are relabelings of each other."""
    pattern = (a.data != 0).astype(np.uint8)
    return min(
        pattern[np.ix_(*([np.asarray(images)] * a.order))].tobytes()
        for images in itertools.permutations(range(a.dim))
    )


def binary_form_coeffs(a: Tensor) -> np.ndarray:
    """The two forms of a dimension-2 tensor, one tail at a time: row ``i``,
    column ``j`` sums ``a[i, t_2, ..., t_m]`` over the tails, in
    ``itertools.product`` order, with ``j`` indices equal to 2."""
    forms = np.zeros((2, a.order), dtype=np.complex128)
    for tail in itertools.product((0, 1), repeat=a.order - 1):
        forms[0, sum(tail)] += a.data[(0,) + tail]
        forms[1, sum(tail)] += a.data[(1,) + tail]
    return forms


def sylvester_resultant_dim2(a: Tensor, lam: complex) -> complex:
    """Resultant of the two binary forms of ``A x^(m-1) - lam x^[m-1]`` at
    dimension 2, as the determinant of their Sylvester matrix.

    Form ``i`` has coefficient ``sum a[i, t_2, ..., t_m]`` on
    ``x_1^(p-j) x_2^j``, summed over the tails with ``j`` indices equal to 2
    (``p = m - 1``); ``lam`` is subtracted from the ``x_1^p`` coefficient of
    the first form and the ``x_2^p`` coefficient of the second.
    """
    p = a.order - 1
    forms = binary_form_coeffs(a)
    forms[0][0] -= lam
    forms[1][p] -= lam
    mat = np.zeros((2 * p, 2 * p), dtype=np.complex128)
    for r in range(p):
        for j in range(p + 1):
            mat[r, r + j] = forms[0][j]
            mat[p + r, r + j] = forms[1][j]
    return complex(np.linalg.det(mat))


# ---------------------------------------------------------------------------
# Brute-force similarity oracle
# ---------------------------------------------------------------------------


def _left_null_basis(rows: list[list[int]]) -> list[list[int]]:
    """Integer basis of ``{z : z^T C = 0}`` via row reduction with a tracked
    unimodular transform.  Exact (arbitrary-precision integers)."""
    t = len(rows)
    if t == 0:
        return []
    n = len(rows[0])
    c = [list(r) for r in rows]
    u = [[1 if i == j else 0 for j in range(t)] for i in range(t)]
    used = [False] * t
    for col in range(n):
        while True:
            nzr = [i for i in range(t) if not used[i] and c[i][col] != 0]
            if len(nzr) <= 1:
                break
            nzr.sort(key=lambda i: abs(c[i][col]))
            i0, i1 = nzr[0], nzr[1]
            q = c[i1][col] // c[i0][col]
            for j in range(n):
                c[i1][j] -= q * c[i0][j]
            for j in range(t):
                u[i1][j] -= q * u[i0][j]
        nzr = [i for i in range(t) if not used[i] and c[i][col] != 0]
        if nzr:
            used[nzr[0]] = True
    return [u[i] for i in range(t) if not used[i] and all(v == 0 for v in c[i])]


def oracle_similar(a: Tensor, b: Tensor, tol: float = 1e-6) -> bool:
    """Brute-force similarity decision for small inputs.

    Enumerates every permutation; for each pattern match, the diagonal
    scaling exists iff every integer relation among the constraint exponent
    vectors is satisfied by the entry ratios (the multiplicative system over
    nonzero complex numbers is solvable exactly when it is consistent on the
    relations).  Relations are checked in log-magnitude and angle, which is
    free of branch choices.
    """
    m, n = a.order, a.dim
    nz_a = {tuple(int(c) for c in t) for t in np.argwhere(a.data != 0)}
    nz_b = [tuple(int(c) for c in t) for t in np.argwhere(b.data != 0)]
    if a.shape != b.shape or len(nz_a) != len(nz_b):
        return False
    for images in itertools.permutations(range(n)):
        mapped = [tuple(images[c] for c in t) for t in nz_b]
        if any(t not in nz_a for t in mapped):
            continue
        rows: list[list[int]] = []
        ratios: list[complex] = []
        for t, j in zip(nz_b, mapped):
            exps = [0] * n
            exps[j[0]] += 1 - m
            for c in j[1:]:
                exps[c] += 1
            rows.append(exps)
            ratios.append(complex(b.data[t]) / complex(a.data[j]))
        log_mags = [math.log(abs(r)) for r in ratios]
        angles = [math.atan2(r.imag, r.real) for r in ratios]
        consistent = True
        for z in _left_null_basis(rows):
            mag = sum(zi * lm for zi, lm in zip(z, log_mags))
            ang = sum(zi * an for zi, an in zip(z, angles))
            if abs(mag) > tol or abs(math.remainder(ang, 2.0 * math.pi)) > tol:
                consistent = False
                break
        if consistent:
            return True
    return False


def reference_echelon(m: np.ndarray, ncols: int | None = None) -> tuple[np.ndarray, list[int]]:
    """Row echelon form of the integer matrix ``m`` (overwritten) by Euclid's
    algorithm down each pivot column, and its pivot columns among the first
    ``ncols``; entries become Python integers before they could leave int64."""
    ncols = m.shape[1] if ncols is None else ncols
    pivots: list[int] = []
    c = 0
    while len(pivots) < m.shape[0]:
        top = len(pivots)
        ahead = np.flatnonzero(m[top:, c:ncols].any(axis=0))
        if ahead.size == 0:
            break
        c += int(ahead[0])
        while True:
            rows = top + np.flatnonzero(m[top:, c])
            p = rows[np.argmin(np.abs(m[rows, c]))]
            m[[top, p]] = m[[p, top]]
            rest = top + 1 + np.flatnonzero(m[top + 1 :, c])
            if rest.size == 0:
                break
            m[rest, c:] -= (m[rest, c] // m[top, c])[:, None] * m[top, c:]
            if m.dtype != object and np.abs(m[rest, c:]).max() >= 2**31:
                m = m.astype(object)
        pivots.append(c)
        c += 1
    return m, pivots


def _reference_outside(h: np.ndarray, pivots: list[int], rows: np.ndarray) -> np.ndarray:
    """Which integer ``rows`` the echelon basis ``h`` does not reduce to zero."""
    rows = rows.astype(h.dtype)
    for i, c in enumerate(pivots):
        rows[:, c:] -= (rows[:, c] // h[i, c])[:, None] * h[i, c:]
        if rows.dtype != object and np.abs(rows[:, c:]).max(initial=0) >= 2**31:
            rows = rows.astype(object)
    return rows.any(axis=1)


def reference_scaling_lattice(a: Tensor) -> tuple[np.ndarray, list[int], np.ndarray, np.ndarray]:
    """``(g_rows, p, interp, gram_inv)`` of the scaling solve of ``a``, built
    one nonzero at a time: the rows of the exponent matrix ``E`` are rebuilt
    for each candidate set, and ``E^T E`` is summed slot pair by slot pair."""
    m, n = a.order, a.dim
    j = np.argwhere(a.data != 0)
    w = np.array([1 - m] + [1] * (m - 1))

    def rows(nonzeros: np.ndarray) -> np.ndarray:
        e = np.zeros((len(nonzeros), n), dtype=np.int64, order="F")
        for slot, weight in enumerate(w):
            e[np.arange(len(nonzeros)), j[nonzeros, slot]] += weight
        return e

    tails = np.sort(j[:, 1:], axis=1)
    keys = np.ravel_multi_index((j[:, 0], *tails.T), a.shape)
    _, first = np.unique(keys, return_index=True)
    size = (tails[first] != j[first, :1]).sum(axis=1)
    candidates = first[np.argsort(size, kind="stable")]
    _, picked = reference_echelon(rows(candidates).T)
    g_rows = candidates[picked]
    outside = np.delete(candidates, picked)
    while True:
        eye = np.eye(len(g_rows), dtype=np.int64)
        hu, p = reference_echelon(np.hstack([rows(g_rows), eye]), n)
        h = hu[: len(p), :n]
        if np.all(np.abs(h[np.arange(len(p)), p]) == 1):
            break
        outside = outside[_reference_outside(h, p, rows(outside))]
        if not outside.size:
            break
        g_rows = np.append(g_rows, outside[0])
    interp = np.linalg.solve(h[:, p].astype(float), hu[: len(p), n:].astype(float))
    gram = sum(
        wi * wk * np.bincount(j[:, i] * n + j[:, k], minlength=n * n)
        for i, wi in enumerate(w)
        for k, wk in enumerate(w)
    ).reshape(n, n)
    return g_rows, p, interp, np.linalg.inv(gram[np.ix_(p, p)])


def numpy_pair(seed, m, n, density):
    """``(a, b)`` drawn with numpy alone: ``b[s(j)] = a[j] d_j1^(1-m) d_j2 ... d_jm``."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(1, 2, (n,) * m) * (rng.uniform(size=(n,) * m) < density)
    return a, _scaled_and_relabeled(rng, a)


def chain_pair(n, step):
    """``(a, b)`` at order 3 and dimension ``n``: ``a[i, i+1, i+1] = 1`` and
    ``b[i, i+1, i+1] = exp(step)`` for ``i < n - 1``, similar via
    ``log d_(i+1) - log d_i = step / 2``."""
    a, b = np.zeros((n,) * 3), np.zeros((n,) * 3)
    i = np.arange(n - 1)
    a[i, i + 1, i + 1], b[i, i + 1, i + 1] = 1.0, np.exp(step)
    return a, b


def cycles_pair(seed, c):
    """``(a, b)`` at order 3 and dimension ``3 c``: ``a`` holds ``c`` disjoint
    3-cycles, ``a[3t+k, 3t+(k+1)%3, 3t+(k+1)%3]`` drawn from ``U(1, 2)`` in
    order of ``(t, k)``, and ``b`` is made from it as :func:`numpy_pair`
    makes it."""
    rng = np.random.default_rng(seed)
    t, k = np.divmod(np.arange(3 * c), 3)
    head, tail = 3 * t + k, 3 * t + (k + 1) % 3
    a = np.zeros((3 * c,) * 3)
    a[head, tail, tail] = rng.uniform(1, 2, 3 * c)
    return a, _scaled_and_relabeled(rng, a)


def _scaled_and_relabeled(rng, a):
    """``b[s(j)] = a[j] d_j1^(1-m) d_j2 ... d_jm`` for ``d`` and ``s`` drawn
    from ``rng``."""
    m, n = a.ndim, a.shape[0]
    d, s = rng.uniform(0.5, 2, n), rng.permutation(n)
    c = a / d.reshape((n,) + (1,) * (m - 1)) ** (m - 1)
    for k in range(1, m):
        c = c * d.reshape((n,) + (1,) * (m - 1 - k))  # d along axis k
    b = np.empty_like(c)
    b[np.ix_(*[s] * m)] = c
    return b


def witness_in_range(rng, m, n, magnitudes):
    """The draws of ``tensim.generate.random_structured_witness`` (a
    permutation, log-uniform moduli, uniform phases), with the moduli
    log-uniform in ``magnitudes`` instead of ``(0.1, 10.0)``."""
    sigma = random_permutation(rng, n)
    lo, hi = np.log(magnitudes[0]), np.log(magnitudes[1])
    moduli = np.exp(rng.uniform(lo, hi, size=n))
    phases = np.exp(2j * np.pi * rng.uniform(size=n))
    return StructuredWitness(sigma, DiagonalScaling(moduli * phases), m)


def sts_pg(k):
    """The Steiner triple system of PG(k, 2) as a symmetric 0/1 order-3 tensor
    on the ``n = 2**(k+1) - 1`` nonzero vectors of F_2^(k+1), vector ``x``
    (read as a binary number) at label ``x - 1``: its lines are the triples
    ``{x, y, x xor y}``, each written in all six orders."""
    n = 2 ** (k + 1) - 1
    x, y = np.array([(x, y) for x in range(1, n + 1) for y in range(1, n + 1) if x != y]).T
    t = np.zeros((n,) * 3)
    t[x - 1, y - 1, (x ^ y) - 1] = 1
    return t


def sts_ag(k):
    """The Steiner triple system of AG(k, 3) as a symmetric 0/1 order-3 tensor
    on the ``n = 3**k`` vectors of F_3^k, vector ``x`` at the label whose
    base-3 digits it holds: its lines are the triples ``{x, y, -x-y}``, each
    written in all six orders."""
    n = 3**k
    digits = np.array(list(itertools.product(range(3), repeat=k))).reshape(n, k)
    x, y = np.array([(x, y) for x in range(n) for y in range(n) if x != y]).T
    z = (-digits[x] - digits[y]) % 3 @ 3 ** np.arange(k - 1, -1, -1)
    t = np.zeros((n,) * 3)
    t[x, y, z] = 1
    return t
