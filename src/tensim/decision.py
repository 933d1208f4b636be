"""Deciding similarity of order ``m >= 3`` tensors, plus pattern-level search.

The decision procedure rests on the structure of witnesses: every similarity
is a diagonal scaling followed by a relabeling.  So ``A`` and ``B`` are
similar iff some permutation matches their zero patterns and the induced
multiplicative system on the diagonal entries is solvable:

    for every nonzero position t of B, with j = sigma^{-1}(t):
        b[t] = a[j] * d_{j_1}^(1-m) * d_{j_2} * ... * d_{j_m}

With ``x = log d`` each nonzero is one row of ``E x = log(b[t] / a[j])``
modulo ``2*pi*i``.  The integer exponent matrix ``E`` has rows summing to
zero (a global scalar is a gauge freedom) and depends only on the support
of ``A``, not on ``sigma``.  So :func:`decide_similar` builds it once and
then solves each candidate ``sigma`` with a few matrix-vector products:
``log|d|`` by real least squares, and the phases by interpolating them
through a basis of the integer lattice spanned by the rows of ``E``, each
basis row a known integer combination of rows of ``E``, then rounding every
row to whole turns and fitting least squares to the unwrapped phases.  The
basis comes from exact integer arithmetic on the exponents alone; no
floating-point value passes through it.  A candidate is accepted only if it
rebuilds every nonzero of ``B`` within the relative tolerance: that test,
not the solve, is the acceptance authority.

The candidates ``sigma`` come from a backtracking search over relabelings of
the zero pattern that checks each search node incrementally, against only
the nonzeros the newest label completes.  The search is also masked by
values: a diagonal position has net exponent zero, so it is a fixed point
of every scaling, and ``b[v..v]`` can only come from an ``a[w..w]`` equal
to it within the acceptance tolerance (the mask is exact for tolerances well
above ``1e-13``; below that, rounding of the rebuild can exceed the mask's
margin).  Dense tensors whose diagonal entries are pairwise distinct beyond
twice the tolerance so cost one solve instead of ``n!``; repeated diagonal
values leave several candidates per label, and their search still grows
with ``n!``.

Inputs are assumed to carry exact zeros; clean floating-point noise first
(see :func:`tensim.core.clean`).
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from .core import Tensor, is_diagonal, nnz
from .errors import OrderError, ShapeError
from .similarity import DiagonalScaling, Permutation, StructuredWitness

#: Largest relative error of a rebuilt nonzero of ``B`` that the decision
#: accepts.
DECISION_TOL = 1e-8


# ---------------------------------------------------------------------------
# Pattern matching
# ---------------------------------------------------------------------------


def pattern_permutations(
    a: Tensor, b: Tensor, *, allowed: np.ndarray | None = None
) -> Iterator[Permutation]:
    """Yield every ``pi`` relabeling the zero pattern of ``a`` onto that of
    ``b``: ``b[t] != 0`` iff ``a[pi(t_1), ..., pi(t_m)] != 0`` for every
    position ``t``.  The patterns are read from the nonzero lists alone.

    Backtracks over partial assignments in lexicographic order of the image
    tuple, pruning candidates whose per-vertex statistics disagree: the
    number of nonzeros led by the vertex, and the number of nonzero positions
    in which the vertex occurs among the trailing indices.  ``allowed``, a
    boolean ``n x n`` mask, further restricts label ``v`` of ``b`` (0-based)
    to the labels ``w`` of ``a`` with ``allowed[v][w]``; the result is the
    unmasked sequence with the excluded permutations dropped.

    Each node of the search is checked incrementally.  Assigning ``pi(v) = w``
    completes the nonzeros of ``b`` whose largest label is ``v``, and each
    must map onto a nonzero of ``a``; it completes the nonzeros of ``a``
    that contain ``w`` and whose other labels are already images, and there
    must be as many of those.  The parent node balanced the counts of all
    earlier nonzeros, so the whole assigned prefix then maps onto exactly the
    nonzeros of ``a`` among its images.
    """
    if a.shape != b.shape:
        return
    ja, jb = np.argwhere(a.data != 0), np.argwhere(b.data != 0)
    if len(ja) != len(jb):
        return
    n = a.dim

    def tail_counts(j: np.ndarray) -> np.ndarray:
        """Per label, the nonzeros in which it occurs among the trailing indices."""
        tails = np.sort(j[:, 1:], axis=1)
        first = np.ones(tails.shape, dtype=bool)
        first[:, 1:] = tails[:, 1:] != tails[:, :-1]
        return np.bincount(tails[first], minlength=n)

    ok = np.bincount(jb[:, 0], minlength=n)[:, None] == np.bincount(ja[:, 0], minlength=n)
    ok &= tail_counts(jb)[:, None] == tail_counts(ja)
    if allowed is not None:
        allowed = np.asarray(allowed, dtype=bool)
        if allowed.shape != (n, n):
            raise ShapeError(f"allowed mask must have shape ({n}, {n})")
        ok &= allowed
    if not ok.any(axis=1).all():
        return
    candidates = [np.flatnonzero(row).tolist() for row in ok]

    tuples_a = list(map(tuple, ja.tolist()))
    nz_a = set(tuples_a)
    closing_b: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for t in map(tuple, jb.tolist()):
        closing_b[max(t)].append(t)
    touching_a: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for t in tuples_a:
        for c in set(t):
            touching_a[c].append(t)

    assign = [0] * n  # 0-based image of each 0-based label assigned so far
    used = [False] * n
    # bound lookups for map(): half the time of generator expressions here
    image_of, is_used = assign.__getitem__, used.__getitem__

    def consistent(v: int, w: int) -> bool:
        closed = closing_b[v]
        for t in closed:
            if tuple(map(image_of, t)) not in nz_a:
                return False
        return len(closed) == sum(all(map(is_used, t)) for t in touching_a[w])

    def extend(v: int) -> Iterator[Permutation]:
        if v == n:
            yield Permutation(tuple(w + 1 for w in assign))
            return
        for w in candidates[v]:
            if used[w]:
                continue
            assign[v] = w
            used[w] = True
            if consistent(v, w):
                yield from extend(v + 1)
            used[w] = False

    yield from extend(0)


# ---------------------------------------------------------------------------
# The scaling solve
# ---------------------------------------------------------------------------


def _echelon(m: np.ndarray, ncols: int | None = None) -> tuple[np.ndarray, list[int]]:
    """Row echelon form of the integer matrix ``m`` (overwritten) by
    unimodular row operations, and its pivot columns among the first ``ncols``.

    Each pivot is reached by Euclid's algorithm down its column.  The entries
    become Python integers before a product could leave int64.
    """
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


def _outside(h: np.ndarray, pivots: list[int], rows: np.ndarray) -> np.ndarray:
    """Which of the integer ``rows`` lie outside the lattice spanned by the
    echelon form ``h``: those that integer multiples of ``h``'s rows, each
    leaving a remainder smaller than its pivot, do not reduce to zero."""
    rows = rows.astype(h.dtype)
    for i, c in enumerate(pivots):
        rows[:, c:] -= (rows[:, c] // h[i, c])[:, None] * h[i, c:]
        if rows.dtype != object and np.abs(rows[:, c:]).max(initial=0) >= 2**31:
            rows = rows.astype(object)
    return rows.any(axis=1)


class _ScalingSolve:
    """The part of the scaling solve that depends only on the support of ``A``.

    Row ``i`` of the exponent matrix ``E`` is the net exponent vector of
    ``A``'s ``i``-th nonzero ``j``: ``1 - m`` at label ``j_1`` and one more
    at each of ``j_2, ..., j_m``; it is held as the multi-indices and the
    slot weights.  A permutation ``sigma`` then asks for ``x = log d`` with
    ``E x = log(b[sigma(j)] / a[j])`` modulo ``2*pi*i`` on every row.

    The build does exact integer work on the exponents only.  It picks rows
    ``G`` of ``E`` that span the same integer lattice as all of ``E``: the
    first linearly independent rows in order of size, then, while some row
    of ``E`` is not an integer combination of ``G``, the first such row.
    An echelon form ``H = U G`` of ``G`` is a lattice basis whose rows are
    known integer combinations of rows of ``E``, so the phases of ``H x``
    follow from those of ``E x``, and ``H x`` in turn fixes the phase of
    every row of ``E`` modulo ``2*pi``.  The pivot columns ``P`` of ``H``
    are the labels solved for; the others are the gauge, with ``d = 1``.
    """

    def __init__(self, a: Tensor):
        m, n = a.order, a.dim
        nz = a.data != 0
        self.n = n
        self.j = np.argwhere(nz)
        self.a_vals = a.data[nz]
        self.w = np.array([1 - m] + [1] * (m - 1))
        # a row is fixed by its head and the multiset of its tail labels; its
        # L1 size is twice the number of tail labels other than the head.
        # Small rows first: they tend to span the whole row lattice, which
        # keeps G at one row per pivot.
        tails = np.sort(self.j[:, 1:], axis=1)
        keys = np.ravel_multi_index((self.j[:, 0], *tails.T), a.shape)
        _, first = np.unique(keys, return_index=True)
        size = (tails[first] != self.j[first, :1]).sum(axis=1)
        candidates = first[np.argsort(size, kind="stable")]
        _, picked = _echelon(self._rows(candidates).T)
        self.g_rows = candidates[picked]
        outside = np.delete(candidates, picked)
        while True:
            eye = np.eye(len(self.g_rows), dtype=np.int64)
            hu, self.p = _echelon(np.hstack([self._rows(self.g_rows), eye]), n)
            h = hu[: len(self.p), :n]
            if np.all(np.abs(h[np.arange(len(self.p)), self.p]) == 1):
                break  # unit pivots: L(G) holds every integer point of its span
            outside = outside[_outside(h, self.p, self._rows(outside))]
            if not outside.size:
                break
            self.g_rows = np.append(self.g_rows, outside[0])
        u = hu[: len(self.p), n:]
        self.interp = np.linalg.solve(h[:, self.p].astype(float), u.astype(float))
        gram = sum(
            wi * wk * np.bincount(self.j[:, i] * n + self.j[:, k], minlength=n * n)
            for i, wi in enumerate(self.w)
            for k, wk in enumerate(self.w)
        ).reshape(n, n)
        self.gram_inv = np.linalg.inv(gram[np.ix_(self.p, self.p)])

    def _rows(self, nonzeros: np.ndarray) -> np.ndarray:
        """The rows of ``E`` for the given nonzeros, as an integer matrix in
        Fortran order (the row selection works on its transpose)."""
        e = np.zeros((len(nonzeros), self.n), dtype=np.int64, order="F")
        rows = np.arange(len(nonzeros))
        for slot, weight in enumerate(self.w):
            e[rows, self.j[nonzeros, slot]] += weight
        return e

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """``E @ x``."""
        return x[self.j] @ self.w

    def _fit(self, v: np.ndarray) -> np.ndarray:
        """Least-squares ``x`` with ``E x = v``, zero off the pivot labels."""
        x = np.zeros(self.n)
        et_v = np.bincount(self.j.ravel(), (v[:, None] * self.w).ravel(), self.n)
        x[self.p] = self.gram_inv @ et_v[self.p]
        return x

    def solve(self, b: Tensor, sigma: Permutation, rtol: float) -> DiagonalScaling | None:
        b_vals = b.data[tuple(sigma.zero_based()[self.j].T)]
        if b_vals.size != np.count_nonzero(b.data) or not b_vals.all():
            return None
        ratio = b_vals / self.a_vals
        log_mag = self._fit(np.log(np.abs(ratio)))
        turns = np.angle(ratio) / (2.0 * np.pi)
        base = np.zeros(self.n)
        base[self.p] = self.interp @ turns[self.g_rows]
        wraps = np.rint(self._apply(base) - turns)
        x = log_mag + 2j * np.pi * self._fit(turns + wraps)
        rebuilt = self.a_vals * np.exp(self._apply(x))
        if np.all(np.abs(rebuilt - b_vals) <= rtol * np.abs(b_vals)):
            return DiagonalScaling(np.exp(x))
        return None


def solve_diagonal(
    a: Tensor, b: Tensor, sigma: Permutation, rtol: float = DECISION_TOL
) -> DiagonalScaling | None:
    """Find ``d`` with ``B = R_sigma^T (D^(1-m) A D) R_sigma`` or ``None``.

    The zero patterns must correspond under ``sigma``, and ``d`` must rebuild
    every nonzero of ``b`` within relative error ``rtol``.  The equations fix
    ``d`` up to the gauge only: a label whose column of the exponent matrix
    is a combination of the columns of lower labels gets ``d = 1``.  That
    includes every label in no nonzero of ``a`` and the highest label of
    each connected component, so an empty system gives the identity.
    """
    if a.order < 3:
        raise OrderError("diagonal solve applies to order >= 3")
    if a.shape != b.shape:
        raise ShapeError("tensors must share order and dimension")
    if sigma.n != a.dim:
        raise ShapeError("permutation size does not match tensor dimension")
    return _ScalingSolve(a).solve(b, sigma, rtol)


def decide_similar(a: Tensor, b: Tensor, rtol: float = DECISION_TOL) -> StructuredWitness | None:
    """Decide similarity of two order ``m >= 3`` tensors.

    Returns a structured witness whose transform reproduces every nonzero of
    ``b`` within relative error ``rtol`` (so every entry within
    ``rtol * max(1, |B|_inf)``), or ``None``.  The search enumerates the
    relabelings of the zero patterns, read from the nonzero lists
    (:func:`pattern_permutations`), in lexicographic order and returns the
    first that also admits a diagonal scaling (see :func:`solve_diagonal`),
    so the result is deterministic.  Inputs must carry exact zeros.

    Label ``v`` of ``b`` may map only to labels ``w`` of ``a`` with
    ``|b[v..v] - a[w..w]| <= 2 * rtol * |b[v..v]|`` (so a zero diagonal only
    to a zero diagonal).  For ``rtol`` well above ``1e-13`` the mask loses no
    witness: the diagonal row of the exponent matrix is zero, so the solve
    rebuilds ``a[w..w]`` up to a rounding factor ``exp(r)``, ``|r|`` of
    order ``m * ulp * |log d|`` (about ``1e-14``), and acceptance needs that
    within ``rtol * |b[v..v]|``; the factor 2 absorbs the rounding.  At
    smaller ``rtol`` the rounding can exceed that margin and the mask may
    drop a permutation the rebuild would accept.  The masked permutations
    are skipped, and the solve still decides every other one.
    """
    if a.order != b.order or a.dim != b.dim:
        raise ShapeError("tensors must share order and dimension")
    if a.order < 3:
        raise OrderError("the decision procedure applies to order >= 3")
    if nnz(a) != nnz(b):
        return None
    diag = (np.arange(a.dim),) * a.order
    a_diag, b_diag = a.data[diag], b.data[diag]
    allowed = np.abs(b_diag[:, None] - a_diag) <= 2 * rtol * np.abs(b_diag)[:, None]
    scaling = _ScalingSolve(a)
    for pi in pattern_permutations(a, b, allowed=allowed):
        sigma = pi.inverse()
        d = scaling.solve(b, sigma, rtol)
        if d is not None:
            return StructuredWitness(sigma, d, a.order)
    return None


# ---------------------------------------------------------------------------
# Triangularizability and invariant reports
# ---------------------------------------------------------------------------


def triangularizable_pattern(a: Tensor) -> Permutation | None:
    """A permutation whose relabeling of ``Z(a)`` is upper triangular, or
    ``None`` when no permutation works.

    The search places labels position by position; a label may take the next
    position only once every label that must precede it (the head of some
    nonzero in whose tail it occurs) has been placed.  Exhausting the
    candidates therefore certifies a directed cycle among the labels, so no
    relabeling of the pattern is triangular; by the pattern invariance of
    similarity, the tensor is then not similar to any upper triangular
    tensor.  Returns the lexicographically first valid placement.
    """
    if a.order < 3:
        raise OrderError("triangular tensors are defined for order >= 3")
    n = a.dim
    preds: list[set[int]] = [set() for _ in range(n)]
    for head, *tail in np.argwhere(a.data != 0).tolist():
        for c in tail:
            if c != head:
                preds[c].add(head)
    placed: list[int] = []
    done = [False] * n
    for _ in range(n):
        pick = next(
            (v for v in range(n) if not done[v] and all(done[p] for p in preds[v])),
            None,
        )
        if pick is None:
            return None
        done[pick] = True
        placed.append(pick + 1)
    return Permutation(tuple(placed))


@dataclass(frozen=True)
class InvariantReport:
    """Similarity-invariant summary of a tensor.

    Two similar tensors of order ``m >= 3`` produce equal reports.
    ``triangularizable`` is ``None`` below order 3, where it is undefined.
    ``canonical_hash`` is :func:`canonical_pattern_hash`, computed at every
    dimension.
    """

    order: int
    dim: int
    nnz: int
    is_diagonal: bool
    triangularizable: bool | None
    canonical_hash: str

    def to_dict(self) -> dict:
        return asdict(self)


def canonical_pattern_hash(a: Tensor) -> str:
    """Hash of the canonical labelling of ``Z(a)``: equal for two tensors of
    the same order and dimension iff their patterns are relabelings of each
    other.  There is no dimension limit.

    The nonzero tuples form an ordered ``m``-uniform hypergraph on the labels,
    and the canonical labelling is found by individualization-refinement
    (McKay & Piperno 2014, "Practical graph isomorphism, II").  Refinement
    splits each label's colour by the multiset of (slot, colours of the
    whole tuple) over the nonzeros it occurs in, numbering the new colours in
    sorted order of (old colour, multiset), until the colouring is stable
    (colour refinement in the style of Weisfeiler & Leman 1968).  The search
    splits the first non-singleton cell by trying each label in it, and
    refines again.  At a leaf every label has its own colour, and the
    certificate is the sorted list of relabeled nonzero tuples.  No step
    depends on the labels themselves, so the smallest certificate over the
    leaves is the same for every relabeling of the pattern, and it spells
    out one relabeling of it.  The hash is the sha256 of the order, the
    dimension and that certificate.

    Children with equal subtrees are skipped: those in the orbit of a child
    already tried under the automorphisms found that fix the node's
    individualized labels.  A leaf whose certificate equals the first or the
    best leaf's gives such an automorphism, and the search then returns to
    where the two paths part.  Before a second child ``v`` is tried, the swap
    of ``v`` with the first child ``u`` is checked; when it is an
    automorphism, ``u`` and ``v`` are twins at every node, which keeps the
    empty, dense and unit patterns at one leaf and ``n`` refinements.
    """
    m, n = a.order, a.dim
    j = np.argwhere(a.data != 0)
    labels = j.ravel()
    slots = np.tile(np.arange(m), len(j))
    span = m * n**m  # (colours of the tuple, slot) as one integer below this
    # byte range of each label's occurrences once sorted by label
    ends = (8 * np.cumsum(np.bincount(labels, minlength=n))).tolist()
    starts = [0] + ends[:-1]

    def relabeled(col: np.ndarray) -> np.ndarray:
        """Row-major codes of the nonzero tuples with each label replaced by
        its colour."""
        return np.ravel_multi_index(tuple(col[j].T), (n,) * m)

    def refine(col: np.ndarray) -> np.ndarray:
        """The stable refinement of the colouring ``col`` (colours 0..c-1)."""
        ncol = int(col.max()) + 1
        while True:
            occ = np.repeat(relabeled(col) * m, m) + slots
            # big-endian bytes compare as the integers do
            sig = (np.sort(labels * span + occ) % span).astype(">u8").tobytes()
            head = col.astype(">u8")
            words = [head[v].tobytes() + sig[starts[v] : ends[v]] for v in range(n)]
            rank = {w: i for i, w in enumerate(sorted(set(words)))}
            if len(rank) == ncol:
                return col
            col, ncol = np.array([rank[w] for w in words]), len(rank)

    own = np.sort(relabeled(np.arange(n)))
    first = best = None  # (certificate, labels in colour order, path)
    automorphisms: list[np.ndarray] = []
    twins = list(range(n))  # union-find of labels whose swap is an automorphism

    def find(root: list[int], v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    def orbits(path: list[int]) -> list[int]:
        """Orbit roots under the twin swaps and the automorphisms found
        that fix every label of ``path``."""
        root = [find(twins, v) for v in range(n)]
        for g in automorphisms:
            if all(g[v] == v for v in path):
                for v, w in enumerate(g.tolist()):
                    root[find(root, v)] = find(root, w)
        return [find(root, v) for v in range(n)]

    def branches(col: np.ndarray, x: int, path: list[int]) -> Iterator[int]:
        """The labels of cell ``x`` to individualize below ``path``: one per
        orbit of those tried so far."""
        tried: list[int] = []
        roots, seen = None, -1
        for v in np.flatnonzero(col == x).tolist():
            if tried:
                if seen != len(automorphisms):
                    roots, seen = orbits(path), len(automorphisms)
                if any(find(twins, v) == find(twins, u) or roots[v] == roots[u] for u in tried):
                    continue
                # a swap of two labels outside the path fixes the path: when it
                # is an automorphism, v's subtree is the image of u's
                u, swap = tried[0], np.arange(n)
                swap[[u, v]] = v, u
                if np.array_equal(np.sort(relabeled(swap)), own):
                    twins[find(twins, v)] = find(twins, u)
                    continue
            tried.append(v)
            yield v

    def leaf(col: np.ndarray, path: list[int]) -> int | None:
        """Record a leaf; after an automorphism, the depth to go back to."""
        nonlocal first, best
        found = (np.sort(relabeled(col)).astype(">u8").tobytes(), np.argsort(col), path)
        if first is None:
            first = best = found
            return None
        for known in (first, best):
            if found[0] == known[0]:
                g = np.empty(n, dtype=np.intp)
                g[known[1]] = found[1]
                automorphisms.append(g)
                return next(d for d, (u, v) in enumerate(zip(path, known[2])) if u != v)
        if found[0] < best[0]:
            best = found
        return None

    stack: list[tuple[np.ndarray, int, list[int], Iterator[int]]] = []  # one node per depth

    def visit(col: np.ndarray, path: list[int]) -> None:
        col = refine(col)
        sizes = np.bincount(col)
        if sizes.size < n:
            x = int(np.flatnonzero(sizes > 1)[0])
            stack.append((col, x, path, branches(col, x, path)))
            return
        back = leaf(col, path)
        if back is not None:
            del stack[back + 1 :]

    visit(np.zeros(n, dtype=np.intp), [])
    while stack:
        col, x, path, todo = stack[-1]
        v = next(todo, None)
        if v is None:
            stack.pop()
            continue
        child = col + (col > x) + (col == x)
        child[v] = x
        visit(child, path + [v])
    return hashlib.sha256(np.array([m, n], dtype=">u8").tobytes() + best[0]).hexdigest()


def similarity_invariants(a: Tensor) -> InvariantReport:
    """Report of quantities preserved by every similarity (order ``m >= 3``):
    nonzero count, pattern class (as a canonical hash), diagonality, and
    whether any relabeling of the pattern is upper triangular."""
    return InvariantReport(
        order=a.order,
        dim=a.dim,
        nnz=nnz(a),
        is_diagonal=is_diagonal(a) if a.order >= 2 else False,
        triangularizable=triangularizable_pattern(a) is not None if a.order >= 3 else None,
        canonical_hash=canonical_pattern_hash(a),
    )
