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
of ``A``, not on ``sigma``.  So it is built once per support (per shape and
process when no entry is zero), and each candidate ``sigma`` is solved
with a few matrix-vector products:
``log|d|`` by real least squares, rejecting ``sigma`` when some modulus
``|a| exp(E log|d|)`` misses ``|b|``, then the phases by interpolating them
through a basis of the integer lattice of the rows of ``E``, each basis row
a known integer combination of rows of ``E``, rounding every row to whole
turns and fitting least squares to the unwrapped phases.  The basis comes
from exact elimination on Python integers (rows of ``E`` up to a rank
bound, then, at the first candidate whose moduli fit, one pass over the
rest and one echelon form); no float passes through it.  A candidate is
accepted only if it rebuilds every nonzero of ``B`` within the relative
tolerance: that test, not the solve, is the authority.

The candidates ``sigma`` are the relabelings of the zero pattern allowed by
value (a diagonal position has net exponent zero, so ``b[v..v]`` can only
come from an ``a[w..w]`` equal to it within the acceptance tolerance, exact
for tolerances well above ``1e-13``) and, unless the values pin every label,
by a joint colour refinement of the two patterns (the canonical hash's).
One candidate per label is checked with one gather.  Where some label is left
more than one, the search individualizes one label of ``B`` and each of its
candidates in turn and refines again (individualization-refinement, by the
one walk that the canonical hash takes too, not by recursion).  Dense
tensors with distinct diagonals so cost one gather, one solve and one build
per shape per process, no refinement, and value-free disjoint copies of one
block a few refinements
(7 for 7 copies of one nonzero at ``n = 21``).  Two classes still cost up to
``n!``: dense patterns with repeated diagonal values, where every relabeling
matches the pattern, and supports whose many relabelings all reach the
solve, such as copies of one block with generic values.

Inputs are assumed to carry exact zeros; clean floating-point noise first
(see :func:`tensim.core.clean`).
"""

from __future__ import annotations

import hashlib
from contextlib import suppress
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterator

import numpy as np

from .core import Tensor, is_diagonal, nnz
from .errors import OrderError, ShapeError, WitnessError
from .similarity import DiagonalScaling, Permutation, StructuredWitness

#: Largest relative error of a rebuilt nonzero of ``B`` that the decision
#: accepts.
DECISION_TOL = 1e-8

#: Shapes whose support with no zero entry keeps its scaling solve, least recently used dropped first.
_FULL_SHAPES = 8
_full_supports = lru_cache(_FULL_SHAPES)(lambda shape: [])  # per shape one slot (_ScalingSolve.of)


# ---------------------------------------------------------------------------
# Pattern matching
# ---------------------------------------------------------------------------


def _codes(col: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    """Row-major codes of the tuples ``j``, each label replaced by its colour."""
    return np.ravel_multi_index(tuple(col[j].T), (n,) * j.shape[1])


def _refine(col: np.ndarray, j: np.ndarray, n: int) -> np.ndarray | None:
    """The stable refinement of the colouring ``col`` (colours ``0..c-1``)
    of the labels of ``len(col) // n`` hypergraphs on ``n`` labels each:
    ``j`` lists the nonzeros of their disjoint union, in which hypergraph
    ``i`` holds the labels ``i*n .. i*n + n - 1``.

    Each round splits every label's colour by the multiset of (slot, colours
    of the whole tuple) over the nonzeros it occurs in, numbering the new
    colours in sorted order of (old colour, multiset) (colour refinement in
    the style of Weisfeiler & Leman 1968).  No step depends on the labels
    themselves.  Rounds stop at a stable or a discrete (``n`` colours)
    colouring, or with ``None`` when some colour holds unequal numbers of
    labels of two hypergraphs: then no relabeling maps one onto another.
    Colours are below ``n`` wherever tuples are coded, which keeps the sort
    keys in int64.
    """
    m, size = j.shape[1], len(col)
    labels = j.ravel()
    span = m * n**m  # (colours of the tuple, slot) as one integer below this
    # byte range of each label's occurrences once sorted by label
    ends = (8 * np.cumsum(np.bincount(labels, minlength=size))).tolist()
    starts = [0] + ends[:-1]
    side = np.arange(size) // n
    ncol = int(col.max()) + 1
    while True:
        counts = np.bincount(side * ncol + col, minlength=size // n * ncol).reshape(-1, ncol)
        if (counts != counts[0]).any():
            return None
        if ncol == n:
            return col
        occ = (_codes(col, j, n)[:, None] * m + np.arange(m)).ravel()
        # big-endian bytes compare as the integers do
        sig = (np.sort(labels * span + occ) % span).astype(">u8").tobytes()
        head = col.astype(">u8")
        words = [head[v].tobytes() + sig[starts[v] : ends[v]] for v in range(size)]
        rank = {w: i for i, w in enumerate(sorted(set(words)))}
        if len(rank) == ncol:
            return col
        col, ncol = np.array([rank[w] for w in words]), len(rank)


def _walk(
    root: np.ndarray | None, j: np.ndarray, n: int, cell: Callable, automorphisms=(), twin=None
) -> Iterator[np.ndarray]:
    """Yield the leaves below the colouring ``root`` (none if ``None``) of the
    individualization-refinement tree, depth first, one stack frame per depth.
    ``cell(col)`` is ``(None, leaf)`` at a leaf, else ``(ws, fixed)``: child
    ``w`` of ``ws``, in order, keeps ``w`` and ``fixed`` at their colour ``x``,
    splits the rest of ``x`` off to ``x + 1`` and is refined, unless unbalanced.

    With ``twin``, children with equal subtrees are skipped: those in the orbit
    of a child already tried under the ``automorphisms`` that fix the node's
    individualized labels.  A consumer appends one at a leaf whose certificate
    it has seen, and the walk returns to where the two paths part: the first
    depth whose label it moves.  Before a second child ``v`` is tried,
    ``twin(u, v)`` checks the swap of ``v`` with the first child ``u``; when it
    is an automorphism, ``u`` and ``v`` are twins at every node, which keeps the
    empty, dense and unit patterns at one leaf and ``n`` refinements.
    """
    twins = list(range(n))  # union-find of labels whose swap is an automorphism

    def find(root: list[int], v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    def orbits(path: list[int]) -> list[int]:
        """Orbit roots under the twin swaps and the automorphisms that fix
        every label of ``path``."""
        root = [find(twins, v) for v in range(n)]
        for g in automorphisms:
            if all(g[v] == v for v in path):
                for v, w in enumerate(g.tolist()):
                    root[find(root, v)] = find(root, w)
        return [find(root, v) for v in range(n)]

    def children(path, col, ws, fixed) -> Iterator[tuple[list[int], np.ndarray]]:
        tried: list[int] = []
        roots, seen = None, -1
        for v in ws:
            if tried and twin:
                if seen != len(automorphisms):
                    roots, seen = orbits(path), len(automorphisms)
                if any(find(twins, v) == find(twins, u) or roots[v] == roots[u] for u in tried):
                    continue
                # a swap of two labels off the path fixes the path: when it is
                # an automorphism, v's subtree is the image of u's
                if twin(u := tried[0], v):
                    twins[find(twins, v)] = find(twins, u)
                    continue
            tried.append(v)
            child = col + (col > (x := col[v])) + (col == x)
            child[[v, *fixed]] = x
            if (child := _refine(child, j, n)) is not None:
                yield path + [v], child

    stack = [] if root is None else [iter([([], root)])]  # per depth: the nodes left to walk
    while stack:
        if (node := next(stack[-1], None)) is None:
            stack.pop()
        elif (split := cell(node[1]))[0] is not None:
            stack.append(children(*node, *split))
        else:
            known = len(automorphisms)
            yield split[1]
            for g in automorphisms[known:]:  # depth d walks its children in stack[d + 1]
                del stack[next(d for d, v in enumerate(node[0]) if g[v] != v) + 2 :]


def pattern_permutations(
    a: Tensor, b: Tensor, *, allowed: np.ndarray | None = None
) -> Iterator[Permutation]:
    """Yield every ``pi`` relabeling the zero pattern of ``a`` onto that of
    ``b``: ``b[t] != 0`` iff ``a[pi(t_1), ..., pi(t_m)] != 0`` for every
    position ``t``.  The patterns are read from the nonzero lists alone.

    The labels of ``a`` and ``b`` are coloured jointly by :func:`_refine` on
    the disjoint union of the two nonzero lists, starting from one colour.
    Every relabeling maps each label of ``b`` to a label of ``a`` of the same
    colour, so there is none when some colour holds unequal numbers of labels
    of ``a`` and ``b``.
    ``allowed``, a boolean ``n x n`` mask, further restricts label ``v`` of
    ``b`` (0-based) to the labels ``w`` of ``a`` with ``allowed[v][w]``; the
    result is the unmasked sequence with the excluded permutations dropped.

    When every label is left one candidate, that single relabeling is
    checked with one gather: it must be injective and map every nonzero of
    ``b`` onto a nonzero of ``a``; when ``allowed`` alone pins every label or
    leaves one none, nothing is refined first, as refinement only drops
    candidates no relabeling uses.  Otherwise :func:`_walk`, unpruned,
    individualizes the first label ``v`` of ``b`` with more than one candidate
    together with each candidate ``w`` in ascending order: the two get a colour
    of their own, the joint colouring is refined again, and the search goes on
    from the result, down to colourings that leave one candidate per label.
    Every relabeling that maps ``v`` to ``w`` keeps the colours of each label
    and its image equal through the refinement, so it is found below that
    child and no other, and as the labels before ``v`` have one candidate
    each, the relabelings come in lexicographic order of the image tuple.
    """
    if a.shape != b.shape:
        return
    ja, jb = a.nonzeros, b.nonzeros
    if len(ja) != len(jb):
        return
    n = a.dim
    allowed = np.ones((n, n), dtype=bool) if allowed is None else np.asarray(allowed, dtype=bool)
    if allowed.shape != (n, n):
        raise ShapeError(f"allowed mask must have shape ({n}, {n})")

    def cell(col: np.ndarray) -> tuple:
        ok = (col[n:, None] == col[:n]) & allowed
        counts = ok.sum(axis=1)
        if not counts.all():
            return [], []  # a label without candidates: no children
        if (counts == 1).all():
            return None, ok
        v = int(np.argmax(counts > 1))
        return np.flatnonzero(ok[v]).tolist(), [n + v]

    if not (counts := allowed.sum(axis=1)).all():
        return
    leaves: Iterator[np.ndarray] = iter([allowed])  # a pinned map: the gather decides, unrefined
    if counts.max() > 1:
        j = np.vstack([ja, jb + n])  # labels 0..n-1 are a's, n..2n-1 are b's
        leaves = _walk(_refine(np.zeros(2 * n, dtype=np.intp), j, n), j, n, cell)
    for ok in leaves:
        pi = ok.argmax(axis=1)
        if np.bincount(pi, minlength=n).max() == 1 and a.data[tuple(pi[jb].T)].all():
            yield Permutation(tuple((pi + 1).tolist()))


# ---------------------------------------------------------------------------
# The scaling solve
# ---------------------------------------------------------------------------


def _less(r: dict[int, int], q: int, h: dict[int, int]) -> dict[int, int]:
    """The sparse integer row ``r`` (column -> nonzero) less ``q`` times ``h``."""
    r = dict(r)
    for k, y in h.items():
        r[k] = r.get(k, 0) - q * y
        if not r[k]:
            del r[k]
    return r


def _echelon(rows: list[dict[int, int]], ncols: int) -> tuple[list[dict[int, int]], list[int]]:
    """Row echelon form of the sparse integer rows ``rows`` (column -> nonzero)
    by unimodular row operations, and its pivot columns among the first
    ``ncols``: down each column, Euclid's algorithm with the row of least
    magnitude (the first on ties) as divisor, by floor division, on Python
    integers.  The result is sparse rows too."""
    rows, size, pivots = list(rows), len(rows), []
    lead = [min(r, default=ncols) for r in rows]  # first nonzero column of each row
    while len(pivots) < size and (c := min(lead[len(pivots) :])) < ncols:
        top = len(pivots)
        while (live := [i for i in range(top, size) if lead[i] == c]) != [top]:
            p = min(live, key=lambda i: abs(rows[i][c]))
            rows[top], rows[p], lead[top], lead[p] = rows[p], rows[top], lead[p], lead[top]
            for i in [i for i in live if i != top and lead[i] == c]:  # top's old row is at p
                rows[i] = r = _less(rows[i], rows[i][c] // rows[top][c], rows[top])
                lead[i] = min(r, default=ncols)
        pivots.append(c)
    return rows, pivots


def _join(basis: dict[int, dict[int, int]], v: dict[int, int]) -> dict[int, dict[int, int]]:
    """The rows of ``basis`` (pivot column -> row), an echelon basis of a
    lattice, that change when the sparse integer row ``v`` joins it: none iff
    ``v`` is in the lattice, and a new pivot iff ``v`` is off its span."""
    out: dict[int, dict[int, int]] = {}
    while v and (h := basis.get(c := min(v))):
        if v[c] % h[c] == 0:
            v = _less(v, v[c] // h[c], h)
            continue
        while c in v:  # Euclid's algorithm: pivot gcd, v zero at c
            h, v = v, _less(h, h[c] // v[c], v)
        out[c] = h
    return out | ({min(v): v} if v else {})


class _ScalingSolve:
    """The value-free part of the scaling solve: a function of the support of
    ``A`` alone, shared by the tensors of a shape with no zero entry (:meth:`of`).

    Row ``i`` of ``E``, the net exponent vector of ``A``'s ``i``-th nonzero
    ``j`` (``1 - m`` at ``j_1``, one more at each of ``j_2, ..., j_m``), is held
    as the multi-indices and the slot weights.  ``F`` holds the distinct rows of
    ``E`` by size, each as the labels of one nonzero that makes it and its count
    (``O(N_F m)``), made a sparse row only where read.  Its rows join an echelon
    basis of the lattice ``L(G)`` (:func:`_join`) as they are read: first the
    linearly independent ones, up to the rank bound ``n - c`` (each of the ``c``
    components of the support has its indicator in the kernel of ``E``), whose
    pivot columns ``P`` are the labels solved for, the others the gauge
    (``d = 1``).  The fits use ``E^T E`` on ``P``, summed over the label pairs
    of ``F`` times the counts, in float64 exactly (< ``2^53``).  :meth:`solve`
    gathers the values, fits ``log|d|`` first and rejects the candidate when
    some ``|a| exp(E log|d|)`` misses ``|b|`` by more than ``(rtol + 1e-12) |b|``:
    as ``||r| - |b|| <= |r - b|``, the rebuild would reject it too, at every
    ``rtol >= 0``, while rounding stays within ``1e-12`` (measured below
    ``2 m ulp max|log|d||``, so for ``m max|log|d||`` up to about ``10^3``).
    At the first candidate that passes, the rows outside ``L(G)`` join in one
    pass, until every pivot is ``+-1``, and one echelon form of the sparse
    rows ``[G | I]``, ``H = U G`` (``g_rows``, ``interp``), is a lattice basis
    of known integer combinations of rows of ``E``: the phases of ``H x``
    follow from those of ``E x`` and fix every row's phase modulo ``2*pi``.
    """

    def __init__(self, a: Tensor):
        m, n = a.order, a.dim
        self.n, self.j = n, a.nonzeros
        self.w = w = np.array([1 - m] + [1] * (m - 1))
        # a row is fixed by its head and the multiset of its tail labels; its size
        # (tail labels off the head) comes first: small rows keep G near one per pivot
        tails = np.sort(self.j[:, 1:], axis=1)
        size = (tails != self.j[:, :1]).sum(axis=1)
        keys = np.ravel_multi_index((size, self.j[:, 0], *tails.T), (m, *a.shape))
        _, first, count = np.unique(keys, return_index=True, return_counts=True)
        self.f = f = self.j[first]  # F: each distinct row as the labels of one nonzero that makes it
        # labels joined by a path of nonzeros, by squaring until closed (exact: counts < 2^24)
        reach = np.eye(n, dtype=np.float32)
        reach[self.j[:, :1], self.j[:, 1:]] = reach[self.j[:, 1:], self.j[:, :1]] = 1
        while not np.array_equal(reach, wider := np.sign(reach @ reach)):
            reach = wider
        self.comp = reach.argmax(axis=1)  # each label's component, as its lowest label
        rank = n - np.count_nonzero(self.comp == np.arange(n))
        basis, g = {}, []  # basis: pivot column -> sparse row, an echelon basis of L(G)
        for i in range(len(first)):  # a row joins when it raises the rank, up to the bound
            if len(basis) == rank:
                break
            if (joined := _join(basis, self._row(i))).keys() - basis.keys():
                basis |= joined
                g.append(i)
        self.p = sorted(basis)  # G spans the rows of E: its pivots are those of any echelon form
        self._lattice = first, basis, g  # closed by _phase, at the first fit of the magnitudes
        pairs = (f[:, :, None] * n + f[:, None, :]).ravel()  # F^T diag(count) F, exact: < 2^53
        gram = np.bincount(pairs, (count[:, None, None] * np.outer(w, w.astype(float))).ravel(), n * n)
        self.gram_inv = np.linalg.inv(gram.reshape(n, n)[self.p][:, self.p])

    @classmethod
    def of(cls, a: Tensor) -> _ScalingSolve:
        """``cls(a)``, built once per shape and process for a support with no zero entry."""
        box = _full_supports(a.shape) if len(a.nonzeros) == a.data.size else []
        box[:] = box or [cls(a)]  # the first tensor of the shape builds it; the solve takes the values
        return box[0]

    def _row(self, i: int) -> dict[int, int]:
        """Row ``i`` of ``F`` as a sparse integer row (column -> nonzero)."""
        head, *tail = self.f[i].tolist()  # -(m - 1) at the head, one more per tail slot
        return {k: y for k in {head, *tail} if (y := tail.count(k) - (k == head) * len(tail))}

    @cached_property
    def _phase(self) -> tuple[np.ndarray, np.ndarray]:
        """``(g_rows, interp)``: the second pass of the join, then ``H = U G``."""
        first, basis, g = self._lattice
        for i in range(len(first)):  # a row joins when it is outside L(G); G's rows are inside
            if all(abs(h[c]) == 1 for c, h in basis.items()):
                break
            basis |= (joined := _join(basis, self._row(i)))
            g += [i] * bool(joined)
        k, cols = len(self.p), self.p + list(range(self.n, self.n + len(g)))  # [H on P | U]
        hu = _echelon([self._row(i) | {c: 1} for i, c in zip(g, cols[k:])], self.n)[0][:k]
        h_u = np.array([[r.get(c, 0) for c in cols] for r in hu], dtype=float).reshape(k, len(cols))
        return first[g], np.linalg.solve(h_u[:, :k], h_u[:, k:])

    g_rows, interp = (property(lambda self, i=i: self._phase[i]) for i in range(2))

    def _fit(self, v: np.ndarray) -> np.ndarray:
        """Least-squares ``x`` with ``E x = v``, zero off the pivot labels."""
        x = np.zeros(self.n)
        et_v = np.bincount(self.j.ravel(), (v[:, None] * self.w).ravel(), self.n)
        x[self.p] = self.gram_inv @ et_v[self.p]
        return x

    def solve(self, a: Tensor, b: Tensor, sigma: Permutation, rtol: float) -> DiagonalScaling | None:
        a_vals, b_vals = a.data[tuple(self.j.T)], b.data[tuple(sigma.zero_based()[self.j].T)]
        if len(b.nonzeros) != len(self.j) or not b_vals.all():
            return None  # the zero patterns do not correspond under sigma
        with np.errstate(over="ignore", invalid="ignore"):
            ratio = b_vals / a_vals  # not finite or 0 at a non-finite operand, and numpy's
            bad = ~np.isfinite(ratio) | (ratio == 0)  # complex quotient overflows at a subnormal
            if bad.any():  # divisor; times 2**54 (exact) the divisor is normal
                if not (np.isfinite(b_vals[bad]).all() and np.isfinite(a_vals[bad]).all()):
                    raise ValueError("a nonzero entry is not finite")
                ratio[bad] = b_vals[bad] * 2.0**54 / (a_vals[bad] * 2.0**54)
        log_mag = self._fit(log_ratio := np.log(np.abs(ratio)))
        if not (np.abs(np.expm1(log_mag[self.j] @ self.w - log_ratio)) <= rtol + 1e-12).all():
            return None  # some |a| exp(E log|d|) misses |b|: so would the rebuild
        turns = np.angle(ratio) / (2.0 * np.pi)
        base = np.zeros(self.n)
        base[self.p] = self.interp @ turns[self.g_rows]
        wraps = np.rint(base[self.j] @ self.w - turns)
        x = log_mag + 2j * np.pi * self._fit(turns + wraps)
        for _ in range(2):  # the second time with log|d| centred on 0 over each component
            if not np.all(np.abs(a_vals * np.exp(x[self.j] @ self.w) - b_vals) <= rtol * np.abs(b_vals)):
                return None
            with np.errstate(over="ignore", invalid="ignore"), suppress(WitnessError):
                return DiagonalScaling(np.exp(x))  # unless the gauge put some |d| past the float range
            span = np.where(self.comp[:, None] == self.comp, x.real, np.nan)  # log|d| by component
            x = x - (np.nanmax(span, 1) + np.nanmin(span, 1)) / 2
        raise OverflowError("no witness of this relabeling has every |d| in the float range")


def solve_diagonal(
    a: Tensor, b: Tensor, sigma: Permutation, rtol: float = DECISION_TOL
) -> DiagonalScaling | None:
    """Find ``d`` with ``B = R_sigma^T (D^(1-m) A D) R_sigma`` or ``None``.

    The zero patterns must correspond under ``sigma``, and ``d`` must rebuild
    every nonzero of ``b`` within relative error ``rtol``.  The equations fix
    ``d`` up to the gauge only: a label whose column of the exponent matrix
    is a combination of the columns of lower labels gets ``d = 1``.  That
    includes every label in no nonzero of ``a`` and the highest label of
    each connected component, so an empty system gives the identity, unless
    some ``|d|`` then leaves the float range: ``log|d|`` is then centred on 0
    over each component, and ``OverflowError`` raised if that leaves it too.
    A nonzero that is not finite raises ``ValueError``.  The solve's value-free
    part is kept per shape as in :func:`decide_similar`.
    """
    if a.order < 3:
        raise OrderError("diagonal solve applies to order >= 3")
    if a.shape != b.shape:
        raise ShapeError("tensors must share order and dimension")
    if sigma.n != a.dim:
        raise ShapeError("permutation size does not match tensor dimension")
    return _ScalingSolve.of(a).solve(a, b, sigma, rtol)


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
    are skipped, and the solve decides every other one, magnitudes first:
    the phase lattice is built at the first fit of the magnitudes, once per
    support of ``a`` (per shape and process when no entry is zero).

    At ``rtol = 0`` only an exact rebuild is accepted: a real self-pair
    passes, and a complex one in general does not, as numpy's complex
    ``a / a`` is ``1`` only up to about ``6e-17j``.  Subnormal entries are
    decided like normal ones: where numpy's quotient ``b / a`` overflows at a
    subnormal ``a``, the solve divides again with both scaled by ``2**54``.
    A nonzero that is not finite raises ``ValueError`` at the first solve.
    When the first relabeling that rebuilds ``b`` has no witness with every
    ``|d|`` in the float range (see :func:`solve_diagonal`), ``OverflowError``.
    """
    if a.order != b.order or a.dim != b.dim:
        raise ShapeError("tensors must share order and dimension")
    if a.order < 3:
        raise OrderError("the decision procedure applies to order >= 3")
    diag = (np.arange(a.dim),) * a.order
    a_diag, b_diag = a.data[diag], b.data[diag]
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite difference bars, NaN does not
        allowed = ~(np.abs(b_diag[:, None] - a_diag) > 2 * rtol * np.abs(b_diag)[:, None])
    scaling = None  # built at the first candidate: most unrelated pairs yield none
    for pi in pattern_permutations(a, b, allowed=allowed):
        scaling = scaling or _ScalingSolve.of(a)
        d = scaling.solve(a, b, sigma := pi.inverse(), rtol)
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
    after = np.zeros((a.dim, a.dim), dtype=bool)  # after[c, h]: c must follow h
    after[a.nonzeros[:, 1:], a.nonzeros[:, :1]] = True
    np.fill_diagonal(after, False)
    left = np.ones(a.dim, dtype=bool)
    placed: list[int] = []
    for _ in range(a.dim):
        # the smallest ready label keeps the placement lexicographically first
        ready = left & ~(after & left).any(axis=1)
        if not ready.any():
            return None
        placed.append(int(ready.argmax()))
        left[placed[-1]] = False
    return Permutation(tuple(v + 1 for v in placed))


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
    (McKay & Piperno 2014, "Practical graph isomorphism, II") in :func:`_walk`,
    with the colour refinement of :func:`_refine`.  The search splits the first
    non-singleton cell by trying each label in it, and refines again.  At a
    leaf every label has its own colour, and the certificate is the sorted
    list of relabeled nonzero tuples.  No step depends on the labels
    themselves, so the smallest certificate over the leaves is the same for
    every relabeling of the pattern, and it spells out one relabeling of it.
    The hash is the sha256 of the order, the dimension and that certificate.
    A leaf whose certificate equals the first or the best leaf's gives an
    automorphism, by which the walk prunes.
    """
    m, n, j = a.order, a.dim, a.nonzeros
    own = np.sort(_codes(np.arange(n), j, n))

    def twin(u: int, v: int) -> bool:
        swap = np.arange(n)
        swap[[u, v]] = v, u
        return np.array_equal(np.sort(_codes(swap, j, n)), own)

    def cell(col: np.ndarray) -> tuple:
        if (sizes := np.bincount(col)).size == n:
            return None, col
        return np.flatnonzero(col == np.argmax(sizes > 1)).tolist(), []  # first non-singleton cell

    automorphisms: list[np.ndarray] = []
    walk = _walk(_refine(np.zeros(n, dtype=np.intp), j, n), j, n, cell, automorphisms, twin)
    leaves = ((np.sort(_codes(col, j, n)).astype(">u8").tobytes(), col) for col in walk)
    first = best = next(leaves)  # (certificate, discrete colouring)
    for found in leaves:
        if known := next((k for k in (first, best) if k[0] == found[0]), None):
            automorphisms.append(np.argsort(found[1])[known[1]])  # colour by colour, known to found
        elif found[0] < best[0]:
            best = found
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
