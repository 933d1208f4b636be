"""Per-layer calls, self time and work counts, recorded around tensim's
public functions without editing its source.

Each traced function is wrapped where it is defined and in every tensim
module that bound the same object by name (``cli`` binds ``decide_similar``,
``decision`` binds ``diagonal_transform``, and so on).  ``Tensor``
construction is traced through ``Tensor.__init__``, so ``isinstance`` checks
keep working.  The generator ``pattern_permutations`` is timed inside each
``next`` call, where its work happens.  A name missing from the program is
skipped and reported as zero.

Self time is a span's duration minus the durations of the traced spans
inside it.  Counts and times are kept per pass in memory and read out when
the run ends.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import defaultdict
from time import perf_counter_ns

#: layer (tensim module) -> traced public functions
LAYERS = {
    "decision": [
        "decide_similar",
        "pattern_permutations",
        "solve_diagonal",
        "canonical_pattern_hash",
        "triangularizable_pattern",
        "similarity_invariants",
    ],
    "similarity": [
        "diagonal_transform",
        "permutation_transform",
        "structured_transform",
        "general_transform",
        "check_unit_preserving",
        "witness_structure_report",
        "decompose_witness",
    ],
    "product": ["general_product"],
    "core": ["Tensor", "clean", "zero_pattern"],
    "io": ["read_tensor", "tensor_from_dict", "tensor_to_dict", "write_tensor"],
    "spectral": ["char_poly_dim2", "spectrum_dim2"],
    "cli": ["main"],
}

#: extra per-layer counts: name -> unit
EXTRAS = {
    "decision.pattern_permutations.yielded": "count",
    "decision.solve_diagonal.accepted": "count",
    "decision.solve_accept_ratio": "ratio",
    "core.Tensor.bytes_computed": "B",
    "product.general_product.madds_computed": "count",
    "io.bytes_read": "B",
    "cli.stdout_bytes": "B",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for layer, names in LAYERS.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_ms"] = "ms"
    units.update(EXTRAS)
    units["trace.overhead_pct"] = "%"
    return units


def _madds(args) -> int:
    """Multiply-adds of the mode-by-mode contraction of an order-m tensor
    with an order-k tensor: step s contracts one slot of size n into
    n**(m-s) * n**((k-1)*s) outputs."""
    a, b = args[0], args[1]
    m, k, n = a.order, b.order, a.dim
    return sum(n ** (m - s + 1 + (k - 1) * s) for s in range(1, m))


class Tracer:
    """Installs and removes the wrappers; holds the counts of one pass."""

    def __init__(self):
        self.counts: dict[str, float] = defaultdict(float)
        self.self_ns: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []  # child time of each open span
        self._patches: list[tuple[object, str, object, object]] = []
        self.skipped: list[str] = []
        self._build()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.counts.clear()
        self.self_ns.clear()

    def _enter(self) -> int:
        self._stack.append(0)
        return perf_counter_ns()

    def _leave(self, name: str, start: int) -> None:
        elapsed = perf_counter_ns() - start
        child = self._stack.pop()
        self.self_ns[name] += elapsed - child
        if self._stack:
            self._stack[-1] += elapsed

    def _wrap(self, name: str, fn, after=None):
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[calls] += 1
            start = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(name, start)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        calls, yielded = name + ".calls", name + ".yielded"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[calls] += 1
            inner = fn(*args, **kwargs)

            def timed():
                while True:
                    start = self._enter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._leave(name, start)
                    self.counts[yielded] += 1
                    yield item

            return timed()

        return wrapper

    # -- installation ------------------------------------------------------

    def _build(self) -> None:
        modules = [
            mod for key, mod in sys.modules.items()
            if mod is not None and (key == "tensim" or key.startswith("tensim."))
        ]
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"tensim.{layer}")
            for name in names:
                metric = f"{layer}.{name}"
                original = getattr(home, name, None)
                if original is None:
                    self.skipped.append(metric)
                    continue
                if isinstance(original, type):
                    self._patch_class(metric, original)
                    continue
                wrapper = self._make(metric, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original, wrapper))

    def _make(self, metric: str, fn):
        if metric == "decision.pattern_permutations":
            return self._wrap_generator(metric, fn)
        if metric == "decision.solve_diagonal":
            def after(_args, result):
                self.counts["decision.solve_diagonal.accepted"] += result is not None
            return self._wrap(metric, fn, after)
        if metric == "product.general_product":
            def after(args, _result):
                self.counts["product.general_product.madds_computed"] += _madds(args)
            return self._wrap(metric, fn, after)
        if metric == "io.read_tensor":
            def after(args, _result):
                self.counts["io.bytes_read"] += os.path.getsize(args[0])
            return self._wrap(metric, fn, after)
        return self._wrap(metric, fn)

    def _patch_class(self, metric: str, cls) -> None:
        init = cls.__init__

        def after(args, _result):
            self.counts[metric + ".bytes_computed"] += args[0].data.nbytes

        self._patches.append((cls, "__init__", init, self._wrap(metric, init, after)))

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)

    # -- read-out ----------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Counts and self milliseconds of the pass since the last reset."""
        out = {}
        for layer, names in LAYERS.items():
            for name in names:
                metric = f"{layer}.{name}"
                out[metric + ".calls"] = self.counts.get(metric + ".calls", 0)
                out[metric + ".self_ms"] = self.self_ns.get(metric, 0) / 1e6
        for name in EXTRAS:
            out[name] = self.counts.get(name, 0)
        solves = out["decision.solve_diagonal.calls"]
        out["decision.solve_accept_ratio"] = (
            out["decision.solve_diagonal.accepted"] / solves if solves else 0.0
        )
        return out
