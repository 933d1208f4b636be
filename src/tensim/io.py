"""JSON interchange for tensors, witnesses, and characteristic polynomials.

Tensor files carry ``order``, ``dim`` and ``format`` (``"dense"`` or
``"sparse"``):

* dense: ``entries`` is nested arrays of depth ``order``; innermost scalars
  are a plain number (real) or a two-element ``[re, im]`` pair;
* sparse: ``entries`` is a list of ``{"idx": [i_1, ..., i_m], "val": ...}``
  with 1-based indices, ``i_1`` most significant.  Unlisted positions are
  zero and duplicate indices are an error.

Witness files are ``{"m": int, "P": <tensor>, "Q": <tensor>}`` with order-2
tensor payloads; structured witness files are
``{"m": int, "sigma": [s(1), ..., s(n)], "d": [[re, im], ...]}``.

Every document and file is the text of ``json.dumps(doc, indent=2,
allow_nan=False)`` and a newline, so NaN and the infinities raise ``ValueError``
instead of being written.  Large nests of numbers, and lists of objects holding numbers
such as sparse entries, take the C encoder and one join.
"""

from __future__ import annotations

import json
import math
from contextlib import suppress
from itertools import chain, compress, repeat
from operator import not_
from pathlib import Path

import numpy as np

from .core import Tensor, _check_size
from .errors import FormatError
from .similarity import DiagonalScaling, Permutation, StructuredWitness, Witness
from .spectral import CharPoly

#: the C encoder, with an item separator no number's text holds; it writes NaN, and skips
#: the check for cycles, which a nest of numbers and pairs cannot hold
_COMPACT = json.JSONEncoder(separators=("|", ":"), check_circular=False)
_PRETTY = json.JSONEncoder(allow_nan=False, indent=2)
#: scalar types encoded in bulk; other int and float subclasses go one by one
_NUMBERS = {int, float, np.float64}


def _dumps(doc) -> str:
    """The text of every document and file (see the module docstring)."""
    return (_split(doc, "\n") or _PRETTY.encode(doc)) + "\n"


def _split(obj, nl: str) -> str | None:
    """The text of ``obj`` with ``nl`` for each newline, when it holds a large regular nest
    of numbers, some of which may be ``[re, im]`` pairs; else ``None``.  Each number becomes
    text once, and one join lays the texts out with the gaps that the nest's shape picks."""
    if isinstance(obj, dict) and all(type(k) is str for k in obj):
        inner = nl + "  "
        texts = [_split(v, inner) for v in obj.values()]
        if any(texts):  # JSON escapes every newline in a string: replace() indents lines
            items = [json.dumps(k) + ": " + (text or _PRETTY.encode(v).replace("\n", inner))
                     for (k, v), text in zip(obj.items(), texts)]
            return "{" + inner + ("," + inner).join(items) + nl + "}"
    if type(obj) is list and obj and type(obj[0]) is dict:
        return _records(obj, nl)
    shape, x = [], obj
    while isinstance(x, list) and x:
        shape, x = shape + [len(x)], x[0]
    if math.prod(shape) < 32 or type(x) not in _NUMBERS:  # small: not worth a split
        return None
    leaves, depth = _flatten(obj, shape)  # a leaf is a number, or one level deeper a pair
    kinds = set(map(type, leaves))
    is_pair = list(map(isinstance, leaves, repeat(list))) if list in kinds else []
    pairs = list(compress(leaves, is_pair))
    kinds = kinds - {list} | set(map(type, chain.from_iterable(pairs)))
    if depth < len(shape) - (shape[-1] == 2) or not kinds <= _NUMBERS or set(map(len, pairs)) - {2}:
        return None
    pad = [nl + "  " * level for level in range(depth + 2)]
    opens = ["[" + p for p in pad[1:depth + 1]]  # of levels 1, ..., depth
    closes = [p + "]" for p in reversed(pad[:depth])]  # of levels depth, ..., 1
    gaps = ["".join(closes[:k]) + "," + pad[depth - k] + "".join(opens[depth - k:]) for k in range(depth)]
    seps = []  # the gaps between leaves: k levels up, each of n rows is parted by gaps[k]
    for k, n in enumerate(reversed(shape[:depth])):
        seps = ((seps + [gaps[k]]) * n)[:-1]
    if not pairs and len(kinds) == 1 and kinds <= {int, float}:  # the repr json writes for them
        texts = list(map(kinds.pop().__repr__, leaves))
    else:  # the compact text has "|" between numbers and brackets only around pairs
        texts = _COMPACT.encode(leaves)[1:-1].replace("[", "[" + pad[-1])
        texts = texts.replace("]", pad[depth] + "]").split("|")
        seps = np.insert(np.array(seps, dtype=object), np.flatnonzero(is_pair), "," + pad[-1]).tolist()
    out = [""] * (2 * len(texts) - 1)
    out[::2], out[1::2] = texts, seps
    text = "".join(opens) + "".join(out) + "".join(closes)
    if "n" not in text and "N" not in text:
        return text
    # NaN or an infinity: json.dumps raises ValueError, with _PRETTY's message among pairs
    return None if pairs else json.JSONEncoder(allow_nan=False).encode(leaves)


def _records(obj: list, nl: str) -> str | None:
    """The text of a list of objects with one key order whose values are numbers or lists of
    numbers, such as a sparse tensor's entries, with ``nl`` for each newline; else ``None``.
    Each number becomes text once, and one %-format lays the texts into one template per
    entry shape (the lengths of its lists)."""
    keys = list(obj[0])
    if not all(type(k) is str for k in keys) or not all(type(e) is dict and list(e) == keys for e in obj):
        return None
    values = [v for e in obj for v in e.values()]
    sizes = [len(v) if type(v) is list else -1 for v in values]  # -1: a bare value
    leaves = list(chain.from_iterable(v if k >= 0 else (v,) for v, k in zip(values, sizes)))
    if not leaves or not set(map(type, leaves)) <= _NUMBERS:
        return None
    texts = _COMPACT.encode(leaves)
    if "n" in texts or "N" in texts:  # NaN or an infinity: json.dumps raises ValueError
        return None
    pad = [nl + "  " * level for level in range(4)]
    heads = [json.dumps(k).replace("%", "%%") + ": " for k in keys]
    forms: dict[tuple, str] = {}  # entry shape -> template

    def value(k: int) -> str:  # the template of a bare value (k = -1) or a list of k numbers
        return "%s" if k < 0 else "[" + pad[3] + ("," + pad[3]).join(["%s"] * k) + pad[2] + "]" if k else "[]"

    def form(shape: tuple) -> str:
        items = ("," + pad[2]).join(h + value(k) for h, k in zip(heads, shape))
        return forms.setdefault(shape, "{" + pad[2] + items + pad[1] + "}")

    body = ("," + pad[1]).join([forms.get(shape) or form(shape) for shape in zip(*[iter(sizes)] * len(keys))])
    return "[" + pad[1] + body % tuple(texts[1:-1].split("|")) + pad[0] + "]"


def _flatten(nest, shape) -> tuple[list, int]:
    """The items ``depth`` lists deep in ``nest``, for the first ``depth`` levels of ``shape``."""
    level = [nest]
    for depth, n in enumerate(shape):
        if not all(map(isinstance, level, repeat(list))) or set(map(len, level)) != {n}:
            return level, depth
        level = list(chain.from_iterable(level))
    return level, len(shape)


def _is_int(value) -> bool:  # JSON true and false decode to bools, which are ints
    return isinstance(value, int) and not isinstance(value, bool)


def _bulk(scalars: list) -> np.ndarray | None:
    """Numbers and ``[re, im]`` pairs, decoded with the scalar types checked and the pairs'
    numbers converted in bulk, or ``None`` when one of them is not finite or not a scalar."""
    is_pair = list(map(isinstance, scalars, repeat(list)))
    pairs = list(compress(scalars, is_pair))
    flat = list(chain.from_iterable(pairs))
    kinds = set(map(type, scalars)) - {list} | set(map(type, flat))
    numbers = bool not in kinds and all(issubclass(k, (int, float)) for k in kinds)
    if set(map(len, pairs)) <= {2} and numbers:
        with suppress(OverflowError):  # an integer beyond the float range
            if pairs:
                values, mask = np.zeros(len(scalars), dtype=np.complex128), np.array(is_pair, dtype=bool)
                values.real[~mask] = list(compress(scalars, map(not_, is_pair)))
                values[mask] = np.array(flat, dtype=float).view(np.complex128)
            else:  # bare numbers alone
                values = np.array(scalars, dtype=float).astype(np.complex128)
            if np.isfinite(values).all():
                return values
    return None


def _scalars(scalars: list, where: str) -> np.ndarray:
    """``_bulk(scalars)``; a list that fails is read scalar by scalar to name its first bad one."""
    values = _bulk(scalars)
    if values is None:
        bad = next(v for v in scalars if _bulk([v]) is None)
        raise FormatError(f"{where}: scalar must be a finite number or [re, im], got {bad!r}")
    return values


def _encode(values: np.ndarray) -> list:
    """The JSON scalars of complex ``values``: ``re`` when ``im`` is zero, else ``[re, im]``."""
    return [[re, im] if im else re for re, im in zip(values.real.tolist(), values.imag.tolist())]


def tensor_to_dict(t: Tensor, format: str = "dense") -> dict:
    if format == "dense":
        nest = _encode(t.data.ravel())
        for _ in range(t.order - 1):
            nest = [nest[i:i + t.dim] for i in range(0, len(nest), t.dim)]
        return {"order": t.order, "dim": t.dim, "format": "dense", "entries": nest}
    if format == "sparse":
        pos = t.nonzeros
        vals = _encode(t.data[tuple(pos.T)])
        entries = [{"idx": idx, "val": v} for idx, v in zip((pos + 1).tolist(), vals)]
        return {"order": t.order, "dim": t.dim, "format": "sparse", "entries": entries}
    raise FormatError(f"unknown tensor format {format!r}")


def tensor_from_dict(obj) -> Tensor:
    if not isinstance(obj, dict):
        raise FormatError("tensor payload must be a JSON object")
    for field in ("order", "dim", "format"):
        if field not in obj:
            raise FormatError(f"tensor payload missing field {field!r}")
    order, dim = obj["order"], obj["dim"]
    if not _is_int(order) or not _is_int(dim) or order < 1 or dim < 1:
        raise FormatError("order and dim must be positive integers")
    _check_size(order, dim)
    fmt = obj["format"]
    if fmt == "dense":
        scalars, depth = _flatten(obj.get("entries"), (dim,) * order)
        if depth < order:
            kind = "scalars" if depth == order - 1 else "sub-arrays"
            raise FormatError(f"dense entries: expected a list of {dim} {kind}")
        return Tensor(_scalars(scalars, "dense entries").reshape((dim,) * order))
    if fmt == "sparse":
        entries = obj.get("entries")
        if not isinstance(entries, list):
            raise FormatError("sparse entries must be a list")
        pos = None  # the 0-based indices, a row per entry, when the checks pass in bulk
        if all(map(isinstance, entries, repeat(dict))) and all(map({"idx", "val"}.issubset, entries)):
            coords, depth = _flatten([e["idx"] for e in entries], (len(entries), order))
            with suppress(OverflowError, ValueError):  # a coordinate past the integer or index range
                if depth == 2 and set(map(type, coords)) <= {int}:
                    rows = np.array(coords, dtype=np.intp).reshape(-1, order) - 1
                    if len(np.unique(np.ravel_multi_index(rows.T, (dim,) * order))) == len(rows):
                        pos = rows
        if pos is None:  # name the first bad entry; no entries, or int or dict subclasses, pass
            seen = set()
            for entry in entries:
                if not isinstance(entry, dict) or "idx" not in entry or "val" not in entry:
                    raise FormatError("sparse entry must be {'idx': [...], 'val': ...}")
                idx = entry["idx"]
                listed = isinstance(idx, list) and len(idx) == order
                if not listed or not all(_is_int(c) and 1 <= c <= dim for c in idx):
                    raise FormatError(f"sparse index {idx!r} invalid for order {order}, dim {dim}")
                key = tuple(idx)
                if key in seen:
                    raise FormatError(f"duplicate sparse index {idx}")
                seen.add(key)
            pos = np.array([e["idx"] for e in entries], dtype=np.intp).reshape(-1, order) - 1
        data = np.zeros((dim,) * order, dtype=np.complex128)
        data[tuple(pos.T)] = _scalars([e["val"] for e in entries], "sparse value")
        return Tensor(data)
    raise FormatError(f"unknown tensor format {fmt!r}")


def _read_json(path):
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:  # undecodable bytes, bad syntax, an integer past the digit limit
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc


def read_tensor(path) -> Tensor:
    return tensor_from_dict(_read_json(path))


def write_tensor(t: Tensor, path, format: str = "dense") -> None:
    Path(path).write_text(_dumps(tensor_to_dict(t, format)))


# ---------------------------------------------------------------------------
# Witness files
# ---------------------------------------------------------------------------


def witness_to_dict(w: Witness) -> dict:
    return {
        "m": w.m,
        "P": tensor_to_dict(w.p),
        "Q": tensor_to_dict(w.q),
    }


def witness_from_dict(obj) -> Witness:
    if not isinstance(obj, dict) or any(k not in obj for k in ("m", "P", "Q")):
        raise FormatError("witness payload must carry m, P and Q")
    if not _is_int(obj["m"]):
        raise FormatError("witness order m must be an integer")
    return Witness(tensor_from_dict(obj["P"]), tensor_from_dict(obj["Q"]), obj["m"])


def read_witness(path) -> Witness:
    return witness_from_dict(_read_json(path))


def write_witness(w: Witness, path) -> None:
    Path(path).write_text(_dumps(witness_to_dict(w)))


def structured_witness_to_dict(s: StructuredWitness) -> dict:
    return {
        "m": s.m,
        "sigma": list(s.sigma.images),
        "d": [[v.real, v.imag] for v in s.d.values],
    }


def structured_witness_from_dict(obj) -> StructuredWitness:
    if not isinstance(obj, dict) or any(k not in obj for k in ("m", "sigma", "d")):
        raise FormatError("structured witness payload must carry m, sigma and d")
    if not _is_int(obj["m"]):
        raise FormatError("structured witness order m must be an integer")
    sigma = obj["sigma"]
    if not isinstance(sigma, list) or not all(map(_is_int, sigma)):
        raise FormatError("sigma must be a list of integers")
    dvals = obj["d"]
    if not isinstance(dvals, list):
        raise FormatError("d must be a list of scalars")
    d = _scalars(dvals, "diagonal value")
    return StructuredWitness(Permutation(tuple(sigma)), DiagonalScaling(d), obj["m"])


def read_structured_witness(path) -> StructuredWitness:
    return structured_witness_from_dict(_read_json(path))


def write_structured_witness(s: StructuredWitness, path) -> None:
    Path(path).write_text(_dumps(structured_witness_to_dict(s)))


# ---------------------------------------------------------------------------
# Characteristic polynomials
# ---------------------------------------------------------------------------


def charpoly_to_dict(cp: CharPoly) -> dict:
    return {
        "degree": cp.degree,
        "coeffs": [[c.real, c.imag] for c in cp.coeffs],
    }


def charpoly_from_dict(obj) -> CharPoly:
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise FormatError("charpoly payload must carry coeffs")
    if not isinstance(obj["coeffs"], list):
        raise FormatError("charpoly coeffs must be a list of scalars")
    coeffs = _scalars(obj["coeffs"], "charpoly coefficient").tolist()
    if "degree" in obj and (not _is_int(obj["degree"]) or obj["degree"] != len(coeffs) - 1):
        raise FormatError("charpoly degree does not match coefficient count")
    return CharPoly(tuple(coeffs))
