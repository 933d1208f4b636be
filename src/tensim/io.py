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
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .core import DEFAULT_ENTRY_LIMIT, Tensor
from .errors import EntryLimitError, FormatError
from .similarity import DiagonalScaling, Permutation, StructuredWitness, Witness
from .spectral import CharPoly


def _dumps(doc) -> str:
    """The text of every document and file: strict JSON, so NaN and the
    infinities raise ``ValueError`` instead of being written."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _encode_scalar(value: complex):
    if value.imag == 0.0:
        return value.real
    return [value.real, value.imag]


def _is_finite_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _decode_scalar(payload, where: str) -> complex:
    """A number or ``[re, im]``; NaN and infinities are rejected."""
    if _is_finite_number(payload):
        return complex(payload)
    if isinstance(payload, list) and len(payload) == 2 and all(map(_is_finite_number, payload)):
        return complex(payload[0], payload[1])
    raise FormatError(
        f"{where}: scalar must be a finite number or [re, im], got {payload!r}"
    )


def _encode_nested(data: np.ndarray):
    if data.ndim == 1:
        return [_encode_scalar(v) for v in data]
    return [_encode_nested(sub) for sub in data]


def _decode_nested(payload, order: int, dim: int, where: str):
    if order == 1:
        if not isinstance(payload, list) or len(payload) != dim:
            raise FormatError(f"{where}: expected a list of {dim} scalars")
        return [_decode_scalar(v, where) for v in payload]
    if not isinstance(payload, list) or len(payload) != dim:
        raise FormatError(f"{where}: expected a list of {dim} sub-arrays")
    return [_decode_nested(sub, order - 1, dim, where) for sub in payload]


def tensor_to_dict(t: Tensor, format: str = "dense") -> dict:
    if format == "dense":
        return {
            "order": t.order,
            "dim": t.dim,
            "format": "dense",
            "entries": _encode_nested(t.data),
        }
    if format == "sparse":
        entries = []
        for pos in np.argwhere(t.data != 0):
            idx = [int(c) + 1 for c in pos]
            entries.append({"idx": idx, "val": _encode_scalar(complex(t.data[tuple(pos)]))})
        return {"order": t.order, "dim": t.dim, "format": "sparse", "entries": entries}
    raise FormatError(f"unknown tensor format {format!r}")


def tensor_from_dict(obj) -> Tensor:
    if not isinstance(obj, dict):
        raise FormatError("tensor payload must be a JSON object")
    for field in ("order", "dim", "format"):
        if field not in obj:
            raise FormatError(f"tensor payload missing field {field!r}")
    order, dim = obj["order"], obj["dim"]
    if not isinstance(order, int) or not isinstance(dim, int) or order < 1 or dim < 1:
        raise FormatError("order and dim must be positive integers")
    # any dim > 1 is over the limit once order reaches its bit length; the
    # min keeps a huge order from building a huge integer
    if dim ** min(order, DEFAULT_ENTRY_LIMIT.bit_length()) > DEFAULT_ENTRY_LIMIT:
        raise EntryLimitError(f"{dim}**{order} entries exceed the limit of {DEFAULT_ENTRY_LIMIT}")
    fmt = obj["format"]
    if fmt == "dense":
        nested = _decode_nested(obj.get("entries"), order, dim, "dense entries")
        return Tensor(np.array(nested, dtype=np.complex128))
    if fmt == "sparse":
        entries = obj.get("entries")
        if not isinstance(entries, list):
            raise FormatError("sparse entries must be a list")
        data = np.zeros((dim,) * order, dtype=np.complex128)
        seen = set()
        for entry in entries:
            if not isinstance(entry, dict) or "idx" not in entry or "val" not in entry:
                raise FormatError("sparse entry must be {'idx': [...], 'val': ...}")
            idx = entry["idx"]
            if (
                not isinstance(idx, list)
                or len(idx) != order
                or not all(isinstance(c, int) and 1 <= c <= dim for c in idx)
            ):
                raise FormatError(f"sparse index {idx!r} invalid for order {order}, dim {dim}")
            key = tuple(idx)
            if key in seen:
                raise FormatError(f"duplicate sparse index {idx}")
            seen.add(key)
            data[tuple(c - 1 for c in idx)] = _decode_scalar(entry["val"], "sparse value")
        return Tensor(data)
    raise FormatError(f"unknown tensor format {fmt!r}")


def _read_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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
    if not isinstance(obj["m"], int):
        raise FormatError("witness order m must be an integer")
    p = tensor_from_dict(obj["P"])
    q = tensor_from_dict(obj["Q"])
    if p.order != 2 or q.order != 2:
        raise FormatError("witness members must be matrices (order 2)")
    return Witness(p, q, obj["m"])


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
    if not isinstance(obj["m"], int):
        raise FormatError("structured witness order m must be an integer")
    sigma = obj["sigma"]
    if not isinstance(sigma, list) or not all(isinstance(c, int) for c in sigma):
        raise FormatError("sigma must be a list of integers")
    dvals = obj["d"]
    if not isinstance(dvals, list):
        raise FormatError("d must be a list of scalars")
    d = [_decode_scalar(v, "diagonal value") for v in dvals]
    return StructuredWitness(
        Permutation(tuple(sigma)), DiagonalScaling(np.array(d)), obj["m"]
    )


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
    coeffs = [_decode_scalar(c, "charpoly coefficient") for c in obj["coeffs"]]
    if "degree" in obj and obj["degree"] != len(coeffs) - 1:
        raise FormatError("charpoly degree does not match coefficient count")
    return CharPoly(tuple(coeffs))
