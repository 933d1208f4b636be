"""Command-line front end.

Every invocation writes exactly one JSON document to standard output and a
short human-readable summary to standard error.  Exit codes:

* 0: success or affirmative answer;
* 1: well-formed negative answer (not similar, check failed);
* 2: usage or input error;
* 3: numeric failure (tolerance breach, degenerate polynomial).

Numbers are printed with shortest round-trip representation, so identical
inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys

import numpy as np

from . import io as tio
from .core import Tensor, is_diagonal, nnz
from .decision import (
    DECISION_TOL,
    decide_similar,
    similarity_invariants,
    triangularizable_pattern,
)
from .errors import (
    FormatError,
    OrderError,
    ShapeError,
    TensimError,
    UnsupportedDimensionError,
    WitnessError,
)
from .product import general_product
from .similarity import (
    COMPARE_TOL,
    STRUCTURAL_TOL,
    DiagonalScaling,
    Permutation,
    StructuredWitness,
    Witness,
    decompose_witness,
    diagonal_transform,
    permutation_transform,
    structured_transform,
    witness_structure_report,
)
from .spectral import char_poly_dim2, spectrum_dim2

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _emit(doc: dict, summary: str) -> None:
    print(json.dumps(doc, indent=2))
    print(summary, file=sys.stderr)


def _parse_perm(text: str) -> Permutation:
    try:
        images = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise FormatError(f"cannot parse permutation {text!r}: {exc}") from exc
    return Permutation(images)


def _parse_diag(text: str) -> DiagonalScaling:
    values = []
    for part in text.split(","):
        literal = part.strip().replace("i", "j")
        try:
            values.append(complex(literal))
        except ValueError as exc:
            raise FormatError(f"cannot parse diagonal entry {part!r}") from exc
        if not cmath.isfinite(values[-1]):
            raise FormatError(f"diagonal entry {part!r} is not finite")
    return DiagonalScaling(np.array(values))


# ---------------------------------------------------------------------------
# Command handlers: return (document, exit code, summary)
# ---------------------------------------------------------------------------


def _cmd_product(args) -> tuple[dict, int, str]:
    a = tio.read_tensor(args.a)
    b = tio.read_tensor(args.b)
    result = general_product(a, b)
    doc = tio.tensor_to_dict(result)
    if args.out:
        tio.write_tensor(result, args.out)
    return doc, EXIT_OK, (
        f"product: order {a.order} x order {b.order} -> order {result.order}, "
        f"dim {result.dim}, nnz {nnz(result)}"
    )


def _cmd_transform(args) -> tuple[dict, int, str]:
    a = tio.read_tensor(args.a)
    if args.perm is None and args.diag is None:
        raise FormatError("nothing to apply: pass --perm and/or --diag")
    result = a
    steps = []
    if args.diag is not None:
        scaling = _parse_diag(args.diag)
        result = diagonal_transform(result, scaling)
        steps.append("diagonal")
    if args.perm is not None:
        sigma = _parse_perm(args.perm)
        # witness orientation: relabel by sigma inverse, so that applying the
        # (sigma, d) pair emitted by `decide` reproduces the decided tensor
        result = permutation_transform(result, sigma.inverse())
        steps.append("permutation")
    doc = tio.tensor_to_dict(result)
    if args.out:
        tio.write_tensor(result, args.out)
    return doc, EXIT_OK, f"transform applied ({' then '.join(steps)}), nnz {nnz(result)}"


def _load_witness(path_p: str, path_q: str, m: int) -> Witness:
    p = tio.read_tensor(path_p)
    q = tio.read_tensor(path_q)
    try:
        return Witness(p, q, m)
    except (ShapeError, OrderError) as exc:
        raise FormatError(str(exc)) from exc


def _cmd_check_witness(args) -> tuple[dict, int, str]:
    w = _load_witness(args.p, args.q, args.m)
    report = witness_structure_report(w, tol=args.tol_structural)
    doc = report.to_dict()
    ok = report.unit_preserving and report.passed
    summary = "witness checks passed" if ok else "witness checks FAILED"
    return doc, EXIT_OK if ok else EXIT_NEGATIVE, summary


def _cmd_decompose(args) -> tuple[dict, int, str]:
    w = _load_witness(args.p, args.q, args.m)
    try:
        s = decompose_witness(
            w, structural_tol=args.tol_structural, compare_tol=args.tol_compare
        )
    except WitnessError as exc:
        return {"decomposed": False, "error": str(exc)}, EXIT_NEGATIVE, f"not decomposable: {exc}"
    doc = tio.structured_witness_to_dict(s)
    if args.out:
        tio.write_structured_witness(s, args.out)
    return doc, EXIT_OK, f"decomposed: sigma={list(s.sigma.images)}"


def _cmd_decide(args) -> tuple[dict, int, str]:
    a = tio.read_tensor(args.a)
    b = tio.read_tensor(args.b)
    witness = decide_similar(a, b, rtol=args.tol_compare)
    if witness is None:
        return {"similar": False}, EXIT_NEGATIVE, "not similar"
    doc = {"similar": True, "witness": tio.structured_witness_to_dict(witness)}
    if args.out:
        tio.write_structured_witness(witness, args.out)
    return doc, EXIT_OK, f"similar via sigma={list(witness.sigma.images)}"


def _cmd_invariants(args) -> tuple[dict, int, str]:
    a = tio.read_tensor(args.a)
    report = similarity_invariants(a)
    return report.to_dict(), EXIT_OK, f"nnz={report.nnz}, diagonal={report.is_diagonal}"


def _cmd_charpoly(args) -> tuple[dict, int, str]:
    a = tio.read_tensor(args.a)
    cp = char_poly_dim2(a)
    spectrum = spectrum_dim2(a)
    degenerate = spectrum is None
    doc = {
        "char_poly": tio.charpoly_to_dict(cp),
        "spectrum": None if degenerate else [[r.real, r.imag] for r in spectrum],
        "degenerate": degenerate,
    }
    if degenerate:
        return doc, EXIT_NUMERIC, "degenerate: characteristic polynomial vanishes"
    return doc, EXIT_OK, f"degree {cp.degree}, {len(spectrum)} roots"


# ---------------------------------------------------------------------------
# Demos
# ---------------------------------------------------------------------------


def _tensor_entries(t: Tensor) -> list:
    return tio.tensor_to_dict(t)["entries"]


def _demo_order2_nnz() -> tuple[dict, int, str]:
    """Order-2 counterexample: similarity does not preserve the nonzero count."""
    p = Tensor([[1, 0], [1, 1]])
    q = Tensor([[1, 0], [-1, 1]])
    a = Tensor([[0, 1], [0, 0]])
    pq = Tensor(p.data @ q.data)
    b = Tensor(p.data @ a.data @ q.data)
    doc = {
        "name": "remark-3-4",
        "claim": "for order 2, similar matrices can have different numbers of nonzeros",
        "P": _tensor_entries(p),
        "Q": _tensor_entries(q),
        "PQ": _tensor_entries(pq),
        "PQ_is_identity": bool(np.array_equal(pq.data, np.eye(2))),
        "A": _tensor_entries(a),
        "B": _tensor_entries(b),
        "nnz_A": nnz(a),
        "nnz_B": nnz(b),
        "contrast": "for order >= 3 the nonzero count is a similarity invariant",
    }
    summary = f"N(A)={nnz(a)} != N(B)={nnz(b)} although B = P A Q with P Q = I"
    return doc, EXIT_OK, summary


def _demo_order2_diagonalization() -> tuple[dict, int, str]:
    """Order-2 diagonalizability versus the rigidity of diagonal tensors."""
    s = Tensor([[1, 1], [1, -1]])
    s_inv = Tensor([[0.5, 0.5], [0.5, -0.5]])
    a = Tensor([[0, 1], [1, 0]])
    b = Tensor(s_inv.data @ a.data @ s.data)
    diag = Tensor(np.array([[[1, 0], [0, 0]], [[0, 0], [0, -2]]], dtype=complex))
    sw = StructuredWitness(
        Permutation((2, 1)), DiagonalScaling(np.array([2.0, 3.0])), 3
    )
    transformed = structured_transform(diag, sw)
    doc = {
        "name": "remark-3-7",
        "claim": (
            "an order-2 symmetric matrix is similar to a diagonal matrix without "
            "being diagonal; for order >= 3 a tensor similar to a diagonal tensor "
            "is itself diagonal"
        ),
        "matrix_case": {
            "A": _tensor_entries(a),
            "S": _tensor_entries(s),
            "S_inv_A_S": _tensor_entries(b),
            "A_is_diagonal": bool(is_diagonal(a)),
            "similar_to_diagonal": True,
        },
        "tensor_case": {
            "order": 3,
            "diagonal_tensor": _tensor_entries(diag),
            "witness_sigma": list(sw.sigma.images),
            "witness_d": [tio._encode_scalar(v) for v in sw.d.values],
            "transformed": _tensor_entries(transformed),
            "transformed_is_diagonal": bool(is_diagonal(transformed)),
        },
    }
    return doc, EXIT_OK, "order-2 diagonalization succeeds; order-3 diagonal tensors stay diagonal"


def _demo_no_triangular_form() -> tuple[dict, int, str]:
    """A pattern no relabeling makes upper triangular."""
    data = np.zeros((2, 2, 2), dtype=complex)
    data[0, 1, 1] = 1.0
    data[1, 0, 0] = 1.0
    t = Tensor(data)
    certificate = []
    for images in ((1, 2), (2, 1)):
        relabeled = permutation_transform(t, Permutation(images))
        nonzeros = (np.argwhere(relabeled.data != 0) + 1).tolist()
        violation = next((pos for pos in nonzeros if min(pos[1:]) < pos[0]), None)
        certificate.append(
            {
                "sigma": list(images),
                "relabeled_nonzeros": nonzeros,
                "upper_triangular": violation is None,
                "violating_position": violation,
            }
        )
    verdict = triangularizable_pattern(t)
    doc = {
        "name": "remark-3-10",
        "claim": (
            "not every tensor is similar to an upper triangular tensor, so no "
            "triangular canonical form exists for order >= 3"
        ),
        "tensor": tio.tensor_to_dict(t, format="sparse")["entries"],
        "order": 3,
        "dim": 2,
        "exhaustive_certificate": certificate,
        "triangularizable": verdict is not None,
    }
    return doc, EXIT_OK, "no relabeling of the pattern is upper triangular (both permutations checked)"


_DEMOS = {
    "remark-3-4": _demo_order2_nnz,
    "remark-3-7": _demo_order2_diagonalization,
    "remark-3-10": _demo_no_triangular_form,
}


def _cmd_demo(args) -> tuple[dict, int, str]:
    return _DEMOS[args.name]()


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensim",
        description="Tensor similarity toolkit: products, transforms, witnesses, "
        "decision procedure, invariants, and dim-2 spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_prod = sub.add_parser("product", help="general product of two tensor files")
    p_prod.add_argument("a", help="left tensor file (order >= 2)")
    p_prod.add_argument("b", help="right tensor file (order >= 1)")
    p_prod.add_argument("-o", "--out", help="also write the result to this file")
    p_prod.set_defaults(handler=_cmd_product)

    p_tr = sub.add_parser(
        "transform",
        help="apply a diagonal scaling and/or a permutation (diagonal first); "
        "interprets (--perm, --diag) as a structured witness, so piping the "
        "output of `decide` back through `transform` reproduces the target",
    )
    p_tr.add_argument("a", help="tensor file")
    p_tr.add_argument("--perm", help="witness permutation as images 'sigma(1),sigma(2),...'")
    p_tr.add_argument(
        "--diag",
        help="diagonal entries, e.g. '2,3' or '1+2i,0.5'; use --diag=... when "
        "the first entry starts with a minus sign",
    )
    p_tr.add_argument("-o", "--out", help="also write the result to this file")
    p_tr.set_defaults(handler=_cmd_transform)

    p_cw = sub.add_parser("check-witness", help="unit preservation and structure checks")
    p_cw.add_argument("p", help="matrix file for P")
    p_cw.add_argument("q", help="matrix file for Q")
    p_cw.add_argument("--m", type=int, required=True, help="intended tensor order")
    p_cw.add_argument("--tol-structural", type=float, default=STRUCTURAL_TOL)
    p_cw.set_defaults(handler=_cmd_check_witness)

    p_dc = sub.add_parser("decompose", help="canonical (sigma, d) form of a witness pair")
    p_dc.add_argument("p", help="matrix file for P")
    p_dc.add_argument("q", help="matrix file for Q")
    p_dc.add_argument("--m", type=int, required=True, help="intended tensor order (>= 3)")
    p_dc.add_argument("--tol-structural", type=float, default=STRUCTURAL_TOL)
    p_dc.add_argument("--tol-compare", type=float, default=COMPARE_TOL)
    p_dc.add_argument("-o", "--out", help="also write the structured witness to this file")
    p_dc.set_defaults(handler=_cmd_decompose)

    p_ds = sub.add_parser("decide", help="decide similarity of two tensors (order >= 3)")
    p_ds.add_argument("a", help="first tensor file")
    p_ds.add_argument("b", help="second tensor file")
    p_ds.add_argument("--tol-compare", type=float, default=DECISION_TOL,
                      help="relative reconstruction tolerance for accepting a witness")
    p_ds.add_argument("-o", "--out", help="write the structured witness here on success")
    p_ds.set_defaults(handler=_cmd_decide)

    p_inv = sub.add_parser("invariants", help="similarity-invariant report of a tensor")
    p_inv.add_argument("a", help="tensor file")
    p_inv.set_defaults(handler=_cmd_invariants)

    p_cp = sub.add_parser("charpoly", help="characteristic polynomial and spectrum (dim 2)")
    p_cp.add_argument("a", help="tensor file with dim 2")
    p_cp.set_defaults(handler=_cmd_charpoly)

    p_demo = sub.add_parser("demo", help="self-contained demonstration scenarios")
    p_demo.add_argument("name", choices=sorted(_DEMOS))
    p_demo.set_defaults(handler=_cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code) if exc.code else EXIT_OK
    try:
        doc, code, summary = args.handler(args)
    except (FormatError, ShapeError, OrderError, UnsupportedDimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except WitnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except TensimError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    _emit(doc, summary)
    return code


if __name__ == "__main__":
    sys.exit(main())
