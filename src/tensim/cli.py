"""Command-line front end.

Every invocation writes exactly one JSON document to standard output and a
short human-readable summary to standard error; ``-o`` saves the printed
bytes (for ``decide``, the witness alone).  Exit codes:

* 0: success or affirmative answer;
* 1: well-formed negative answer (not similar, check failed);
* 2: usage or input error (unreadable file, input over the entry limit, a
  ``--diag`` entry that is zero, not finite, or of magnitude at most 1e-300);
* 3: numeric failure: a result is not finite, so strict JSON cannot hold it
  (``charpoly`` past the float range or where the eigenvalue iteration does
  not converge), or ``decide`` finds the tensors similar but no witness with
  every ``d`` entry in the float range.

After an error standard output stays empty.  Numbers are printed with
shortest round-trip representation, so identical inputs produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import io as tio
from .core import Tensor, is_diagonal, nnz
from .decision import (
    DECISION_TOL,
    decide_similar,
    similarity_invariants,
    triangularizable_pattern,
)
from .errors import FormatError, TensimError, WitnessError
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
from .spectral import _char_poly_and_spectrum

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


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
    return DiagonalScaling(np.array(values))  # DiagonalScaling rejects entries not finite and nonzero


def _tolerance(text: str) -> float:
    """The argparse type of the tolerance flags: a finite number >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be a finite number >= 0, got {text!r}")
    return value


# ---------------------------------------------------------------------------
# Command handlers: return (document, exit code, summary, what -o saves)
# ---------------------------------------------------------------------------


def _cmd_product(args) -> tuple[dict, int, str, dict | None]:
    a = tio.read_tensor(args.a)
    b = tio.read_tensor(args.b)
    result = general_product(a, b)
    doc = tio.tensor_to_dict(result)
    return doc, EXIT_OK, (
        f"product: order {a.order} x order {b.order} -> order {result.order}, "
        f"dim {result.dim}, nnz {nnz(result)}"
    ), doc


def _cmd_transform(args) -> tuple[dict, int, str, dict | None]:
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
    return doc, EXIT_OK, f"transform applied ({' then '.join(steps)}), nnz {nnz(result)}", doc


def _cmd_check_witness(args) -> tuple[dict, int, str, dict | None]:
    w = Witness(tio.read_tensor(args.p), tio.read_tensor(args.q), args.m)
    report = witness_structure_report(w, tol=args.tol_structural)
    doc = report.to_dict()
    ok = report.unit_preserving and report.passed
    summary = "witness checks passed" if ok else "witness checks FAILED"
    return doc, EXIT_OK if ok else EXIT_NEGATIVE, summary, None


def _cmd_decompose(args) -> tuple[dict, int, str, dict | None]:
    w = Witness(tio.read_tensor(args.p), tio.read_tensor(args.q), args.m)
    try:
        s = decompose_witness(
            w, structural_tol=args.tol_structural, compare_tol=args.tol_compare
        )
    except WitnessError as exc:
        doc = {"decomposed": False, "error": str(exc)}
        return doc, EXIT_NEGATIVE, f"not decomposable: {exc}", None
    doc = tio.structured_witness_to_dict(s)
    return doc, EXIT_OK, f"decomposed: sigma={list(s.sigma.images)}", doc


def _cmd_decide(args) -> tuple[dict, int, str, dict | None]:
    a = tio.read_tensor(args.a)
    b = tio.read_tensor(args.b)
    witness = decide_similar(a, b, rtol=args.tol_compare)
    if witness is None:
        return {"similar": False}, EXIT_NEGATIVE, "not similar", None
    doc = {"similar": True, "witness": tio.structured_witness_to_dict(witness)}
    return doc, EXIT_OK, f"similar via sigma={list(witness.sigma.images)}", doc["witness"]


def _cmd_invariants(args) -> tuple[dict, int, str, dict | None]:
    a = tio.read_tensor(args.a)
    report = similarity_invariants(a)
    return report.to_dict(), EXIT_OK, f"nnz={report.nnz}, diagonal={report.is_diagonal}", None


def _cmd_charpoly(args) -> tuple[dict, int, str, dict | None]:
    a = tio.read_tensor(args.a)
    cp, spectrum = _char_poly_and_spectrum(a)
    doc = {
        "char_poly": tio.charpoly_to_dict(cp),
        "spectrum": [[r.real, r.imag] for r in spectrum],
        # phi is monic, so it never vanishes; the key keeps the document's shape
        "degenerate": False,
    }
    return doc, EXIT_OK, f"degree {cp.degree}, {len(spectrum)} roots", None


# ---------------------------------------------------------------------------
# Demos
# ---------------------------------------------------------------------------


def _tensor_entries(t: Tensor) -> list:
    return tio.tensor_to_dict(t)["entries"]


def _demo_order2_nnz() -> tuple[dict, str]:
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
    return doc, f"N(A)={nnz(a)} != N(B)={nnz(b)} although B = P A Q with P Q = I"


def _demo_order2_diagonalization() -> tuple[dict, str]:
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
            "witness_d": tio._encode(sw.d.values),
            "transformed": _tensor_entries(transformed),
            "transformed_is_diagonal": bool(is_diagonal(transformed)),
        },
    }
    return doc, "order-2 diagonalization succeeds; order-3 diagonal tensors stay diagonal"


def _demo_no_triangular_form() -> tuple[dict, str]:
    """A pattern no relabeling makes upper triangular."""
    data = np.zeros((2, 2, 2), dtype=complex)
    data[0, 1, 1] = 1.0
    data[1, 0, 0] = 1.0
    t = Tensor(data)
    certificate = []
    for images in ((1, 2), (2, 1)):
        relabeled = permutation_transform(t, Permutation(images))
        nonzeros = (relabeled.nonzeros + 1).tolist()
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
    return doc, "no relabeling of the pattern is upper triangular (both permutations checked)"


_DEMOS = {
    "remark-3-4": _demo_order2_nnz,
    "remark-3-7": _demo_order2_diagonalization,
    "remark-3-10": _demo_no_triangular_form,
}


def _cmd_demo(args) -> tuple[dict, int, str, dict | None]:
    doc, summary = _DEMOS[args.name]()
    return doc, EXIT_OK, summary, None


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


@functools.cache  # built on first use, then reused by every call of main
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
    p_cw.add_argument("--tol-structural", type=_tolerance, default=STRUCTURAL_TOL)
    p_cw.set_defaults(handler=_cmd_check_witness)

    p_dc = sub.add_parser("decompose", help="canonical (sigma, d) form of a witness pair")
    p_dc.add_argument("p", help="matrix file for P")
    p_dc.add_argument("q", help="matrix file for Q")
    p_dc.add_argument("--m", type=int, required=True, help="intended tensor order (>= 3)")
    p_dc.add_argument("--tol-structural", type=_tolerance, default=STRUCTURAL_TOL)
    p_dc.add_argument("--tol-compare", type=_tolerance, default=COMPARE_TOL)
    p_dc.add_argument("-o", "--out", help="also write the structured witness to this file")
    p_dc.set_defaults(handler=_cmd_decompose)

    p_ds = sub.add_parser("decide", help="decide similarity of two tensors (order >= 3)")
    p_ds.add_argument("a", help="first tensor file")
    p_ds.add_argument("b", help="second tensor file")
    p_ds.add_argument("--tol-compare", type=_tolerance, default=DECISION_TOL,
                      help="relative reconstruction tolerance for accepting a witness; at 0 "
                      "only an exact rebuild is accepted, which a complex self-pair may miss")
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
        doc, code, summary, saved = args.handler(args)
        try:
            text = tio._dumps(doc)
        except ValueError as exc:  # NaN or an infinity somewhere in the result
            print(f"numeric failure: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        if saved is not None and args.out:
            Path(args.out).write_text(text if saved is doc else tio._dumps(saved))
    except (TensimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError as exc:  # a witness exists, but none in the float range
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    sys.stdout.write(text)
    print(summary, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
