import argparse
import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from tensim import (
    DiagonalScaling,
    Permutation,
    StructuredWitness,
    Tensor,
    char_poly_dim2,
    clean,
    compose_witness,
    diagonal_tensor,
    max_abs_diff,
    spectra_match,
    spectrum_dim2,
    structured_transform,
    unit_tensor,
)
from tensim import io as tio
from tensim import spectral
from tensim.cli import build_parser, main
from tensim.generate import random_structured_witness, random_tensor
from tensim.io import tensor_from_dict, write_tensor

from reference import chain_pair, cycles_pair, numpy_pair, sts_pg, witness_in_range

GOLDEN_DIR = Path(__file__).parent / "golden"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestDemosGolden:
    @pytest.mark.parametrize("name", ["remark-3-4", "remark-3-7", "remark-3-10"])
    def test_byte_exact_output(self, name):
        code, out, _ = run_cli(["demo", name])
        assert code == 0
        golden = (GOLDEN_DIR / f"demo_{name}.json").read_text()
        assert out == golden

    def test_demos_deterministic(self):
        first = run_cli(["demo", "remark-3-4"])
        second = run_cli(["demo", "remark-3-4"])
        assert first == second

    def test_order2_counterexample_content(self):
        code, out, _ = run_cli(["demo", "remark-3-4"])
        doc = json.loads(out)
        assert doc["nnz_A"] == 1
        assert doc["nnz_B"] == 4
        assert doc["PQ_is_identity"] is True

    def test_triangular_certificate_content(self):
        code, out, _ = run_cli(["demo", "remark-3-10"])
        doc = json.loads(out)
        assert doc["triangularizable"] is False
        assert len(doc["exhaustive_certificate"]) == 2
        for entry in doc["exhaustive_certificate"]:
            assert entry["upper_triangular"] is False
            assert entry["violating_position"] is not None

    def test_diagonal_rigidity_content(self):
        code, out, _ = run_cli(["demo", "remark-3-7"])
        doc = json.loads(out)
        assert doc["matrix_case"]["A_is_diagonal"] is False
        assert doc["tensor_case"]["transformed_is_diagonal"] is True


class TestProductCommand:
    def test_output_reparses(self, tmp_path):
        write_tensor(unit_tensor(3, 2), tmp_path / "i.json")
        write_tensor(Tensor([[1, 2], [0, 1]]), tmp_path / "q.json")
        code, out, _ = run_cli(["product", str(tmp_path / "i.json"), str(tmp_path / "q.json")])
        assert code == 0
        result = tensor_from_dict(json.loads(out))
        assert result.order == 3 and result.dim == 2

    def test_out_file_written(self, tmp_path):
        write_tensor(unit_tensor(2, 2), tmp_path / "a.json")
        write_tensor(unit_tensor(2, 2), tmp_path / "b.json")
        out_path = tmp_path / "result.json"
        code, _, _ = run_cli(
            ["product", str(tmp_path / "a.json"), str(tmp_path / "b.json"), "-o", str(out_path)]
        )
        assert code == 0
        assert tensor_from_dict(json.loads(out_path.read_text())) == unit_tensor(2, 2)

    def test_missing_file_is_usage_error(self, tmp_path):
        code, out, err = run_cli(["product", str(tmp_path / "no.json"), str(tmp_path / "no.json")])
        assert code == 2
        assert out == ""


class TestTransformCommand:
    def test_roundtrip_through_decide(self, tmp_path):
        rng = np.random.default_rng(21)
        a = random_tensor(rng, 3, 3, density=0.5)
        s = random_structured_witness(rng, 3, 3)
        b = structured_transform(a, s)
        write_tensor(a, tmp_path / "a.json")
        write_tensor(clean(b), tmp_path / "b.json")
        code, out, _ = run_cli(["decide", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
        assert code == 0
        doc = json.loads(out)
        assert doc["similar"] is True
        sigma = ",".join(str(v) for v in doc["witness"]["sigma"])
        diag = ",".join(
            f"{re}" if im == 0 else f"{re}{im:+}i" for re, im in doc["witness"]["d"]
        )
        code, out, _ = run_cli(
            ["transform", str(tmp_path / "a.json"), f"--perm={sigma}", f"--diag={diag}"]
        )
        assert code == 0
        rebuilt = tensor_from_dict(json.loads(out))
        scale = max(1.0, float(np.max(np.abs(b.data))))
        assert max_abs_diff(rebuilt, b) <= 1e-8 * scale

    def test_requires_some_transform(self, tmp_path):
        write_tensor(unit_tensor(3, 2), tmp_path / "a.json")
        code, _, _ = run_cli(["transform", str(tmp_path / "a.json")])
        assert code == 2

    def test_diagonal_only(self, tmp_path):
        data = np.zeros((2, 2, 2), dtype=complex)
        data[0, 1, 1] = 5.0
        write_tensor(Tensor(data), tmp_path / "a.json")
        code, out, _ = run_cli(["transform", str(tmp_path / "a.json"), "--diag", "2,3"])
        assert code == 0
        result = tensor_from_dict(json.loads(out))
        assert result.data[0, 1, 1] == 11.25

    def test_bad_diag_literal(self, tmp_path):
        write_tensor(unit_tensor(3, 2), tmp_path / "a.json")
        code, _, _ = run_cli(["transform", str(tmp_path / "a.json"), "--diag", "2,oops"])
        assert code == 2

    def test_non_finite_diag_entry(self, tmp_path):
        write_tensor(unit_tensor(3, 2), tmp_path / "a.json")
        code, _, err = run_cli(["transform", str(tmp_path / "a.json"), "--diag", "2,nan"])
        assert code == 2
        assert "finite" in err

    def test_tiny_diag_entry_is_usage_error(self, tmp_path):
        # parsed, but at most 1e-300 in magnitude: DiagonalScaling rejects it
        write_tensor(unit_tensor(3, 2), tmp_path / "a.json")
        code, out, err = run_cli(["transform", str(tmp_path / "a.json"), "--diag=1e-310,1"])
        assert (code, out) == (2, "")
        assert "nonzero" in err

    def test_bad_perm_literal(self, tmp_path):
        write_tensor(unit_tensor(3, 2), tmp_path / "a.json")
        code, out, _ = run_cli(["transform", str(tmp_path / "a.json"), "--perm=1,x"])
        assert (code, out) == (2, "")

    def test_zero_diag_entry_is_usage_error(self, tmp_path):
        # a zero scaling once exited 1, the code of a negative answer
        write_tensor(unit_tensor(3, 2), tmp_path / "a.json")
        code, out, err = run_cli(["transform", str(tmp_path / "a.json"), "--diag", "0,1"])
        assert (code, out) == (2, "")
        assert "nonzero" in err


def witness_pair(tmp_path):
    """Writes P and Q of the witness sigma = (2, 1), d = (2, 3), m = 3, and
    returns their command-line arguments."""
    w = compose_witness(StructuredWitness(Permutation((2, 1)), DiagonalScaling([2.0, 3.0]), 3))
    write_tensor(w.p, tmp_path / "p.json")
    write_tensor(w.q, tmp_path / "q.json")
    return [str(tmp_path / "p.json"), str(tmp_path / "q.json"), "--m", "3"]


class TestWitnessCommands:
    def test_check_witness_passes(self, tmp_path):
        witness_pair(tmp_path)
        code, out, _ = run_cli(
            ["check-witness", str(tmp_path / "p.json"), str(tmp_path / "q.json"), "--m", "3"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["unit_preserving"] and doc["passed"]

    def test_check_witness_failure_exit_code(self, tmp_path):
        write_tensor(Tensor([[1, 1], [0, 1]]), tmp_path / "p.json")
        write_tensor(Tensor([[1, 1], [0, 1]]), tmp_path / "q.json")
        code, out, _ = run_cli(
            ["check-witness", str(tmp_path / "p.json"), str(tmp_path / "q.json"), "--m", "3"]
        )
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_decompose_frozen(self, tmp_path):
        witness_pair(tmp_path)
        code, out, _ = run_cli(
            ["decompose", str(tmp_path / "p.json"), str(tmp_path / "q.json"), "--m", "3"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["sigma"] == [2, 1]
        assert doc["d"] == [[2.0, 0.0], [3.0, 0.0]]

    def test_decompose_negative(self, tmp_path):
        write_tensor(Tensor([[1, 1], [0, 1]]), tmp_path / "p.json")
        write_tensor(Tensor([[1, 1], [0, 1]]), tmp_path / "q.json")
        code, out, _ = run_cli(
            ["decompose", str(tmp_path / "p.json"), str(tmp_path / "q.json"), "--m", "3"]
        )
        assert code == 1
        assert json.loads(out)["decomposed"] is False

    @pytest.mark.parametrize("m", [3, 4])
    def test_decompose_names_the_row(self, tmp_path, m):
        s = StructuredWitness(Permutation.identity(2), DiagonalScaling([100, 1]), m)
        w = compose_witness(s)
        q = w.q.data.copy()
        q[0, 1] = 2e-10
        write_tensor(w.p, tmp_path / "p.json")
        write_tensor(Tensor(q), tmp_path / "q.json")
        code, out, _ = run_cli(
            ["decompose", str(tmp_path / "p.json"), str(tmp_path / "q.json"), "--m", str(m)]
        )
        assert code == 1
        assert json.loads(out) == {
            "decomposed": False,
            "error": "row 1 of Q has 2 entries above 1e-10; expected exactly one",
        }

    @pytest.mark.parametrize("m, n", [(6, 22), (4, 60)])
    def test_witness_past_the_dense_limit(self, tmp_path, m, n):
        s = random_structured_witness(np.random.default_rng(n), m, n)
        w = compose_witness(s)
        write_tensor(w.p, tmp_path / "p.json")
        write_tensor(w.q, tmp_path / "q.json")
        pair = [str(tmp_path / "p.json"), str(tmp_path / "q.json"), "--m", str(m)]
        code, out, _ = run_cli(["check-witness", *pair])
        assert code == 0 and json.loads(out)["passed"] is True
        code, out, _ = run_cli(["decompose", *pair])
        assert code == 0 and json.loads(out)["sigma"] == list(s.sigma.images)

    def test_dense_q_over_the_enumeration_limit_is_usage_error(self, tmp_path):
        write_tensor(Tensor(np.random.default_rng(0).normal(size=(22, 22))), tmp_path / "q.json")
        q = str(tmp_path / "q.json")
        for command in ("check-witness", "decompose"):
            code, out, err = run_cli([command, q, q, "--m", "6"])
            assert (code, out) == (2, ""), command
            assert "tails" in err

    def test_huge_order_is_usage_error(self, tmp_path):
        pair = witness_pair(tmp_path)[:2]
        start = time.perf_counter()
        for command in ("check-witness", "decompose"):
            code, out, _ = run_cli([command, *pair, "--m", "1000000000"])
            assert (code, out) == (2, ""), command
        assert time.perf_counter() - start < 1.0


class TestDecideCommand:
    def test_self_similarity(self, tmp_path):
        write_tensor(unit_tensor(3, 2), tmp_path / "a.json")
        code, out, _ = run_cli(["decide", str(tmp_path / "a.json"), str(tmp_path / "a.json")])
        assert code == 0
        doc = json.loads(out)
        assert doc["similar"] is True
        assert doc["witness"]["sigma"] == [1, 2]

    def test_negative_answer(self, tmp_path):
        write_tensor(unit_tensor(3, 2), tmp_path / "a.json")
        data = np.zeros((2, 2, 2), dtype=complex)
        data[0, 0, 0] = data[1, 1, 1] = data[0, 1, 1] = 1.0
        write_tensor(Tensor(data), tmp_path / "b.json")
        code, out, _ = run_cli(["decide", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
        assert code == 1
        assert json.loads(out) == {"similar": False}

    def test_non_finite_entry_is_usage_error(self, tmp_path):
        # a NaN entry once made a tensor "not similar" to itself (exit 1)
        path = tmp_path / "nan.json"
        path.write_text(
            '{"order": 3, "dim": 2, "format": "sparse", "entries": '
            '[{"idx": [1, 1, 1], "val": NaN}, {"idx": [1, 2, 2], "val": 1.5}]}'
        )
        code, out, err = run_cli(["decide", str(path), str(path)])
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_subnormal_self_pair(self, tmp_path):
        # numpy's complex 1e-310 / 1e-310 is inf + nan j, which once made this exit 1
        entries = [{"idx": [1, 1, 2], "val": 1e-310}, {"idx": [2, 1, 1], "val": 2}]
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"order": 3, "dim": 2, "format": "sparse", "entries": entries}))
        code, out, _ = run_cli(["decide", str(path), str(path)])
        assert code == 0 and json.loads(out)["witness"]["sigma"] == [1, 2]

    def test_witness_file_written(self, tmp_path):
        write_tensor(unit_tensor(3, 2), tmp_path / "a.json")
        out_path = tmp_path / "w.json"
        code, _, _ = run_cli(
            ["decide", str(tmp_path / "a.json"), str(tmp_path / "a.json"), "-o", str(out_path)]
        )
        assert code == 0
        from tensim.io import read_structured_witness

        s = read_structured_witness(out_path)
        assert s.m == 3

    def test_opposite_diagonals_near_the_float_maximum(self, tmp_path):
        # the diagonal mask's difference overflows; under warnings as errors
        # that once ended the command with a RuntimeWarning
        t = np.zeros((3, 3, 3))
        t[0, 0, 0], t[1, 1, 1], t[2, 0, 1] = 1.7e308, -1.7e308, 1.0
        write_tensor(Tensor(t), tmp_path / "t.json")
        code, out, _ = run_cli(["decide", str(tmp_path / "t.json"), str(tmp_path / "t.json")])
        assert code == 0 and json.loads(out)["witness"]["sigma"] == [1, 2, 3]

    @staticmethod
    def chain_files(tmp_path, n, step):
        """The files of :func:`reference.chain_pair`."""
        a, b = chain_pair(n, step)
        write_tensor(Tensor(a), tmp_path / "a.json")
        write_tensor(Tensor(b), tmp_path / "b.json")
        return [str(tmp_path / "a.json"), str(tmp_path / "b.json")]

    @pytest.mark.parametrize("step", [700.0, -700.0])
    def test_witness_past_the_gauge_range(self, tmp_path, step):
        # with d = 1 at label 4, |d_1| is exp(+-1050); centred, every d fits
        code, out, _ = run_cli(["decide", *self.chain_files(tmp_path, 4, step)])
        assert code == 0
        d = np.array([complex(re, im) for re, im in json.loads(out)["witness"]["d"]])
        assert np.isfinite(d).all() and (np.abs(d) > 1e-300).all()

    @pytest.mark.parametrize("step", [700.0, -700.0])
    def test_no_witness_in_the_float_range(self, tmp_path, step):
        code, out, err = run_cli(["decide", *self.chain_files(tmp_path, 6, step)])
        assert (code, out) == (3, "")
        assert "float range" in err


class TestDecideGolden:
    """``tensim decide`` stdout, byte for byte.  The dense pairs have distinct
    diagonals, so the diagonal values alone fix the relabeling; the sparse
    pair's zero diagonals leave the pattern search to fix it.  The symmetric
    pair, four disjoint 3-cycles (:func:`cycles_pair`, no density), is one
    that refinement cannot settle: the search branches, and the 1567th
    relabeling to reach the solve is the first accepted."""

    @pytest.mark.parametrize(
        "name, seed, m, n, density, fmt",
        [
            ("dense_fwd", 0, 3, 5, 1.0, "dense"),
            ("dense_not", 1, 4, 4, 1.0, "dense"),
            ("sparse_fwd", 2, 3, 12, 0.2, "sparse"),
            ("sparse_sym", 0, 3, 12, None, "sparse"),
        ],
    )
    def test_byte_exact_output(self, tmp_path, name, seed, m, n, density, fmt):
        a, b = cycles_pair(seed, n // 3) if density is None else numpy_pair(seed, m, n, density)
        if name == "dense_not":
            # one scaled entry changes the scaling invariant b[3,0,0,0] * b[0,3,3,3]
            b[(n - 1,) + (0,) * (m - 1)] *= 1.5
        write_tensor(Tensor(a), tmp_path / "a.json", format=fmt)
        write_tensor(Tensor(b), tmp_path / "b.json", format=fmt)
        code, out, _ = run_cli(["decide", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
        assert code == (1 if name == "dense_not" else 0)
        assert out == (GOLDEN_DIR / f"decide_{name}.json").read_text()


class TestInvariantsGolden:
    """``tensim invariants`` stdout, byte for byte: the ``a`` files of the
    ``dense_fwd`` and ``sparse_sym`` decide goldens, and the Steiner triple
    system of PG(3, 2), whose 15 labels colour refinement leaves in one cell."""

    @pytest.mark.parametrize(
        "name, fmt",
        [("dense_fwd", "dense"), ("sparse_sym", "sparse"), ("sts_pg3", "sparse")],
    )
    def test_byte_exact_output(self, tmp_path, name, fmt):
        a = {
            "dense_fwd": lambda: numpy_pair(0, 3, 5, 1.0)[0],
            "sparse_sym": lambda: cycles_pair(0, 4)[0],
            "sts_pg3": lambda: sts_pg(3),
        }[name]()
        write_tensor(Tensor(a), tmp_path / "a.json", format=fmt)
        code, out, _ = run_cli(["invariants", str(tmp_path / "a.json")])
        assert code == 0
        assert out == (GOLDEN_DIR / f"invariants_{name}.json").read_text()


class TestInvariantsCommand:
    def test_report_fields(self, tmp_path):
        write_tensor(unit_tensor(3, 2), tmp_path / "a.json")
        code, out, _ = run_cli(["invariants", str(tmp_path / "a.json")])
        assert code == 0
        doc = json.loads(out)
        assert doc["nnz"] == 2
        assert doc["is_diagonal"] is True
        assert doc["triangularizable"] is True


class TestCharpolyCommand:
    def test_diagonal_example(self, tmp_path):
        write_tensor(diagonal_tensor(3, [2, 3]), tmp_path / "a.json")
        code, out, _ = run_cli(["charpoly", str(tmp_path / "a.json")])
        assert code == 0
        doc = json.loads(out)
        assert doc["char_poly"]["degree"] == 4
        assert doc["degenerate"] is False
        roots = [complex(re, im) for re, im in doc["spectrum"]]
        assert np.max(np.abs(np.sort_complex(roots) - np.array([2, 2, 3, 3]))) < 1e-6

    def test_wrong_dim_is_usage_error(self, tmp_path):
        write_tensor(unit_tensor(3, 3), tmp_path / "a.json")
        code, _, _ = run_cli(["charpoly", str(tmp_path / "a.json")])
        assert code == 2

    def test_overflowing_forms_are_a_numeric_failure(self, tmp_path):
        # the first form sums 1e308 + 1e308: no finite polynomial exists
        entries = [[[1e308, 1e308], [1e308, 1e308]], [[0, 0], [0, 1]]]
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"order": 3, "dim": 2, "format": "dense", "entries": entries}))
        code, out, _ = run_cli(["charpoly", str(path)])
        assert (code, out) == (3, "")

    def test_eigenvalue_failure_is_a_numeric_failure(self, tmp_path):
        # finite forms on which LAPACK's eigenvalue iteration does not converge
        entries = [[[0, 1e60], [-1e70, 1e20]], [[1e20, -1e170], [0, 1e70]]]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"order": 3, "dim": 2, "format": "dense", "entries": entries}))
        code, out, _ = run_cli(["charpoly", str(path)])
        assert (code, out) == (3, "")

    def test_order8_wide_witness(self, tmp_path):
        # the wide witness range at order 8 spreads the entries over ~49 decades
        rng = np.random.default_rng(3)
        a = random_tensor(rng, 8, 2)
        b = structured_transform(a, witness_in_range(rng, 8, 2, (0.01, 100.0)))
        write_tensor(b, tmp_path / "b.json")
        code, out, _ = run_cli(["charpoly", str(tmp_path / "b.json")])
        assert code == 0
        doc = json.loads(out)
        assert doc["char_poly"]["degree"] == 14
        roots = [complex(re, im) for re, im in doc["spectrum"]]
        assert len(roots) == 14
        expected = spectrum_dim2(a)
        assert spectra_match(roots, expected, atol=1e-6 * max(1.0, max(map(abs, expected))))

    @pytest.mark.parametrize("order", [2, 3, 5])
    def test_one_sylvester_matrix_per_command(self, tmp_path, monkeypatch, order):
        built = []
        sylvester = spectral._sylvester_matrix

        def counted(a):
            built.append(a)
            return sylvester(a)

        monkeypatch.setattr(spectral, "_sylvester_matrix", counted)
        a = random_tensor(np.random.default_rng(order), order, 2)
        write_tensor(a, tmp_path / "a.json")
        code, out, _ = run_cli(["charpoly", str(tmp_path / "a.json")])
        assert code == 0
        assert len(built) == 1
        doc = json.loads(out)
        monkeypatch.undo()
        cp = tio.charpoly_to_dict(char_poly_dim2(a))
        assert doc["char_poly"] == json.loads(json.dumps(cp))
        assert doc["spectrum"] == [[r.real, r.imag] for r in spectrum_dim2(a)]


class TestOutputFiles:
    """``-o`` saves the printed bytes (for ``decide``, the witness), and only
    when the command succeeds."""

    def test_file_equals_stdout(self, tmp_path):
        write_tensor(unit_tensor(3, 2), tmp_path / "a.json")
        write_tensor(Tensor([[1, 2], [0, 1]]), tmp_path / "b.json")
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        for argv in (["product", a, b], ["transform", a, "--perm=2,1", "--diag=2,3"],
                     ["decompose", *witness_pair(tmp_path)]):
            out_path = tmp_path / f"{argv[0]}-out.json"
            code, out, _ = run_cli([*argv, "-o", str(out_path)])
            assert code == 0
            assert out_path.read_text() == out, argv[0]

    def test_decide_saves_the_witness_only_when_similar(self, tmp_path):
        write_tensor(unit_tensor(3, 2), tmp_path / "a.json")
        write_tensor(diagonal_tensor(3, [1, 2]), tmp_path / "b.json")
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        out_path = tmp_path / "w.json"
        code, out, _ = run_cli(["decide", a, b, "-o", str(out_path)])
        assert code == 1 and json.loads(out) == {"similar": False}
        assert not out_path.exists()
        code, out, _ = run_cli(["decide", a, a, "-o", str(out_path)])
        assert code == 0
        saved = json.loads(out_path.read_text())
        assert saved == json.loads(out)["witness"]
        assert set(saved) == {"m", "sigma", "d"}

    def test_out_directory_is_usage_error(self, tmp_path):
        write_tensor(unit_tensor(2, 2), tmp_path / "a.json")
        a = str(tmp_path / "a.json")
        code, out, err = run_cli(["product", a, a, "-o", str(tmp_path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_transform_encodes_the_result_once(self, tmp_path, monkeypatch):
        write_tensor(unit_tensor(3, 2), tmp_path / "a.json")
        calls = []
        encode = tio.tensor_to_dict
        monkeypatch.setattr(tio, "tensor_to_dict", lambda *a, **k: calls.append(1) or encode(*a, **k))
        code, _, _ = run_cli(
            ["transform", str(tmp_path / "a.json"), "--diag=2,3", "-o", str(tmp_path / "out.json")]
        )
        assert code == 0
        assert len(calls) == 1


class TestExitCodes:
    """An input error exits 2 and a result that is not finite exits 3, with
    nothing on stdout and no file written."""

    def test_non_finite_result_is_numeric_failure(self, tmp_path):
        write_tensor(Tensor(np.ones((2, 2, 2))), tmp_path / "a.json")
        write_tensor(Tensor(np.full((2, 2), 1e200)), tmp_path / "h.json")
        a, h, out_path = (str(tmp_path / name) for name in ("a.json", "h.json", "out.json"))
        for argv in (["transform", a, "--diag=1e200,1e-200"], ["product", a, h]):
            with np.errstate(over="ignore", invalid="ignore"):  # the overflow is the point
                code, out, err = run_cli([*argv, "-o", out_path])
            assert (code, out) == (3, ""), argv[0]
            assert err.startswith("numeric failure:")
            assert not Path(out_path).exists()

    def test_directory_input_is_usage_error(self, tmp_path):
        code, out, _ = run_cli(["invariants", str(tmp_path)])
        assert (code, out) == (2, "")

    def test_undecodable_input_is_usage_error(self, tmp_path):
        (tmp_path / "a.json").write_bytes(b"\xff\xfe")
        code, out, _ = run_cli(["invariants", str(tmp_path / "a.json")])
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("order, dim", [(10, 100), (3, 500)])
    def test_header_over_entry_limit_is_usage_error(self, tmp_path, order, dim):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"order": order, "dim": dim, "format": "sparse", "entries": []}))
        code, out, _ = run_cli(["invariants", str(path)])
        assert (code, out) == (2, "")

    def test_product_over_entry_limit_is_usage_error(self, tmp_path):
        write_tensor(unit_tensor(5, 3), tmp_path / "a.json")
        a = str(tmp_path / "a.json")
        code, out, _ = run_cli(["product", a, a])  # 3**17 entries
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("order, fmt", [(70, "sparse"), (65, "dense"), (64, "sparse")])
    def test_header_past_numpy_order_limit_is_usage_error(self, tmp_path, order, fmt):
        entries = []
        if fmt == "dense":  # the one entry of a dim-1 tensor, nested order deep
            entries = 1.0
            for _ in range(order):
                entries = [entries]
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({"order": order, "dim": 1, "format": fmt, "entries": entries}))
        code, out, _ = run_cli(["invariants", str(path)])
        assert (code, out) == (2, "")

    def test_order_63_decide_is_usage_error(self, tmp_path):
        # numpy ravels at most 63 arrays in one call, and the scaling solve ravels order + 1
        path = tmp_path / "deep.json"
        entries = [{"idx": [1] * 63, "val": 1.0}]
        path.write_text(json.dumps({"order": 63, "dim": 1, "format": "sparse", "entries": entries}))
        code, out, _ = run_cli(["decide", str(path), str(path)])
        assert (code, out) == (2, "")

    def test_product_of_order_64_is_usage_error(self, tmp_path):
        write_tensor(unit_tensor(8, 1), tmp_path / "a.json")
        write_tensor(unit_tensor(10, 1), tmp_path / "b.json")
        code, out, _ = run_cli(["product", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
        assert (code, out) == (2, "")  # order 7 * 9 + 1 = 64

    def test_product_past_numpy_order_limit_is_usage_error(self, tmp_path):
        write_tensor(unit_tensor(9, 1), tmp_path / "a.json")
        a = str(tmp_path / "a.json")
        code, out, _ = run_cli(["product", a, a])  # order 8 * 8 + 1 = 65
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "abc"])
    def test_tolerance_must_be_finite_and_non_negative(self, tmp_path, value):
        a = np.random.default_rng(0).normal(size=(3, 3, 3))
        b = a.copy()
        b[2, 0, 0] *= 1.7  # not similar to a at the default tolerance
        write_tensor(Tensor(a), tmp_path / "a.json")
        write_tensor(Tensor(b), tmp_path / "b.json")
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        pair = witness_pair(tmp_path)
        for argv in (["decide", a, a, "--tol-compare", value],
                     ["decide", a, b, "--tol-compare", value],
                     ["check-witness", *pair, "--tol-structural", value],
                     ["decompose", *pair, "--tol-structural", value],
                     ["decompose", *pair, "--tol-compare", value]):
            code, out, _ = run_cli(argv)
            assert (code, out) == (2, ""), argv


class TestParsing:
    def test_unknown_command(self):
        code, _, _ = run_cli(["frobnicate"])
        assert code == 2

    def test_help_exits_zero(self):
        code, _, _ = run_cli(["--help"])
        assert code == 0


class TestParserReuse:
    """One parser serves every call of ``main`` in a process."""

    def test_defaults_do_not_carry_over(self, tmp_path):
        a = np.random.default_rng(2).normal(size=(3, 3, 3))
        b = a.copy()
        b[2, 0, 0] *= 1 + 1e-5  # similar at 1e-3, not at the default tolerance
        write_tensor(Tensor(a), tmp_path / "a.json")
        write_tensor(Tensor(b), tmp_path / "b.json")
        pair = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        codes = [run_cli(["decide", *pair, *flags])[0]
                 for flags in (["--tol-compare", "1e-3"], [], ["--tol-compare", "1e-3"], [])]
        assert codes == [0, 1, 0, 1]

    def test_help_and_usage_errors_on_every_call(self):
        for _ in range(3):
            code, out, _ = run_cli(["--help"])
            assert code == 0 and out.startswith("usage: tensim")
            code, out, err = run_cli(["decide", "only-one.json"])
            assert (code, out) == (2, "") and "usage: tensim decide" in err

    def test_parser_is_built_once(self, monkeypatch):
        builds = []
        add_subparsers = argparse.ArgumentParser.add_subparsers
        monkeypatch.setattr(
            argparse.ArgumentParser,
            "add_subparsers",
            lambda self, **kwargs: builds.append(1) or add_subparsers(self, **kwargs),
        )
        build_parser.cache_clear()
        for _ in range(5):
            assert run_cli(["demo", "remark-3-4"])[0] == 0
        assert len(builds) == 1


class TestLongIntegers:
    """An input integer beyond the float range, or past the digit limit of
    int(), is an input error (exit 2), not a traceback with exit 1."""

    @pytest.mark.parametrize("fmt", ["dense", "sparse"])
    def test_entry_beyond_the_float_range(self, tmp_path, fmt):
        doc = tio.tensor_to_dict(unit_tensor(3, 2), format=fmt)
        text = json.dumps(doc).replace("1.0", "1" + "0" * 400, 1)
        (tmp_path / "big.json").write_text(text)
        big = str(tmp_path / "big.json")
        code, out, err = run_cli(["decide", big, big])
        assert (code, out) == (2, "")
        assert "finite" in err

    def test_integer_past_the_digit_limit(self, tmp_path):
        (tmp_path / "long.json").write_text(
            '{"order": 3, "dim": 1, "format": "dense", "entries": [[[' + "9" * 5000 + "]]]}"
        )
        code, out, err = run_cli(["invariants", str(tmp_path / "long.json")])
        assert (code, out) == (2, "")
        assert err.startswith("error:")
