import json

import numpy as np
import pytest

from tensim import (
    CharPoly,
    DiagonalScaling,
    EntryLimitError,
    FormatError,
    Permutation,
    StructuredWitness,
    Tensor,
    Witness,
    unit_tensor,
)
from tensim.generate import random_tensor
from tensim.io import (
    charpoly_from_dict,
    charpoly_to_dict,
    read_structured_witness,
    read_tensor,
    read_witness,
    structured_witness_from_dict,
    structured_witness_to_dict,
    tensor_from_dict,
    tensor_to_dict,
    witness_from_dict,
    witness_to_dict,
    write_structured_witness,
    write_tensor,
    write_witness,
)


class TestTensorRoundtrip:
    def test_dense_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        t = random_tensor(rng, 3, 3, density=0.5)
        path = tmp_path / "t.json"
        write_tensor(t, path)
        assert read_tensor(path) == t

    def test_sparse_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        t = random_tensor(rng, 4, 2, density=0.3)
        path = tmp_path / "t.json"
        write_tensor(t, path, format="sparse")
        assert read_tensor(path) == t

    def test_vector_roundtrip(self):
        t = Tensor([1.0, 2.5, -3.0])
        assert tensor_from_dict(tensor_to_dict(t)) == t

    def test_real_entries_written_as_numbers(self):
        doc = tensor_to_dict(Tensor([[1, 0], [0, 2]]))
        assert doc["entries"] == [[1.0, 0.0], [0.0, 2.0]]

    def test_complex_entries_written_as_pairs(self):
        doc = tensor_to_dict(Tensor([[1j, 0], [0, 1]]))
        assert doc["entries"][0][0] == [0.0, 1.0]

    def test_sparse_indices_are_one_based(self):
        data = np.zeros((2, 2, 2), dtype=complex)
        data[0, 1, 1] = 5.0
        doc = tensor_to_dict(Tensor(data), format="sparse")
        assert doc["entries"] == [{"idx": [1, 2, 2], "val": 5.0}]


class TestTensorValidation:
    def base(self):
        return {"order": 2, "dim": 2, "format": "dense", "entries": [[1, 0], [0, 1]]}

    def test_missing_field(self):
        doc = self.base()
        del doc["dim"]
        with pytest.raises(FormatError):
            tensor_from_dict(doc)

    def test_bad_depth(self):
        doc = self.base()
        doc["entries"] = [1, 0]
        with pytest.raises(FormatError):
            tensor_from_dict(doc)

    def test_bad_row_length(self):
        doc = self.base()
        doc["entries"] = [[1, 0, 0], [0, 1, 0]]
        with pytest.raises(FormatError):
            tensor_from_dict(doc)

    def test_bad_scalar(self):
        doc = self.base()
        doc["entries"] = [[1, "x"], [0, 1]]
        with pytest.raises(FormatError):
            tensor_from_dict(doc)

    def test_bool_is_not_a_scalar(self):
        doc = self.base()
        doc["entries"] = [[True, 0], [0, 1]]
        with pytest.raises(FormatError):
            tensor_from_dict(doc)

    @pytest.mark.parametrize(
        "val", [float("nan"), float("inf"), -float("inf"), [1.0, float("nan")], [float("inf"), 0.0]]
    )
    def test_non_finite_scalar(self, val):
        doc = {"order": 3, "dim": 2, "format": "sparse", "entries": [{"idx": [1, 1, 1], "val": val}]}
        with pytest.raises(FormatError, match="finite"):
            tensor_from_dict(doc)
        doc = self.base()
        doc["entries"] = [[val, 0], [0, 1]]
        with pytest.raises(FormatError, match="finite"):
            tensor_from_dict(doc)

    def test_non_finite_json_file(self, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text('{"m": 3, "sigma": [1, 2], "d": [[1.0, 0.0], [Infinity, 0.0]]}')
        with pytest.raises(FormatError, match="finite"):
            read_structured_witness(path)

    def test_duplicate_sparse_index(self):
        doc = {
            "order": 2,
            "dim": 2,
            "format": "sparse",
            "entries": [
                {"idx": [1, 1], "val": 1.0},
                {"idx": [1, 1], "val": 2.0},
            ],
        }
        with pytest.raises(FormatError, match="duplicate"):
            tensor_from_dict(doc)

    def test_sparse_index_out_of_range(self):
        doc = {
            "order": 2,
            "dim": 2,
            "format": "sparse",
            "entries": [{"idx": [0, 1], "val": 1.0}],
        }
        with pytest.raises(FormatError):
            tensor_from_dict(doc)

    def test_unlisted_sparse_entries_are_zero(self):
        doc = {
            "order": 2,
            "dim": 2,
            "format": "sparse",
            "entries": [{"idx": [2, 1], "val": [0.0, 3.0]}],
        }
        t = tensor_from_dict(doc)
        assert t.data[1, 0] == 3j
        assert np.count_nonzero(t.data) == 1

    def test_unknown_format(self):
        doc = self.base()
        doc["format"] = "csr"
        with pytest.raises(FormatError):
            tensor_from_dict(doc)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        with pytest.raises(FormatError):
            read_tensor(path)

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "bytes.json"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(FormatError):
            read_tensor(path)

    @pytest.mark.parametrize(
        "order, dim, fmt", [(10, 100, "sparse"), (3, 500, "sparse"), (3, 500, "dense"), (100, 2, "sparse")]
    )
    def test_entry_limit_checked_from_the_header(self, order, dim, fmt):
        # no entries are needed: the header alone is over the limit
        with pytest.raises(EntryLimitError):
            tensor_from_dict({"order": order, "dim": dim, "format": fmt, "entries": []})

    def test_non_finite_tensor_not_written(self, tmp_path):
        path = tmp_path / "nan.json"
        with pytest.raises(ValueError):
            write_tensor(Tensor([[float("nan"), 0], [0, 1]]), path)
        assert not path.exists()


class TestWitnessFiles:
    def test_roundtrip(self, tmp_path):
        w = Witness(Tensor([[0, 1], [1, 0]]), Tensor([[0, 2], [3, 0]]), 3)
        path = tmp_path / "w.json"
        write_witness(w, path)
        back = read_witness(path)
        assert back.m == 3 and back.p == w.p and back.q == w.q

    def test_rejects_non_matrix_members(self):
        doc = {
            "m": 3,
            "P": tensor_to_dict(unit_tensor(3, 2)),
            "Q": tensor_to_dict(unit_tensor(2, 2)),
        }
        with pytest.raises(FormatError):
            witness_from_dict(doc)

    def test_missing_member(self):
        with pytest.raises(FormatError):
            witness_from_dict({"m": 3, "P": tensor_to_dict(unit_tensor(2, 2))})

    def test_dict_shape(self):
        w = Witness(unit_tensor(2, 2), unit_tensor(2, 2), 4)
        doc = witness_to_dict(w)
        assert set(doc) == {"m", "P", "Q"} and doc["m"] == 4


class TestStructuredWitnessFiles:
    def test_roundtrip(self, tmp_path):
        s = StructuredWitness(
            Permutation((2, 3, 1)), DiagonalScaling([1 + 2j, 0.5, -3.0]), 4
        )
        path = tmp_path / "s.json"
        write_structured_witness(s, path)
        back = read_structured_witness(path)
        assert back.m == 4
        assert back.sigma == s.sigma
        assert np.array_equal(back.d.values, s.d.values)

    def test_d_written_as_pairs(self):
        s = StructuredWitness(Permutation((1, 2)), DiagonalScaling([2.0, 3.0]), 3)
        doc = structured_witness_to_dict(s)
        assert doc == {"m": 3, "sigma": [1, 2], "d": [[2.0, 0.0], [3.0, 0.0]]}

    def test_validation(self):
        with pytest.raises(FormatError):
            structured_witness_from_dict({"m": 3, "sigma": [1, 2]})
        with pytest.raises(FormatError):
            structured_witness_from_dict({"m": "3", "sigma": [1, 2], "d": [[1, 0], [1, 0]]})


class TestCharPolySerialization:
    def test_roundtrip(self):
        cp = CharPoly((1 + 0j, -4 + 1j, 6 + 0j))
        doc = charpoly_to_dict(cp)
        assert doc["degree"] == 2
        back = charpoly_from_dict(json.loads(json.dumps(doc)))
        assert back.coeffs == cp.coeffs

    def test_degree_mismatch_rejected(self):
        with pytest.raises(FormatError):
            charpoly_from_dict({"degree": 3, "coeffs": [[1, 0], [2, 0]]})
