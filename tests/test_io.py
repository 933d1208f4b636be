import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tensim import (
    CharPoly,
    DiagonalScaling,
    EntryLimitError,
    FormatError,
    OrderError,
    Permutation,
    StructuredWitness,
    Tensor,
    Witness,
    unit_tensor,
)
from tensim.generate import random_tensor
from tensim.io import (
    _PRETTY,
    _dumps,
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
        # the rule lives in Witness alone, so the reader raises its OrderError
        doc = {
            "m": 3,
            "P": tensor_to_dict(unit_tensor(3, 2)),
            "Q": tensor_to_dict(unit_tensor(2, 2)),
        }
        with pytest.raises(OrderError):
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


class TestBooleansAreNotIntegers:
    """JSON ``true`` and ``false`` decode to Python bools, which are ints to
    ``isinstance``; none of them is an order, a dimension, an index or a label."""

    @pytest.mark.parametrize(
        "doc",
        [
            {"order": True, "dim": 2, "format": "dense", "entries": [1, 2]},
            {"order": 2, "dim": True, "format": "dense", "entries": [[1]]},
            {"order": 3, "dim": 2, "format": "sparse", "entries": [{"idx": [True, 2, True], "val": 1}]},
        ],
    )
    def test_tensor_fields(self, doc):
        with pytest.raises(FormatError):
            tensor_from_dict(doc)

    def test_witness_order(self):
        doc = {"m": True, "P": tensor_to_dict(unit_tensor(2, 2)), "Q": tensor_to_dict(unit_tensor(2, 2))}
        with pytest.raises(FormatError):
            witness_from_dict(doc)

    @pytest.mark.parametrize("m, sigma", [(3, [True, 2]), (3, [2, True]), (True, [1, 2])])
    def test_structured_witness_fields(self, m, sigma):
        with pytest.raises(FormatError):
            structured_witness_from_dict({"m": m, "sigma": sigma, "d": [[1, 0], [1, 0]]})

    def test_charpoly_degree(self):
        with pytest.raises(FormatError):
            charpoly_from_dict({"degree": True, "coeffs": [[1, 0], [2, 0]]})


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

    @pytest.mark.parametrize("coeffs", [5, None, "12", {"re": 1}])
    def test_coeffs_must_be_a_list(self, coeffs):
        with pytest.raises(FormatError, match="coeffs"):
            charpoly_from_dict({"coeffs": coeffs})


# ---------------------------------------------------------------------------
# The encoder: the text of json.dumps(doc, indent=2, allow_nan=False)
# ---------------------------------------------------------------------------

finite_floats = st.floats(allow_nan=False, allow_infinity=False)
numbers = st.one_of(
    st.integers(),
    finite_floats,
    finite_floats.map(np.float64),
    st.sampled_from([-0.0, 1e-300, 1e22, np.float64(-0.0), np.float64(1e22)]),
)
strings = st.text(st.one_of(st.sampled_from('|[],"\\:\n'), st.characters()), max_size=8)
non_finite = st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.nan)])


@st.composite
def regular_nests(draw, leaves=numbers):
    """A nest of lists of depth 1 to 5 with every leaf at the bottom; about
    half of them hold 32 to a few hundred leaves, the rest fewer."""
    depth = draw(st.integers(1, 5))
    low = draw(st.sampled_from([1, math.ceil(32 ** (1 / depth))]))
    shape = draw(st.lists(st.integers(low, math.ceil(200 ** (1 / depth))), min_size=depth, max_size=depth))
    nest = draw(st.lists(leaves, min_size=math.prod(shape), max_size=math.prod(shape)))
    for n in reversed(shape[1:]):
        nest = [nest[i:i + n] for i in range(0, len(nest), n)]
    return nest


# dense payloads: bare reals among [re, im] pairs
mixed_nests = regular_nests(st.one_of(numbers, st.lists(numbers, min_size=2, max_size=2)))
# regular in shape, but with strings or booleans among the numbers
other_nests = regular_nests(st.one_of(numbers, strings, st.booleans(), st.none()))
documents = st.recursive(
    st.one_of(st.none(), st.booleans(), numbers, strings, regular_nests(), mixed_nests, other_nests),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(strings, children, max_size=4),
    max_leaves=12,
)


class TestEncoder:
    @given(documents)
    def test_text_is_json_dumps(self, doc):
        assert _dumps(doc) == json.dumps(doc, indent=2, allow_nan=False) + "\n"

    @given(st.dictionaries(strings, regular_nests(), min_size=1, max_size=3))
    def test_nests_inside_objects(self, doc):
        # json.dumps writes the key 0 as "0"
        doc = {"order": 3, "payload": doc, "entries": list(doc.values()), 0: list(doc.values())}
        assert _dumps(doc) == json.dumps(doc, indent=2, allow_nan=False) + "\n"

    @given(regular_nests(), st.integers(0), non_finite, st.booleans())
    def test_non_finite_number_raises(self, nest, where, bad, wrapped):
        row = nest
        while isinstance(row[0], list):
            row = row[where % len(row)]
        row[where % len(row)] = bad
        with pytest.raises(ValueError):
            _dumps({"x": [nest]} if wrapped else nest)

    def test_tensor_documents(self):
        rng = np.random.default_rng(5)
        w = Witness(random_tensor(rng, 2, 6), random_tensor(rng, 2, 6, density=0.5), 3)
        docs = [witness_to_dict(w)]
        for order, dim, density in [(3, 4, 1.0), (4, 3, 0.5), (2, 8, 0.0), (5, 2, 0.7)]:
            t = random_tensor(rng, order, dim, density=density)
            docs += [tensor_to_dict(t), tensor_to_dict(t, format="sparse")]
        # exact zeros are bare reals among the pairs of a complex tensor; the real part of a
        # tensor of dim 2 ends in rows of two numbers, which look like pairs
        for order, dim in [(1, 40), (2, 7), (3, 4), (4, 3), (5, 2)]:
            for zeros in (0.0, 0.05, 0.5, 0.95, 1.0):
                a = random_tensor(rng, order, dim).data.ravel().copy()
                a[rng.choice(a.size, round(zeros * a.size), replace=False)] = 0
                a = a.reshape((dim,) * order)
                docs += [tensor_to_dict(Tensor(a)), tensor_to_dict(Tensor(a.real))]
        # leaves of each type the encoder takes in bulk, bare and in pairs
        numbers = [3, np.float64(2.5), -0.0, 1e22, 1e-300, -7, np.float64(-0.0), 0.1]
        docs.append({"entries": [[numbers[(i + j) % 8] for j in range(2)] for i in range(40)]})
        docs.append({"entries": [numbers[i % 8] if i % 3 else numbers[i % 7:][:2] for i in range(40)]})
        docs.append({"entries": [[numbers[i % 5:][:2], numbers[i % 8]] for i in range(20)]})
        for doc in docs:
            assert _dumps(doc) == json.dumps(doc, indent=2, allow_nan=False) + "\n"

    @pytest.mark.parametrize(
        "nest, message",
        [
            # bare reals among pairs: the pure-Python encoder's message, which names the value
            ([1.0, [2.0, -math.inf]] * 20, "Out of range float values are not JSON compliant: -inf"),
            # a regular nest: the C encoder's message
            ([[1.0, 2.0]] * 20 + [[math.nan, 0.0]], "Out of range float values are not JSON compliant"),
        ],
    )
    def test_non_finite_message(self, nest, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _dumps({"entries": nest})

    @pytest.mark.parametrize("first", ["pair", "real"])
    def test_mixed_nest_is_not_encoded_one_by_one(self, monkeypatch, first):
        """A complex tensor with exact-real entries is a nest of bare reals among
        [re, im] pairs; it takes the bulk path, not the pure-Python encoder."""
        calls = []

        class Spy:
            def encode(self, obj):
                calls.append(obj)
                return _PRETTY.encode(obj)

        a = np.exp(1j * np.arange(1.0, 65.0)).reshape(4, 4, 4)
        a[::2, 1] = a[::2, 1].real
        a[1, :, 3] = 0
        a[0, 0, 0] = 2.0 if first == "real" else 2.0 + 1j
        doc = tensor_to_dict(Tensor(a))
        monkeypatch.setattr("tensim.io._PRETTY", Spy())
        assert _dumps(doc) == json.dumps(doc, indent=2, allow_nan=False) + "\n"
        assert not [obj for obj in calls if isinstance(obj, (list, dict))]


# ---------------------------------------------------------------------------
# The dense decoder: every scalar as complex(x) or complex(re, im)
# ---------------------------------------------------------------------------


def reference_decode(payload, order):
    """The dense entries read one scalar at a time."""
    if order == 0:
        return complex(*payload) if isinstance(payload, list) else complex(payload)
    return [reference_decode(sub, order - 1) for sub in payload]


decode_numbers = st.one_of(
    st.integers(-(2**80), 2**80),
    finite_floats,
    st.sampled_from([-0.0, 1e-300, 1e308, np.float64(-2.5)]),
)


class TestDenseDecoder:
    @pytest.mark.parametrize("scalars", ["real", "pairs", "mixed"])
    @given(data=st.data())
    def test_bytes_equal_scalar_by_scalar(self, scalars, data):
        order, dim = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        pair = st.lists(decode_numbers, min_size=2, max_size=2)
        leaf = {"real": decode_numbers, "pairs": pair, "mixed": decode_numbers | pair}[scalars]
        flat = data.draw(st.lists(leaf, min_size=dim**order, max_size=dim**order))
        for _ in range(order - 1):
            flat = [flat[i:i + dim] for i in range(0, len(flat), dim)]
        doc = {"order": order, "dim": dim, "format": "dense", "entries": flat}
        want = np.array(reference_decode(flat, order), dtype=np.complex128)
        assert tensor_from_dict(doc).data.tobytes() == want.tobytes()

    def test_written_tensors_read_back_bytewise(self):
        rng = np.random.default_rng(9)
        for density in (1.0, 0.3):
            t = random_tensor(rng, 3, 5, density=density)
            doc = json.loads(_dumps(tensor_to_dict(t)))
            assert tensor_from_dict(doc).data.tobytes() == t.data.tobytes()

    @pytest.mark.parametrize(
        "entries, message",
        [
            ([[1, "1.5"], [0, 1]], "dense entries: scalar must be a finite number or [re, im], got '1.5'"),
            ([[[True, 1.0], 0], [0, 1]], "dense entries: scalar must be a finite number or [re, im], got [True, 1.0]"),
            ([[[1.0, 2.0, 3.0], 0], [0, 1]], "dense entries: scalar must be a finite number or [re, im], got [1.0, 2.0, 3.0]"),
            ([[1, 0], [0, 1, 0]], "dense entries: expected a list of 2 scalars"),
            ([[1, 0], 1], "dense entries: expected a list of 2 scalars"),
            ([[1, 0]], "dense entries: expected a list of 2 sub-arrays"),
        ],
    )
    def test_messages(self, entries, message):
        doc = {"order": 2, "dim": 2, "format": "dense", "entries": entries}
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            tensor_from_dict(doc)


class Int(int):
    """An int subclass other than bool: a number like any other int."""


class TestSparseDecoder:
    @given(data=st.data())
    def test_bytes_equal_entry_by_entry(self, data):
        order, dim = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        cells = data.draw(st.lists(st.tuples(*[st.integers(1, dim)] * order), unique=True))
        number = decode_numbers | st.integers(-9, 9).map(Int)
        scalar = number | st.lists(number, min_size=2, max_size=2)
        vals = data.draw(st.lists(scalar, min_size=len(cells), max_size=len(cells)))
        entries = [{"idx": list(cell), "val": val} for cell, val in zip(cells, vals)]
        doc = {"order": order, "dim": dim, "format": "sparse", "entries": entries}
        want = np.zeros((dim,) * order, dtype=np.complex128)
        for cell, val in zip(cells, vals):
            value = complex(*val) if isinstance(val, list) else complex(val)
            want[tuple(i - 1 for i in cell)] = value
        assert tensor_from_dict(doc).data.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "entries, message",
        [
            ({"idx": [1, 1, 1], "val": 1}, "sparse entries must be a list"),
            ([[1, 1, 1]], "sparse entry must be {'idx': [...], 'val': ...}"),
            ([{"idx": [1, 1, 1]}], "sparse entry must be {'idx': [...], 'val': ...}"),
            ([{"idx": "1,1,1", "val": 1}], "sparse index '1,1,1' invalid for order 3, dim 4"),
            ([{"idx": [1, 1], "val": 1}], "sparse index [1, 1] invalid for order 3, dim 4"),
            ([{"idx": [1, True, 1], "val": 1}], "sparse index [1, True, 1] invalid for order 3, dim 4"),
            ([{"idx": [1, 1.0, 1], "val": 1}], "sparse index [1, 1.0, 1] invalid for order 3, dim 4"),
            ([{"idx": [0, 1, 1], "val": 1}], "sparse index [0, 1, 1] invalid for order 3, dim 4"),
            ([{"idx": [1, 1, 5], "val": 1}], "sparse index [1, 1, 5] invalid for order 3, dim 4"),
            ([{"idx": [1, 10**400, 1], "val": 1}],
             f"sparse index [1, {10**400}, 1] invalid for order 3, dim 4"),
            ([{"idx": [1, 2, 3], "val": 1}, {"idx": [1, 2, 3], "val": 2}],
             "duplicate sparse index [1, 2, 3]"),
            # the first bad entry is the one named, and every index is checked before any value
            ([{"idx": [1, 1, 1], "val": 1}, {"idx": [0, 1, 1], "val": 1}, {"idx": [5, 1, 1], "val": 1}],
             "sparse index [0, 1, 1] invalid for order 3, dim 4"),
            ([{"idx": [1, 1, 1], "val": "x"}, {"idx": [2, 1, 1], "val": 1}, {"idx": [9, 1, 1], "val": 1}],
             "sparse index [9, 1, 1] invalid for order 3, dim 4"),
            ([{"idx": [1, 1, 1], "val": 1}, {"idx": [1, 1, 1], "val": 1}, {"idx": [0, 1, 1], "val": 1}],
             "duplicate sparse index [1, 1, 1]"),
            ([{"idx": [4, 1, 1], "val": 1}, {"idx": [1, 1, 0], "val": 1}, 7],
             "sparse index [1, 1, 0] invalid for order 3, dim 4"),
        ],
    )
    def test_messages(self, entries, message):
        doc = {"order": 3, "dim": 4, "format": "sparse", "entries": entries}
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            tensor_from_dict(doc)

    def test_entries_that_only_the_entry_by_entry_checks_accept(self):
        """int and dict subclasses and an empty list pass the checks entry by entry
        but not the bulk ones; they read as plain entries do."""

        class Entry(dict):
            pass

        plain = [{"idx": [1, 2], "val": 1.5}, {"idx": [2, 1], "val": [0.0, 2.0]}]
        odd = [Entry(idx=[Int(1), 2], val=1.5), {"idx": [2, Int(1)], "val": [0.0, 2.0]}]
        docs = [{"order": 2, "dim": 2, "format": "sparse", "entries": e} for e in (plain, odd, [])]
        read = [tensor_from_dict(doc).data for doc in docs]
        assert read[0].tobytes() == read[1].tobytes()
        assert not read[2].any()

    def test_message_names_the_bad_value(self):
        entries = [{"idx": [1, 1], "val": 1.0}, {"idx": [2, 1], "val": [1.0, "2"]}]
        doc = {"order": 2, "dim": 2, "format": "sparse", "entries": entries}
        message = "sparse value: scalar must be a finite number or [re, im], got [1.0, '2']"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            tensor_from_dict(doc)


class TestLongIntegers:
    """An integer beyond the float range is a format error, not a crash."""

    def test_dense_entry(self):
        for value in (10**400, [0, -(10**400)]):
            doc = {"order": 2, "dim": 2, "format": "dense", "entries": [[1, value], [0, 1]]}
            with pytest.raises(FormatError, match="finite"):
                tensor_from_dict(doc)

    def test_sparse_entry(self):
        doc = {"order": 3, "dim": 2, "format": "sparse", "entries": [{"idx": [1, 1, 1], "val": 10**400}]}
        with pytest.raises(FormatError, match="finite"):
            tensor_from_dict(doc)

    def test_integer_past_the_digit_limit(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"order": 1, "dim": 1, "format": "dense", "entries": [' + "7" * 5000 + "]}")
        with pytest.raises(FormatError, match="not valid JSON"):
            read_tensor(path)
