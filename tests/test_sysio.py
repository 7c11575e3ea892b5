import json
import tracemalloc

import numpy as np
import pytest

from conftest import complex_pair, random_system, system_document
from kronspec.cli import main
from kronspec.sysio import (
    SystemFileError,
    load_system,
    matrix_pairs,
    parse_system,
    parse_vector,
)


def _write(tmp_path, text):
    path = tmp_path / "system.json"
    path.write_text(text)
    return path


def _valid_doc():
    return {
        "d": 2,
        "m": 1,
        "A": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.7, 0.0]]],
        "B": [[[[0.0, 0.0], [0.0, 0.0]], [[2.0, 0.0], [0.0, 0.0]]]],
    }


class TestLoad:
    def test_valid_file(self, tmp_path):
        spec = load_system(_write(tmp_path, json.dumps(_valid_doc())))
        assert spec.d == 2 and spec.m == 1
        assert spec.a[1, 1] == 0.7
        assert spec.noise_mats[0][1, 0] == 2.0

    def test_json_error_carries_line_and_column(self, tmp_path):
        path = _write(tmp_path, '{\n  "d": 2,\n  "m": ]\n}')
        with pytest.raises(SystemFileError, match=r"line 3"):
            load_system(path)

    def test_missing_key(self):
        doc = _valid_doc()
        del doc["B"]
        with pytest.raises(SystemFileError, match="B"):
            parse_system(doc)

    def test_shape_error_carries_path(self):
        doc = _valid_doc()
        doc["A"][0] = [[0.5, 0.0]]  # one entry short
        with pytest.raises(SystemFileError, match=r"A\[0\]"):
            parse_system(doc)

    def test_bad_entry_carries_path(self):
        doc = _valid_doc()
        doc["B"][0][1][0] = [1.0]  # not an [re, im] pair
        with pytest.raises(SystemFileError, match=r"B\[0\]\[1\]\[0\]"):
            parse_system(doc)

    def test_nonfinite_rejected(self):
        doc = _valid_doc()
        doc["A"][0][0] = [float("inf"), 0.0]
        with pytest.raises(SystemFileError, match="finite"):
            parse_system(doc)

    def test_wrong_noise_count(self):
        doc = _valid_doc()
        doc["m"] = 2
        with pytest.raises(SystemFileError, match="B"):
            parse_system(doc)

    def test_bool_dimension_rejected(self):
        doc = _valid_doc()
        doc["d"] = True
        with pytest.raises(SystemFileError):
            parse_system(doc)

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: [doc], "system file must be a JSON object"),
        (lambda doc: {**doc, "A": doc["A"][:1]}, r"expected 2 rows \(at A\)"),
        (lambda doc: {**doc, "m": -1}, r"'m' must be a nonnegative integer \(at m\)"),
    ], ids=["not-an-object", "one-row-short", "negative-m"])
    def test_malformed_document_names_its_fault(self, edit, message):
        with pytest.raises(SystemFileError, match=f"^{message}$"):
            parse_system(edit(_valid_doc()))


    def test_row_lengths_checked_before_allocating(self, tmp_path, capsys):
        # 300 KB of empty rows claiming d = 100000: a d-by-d array would be 149 GiB
        doc = {"d": 100_000, "m": 0, "A": [[] for _ in range(100_000)], "B": []}
        tracemalloc.start()
        try:
            with pytest.raises(SystemFileError, match=r"expected 100000 entries \(at A\[0\]\)"):
                parse_system(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        code = main(["analyze", str(_write(tmp_path, json.dumps(doc)))])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.err == "error: expected 100000 entries (at A[0])\n"


def _bits(z):
    return np.asarray(z, dtype=np.complex128).view(np.uint64)


#: Entries that are not finite [re, im] pairs of numbers, as JSON text, and
#: the message each one gets.
_NOT_A_PAIR = "complex entries must be [re, im] pairs of numbers"
_NON_FINITE = "non-finite complex entry"
_BAD_ENTRIES = [
    pytest.param("[true, 0]", _NOT_A_PAIR, id="bool"),
    pytest.param('["1.5", 0]', _NOT_A_PAIR, id="string"),
    pytest.param("[0, null]", _NOT_A_PAIR, id="null"),
    pytest.param("[1, 2, 3]", _NOT_A_PAIR, id="three"),
    pytest.param(f"[{10 ** 400}, 0]", _NON_FINITE, id="int-past-double"),
    pytest.param("[0, NaN]", _NON_FINITE, id="nan"),
    pytest.param("[-Infinity, 0]", _NON_FINITE, id="infinity"),
]


class TestParseParity:
    """One conversion per matrix or vector: the per-entry values and errors, unchanged."""

    #: Every [re, im] here is a valid entry: signed zeros, the least subnormal,
    #: integers past 2**53 and 2**64 that must round as float() rounds them,
    #: and ints and floats mixed within one pair.
    VALID = [[-0.0, 0.0], [0.0, -0.0], [5e-324, -5e-324], [2 ** 64 + 1, 2 ** 53 + 1],
             [10 ** 300, -(10 ** 300)], [1, 2.5], [-3, 0], [-2.5e-310, 7]]

    def test_valid_entries_equal_complex_per_entry(self):
        entries = self.VALID + [[-0.0, -0.0]]
        want = [complex(re, im) for re, im in entries]
        a = [entries[:3], entries[3:6], entries[6:]]
        doc = {"d": 3, "m": 1, "A": a, "B": [a[::-1]]}
        spec = parse_system(json.loads(json.dumps(doc)))
        assert np.array_equal(_bits(spec.a), _bits(np.reshape(want, (3, 3))))
        assert np.array_equal(_bits(spec.noise_mats[0]), _bits(np.reshape(want, (3, 3))[::-1]))
        vector = parse_vector(json.dumps(entries))
        assert np.array_equal(_bits(vector), _bits(want))
        assert np.array_equal(_bits(parse_vector([tuple(e) for e in entries])), _bits(want))

    @pytest.mark.parametrize("text, message", _BAD_ENTRIES)
    @pytest.mark.parametrize("where", ["A", "B[1]", "vector"])
    def test_bad_entry_keeps_its_message_and_location(self, tmp_path, where, text, message):
        ok = "[0.5, -0.25]"
        rows = [[ok, ok], [ok, text]]  # the bad entry last, after good ones
        matrix = "[" + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]"
        good = "[[[0, 0], [0, 0]], [[0, 0], [0, 0]]]"
        if where == "vector":
            with pytest.raises(SystemFileError) as err:
                parse_vector(f"[{ok}, {text}]")
            assert str(err.value) == f"{message} (at [1])"
            return
        a, b = (matrix, good) if where == "A" else (good, matrix)
        path = _write(tmp_path, f'{{"d": 2, "m": 2, "A": {a}, "B": [{good}, {b}]}}')
        with pytest.raises(SystemFileError) as err:
            load_system(path)
        assert str(err.value) == f"{message} (at {where}[1][1])"


    @pytest.mark.parametrize("number", [np.float64(0.5), np.int64(1), np.float32(0.5)],
                             ids=["float64", "int64", "float32"])
    def test_other_number_types_are_refused_with_their_location(self, number):
        # the one entry rule takes ints and floats only, as JSON gives them
        with pytest.raises(SystemFileError) as err:
            parse_vector([[0.5, 0.0], [0.0, number]])
        assert str(err.value) == f"{_NOT_A_PAIR} (at [1])"
        row = [[0.5, 0.0], [number, 0.0]]
        with pytest.raises(SystemFileError) as err:
            parse_system({"d": 2, "m": 0, "A": [[[1, 0], [0, 0]], row], "B": []})
        assert str(err.value) == f"{_NOT_A_PAIR} (at A[1][1])"


class TestVectors:
    def test_parse_from_json_text(self):
        v = parse_vector("[[1.0, 0.0], [0.0, -2.0]]")
        assert np.array_equal(v, [1.0, -2.0j])

    def test_dimension_check(self):
        with pytest.raises(SystemFileError, match="dimension"):
            parse_vector("[[1, 0]]", d=2)

    def test_malformed_json(self):
        with pytest.raises(SystemFileError):
            parse_vector("[[1, 0],")

    def test_empty_vector_refused(self):
        with pytest.raises(SystemFileError, match="nonempty"):
            parse_vector("[]")

    def test_round_trip(self, crandn):
        v = crandn(4)
        assert np.array_equal(parse_vector([complex_pair(z) for z in v]), v)


class TestRoundTrip:
    def test_system_document_round_trips(self, rng):
        spec = random_system(rng, 3, 2)
        doc = system_document(spec)
        again = parse_system(json.loads(json.dumps(doc)))
        assert np.array_equal(again.a, spec.a)
        for b1, b2 in zip(again.noise_mats, spec.noise_mats):
            assert np.array_equal(b1, b2)

    def test_matrix_pairs_round_trip_through_json(self, crandn):
        m = crandn(3, 3)
        pairs = json.loads(json.dumps(matrix_pairs(m)))
        back = np.array([[complex(re, im) for re, im in row] for row in pairs])
        assert np.array_equal(back, m)

    def test_matrix_pairs_prints_as_the_per_entry_form(self, crandn):
        # the stacked form must print the same JSON bytes as one complex_pair per entry
        m = crandn(6, 6)
        m[0, 0] = complex(-0.0, 0.0)
        m[0, 1] = complex(0.0, -0.0)
        m[1, 0] = complex(5e-324, -2.5e-310)
        m[1, 1] = complex(-np.finfo(float).tiny / 3, 1e-300)
        m[2, 2] = complex(np.finfo(float).max, -np.finfo(float).max)
        per_entry = [[complex_pair(z) for z in row] for row in m]
        assert json.dumps(matrix_pairs(m)) == json.dumps(per_entry)
        assert json.dumps(matrix_pairs(m.real)) == json.dumps(
            [[complex_pair(z) for z in row] for row in m.real])
