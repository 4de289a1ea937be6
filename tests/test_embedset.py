import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divsat import (
    DimensionMismatch,
    DuplicateId,
    EmbeddingSet,
    EmptySet,
    EmptyVector,
    IoError,
    MalformedLine,
    NonFiniteValue,
    UnknownId,
    load_set,
    subset,
    write_set,
)


@pytest.fixture
def load_line(tmp_path):
    """load_set of a file holding ``line`` after ``blank`` blank lines."""

    def _load(line, blank=0):
        path = tmp_path / "line.jsonl"
        path.write_text("\n" * blank + line + "\n", encoding="utf-8")
        return load_set(path)

    return _load


class TestRecord:
    """What one row may hold, checked where rows enter a set."""

    def test_vector_is_float64_and_readonly(self):
        row = EmbeddingSet.from_array([[1, 2]]).vectors[0]
        assert row.dtype == np.float64
        with pytest.raises(ValueError):
            row[0] = 9.0

    def test_copies_input(self):
        buf, ids, labels = np.array([[1.0, 2.0]]), ["a"], ["walk"]
        s = EmbeddingSet.from_array(buf, ids=ids, labels=labels)
        buf[0, 0], ids[0], labels[0] = 99.0, "z", "run"
        assert s.vectors[0, 0] == 1.0
        assert s.ids() == ("a",)
        assert s == EmbeddingSet.from_array([[1.0, 2.0]], ids=["a"], labels=["walk"])

    def test_rejects_empty_vector(self):
        with pytest.raises(EmptyVector, match="^vectors have no entries$"):
            EmbeddingSet.from_array([[]])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(NonFiniteValue, match="^row 0: vector is not finite$"):
            EmbeddingSet.from_array([[1.0, bad]])

    def test_rejects_bad_id(self):
        with pytest.raises(MalformedLine, match="^row 0: record id must be"):
            EmbeddingSet.from_array([[1.0]], ids=[""])
        with pytest.raises(MalformedLine, match="^row 0: record id must be"):
            EmbeddingSet.from_array([[1.0]], ids=[7])

    def test_rejects_matrix_vector(self):
        # a 2-D row makes the input 3-D; a lone 1-D row is not (n, k) either,
        # nor is an input that is not a sequence, nor are rows whose entries
        # are not numbers
        with pytest.raises(MalformedLine):
            EmbeddingSet.from_array(np.ones((1, 2, 2)))
        with pytest.raises(MalformedLine):
            EmbeddingSet.from_array(np.ones(2))
        for values in (object(), (row for row in [[1.0]])):
            with pytest.raises(MalformedLine, match="^expected a two-dimensional"):
                EmbeddingSet.from_array(values)
        for rows in ([["a", "b"]], [[{}]]):
            with pytest.raises(MalformedLine, match="^vector entries must be numbers$"):
                EmbeddingSet.from_array(rows)

    def test_equality_is_by_value(self):
        one = EmbeddingSet.from_array([[1, 2]], ids=["a"])
        assert one == EmbeddingSet.from_array([[1.0, 2.0]], ids=["a"])
        assert one != EmbeddingSet.from_array([[1, 3]], ids=["a"])
        assert one != EmbeddingSet.from_array([[1, 2]], ids=["b"])
        assert one != EmbeddingSet.from_array([[1, 2]], ids=["a"], labels=["walk"])


class TestSet:
    def test_basic_accessors(self):
        s = EmbeddingSet.from_array([[1, 2], [3, 4]], ids=["a", "b"])
        assert len(s) == 2
        assert s.dimension == 2
        assert s.ids() == ("a", "b")
        assert "a" in s and "z" not in s
        assert s.vectors[1, 1] == 4.0

    @pytest.mark.parametrize("args", [(), ([],)])
    def test_direct_construction_points_to_the_builders(self, args):
        with pytest.raises(TypeError, match="from_array, load_set or subset"):
            EmbeddingSet(*args)

    def test_vectors_matrix(self):
        s = EmbeddingSet.from_array([[1.0, 2.0], [3.0, 4.0]])
        m = s.vectors
        assert m.shape == (2, 2)
        assert m.dtype == np.float64
        with pytest.raises(ValueError):
            m[0, 0] = 0.0

    def test_empty_rejected(self):
        s = EmbeddingSet.from_array([[1.0]])
        with pytest.raises(EmptySet):
            subset(s, [])

    def test_dimension_mismatch(self, write_jsonl):
        path = write_jsonl("s.jsonl", [{"id": "a", "vector": [1]},
                                       {"id": "b", "vector": [1, 2]}])
        with pytest.raises(DimensionMismatch,
                           match="^line 2: vector has dimension 2, expected 1$"):
            load_set(path)
        with pytest.raises(DimensionMismatch,
                           match="^row 1: vector has dimension 2, expected 1$"):
            EmbeddingSet.from_array([[1.0], [1.0, 2.0]])

    def test_duplicate_ids(self, write_jsonl):
        path = write_jsonl("s.jsonl", [{"id": "a", "vector": [1]},
                                       {"id": "a", "vector": [2]}])
        with pytest.raises(DuplicateId,
                           match="^line 2: duplicate record id 'a', first at line 1$"):
            load_set(path)

    def test_from_array_default_ids(self):
        s = EmbeddingSet.from_array(np.arange(6.0).reshape(3, 2))
        assert s.ids() == ("0", "1", "2")
        s2 = EmbeddingSet.from_array(np.arange(4.0).reshape(2, 2), id_prefix="v")
        assert s2.ids() == ("v0", "v1")

    def test_from_array_id_length_checked(self):
        with pytest.raises(MalformedLine):
            EmbeddingSet.from_array(np.ones((2, 2)), ids=["only-one"])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_from_array_rejects_non_finite(self, bad):
        values = np.ones((3, 2))
        values[1, 0] = bad
        with pytest.raises(NonFiniteValue):
            EmbeddingSet.from_array(values)

    def test_from_array_rejects_empty_vectors(self):
        with pytest.raises(EmptyVector):
            EmbeddingSet.from_array(np.ones((3, 0)))

    def test_from_array_rejects_empty_set(self):
        with pytest.raises(EmptySet):
            EmbeddingSet.from_array(np.ones((0, 3)))

    def test_from_array_rejects_repeated_ids(self):
        with pytest.raises(DuplicateId):
            EmbeddingSet.from_array(np.ones((3, 2)), ids=["a", "b", "a"])

    def test_from_array_owns_a_read_only_copy(self):
        values = np.arange(6.0).reshape(3, 2)
        s = EmbeddingSet.from_array(values)
        values[0, 0] = 99.0
        assert s.vectors[0, 0] == 0.0
        assert s.vectors is s.vectors
        with pytest.raises(ValueError):
            s.vectors[0, 0] = 1.0

    def test_subset_preserves_original_order(self):
        s = EmbeddingSet.from_array([[1], [2], [3]], ids=["a", "b", "c"])
        sub = subset(s, ["c", "a"])
        assert sub.ids() == ("a", "c")

    def test_subset_unknown_id(self):
        s = EmbeddingSet.from_array([[1]], ids=["a"])
        with pytest.raises(UnknownId):
            subset(s, ["nope"])


class TestParse:
    """One line of a set file, read by load_set."""

    def test_minimal_line(self, load_line):
        s = load_line('{"id": "x", "vector": [1.0, 2.0]}')
        assert s.ids() == ("x",)
        assert s.vectors.tolist() == [[1.0, 2.0]]

    def test_default_id_is_line_index(self, load_line):
        # No id key: stringified 0-based physical line index stands in.
        assert load_line('{"vector": [1.0]}', blank=7).ids() == ("7",)

    def test_label_and_meta_carried(self, tmp_path, write_jsonl):
        # write_set is where a set's labels and meta show
        rows = [{"id": "x", "vector": [1.0], "label": "walk", "meta": {"src": "a"}},
                {"id": "y", "vector": [2.0]}]
        out = tmp_path / "out.jsonl"
        write_set(load_set(write_jsonl("s.jsonl", rows)), out)
        assert [json.loads(line) for line in out.read_text().splitlines()] == rows

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            '{"id": "x"}',
            '{"id": "x", "vector": ["a"]}',
            '{"id": "x", "vector": 3}',
            '[1, 2]',
        ],
    )
    def test_malformed(self, load_line, line):
        with pytest.raises(MalformedLine, match="^line 1: "):
            load_line(line)

    def test_empty_vector_rejected(self, load_line):
        with pytest.raises(EmptyVector, match='^line 1: "vector" is empty$'):
            load_line('{"id": "x", "vector": []}')

    @pytest.mark.parametrize(
        "line",
        [
            '{"id": "x", "vector": [NaN]}',
            '{"id": "x", "vector": [Infinity]}',
            '{"id": "x", "vector": [-Infinity]}',
            '{"id": "x", "vector": [1e999]}',
            pytest.param('{"id": "x", "vector": [' + "1" * 400 + ']}', id="huge-int"),
        ],
    )
    def test_non_finite_rejected(self, load_line, line):
        with pytest.raises(NonFiniteValue, match="^line 1: "):
            load_line(line)


class TestIo:
    def test_round_trip(self, tmp_path, write_jsonl):
        s = load_set(write_jsonl("in.jsonl", [
            {"id": "a", "vector": [0.1, -2.5], "label": "walk"},
            {"id": "b", "vector": [1e-300, 3.0], "meta": {"k": "v"}},
        ]))
        path = tmp_path / "s.jsonl"
        write_set(s, path)
        back = load_set(path)
        assert back == s

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\u0085"])
    def test_round_trip_with_unicode_line_separators(self, tmp_path, write_jsonl, char):
        # write_set leaves these raw (ensure_ascii=False) and JSON allows them
        # inside strings, so only "\n" may end a line
        s = load_set(write_jsonl("in.jsonl", [
            {"id": f"a{char}b", "vector": [0.5, 1.0], "label": f"x{char}",
             "meta": {f"k{char}": f"{char}v"}},
            {"id": "c", "vector": [2.0, -1.0], "label": char},
        ]))
        path = tmp_path / "s.jsonl"
        write_set(s, path)
        assert char in path.read_text(encoding="utf-8")
        assert load_set(path) == s

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_bytes(b'{"id": "a", "vector": [1, 2]}\r\n\r\n{"vector": [3, 4]}\r\n')
        back = load_set(path)
        assert back.ids() == ("a", "2")
        assert back.vectors.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_lone_cr_ends_a_line(self, tmp_path):
        # text mode reads a lone "\r" as "\n", as it always has for set files
        path = tmp_path / "s.jsonl"
        path.write_bytes(b'{"id": "a", "vector": [1, 2]}\r{"vector": [3, 4]}')
        back = load_set(path)
        assert back.ids() == ("a", "1")
        assert back.vectors.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_load_holds_one_line_at_a_time(self, tmp_path):
        # the file's text, or a list of its lines, alone takes the file's size;
        # reading a line at a time peaks at about the loaded columns (0.6 of it)
        rng = np.random.default_rng(0)
        original = EmbeddingSet.from_array(rng.standard_normal((2000, 64)))
        path = tmp_path / "s.jsonl"
        write_set(original, path)
        tracemalloc.start()
        try:
            back = load_set(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back == original
        assert peak < path.stat().st_size

    def test_blank_lines_skipped_but_numbering_physical(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"id": "a", "vector": [1]}\n\n{"id": "b", "vector": [1, 2]}\n')
        with pytest.raises(DimensionMismatch) as ei:
            load_set(path)
        assert "line 3" in str(ei.value)

    def test_duplicate_reported_with_line(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"id": "a", "vector": [1]}\n{"id": "a", "vector": [2]}\n')
        with pytest.raises(DuplicateId) as ei:
            load_set(path)
        assert "line 2" in str(ei.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            load_set(tmp_path / "absent.jsonl")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text("\n\n")
        with pytest.raises(EmptySet):
            load_set(path)

    def test_json_key_order_and_nan_guard(self, tmp_path, write_jsonl):
        s = load_set(write_jsonl("in.jsonl", [
            {"meta": {"m": "1"}, "label": "x", "vector": [1.5], "id": "a"},
        ]))
        path = tmp_path / "s.jsonl"
        write_set(s, path)
        assert path.read_text() == '{"id": "a", "vector": [1.5], "label": "x", "meta": {"m": "1"}}\n'


finite64 = st.floats(
    allow_nan=False, allow_infinity=False, width=64, min_value=-1e300, max_value=1e300
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(finite64, min_size=3, max_size=3), min_size=1, max_size=8))
def test_write_load_bit_exact(tmp_path_factory, rows):
    """Serialization must round-trip every finite float64 bit-exactly."""
    path = tmp_path_factory.mktemp("rt") / "s.jsonl"
    original = EmbeddingSet.from_array(np.array(rows, dtype=np.float64))
    write_set(original, path)
    back = load_set(path)
    assert np.array_equal(back.vectors, original.vectors)
