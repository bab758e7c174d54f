import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from textrep import embeddings
from textrep.embeddings import (
    EmbeddingParseError,
    compute_idf,
    count_doc_freq,
    load_doc_freq,
    load_embeddings,
    save_doc_freq,
)
from textrep.textprep import normalize

from synth import save_embeddings

# Single tokens as idf-build writes them: normalized, without whitespace.
normalized_token = st.text(min_size=1).map(
    lambda raw: "".join(normalize(raw).tokens)).filter(bool)


def make_table(text):
    return load_embeddings(io.StringIO(text))


def vector(table, token):
    return table.vectors[table.rows[token]]


def reference_rows(text):
    """The word2vec rows of ``text`` parsed one float() at a time; the first
    occurrence of a token wins."""
    rows = {}
    for line in text.split("\n")[1:]:
        fields = line.split()
        if fields:
            rows.setdefault(fields[0], [float(v) for v in fields[1:]])
    return rows


def numbered_file(n_rows, dim=3, bad=None):
    """A file of ``n_rows`` rows with a blank line after every 100th row;
    ``bad`` maps a row index to its replacement value string.  Returns the
    text and the file line number of each row."""
    lines, linenos = [f"{n_rows} {dim}"], []
    for i in range(n_rows):
        values = (bad or {}).get(i, " ".join(["0.5"] * dim))
        lines.append(f"w{i} {values}")
        linenos.append(len(lines))
        if i % 100 == 99:
            lines.append("")
    return "\n".join(lines) + "\n", linenos


class TestLoadEmbeddings:
    def test_basic_two_entries(self):
        table = make_table("2 3\ncat 1 0 0\ndog 0 1 0\n")
        assert table.dimension == 3
        assert table.vocabulary_size == 2
        np.testing.assert_array_equal(vector(table, "cat"), [1, 0, 0])
        np.testing.assert_array_equal(table.vectors, [[1, 0, 0], [0, 1, 0]])

    def test_dimension_mismatch_names_line(self):
        with pytest.raises(EmbeddingParseError, match="dimension mismatch, line 2"):
            make_table("1 2\na 1 2 3\n")

    def test_duplicate_keeps_first_and_warns(self):
        table = make_table("2 2\ncat 1 2\ncat 3 4\n")
        assert table.vocabulary_size == 1
        assert table.duplicate_warnings == 1
        np.testing.assert_array_equal(vector(table, "cat"), [1, 2])
        assert table.vectors.shape == (1, 2)

    def test_non_finite_rejected(self):
        with pytest.raises(EmbeddingParseError, match="non-finite"):
            make_table("1 2\na nan 1\n")

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(EmbeddingParseError, match="empty vocabulary"):
            make_table("0 5\n")

    def test_round_trip_six_significant_digits(self):
        rng = np.random.default_rng(0)
        lines = ["20 4"]
        for i in range(20):
            vec = rng.normal(size=4)
            lines.append(f"w{i} " + " ".join(f"{v:.6g}" for v in vec))
        table = make_table("\n".join(lines) + "\n")
        sink = io.StringIO()
        save_embeddings(table, sink)
        reloaded = make_table(sink.getvalue())
        assert reloaded.rows == table.rows
        np.testing.assert_allclose(reloaded.vectors, table.vectors, rtol=1e-5)

    def test_vectors_read_only(self):
        table = make_table("2 2\ncat 1 2\ncat 3 4\n")
        with pytest.raises(ValueError):
            table.vectors[0, 0] = 9.0
        with pytest.raises(ValueError):
            table.vectors.base[0, 0] = 9.0


class TestHeaderCount:
    @pytest.mark.parametrize("text, declared, read", [
        ("5 2\na 1 2\nb 3 4\n", 5, 2),
        ("1 2\na 1 2\nb 3 4\n", 1, 2),
        ("1 2\na 1 2\n\na 3 4\n\n", 1, 2),
        ("3 2\n", 3, 0),
    ], ids=["too_few", "too_many", "duplicates_count", "no_rows"])
    def test_mismatch_names_both_counts(self, text, declared, read):
        with pytest.raises(EmbeddingParseError,
                           match=f"declares {declared} rows, but the file "
                                 f"has {read}$"):
            make_table(text)

    def test_many_rows_over_a_short_header(self):
        text, _ = numbered_file(3 * embeddings.BLOCK_LINES)
        text = "1 3" + text[text.index("\n"):]
        with pytest.raises(EmbeddingParseError,
                           match=f"has {3 * embeddings.BLOCK_LINES}$"):
            make_table(text)

    @pytest.mark.parametrize("header", [
        "1000000000000000 2",  # MemoryError from np.empty
        "1000000000000000000 300",  # ValueError: larger than any array
        "-1 2",  # ValueError: negative dimensions
    ])
    def test_impossible_header_is_a_data_error(self, header):
        with pytest.raises(EmbeddingParseError, match="cannot allocate"):
            make_table(header + "\na 1 2\n")


class TestBulkParse:
    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 6),
        block=st.integers(1, 4),
        rows=st.lists(
            st.tuples(st.sampled_from(["a", "b", "c", "d", "e", "f", "g"]),
                      st.lists(st.floats(allow_nan=False, allow_infinity=False),
                               min_size=6, max_size=6)),
            min_size=1, max_size=12,
        ),
    )
    def test_repr_rows_load_bit_equal_to_float(self, dim, block, rows):
        text = f"{len(rows)} {dim}\n" + "".join(
            f"{token} " + " ".join(repr(v) for v in values[:dim]) + "\n"
            for token, values in rows
        )
        with mock.patch.object(embeddings, "BLOCK_LINES", block):
            table = make_table(text)
        reference = reference_rows(text)
        assert list(table.rows) == list(reference)
        assert table.duplicate_warnings == len(rows) - len(reference)
        expected = np.array(list(reference.values()), dtype=np.float64)
        assert table.vectors.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("value, message", [
        ("0.5 x 0.5", "unparseable value"),
        ("0.5 0.5", "dimension mismatch"),
        ("0.5 inf 0.5", "non-finite value"),
    ], ids=["bad_value", "short_row", "non_finite"])
    def test_error_past_first_block_names_true_line(self, value, message):
        bad = embeddings.BLOCK_LINES + 123
        text, linenos = numbered_file(embeddings.BLOCK_LINES + 500,
                                      bad={bad: value})
        with pytest.raises(EmbeddingParseError,
                           match=f"{message}, line {linenos[bad]}\\b"):
            make_table(text)

    def test_first_bad_line_of_a_block_wins(self):
        text, linenos = numbered_file(50, bad={10: "nan 1 1", 20: "1 x 1",
                                               30: "1 1"})
        with pytest.raises(EmbeddingParseError,
                           match=f"non-finite value, line {linenos[10]}$"):
            make_table(text)

    def test_token_without_values_reported_after_earlier_lines(self):
        with pytest.raises(EmbeddingParseError, match="unparseable value, line 2"):
            make_table("3 2\na 1 x\nb\nc 1 2\n")
        with pytest.raises(EmbeddingParseError,
                           match="dimension mismatch, line 3: expected 2 "
                                 "components, got 0"):
            make_table("3 2\na 1 2\nb\nc 1 2\n")

    def test_blank_lines_tabs_and_trailing_spaces_load(self):
        text = ("4 3\n\na\t1\t2\t3\n  \nb 4 5 6   \nc\t7 8\t 9 \t\n\n"
                "d 1 0 1\r\n")
        table = make_table(text)
        assert list(table.rows) == ["a", "b", "c", "d"]
        np.testing.assert_array_equal(
            table.vectors, [[1, 2, 3], [4, 5, 6], [7, 8, 9], [1, 0, 1]]
        )

    @pytest.mark.parametrize("value", ["1_000", "\u0661", "1#5", "#", "0x10"])
    def test_non_decimal_value_is_unparseable(self, value):
        with pytest.raises(EmbeddingParseError, match="unparseable value, line 3"):
            make_table(f"2 2\na 1 2\nb 1 {value}\n")


class TestLookup:
    def test_identity(self):
        table = make_table("1 2\ncat 0.5 -1\n")
        assert table.row_ids(["cat", "cat"]) == [0, 0]
        np.testing.assert_array_equal(table.vectors[[0]], [[0.5, -1]])

    def test_no_case_folding(self):
        table = make_table("1 2\ncat 1 2\n")
        assert "CAT" not in table
        assert table.row_ids(["CAT", "cat"]) == [0]

    def test_empty_token_absent(self):
        table = make_table("1 2\ncat 1 2\n")
        assert "" not in table
        assert table.row_ids([""]) == []

    def test_one_row_per_token(self):
        with pytest.raises(ValueError, match=r"expected a \(2, dim\) matrix"):
            embeddings.EmbeddingTable(rows={"a": 0, "b": 1},
                                      vectors=np.zeros((3, 2)))

    def test_rows_numbered_in_insertion_order(self):
        for rows in ({"a": 1, "b": 0}, {"a": 0, "b": 2}):
            with pytest.raises(ValueError, match=r"0\.\.n-1 in order"):
                embeddings.EmbeddingTable(rows=rows, vectors=np.zeros((2, 2)))


class TestComputeIdf:
    def test_smoothing_zero_case(self):
        idf = compute_idf({"the": 99}, 100)
        assert idf.idf_of("the") == 0.0

    def test_hand_values(self):
        idf = compute_idf({"rare": 24, "unique": 0}, 100)
        assert idf.idf_of("rare") == pytest.approx(math.log(4), abs=1e-9)
        assert idf.idf_of("unique") == pytest.approx(math.log(100), abs=1e-9)

    def test_unknown_token_uses_df_zero(self):
        idf = compute_idf({"a": 1}, 100)
        assert idf.idf_of("never-seen") == pytest.approx(math.log(100))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            compute_idf({}, 0)
        with pytest.raises(ValueError):
            compute_idf({"a": -1}, 10)

    def test_rejects_df_above_corpus_size(self):
        with pytest.raises(ValueError, match="exceeds the corpus size 10"):
            compute_idf({"x": 50}, 10)
        # df == N is allowed; smoothing keeps the idf finite
        assert compute_idf({"x": 10}, 10).idf_of("x") == math.log(10 / 11)

    def test_monotone_in_df(self):
        rng = np.random.default_rng(1)
        dfs = sorted(set(rng.integers(0, 1000, size=50).tolist()))
        idf = compute_idf({f"w{d}": d for d in dfs}, 1000)
        values = [idf.idf_of(f"w{d}") for d in dfs]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(math.isfinite(v) for v in values)


class TestDocFreqIO:
    def test_round_trip(self):
        df = {"cat": 3, "dog": 7}
        sink = io.StringIO()
        save_doc_freq(df, 42, sink)
        loaded, n = load_doc_freq(io.StringIO(sink.getvalue()))
        assert loaded == df
        assert n == 42

    @settings(max_examples=100, deadline=None)
    @given(data=st.integers(1, 10**9).flatmap(lambda n: st.tuples(
        st.just(n), st.dictionaries(normalized_token, st.integers(0, n)))))
    def test_round_trip_property(self, data):
        corpus_size, df = data
        sink = io.StringIO()
        save_doc_freq(df, corpus_size, sink)
        assert load_doc_freq(io.StringIO(sink.getvalue())) == (df, corpus_size)

    def test_count_doc_freq(self):
        docs = [["a", "b", "a"], ["b", "c"], ["a"]]
        df, n = count_doc_freq(docs)
        assert n == 3
        assert df == {"a": 2, "b": 2, "c": 1}
