import io
import math

import numpy as np
import pytest

from textrep.embeddings import (
    EmbeddingParseError,
    compute_idf,
    count_doc_freq,
    load_doc_freq,
    load_embeddings,
    save_doc_freq,
    save_embeddings,
)


def make_table(text):
    return load_embeddings(io.StringIO(text))


class TestLoadEmbeddings:
    def test_basic_two_entries(self):
        table = make_table("2 3\ncat 1 0 0\ndog 0 1 0\n")
        assert table.dimension == 3
        assert table.vocabulary_size == 2
        np.testing.assert_array_equal(table.lookup("cat"), [1, 0, 0])

    def test_dimension_mismatch_names_line(self):
        with pytest.raises(EmbeddingParseError, match="dimension mismatch, line 2"):
            make_table("1 2\na 1 2 3\n")

    def test_duplicate_keeps_first_and_warns(self):
        table = make_table("2 2\ncat 1 2\ncat 3 4\n")
        assert table.vocabulary_size == 1
        assert table.duplicate_warnings == 1
        np.testing.assert_array_equal(table.lookup("cat"), [1, 2])

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
        for token, vec in table.entries.items():
            np.testing.assert_allclose(reloaded.lookup(token), vec, rtol=1e-5)


class TestLookup:
    def test_identity(self):
        table = make_table("1 2\ncat 0.5 -1\n")
        v1 = table.lookup("cat")
        v2 = table.lookup("cat")
        assert v1 is v2

    def test_no_case_folding(self):
        table = make_table("1 2\ncat 1 2\n")
        assert table.lookup("CAT") is None

    def test_empty_token_absent(self):
        table = make_table("1 2\ncat 1 2\n")
        assert table.lookup("") is None


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

    def test_count_doc_freq(self):
        docs = [["a", "b", "a"], ["b", "c"], ["a"]]
        df, n = count_doc_freq(docs)
        assert n == 3
        assert df == {"a": 2, "b": 2, "c": 1}
