import numpy as np

from textrep.embeddings import compute_idf
from textrep.textprep import NormalizedText, normalize, sort_by_idf


class TestNormalize:
    def test_punctuation_and_numbers(self):
        assert normalize("Hello, World 42!").tokens == ("hello", "world", "0")

    def test_empty(self):
        assert normalize("").tokens == ()
        assert normalize("?!... ---").tokens == ()

    def test_abbreviations_and_ranges(self):
        assert normalize("A.B. 2015--2016").tokens == ("ab", "0", "0")

    def test_embedded_digits_in_place(self):
        assert normalize("b2b").tokens == ("b0b",)

    def test_urls_mentions_hashtags(self):
        got = normalize("RT @user check https://x.io/a?b=1 #Breaking now")
        assert got.tokens == ("rt", "check", "breaking", "now")

    def test_idempotent(self):
        samples = [
            "Hello, World 42!",
            "A.B. 2015--2016",
            "b2b meets 100% #tags @user http://a.io",
            "unicode — dashes… and “quotes”",
        ]
        for raw in samples:
            once = normalize(raw)
            twice = normalize(" ".join(once.tokens))
            assert twice.tokens == once.tokens


class TestSortByIdf:
    def idf(self, df, n=100):
        return compute_idf(df, n)

    def test_descending(self):
        idf = self.idf({"a": 60, "b": 12, "c": 36})
        out = sort_by_idf(NormalizedText(("a", "b", "c")), idf)
        assert out.tokens == ("b", "c", "a")

    def test_stable_ties(self):
        idf = self.idf({"x": 9, "y": 9})
        out = sort_by_idf(NormalizedText(("x", "y")), idf)
        assert out.tokens == ("x", "y")
        out = sort_by_idf(NormalizedText(("y", "x")), idf)
        assert out.tokens == ("y", "x")

    def test_unknown_token_most_informative(self):
        idf = self.idf({"the": 99, "cat": 29})
        out = sort_by_idf(NormalizedText(("the", "unseen", "cat")), idf)
        assert out.tokens == ("unseen", "cat", "the")
        assert idf.idf_of(out.tokens[0]) == np.log(100)

    def test_permutation_of_input(self):
        rng = np.random.default_rng(0)
        idf = self.idf({f"w{i}": int(rng.integers(0, 100)) for i in range(20)})
        tokens = tuple(rng.choice([f"w{i}" for i in range(20)], size=15))
        out = sort_by_idf(NormalizedText(tokens), idf)
        assert sorted(out.tokens) == sorted(tokens)
        values = [idf.idf_of(t) for t in out.tokens]
        assert values == sorted(values, reverse=True)

    def test_idf_sequence_order_invariant(self):
        rng = np.random.default_rng(1)
        idf = self.idf({f"w{i}": int(rng.integers(0, 100)) for i in range(10)})
        tokens = [f"w{i}" for i in range(10)] * 2
        shuffled = list(tokens)
        rng.shuffle(shuffled)

        def idf_sequence(seq):
            out = sort_by_idf(NormalizedText(tuple(seq)), idf)
            return [idf.idf_of(t) for t in out.tokens]

        assert idf_sequence(tokens) == idf_sequence(shuffled)
