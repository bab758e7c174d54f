import io
import json

import pytest

from textrep.pairgen import (
    PairGenerationError,
    TextPair,
    TweetRecord,
    jaccard,
    load_articles,
    load_pairs,
    load_tweets,
    save_pairs,
    tweet_pairs,
    wiki_pairs,
)
from textrep.textprep import NormalizedText


class TestJaccard:
    def test_partial_overlap(self):
        assert jaccard({"x", "y"}, {"y", "z"}) == pytest.approx(1 / 3)

    def test_identical(self):
        assert jaccard({"x"}, {"x"}) == 1.0

    def test_both_empty(self):
        assert jaccard(set(), set()) == 0.0


def article(tokens_per_para):
    return [tuple(p) for p in tokens_per_para]


class TestWikiPairs:
    def corpus(self, n_articles=6, para_len=60):
        return [
            (
                f"a{i}",
                article([[f"a{i}p{j}t{k}" for k in range(para_len)]
                          for j in range(3)]),
            )
            for i in range(n_articles)
        ]

    def test_related_span_skips_two_words(self):
        # single 12-token paragraph forces start 0 with n=5
        tokens = [f"t{i}" for i in range(1, 13)]
        articles = [("a", article([tokens])), ("b", article([tokens]))]
        pairs = wiki_pairs(articles, 5, 5, 1, seed=0)
        related = pairs[0]
        assert related.label == +1
        assert related.text_a.tokens == tuple(tokens[0:5])
        assert related.text_b.tokens == tuple(tokens[7:12])

    def test_too_short_paragraph_yields_error(self):
        tokens = [f"t{i}" for i in range(11)]  # 2n+2 = 12 > 11
        articles = [("a", article([tokens])), ("b", article([tokens]))]
        with pytest.raises(PairGenerationError, match="related"):
            wiki_pairs(articles, 5, 5, 1, seed=0)

    def test_nonrelated_spans_from_distinct_articles(self):
        pairs = wiki_pairs(self.corpus(), 5, 5, 10, seed=1)
        negatives = [p for p in pairs if p.label == -1]
        assert len(negatives) == 10
        for pair in negatives:
            src_a = pair.text_a.tokens[0].split("p")[0]
            src_b = pair.text_b.tokens[0].split("p")[0]
            assert src_a != src_b

    def test_balanced_and_deterministic(self):
        p1 = wiki_pairs(self.corpus(), 10, 30, 20, seed=7)
        p2 = wiki_pairs(self.corpus(), 10, 30, 20, seed=7)
        assert p1 == p2
        labels = [p.label for p in p1]
        assert labels.count(+1) == labels.count(-1) == 20

    def test_variable_length_within_bounds(self):
        pairs = wiki_pairs(self.corpus(), 10, 30, 20, seed=3)
        for p in pairs:
            assert 10 <= len(p.text_a.tokens) <= 30
            assert 10 <= len(p.text_b.tokens) <= 30


def tweet(text, tags, ts):
    return TweetRecord(text=text, hashtags=frozenset(tags), timestamp=ts)


def mixed_corpus(per_tag=6):
    """Tweets in two hashtag groups with pairwise-disjoint word sets."""
    tweets = []
    for i in range(per_tag):
        tag_i = "abcdefgh"[i]
        words_a = " ".join(f"storm{tag_i}{c}" for c in "abcde")
        words_b = " ".join(f"quake{tag_i}{c}" for c in "abcde")
        tweets.append(tweet(f"{words_a} #storm", {"storm"}, i * 60))
        tweets.append(tweet(f"{words_b} #quake", {"quake"}, i * 60))
    return tweets


class TestTweetPairs:
    def test_related_pair_accepted(self):
        pairs = tweet_pairs(mixed_corpus(), 2, seed=0)
        related = [p for p in pairs if p.label == +1]
        assert len(related) == 2
        # overlapping hashtags removed from both emitted texts
        for p in related:
            assert "storm" not in p.text_a.tokens
            assert "storm" not in p.text_b.tokens
            assert "quake" not in p.text_a.tokens
            assert "quake" not in p.text_b.tokens

    def test_time_rule_rejects(self):
        a = tweet("alpha beta gamma delta epsilon one #storm", {"storm"}, 0)
        b = tweet("zeta eta theta iota kappa two #storm", {"storm"}, 1200)
        with pytest.raises(PairGenerationError, match="rule3_time"):
            tweet_pairs([a, b], 1, seed=0)

    def test_word_count_rule_rejects(self):
        a = tweet("one two three #storm", {"storm"}, 0)
        b = tweet("zeta eta theta iota kappa two #storm", {"storm"}, 60)
        with pytest.raises(PairGenerationError, match="rule1_words"):
            tweet_pairs([a, b], 1, seed=0)

    def test_word_overlap_rule_rejects_related(self):
        a = tweet("alpha beta gamma delta epsilon #storm", {"storm"}, 0)
        b = tweet("alpha beta gamma delta zeta #storm", {"storm"}, 60)
        with pytest.raises(PairGenerationError, match="rule4_overlap"):
            tweet_pairs([a, b], 1, seed=0)

    def test_nonrelated_pairs_have_disjoint_hashtags(self):
        pairs = tweet_pairs(mixed_corpus(), 3, seed=1)
        for p in pairs:
            if p.label == -1:
                # one text mentions storm, the other quake, never both tags
                assert not (
                    "storm" in p.text_a.tokens and "storm" in p.text_b.tokens
                )
                assert not (
                    "quake" in p.text_a.tokens and "quake" in p.text_b.tokens
                )

    def test_balanced_deterministic_on_mixed_corpus(self):
        p1 = tweet_pairs(mixed_corpus(), 5, seed=2)
        p2 = tweet_pairs(mixed_corpus(), 5, seed=2)
        assert p1 == p2
        labels = [p.label for p in p1]
        assert labels.count(+1) == labels.count(-1) == 5

    def test_noninformative_tags_ignored(self):
        # a #breaking tag must not break the hashtag-Jaccard >= 0.5 rule
        tweets = mixed_corpus()
        tweets[0] = tweet(
            tweets[0].text + " #breaking", {"storm", "breaking"}, 0
        )
        pairs = tweet_pairs(tweets, 2, seed=0)
        assert sum(1 for p in pairs if p.label == +1) == 2


class TestPairIO:
    def test_tsv_round_trip(self):
        pairs = [
            TextPair(NormalizedText(("a", "b")), NormalizedText(("c",)), +1),
            TextPair(NormalizedText(("d",)), NormalizedText(("e", "f")), -1),
        ]
        sink = io.StringIO()
        save_pairs(pairs, sink)
        assert sink.getvalue() == "1\ta b\tc\n0\td\te f\n"
        assert load_pairs(io.StringIO(sink.getvalue())) == pairs

    def test_rejects_labels_other_than_1_and_0(self):
        for label in ("2", "yes", "-1"):
            text = f"1\ta\tb\n{label}\tc\td\n"
            with pytest.raises(ValueError, match=f"line 2: '{label}'"):
                load_pairs(io.StringIO(text))

    def test_load_articles(self):
        corpus = "One two three.\nFour five.\n\nSix seven!\n"
        articles = load_articles(io.StringIO(corpus))
        assert len(articles) == 2
        assert articles[0][1] == [("one", "two", "three"), ("four", "five")]
        assert articles[1][1] == [("six", "seven")]

    def test_load_tweets(self):
        line = json.dumps(
            {"text": "hello #There", "hashtags": ["There"],
             "timestamp": 123, "author": "x"}
        )
        records = load_tweets(io.StringIO(line + "\n"))
        assert records[0].hashtags == frozenset({"there"})
        assert records[0].timestamp == 123
