import io
import json
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from textrep import pairgen
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
from textrep.textprep import NormalizedText, normalize

from generated import (
    CORPUS_FILES,
    PAIR_FILES,
    TWEET_FILES,
    storm_and_quake_tweets,
)

# Non-empty token tuples as normalize emits them, including the tokens of
# digit runs next to punctuation ("a1.2b" -> "a00b"), which normalize
# would change again.
normalized_tokens = st.one_of(
    st.text(min_size=1),
    st.from_regex(r"[aB0-9.,# ]{1,12}", fullmatch=True),
).map(lambda raw: normalize(raw).tokens).filter(bool)


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
            article([[f"a{i}p{j}t{k}" for k in range(para_len)]
                     for j in range(3)])
            for i in range(n_articles)
        ]

    def test_related_span_skips_two_words(self):
        # single 12-token paragraph forces start 0 with n=5
        tokens = [f"t{i}" for i in range(1, 13)]
        articles = [article([tokens]), article([tokens])]
        pairs = wiki_pairs(articles, 5, 5, 1, seed=0)
        related = pairs[0]
        assert related.label == +1
        assert related.text_a.tokens == tuple(tokens[0:5])
        assert related.text_b.tokens == tuple(tokens[7:12])

    def test_too_short_paragraph_yields_error(self):
        tokens = [f"t{i}" for i in range(11)]  # 2n+2 = 12 > 11
        articles = [article([tokens]), article([tokens])]
        with pytest.raises(PairGenerationError, match="related"):
            wiki_pairs(articles, 5, 5, 1, seed=0)

    @pytest.mark.parametrize("count", [0, -3])
    def test_count_below_one_is_rejected(self, count):
        with pytest.raises(ValueError, match=f"count must be >= 1, got {count}"):
            wiki_pairs(self.corpus(), 5, 5, count, seed=0)

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

    def test_pinned_output(self):
        # Pins the sampler's RNG calls and their order: both span lengths
        # vary, so reordering any draw changes these spans.
        def span(first, n):
            prefix, start = first.split("t")
            return NormalizedText(
                tuple(f"{prefix}t{k}" for k in range(int(start),
                                                      int(start) + n)))

        expected = [
            (+1, "a3p2t11", 29, "a3p2t42", 18),
            (+1, "a0p0t1", 30, "a0p0t33", 26),
            (+1, "a0p1t2", 17, "a0p1t21", 30),
            (-1, "a5p0t24", 13, "a2p1t34", 21),
            (-1, "a2p1t46", 13, "a0p0t13", 28),
            (-1, "a1p2t10", 23, "a4p0t4", 18),
        ]
        assert wiki_pairs(self.corpus(), 10, 30, 3, seed=5) == [
            TextPair(span(a, n_a), span(b, n_b), label)
            for label, a, n_a, b, n_b in expected
        ]


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

    def test_count_below_one_is_rejected(self):
        with pytest.raises(ValueError, match="count must be >= 1, got -1"):
            tweet_pairs(mixed_corpus(), -1, seed=0)

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

    def test_normalizes_each_tweet_once(self, monkeypatch):
        calls = []

        def counting_normalize(raw):
            calls.append(raw)
            return normalize(raw)

        monkeypatch.setattr(pairgen, "normalize", counting_normalize)
        tweets = mixed_corpus()
        pairs = tweet_pairs(tweets, 3, seed=1)
        assert calls == [t.text for t in tweets]
        # Related pairs lose their shared tag; non-related ones keep theirs.
        expected = [
            (1, "quakeaa quakeab quakeac quakead quakeae",
             "quakeda quakedb quakedc quakedd quakede"),
            (1, "stormfa stormfb stormfc stormfd stormfe",
             "stormda stormdb stormdc stormdd stormde"),
            (1, "quakeba quakebb quakebc quakebd quakebe",
             "quakeaa quakeab quakeac quakead quakeae"),
            (-1, "quakeda quakedb quakedc quakedd quakede quake",
             "stormaa stormab stormac stormad stormae storm"),
            (-1, "quakeea quakeeb quakeec quakeed quakeee quake",
             "stormaa stormab stormac stormad stormae storm"),
            (-1, "stormca stormcb stormcc stormcd stormce storm",
             "quakefa quakefb quakefc quakefd quakefe quake"),
        ]
        got = [(p.label, " ".join(p.text_a.tokens), " ".join(p.text_b.tokens))
               for p in pairs]
        assert got == expected

    def test_hash_prefix_and_case_of_tags_are_ignored(self):
        # A tag given as "#Storm" is the tag "storm": it is not one of the
        # tweet's words, so it counts toward neither rule 1 nor rule 4.
        def variant(prefix):
            return [tweet(t.text, {prefix + tag.title() for tag in t.hashtags},
                          t.timestamp) for t in mixed_corpus()]

        assert variant("#")[0].hashtags == frozenset({"storm"})
        assert (tweet_pairs(variant("#"), 3, seed=1)
                == tweet_pairs(variant(""), 3, seed=1)
                == tweet_pairs(mixed_corpus(), 3, seed=1))

    def test_hash_tag_is_not_a_word(self):
        # Four words plus the tag: rule 1 rejects it whether or not the tag
        # is given with "#".
        for tag in ("storm", "#storm", "#Storm"):
            a = tweet("one two three four #storm", {tag}, 0)
            b = tweet("zeta eta theta iota kappa #storm", {tag}, 60)
            with pytest.raises(PairGenerationError, match="rule1_words"):
                tweet_pairs([a, b], 1, seed=0)

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

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(normalized_tokens, normalized_tokens,
                                   st.sampled_from([+1, -1]))))
    def test_round_trip_property(self, rows):
        pairs = [TextPair(NormalizedText(a), NormalizedText(b), label)
                 for a, b, label in rows]
        sink = io.StringIO()
        save_pairs(pairs, sink)
        assert load_pairs(io.StringIO(sink.getvalue())) == pairs

    def test_loads_text_that_normalize_would_change_again(self):
        text = "1\ta00b 0\tb0b\n"
        assert normalize("a00b").tokens == ("a0b",)
        (pair,) = load_pairs(io.StringIO(text))
        assert pair.text_a.tokens == ("a00b", "0")

    @pytest.mark.parametrize("line", [
        "1\tThe Cat!\tdog, 2024",
        "1\tthe cat\tDog",
        "0\tthe cat\tdog,",
        "0\tthe #cat\tdog",
        "0\tthe cat\tdog +",
    ], ids=["uppercase_and_punctuation", "uppercase", "punctuation",
            "hashtag", "symbol"])
    def test_rejects_text_that_is_not_normalized(self, line):
        text = f"1\ta\tb\n{line}\n"
        with pytest.raises(ValueError, match="not normalized.*line 2"):
            load_pairs(io.StringIO(text))

    def test_rejects_labels_other_than_1_and_0(self):
        for label in ("2", "yes", "-1"):
            text = f"1\ta\tb\n{label}\tc\td\n"
            with pytest.raises(ValueError, match=f"line 2: '{label}'"):
                load_pairs(io.StringIO(text))

    def test_load_articles(self):
        corpus = "One two three.\nFour five.\n\nSix seven!\n"
        articles = load_articles(io.StringIO(corpus))
        assert articles == [[("one", "two", "three"), ("four", "five")],
                            [("six", "seven")]]

    def test_load_tweets(self):
        line = json.dumps(
            {"text": "hello #There", "hashtags": ["There"],
             "timestamp": 123, "author": "x"}
        )
        records = load_tweets(io.StringIO(line + "\n"))
        assert records[0].hashtags == frozenset({"there"})
        assert records[0].timestamp == 123

    @pytest.mark.parametrize("stamp", ["900", 12.9, 12.0, True, None])
    def test_load_tweets_needs_an_integer_timestamp(self, stamp):
        good = {"text": "a b c d e", "hashtags": [], "timestamp": 0}
        text = "\n".join(json.dumps(doc) for doc in
                         (good, {**good, "timestamp": stamp})) + "\n"
        with pytest.raises(ValueError, match="line 2: .*timestamp an integer"):
            load_tweets(io.StringIO(text))


def assert_one_string_per_token(texts):
    """Equal tokens across ``texts``, token tuples, are one object."""
    first = {}
    for tokens in texts:
        for token in tokens:
            assert first.setdefault(token, token) is token, token


def pair_texts(pairs):
    return [text.tokens for pair in pairs
            for text in (pair.text_a, pair.text_b)]


def plain_load_pairs(source):
    """Pairs parsed with split() alone: no checks, no shared tokens."""
    return [TextPair(NormalizedText(tuple(text_a.split())),
                     NormalizedText(tuple(text_b.split())),
                     +1 if label == "1" else -1)
            for label, text_a, text_b in (line.rstrip("\n").split("\t")
                                          for line in source if line.strip())]


class TestSharedTokens:
    """Each loader keeps one string per distinct token and loads the same
    values as a plain parse."""

    @settings(max_examples=100, deadline=None)
    @given(text=PAIR_FILES)
    def test_load_pairs(self, text):
        try:
            pairs = load_pairs(io.StringIO(text))
        except ValueError:
            return
        assert pairs == plain_load_pairs(io.StringIO(text))
        assert_one_string_per_token(pair_texts(pairs))

    @settings(max_examples=100, deadline=None)
    @given(text=CORPUS_FILES)
    def test_load_articles(self, text):
        plain, paragraphs = [], []
        for line in io.StringIO(text):
            if line.strip():
                paragraphs.append(normalize(line).tokens)
            elif paragraphs:
                plain.append(paragraphs)
                paragraphs = []
        if paragraphs:
            plain.append(paragraphs)
        articles = load_articles(io.StringIO(text))
        assert articles == plain
        assert_one_string_per_token(
            paragraph for article in articles for paragraph in article)

    @settings(max_examples=100, deadline=None)
    @given(text=TWEET_FILES)
    @example(text=storm_and_quake_tweets())
    @example(text="".join(  # each text one word five times
        json.dumps({"text": f"{word} " * 5 + f"#{tag}", "hashtags": [tag],
                    "timestamp": i}) + "\n"
        for i, (word, tag) in enumerate([("alpha", "storm"), ("beta", "storm"),
                                         ("gamma", "quake"),
                                         ("delta", "quake")])))
    def test_tweet_pairs(self, text):
        try:
            pairs = tweet_pairs(load_tweets(io.StringIO(text)), 1, seed=0)
        except ValueError:
            return
        with pytest.MonkeyPatch.context() as patch:  # a plain normalize()
            patch.setattr(pairgen, "_token_sharer", lambda: tuple)
            plain = tweet_pairs(load_tweets(io.StringIO(text)), 1, seed=0)
        assert pairs == plain
        assert_one_string_per_token(pair_texts(pairs))

    def test_loaded_pairs_take_less_than_half_the_memory(self):
        rng = random.Random(0)
        vocabulary = [f"word{i}" for i in range(50)]
        text = "".join(
            f"{i % 2}\t{' '.join(rng.choices(vocabulary, k=30))}"
            f"\t{' '.join(rng.choices(vocabulary, k=30))}\n"
            for i in range(2000))

        def allocated(load):
            """Bytes still allocated once ``load`` has read the pairs."""
            source = io.StringIO(text)
            tracemalloc.start()
            try:
                pairs = load(source)
                size, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(pairs) == 2000
            return size

        assert load_pairs(io.StringIO(text)) == plain_load_pairs(
            io.StringIO(text))
        assert allocated(load_pairs) < allocated(plain_load_pairs) / 2
