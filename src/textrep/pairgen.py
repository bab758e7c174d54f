"""Labeled pair generation from local corpora.

Wikipedia-style pairs come from two spans of consecutive words in the
same paragraph separated by two skipped words (related), or from two
randomly chosen distinct articles (non-related).  Tweet-style pairs are
accepted by hashtag/word-overlap/time heuristics.  Generation is fully
deterministic given its seed.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

from .textprep import NormalizedText, may_be_normalized, normalize

NON_INFORMATIVE_TAGS = frozenset({"breaking", "update", "news"})

MAX_ATTEMPT_FACTOR = 1000  # sampling attempts per requested pair


def _token_sharer():
    """A function that turns a token sequence into a tuple in which equal
    tokens are one ``str`` object.

    A pair file, corpus or tweet set repeats a small vocabulary many
    times, so storing each distinct token once saves most of the memory
    its loaded texts take.  The token cache belongs to the returned
    function and is freed with it.
    """
    intern = {}.setdefault
    return lambda tokens: tuple(map(intern, tokens, tokens))


class PairGenerationError(ValueError):
    """The corpus cannot yield the requested number of qualifying pairs."""


@dataclass(frozen=True)
class TextPair:
    text_a: NormalizedText
    text_b: NormalizedText
    label: int  # +1 related, -1 non-related

    def __post_init__(self):
        if self.label not in (+1, -1):
            raise ValueError(f"label must be +1 or -1, got {self.label}")
        if not self.text_a.tokens or not self.text_b.tokens:
            raise ValueError("both texts of a pair must be non-empty")


@dataclass(frozen=True)
class TweetRecord:
    text: str
    hashtags: frozenset[str]
    timestamp: int

    def __post_init__(self):
        # The one place hashtags are cleaned: lowercase, leading "#" off.
        object.__setattr__(self, "hashtags", frozenset(
            t.lower().lstrip("#") for t in self.hashtags))


def jaccard(a: set, b: set) -> float:
    """|a ∩ b| / |a ∪ b|, with 0 for two empty sets."""
    union = len(a | b)
    if union == 0:
        return 0.0
    return len(a & b) / union


def _sample(draw, count: int) -> list:
    """The non-None results of calling ``draw()`` until ``count`` are kept
    or ``count * MAX_ATTEMPT_FACTOR`` calls are made."""
    check_count(count)
    kept = []
    for _ in range(count * MAX_ATTEMPT_FACTOR):
        if len(kept) == count:
            break
        pair = draw()
        if pair is not None:
            kept.append(pair)
    return kept


def check_count(count: int) -> None:
    """Reject a request for fewer than one pair per label."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")


def check_lengths(n_min: int, n_max: int) -> None:
    """Reject a span length range that is empty or starts below 1."""
    if n_min > n_max or n_min < 1:
        raise ValueError(f"invalid length range [{n_min}, {n_max}]")


def wiki_pairs(
    articles: Sequence[Sequence[Sequence[str]]],
    n_min: int,
    n_max: int,
    count: int,
    seed: int,
) -> list[TextPair]:
    """Balanced related/non-related span pairs from paragraph corpora.

    ``articles`` holds each article's paragraphs, already normalized to
    token sequences.  Returns ``count`` related followed by ``count``
    non-related pairs.
    """
    check_lengths(n_min, n_max)
    rng = random.Random(seed)
    paragraphs = [
        (ai, para)
        for ai, paras in enumerate(articles)
        for para in paras
        if para
    ]
    if not paragraphs:
        raise PairGenerationError("corpus has no paragraphs")

    def draw_span(tokens, n):
        start = rng.randrange(0, len(tokens) - n + 1)
        return NormalizedText(tuple(tokens[start : start + n]))

    def related():
        n_a = rng.randint(n_min, n_max)
        n_b = rng.randint(n_min, n_max)
        _, para = paragraphs[rng.randrange(len(paragraphs))]
        needed = n_a + 2 + n_b
        if len(para) < needed:
            return None
        span = draw_span(para, needed).tokens
        return TextPair(NormalizedText(span[:n_a]),
                        NormalizedText(span[n_a + 2:]), +1)

    def nonrelated():
        n_a = rng.randint(n_min, n_max)
        n_b = rng.randint(n_min, n_max)
        ai_a, para_a = paragraphs[rng.randrange(len(paragraphs))]
        ai_b, para_b = paragraphs[rng.randrange(len(paragraphs))]
        if ai_a == ai_b or len(para_a) < n_a or len(para_b) < n_b:
            return None
        return TextPair(draw_span(para_a, n_a), draw_span(para_b, n_b), -1)

    pairs = _sample(related, count)
    if len(pairs) < count:
        raise PairGenerationError(
            f"only {len(pairs)} of {count} related pairs extractable; "
            f"paragraphs are too short for the requested lengths"
        )
    if len({ai for ai, _ in paragraphs}) < 2:
        raise PairGenerationError("non-related pairs need at least 2 articles")
    negatives = _sample(nonrelated, count)
    if len(negatives) < count:
        raise PairGenerationError(
            f"only {len(negatives)} of {count} non-related pairs extractable"
        )
    return pairs + negatives


def tweet_pairs(
    tweets: Sequence[TweetRecord], count: int, seed: int
) -> list[TextPair]:
    """Balanced tweet pairs under the four acceptance rules.

    Related: >=5 non-hashtag words each, hashtag Jaccard >= 0.5, sent
    within 15 minutes, word-set Jaccard < 0.5.  Non-related: hashtag
    Jaccard exactly 0, same word rules, no time constraint.  Hashtags
    shared by both tweets are removed from the emitted token sequences.
    """
    rng = random.Random(seed)
    share = _token_sharer()
    tokens = [share(normalize(record.text).tokens) for record in tweets]
    # Words exclude every hashtag; mentions and URLs are already dropped
    # by normalize.  Tags exclude the non-informative ones.
    words = [tuple(t for t in toks if t not in record.hashtags)
             for toks, record in zip(tokens, tweets)]
    tags = [record.hashtags - NON_INFORMATIVE_TAGS for record in tweets]
    rejections = dict.fromkeys(
        ("rule1_words", "rule2_hashtags", "rule3_time", "rule4_overlap"), 0)

    def rejected_by(i, j, label):
        """The first rule that tweets i and j fail as a ``label`` pair, or
        None; counted in ``rejections``."""
        if len(words[i]) < 5 or len(words[j]) < 5:
            rule = "rule1_words"
        elif (jaccard(tags[i], tags[j]) < 0.5 if label == +1
              else tags[i] & tags[j]):
            rule = "rule2_hashtags"
        elif (label == +1
              and abs(tweets[i].timestamp - tweets[j].timestamp) > 900):
            rule = "rule3_time"
        elif jaccard(set(words[i]), set(words[j])) >= 0.5:
            rule = "rule4_overlap"
        else:
            return None
        rejections[rule] += 1
        return rule

    def draw(label):
        i = rng.randrange(len(tweets))
        j = rng.randrange(len(tweets))
        if i == j or rejected_by(i, j, label):
            return None
        # Shared tags are hashtags, so each text keeps its >= 5 words.
        overlap = tags[i] & tags[j]
        return TextPair(
            NormalizedText(tuple(t for t in tokens[i] if t not in overlap)),
            NormalizedText(tuple(t for t in tokens[j] if t not in overlap)),
            label,
        )

    if len(tweets) < 2:
        raise PairGenerationError("need at least two tweets")
    related = _sample(lambda: draw(+1), count)
    nonrelated = _sample(lambda: draw(-1), count)
    if len(related) < count or len(nonrelated) < count:
        worst = max(rejections, key=rejections.get)
        raise PairGenerationError(
            f"insufficient qualifying pairs ({len(related)} related, "
            f"{len(nonrelated)} non-related of {count}); most candidates "
            f"rejected by {worst} ({rejections[worst]} rejections)"
        )
    return related + nonrelated


def load_tweets(source: IO[str]) -> list[TweetRecord]:
    """Line-delimited JSON objects with text, hashtags and an integer
    timestamp; other keys are ignored."""
    records = []
    for lineno, line in enumerate(source, start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
            text, tags, stamp = doc["text"], doc["hashtags"], doc["timestamp"]
            # type(), not isinstance(): JSON true is a bool, not a time.
            if not (isinstance(text, str) and isinstance(tags, list)
                    and all(isinstance(t, str) for t in tags)
                    and type(stamp) is int):
                raise TypeError("text must be a string, hashtags a list of "
                                "strings and timestamp an integer")
            records.append(TweetRecord(text, frozenset(tags), stamp))
        except (KeyError, TypeError, AttributeError, ValueError,
                RecursionError) as exc:
            raise ValueError(
                f"malformed tweet record, line {lineno}: need a JSON object "
                f"with text, hashtags and timestamp ({exc!r})"
            ) from exc
    return records


def load_articles(source: IO[str]) -> list[list[tuple[str, ...]]]:
    """Plain-text corpus: one paragraph per line, blank line between articles.

    Returns each article's list of paragraphs, normalized here; equal
    tokens are one shared string.
    """
    share = _token_sharer()
    runs = itertools.groupby(source, key=lambda line: bool(line.strip()))
    return [[share(normalize(line).tokens) for line in lines]
            for filled, lines in runs if filled]


def save_pairs(pairs: Iterable[TextPair], sink: IO[str]) -> None:
    """Pair TSV: "label<TAB>text_a<TAB>text_b", label 1/0 on disk."""
    for pair in pairs:
        disk_label = 1 if pair.label == +1 else 0
        sink.write(
            f"{disk_label}\t{' '.join(pair.text_a.tokens)}\t"
            f"{' '.join(pair.text_b.tokens)}\n"
        )


def load_pairs(source: IO[str]) -> list[TextPair]:
    """Read a pair TSV as save_pairs writes it; text that normalize() would
    not emit (uppercase, punctuation, symbols) is a data error.  Equal
    tokens are one shared string."""
    share = _token_sharer()
    pairs = []
    for lineno, line in enumerate(source, start=1):
        if not line.strip():
            continue
        fields = line.rstrip("\n").split("\t")
        if len(fields) != 3:
            raise ValueError(f"malformed pair row, line {lineno}: {line!r}")
        if fields[0] not in ("0", "1"):
            raise ValueError(
                f"pair label must be 1 or 0, line {lineno}: {fields[0]!r}"
            )
        if not may_be_normalized(line):
            raise ValueError(
                f"pair text is not normalized, line {lineno}: {line!r}")
        label = +1 if fields[0] == "1" else -1
        pairs.append(
            TextPair(
                NormalizedText(share(fields[1].split())),
                NormalizedText(share(fields[2].split())),
                label,
            )
        )
    return pairs
