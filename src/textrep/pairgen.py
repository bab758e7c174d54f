"""Labeled pair generation from local corpora.

Wikipedia-style pairs come from two spans of consecutive words in the
same paragraph separated by two skipped words (related), or from two
randomly chosen distinct articles (non-related).  Tweet-style pairs are
accepted by hashtag/word-overlap/time heuristics.  Generation is fully
deterministic given its seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

from .textprep import NormalizedText, normalize

NON_INFORMATIVE_TAGS = frozenset({"breaking", "update", "news"})

MAX_ATTEMPT_FACTOR = 1000  # sampling attempts per requested pair


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


def jaccard(a: set, b: set) -> float:
    """|a ∩ b| / |a ∪ b|, with 0 for two empty sets."""
    union = len(a | b)
    if union == 0:
        return 0.0
    return len(a & b) / union


def wiki_pairs(
    articles: Sequence[tuple[str, Sequence[Sequence[str]]]],
    n_min: int,
    n_max: int,
    count: int,
    seed: int,
) -> list[TextPair]:
    """Balanced related/non-related span pairs from paragraph corpora.

    ``articles`` holds (article_id, paragraphs) with paragraphs already
    normalized to token sequences.  Returns ``count`` related followed by
    ``count`` non-related pairs.
    """
    if n_min > n_max or n_min < 1:
        raise ValueError(f"invalid length range [{n_min}, {n_max}]")
    rng = random.Random(seed)
    paragraphs = [
        (ai, para)
        for ai, (_, paras) in enumerate(articles)
        for para in paras
        if para
    ]
    if not paragraphs:
        raise PairGenerationError("corpus has no paragraphs")

    def draw_span(tokens, n):
        start = rng.randrange(0, len(tokens) - n + 1)
        return tuple(tokens[start : start + n])

    pairs: list[TextPair] = []
    attempts_left = count * MAX_ATTEMPT_FACTOR

    while len(pairs) < count and attempts_left > 0:
        attempts_left -= 1
        n_a = rng.randint(n_min, n_max)
        n_b = rng.randint(n_min, n_max)
        _, para = paragraphs[rng.randrange(len(paragraphs))]
        needed = n_a + 2 + n_b
        if len(para) < needed:
            continue
        start = rng.randrange(0, len(para) - needed + 1)
        span_a = tuple(para[start : start + n_a])
        span_b = tuple(para[start + n_a + 2 : start + needed])
        pairs.append(
            TextPair(NormalizedText(span_a), NormalizedText(span_b), +1)
        )
    if len(pairs) < count:
        raise PairGenerationError(
            f"only {len(pairs)} of {count} related pairs extractable; "
            f"paragraphs are too short for the requested lengths"
        )

    attempts_left = count * MAX_ATTEMPT_FACTOR
    negatives: list[TextPair] = []
    article_ids = sorted({ai for ai, _ in paragraphs})
    if len(article_ids) < 2:
        raise PairGenerationError("non-related pairs need at least 2 articles")
    while len(negatives) < count and attempts_left > 0:
        attempts_left -= 1
        n_a = rng.randint(n_min, n_max)
        n_b = rng.randint(n_min, n_max)
        ai_a, para_a = paragraphs[rng.randrange(len(paragraphs))]
        ai_b, para_b = paragraphs[rng.randrange(len(paragraphs))]
        if ai_a == ai_b or len(para_a) < n_a or len(para_b) < n_b:
            continue
        negatives.append(
            TextPair(
                NormalizedText(draw_span(para_a, n_a)),
                NormalizedText(draw_span(para_b, n_b)),
                -1,
            )
        )
    if len(negatives) < count:
        raise PairGenerationError(
            f"only {len(negatives)} of {count} non-related pairs extractable"
        )
    return pairs + negatives


def _tweet_words(record: TweetRecord) -> tuple[str, ...]:
    """Normalized word tokens excluding hashtag words (mentions and URLs
    are already dropped by normalize)."""
    tags = {t.lower() for t in record.hashtags}
    return tuple(t for t in normalize(record.text).tokens if t not in tags)


def _clean_tags(record: TweetRecord) -> frozenset[str]:
    return frozenset(
        t.lower().lstrip("#")
        for t in record.hashtags
        if t.lower().lstrip("#") not in NON_INFORMATIVE_TAGS
    )


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
    prepared = []
    for record in tweets:
        words = _tweet_words(record)
        prepared.append((record, words, set(words), _clean_tags(record)))

    rejections = {"rule1_words": 0, "rule2_hashtags": 0, "rule3_time": 0,
                  "rule4_overlap": 0}

    def emit(pa, pb, label):
        (_, words_a, _, tags_a) = pa
        (_, words_b, _, tags_b) = pb
        overlap = tags_a & tags_b
        tokens_a = tuple(
            t for t in normalize(pa[0].text).tokens if t not in overlap
        )
        tokens_b = tuple(
            t for t in normalize(pb[0].text).tokens if t not in overlap
        )
        if not tokens_a or not tokens_b:
            return None
        return TextPair(NormalizedText(tokens_a), NormalizedText(tokens_b), label)

    def related_ok(pa, pb):
        if len(pa[1]) < 5 or len(pb[1]) < 5:
            rejections["rule1_words"] += 1
            return False
        if jaccard(pa[3], pb[3]) < 0.5:
            rejections["rule2_hashtags"] += 1
            return False
        if abs(pa[0].timestamp - pb[0].timestamp) > 900:
            rejections["rule3_time"] += 1
            return False
        if jaccard(pa[2], pb[2]) >= 0.5:
            rejections["rule4_overlap"] += 1
            return False
        return True

    def nonrelated_ok(pa, pb):
        if len(pa[1]) < 5 or len(pb[1]) < 5:
            rejections["rule1_words"] += 1
            return False
        if jaccard(pa[3], pb[3]) != 0.0:
            rejections["rule2_hashtags"] += 1
            return False
        if jaccard(pa[2], pb[2]) >= 0.5:
            rejections["rule4_overlap"] += 1
            return False
        return True

    def collect(predicate, label):
        out = []
        attempts_left = count * MAX_ATTEMPT_FACTOR
        while len(out) < count and attempts_left > 0:
            attempts_left -= 1
            i = rng.randrange(len(prepared))
            j = rng.randrange(len(prepared))
            if i == j:
                continue
            if predicate(prepared[i], prepared[j]):
                pair = emit(prepared[i], prepared[j], label)
                if pair is not None:
                    out.append(pair)
        return out

    if len(prepared) < 2:
        raise PairGenerationError("need at least two tweets")
    related = collect(related_ok, +1)
    nonrelated = collect(nonrelated_ok, -1)
    if len(related) < count or len(nonrelated) < count:
        worst = max(rejections, key=rejections.get)
        raise PairGenerationError(
            f"insufficient qualifying pairs ({len(related)} related, "
            f"{len(nonrelated)} non-related of {count}); most candidates "
            f"rejected by {worst} ({rejections[worst]} rejections)"
        )
    return related + nonrelated


def load_tweets(source: IO[str]) -> list[TweetRecord]:
    """Line-delimited JSON objects with text, hashtags and timestamp;
    other keys are ignored."""
    records = []
    for lineno, line in enumerate(source, start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
            records.append(
                TweetRecord(
                    text=doc["text"],
                    hashtags=frozenset(t.lower() for t in doc["hashtags"]),
                    timestamp=int(doc["timestamp"]),
                )
            )
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ValueError(
                f"malformed tweet record, line {lineno}: need a JSON object "
                f"with text, hashtags and timestamp ({exc!r})"
            ) from exc
    return records


def load_articles(source: IO[str]) -> list[tuple[str, list[tuple[str, ...]]]]:
    """Plain-text corpus: one paragraph per line, blank line between articles.

    Paragraph text is normalized here; article ids are ordinal.
    """
    articles: list[tuple[str, list[tuple[str, ...]]]] = []
    current: list[tuple[str, ...]] = []
    for line in source:
        stripped = line.strip()
        if not stripped:
            if current:
                articles.append((f"article-{len(articles)}", current))
                current = []
            continue
        current.append(normalize(stripped).tokens)
    if current:
        articles.append((f"article-{len(articles)}", current))
    return articles


def save_pairs(pairs: Iterable[TextPair], sink: IO[str]) -> None:
    """Pair TSV: "label<TAB>text_a<TAB>text_b", label 1/0 on disk."""
    for pair in pairs:
        disk_label = 1 if pair.label == +1 else 0
        sink.write(
            f"{disk_label}\t{' '.join(pair.text_a.tokens)}\t"
            f"{' '.join(pair.text_b.tokens)}\n"
        )


def load_pairs(source: IO[str]) -> list[TextPair]:
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
        label = +1 if fields[0] == "1" else -1
        pairs.append(
            TextPair(
                NormalizedText(tuple(fields[1].split())),
                NormalizedText(tuple(fields[2].split())),
                label,
            )
        )
    return pairs
