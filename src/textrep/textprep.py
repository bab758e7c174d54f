"""Text normalization, smoothed idf and idf-descending token ordering.

Normalization lowercases, strips punctuation and symbol characters,
replaces numbers by the single character "0", and drops URLs and user
mentions (hashtags survive with their "#" stripped).  Document
frequencies are counted over normalized texts and read and written as a
df TSV; the idf table built from them is how every method weighs a
token.  Sorting by idf produces the rank order that the learned weights
attach to.  Nothing here needs numpy.
"""

from __future__ import annotations

import math
import re
import unicodedata
from dataclasses import dataclass, field
from typing import IO, Iterable, Mapping

# Stored in every model; bump it whenever normalize() changes its output.
NORMALIZATION_VERSION = "v1"

_URL_OR_MENTION = re.compile(r"^(https?://|www\.|@)", re.IGNORECASE)
_DIGIT_RUN = re.compile(r"[0-9]+")


@dataclass(frozen=True)
class NormalizedText:
    """Lowercase, punctuation-free token sequence."""

    tokens: tuple[str, ...]


class _PunctuationTable(dict):
    """``str.translate`` table that deletes punctuation and symbols.

    Maps a code point to None when its Unicode category is P* or S* and
    to itself otherwise.  Each code point is looked up on first sight and
    stored, so no table is built at import and the entries only ever
    record fixed Unicode facts.
    """

    def __missing__(self, code: int):
        kept = None if unicodedata.category(chr(code))[0] in "PS" else code
        self[code] = kept
        return kept


_DROP_PUNCTUATION = _PunctuationTable()


def _replace_digit_run(match: re.Match, text: str) -> str:
    # Runs touching a letter are replaced in place ("b2b" -> "b0b");
    # standalone runs become their own "0" token.
    start, end = match.span()
    if text[start - 1 : start].isalpha() or text[end : end + 1].isalpha():
        return "0"
    return " 0 "


def normalize(raw: str) -> NormalizedText:
    """Normalize raw text into a lowercase token sequence.

    URLs and @mentions are removed whole; "#" prefixes are stripped so
    hashtag words stay available for embedding lookup.
    """
    kept = []
    for piece in raw.split():
        if _URL_OR_MENTION.match(piece):
            continue
        kept.append(piece.lstrip("#"))
    text = " ".join(kept).lower()
    text = _DIGIT_RUN.sub(lambda m: _replace_digit_run(m, text), text)
    text = text.translate(_DROP_PUNCTUATION)
    return NormalizedText(tokens=tuple(text.split()))


def may_be_normalized(line: str) -> bool:
    """Whether ``line`` is lowercase and free of punctuation and symbols,
    as normalize() output is, checked in two C-level string passes.
    (normalize() is not idempotent, "a00b" -> "a0b", so it is no test.)"""
    return (line == line.lower()
            and len(line.translate(_DROP_PUNCTUATION)) == len(line))


def sort_by_idf(text: NormalizedText, idf: IdfTable) -> NormalizedText:
    """Stable descending sort on idf; unknown tokens get the df=0 idf.

    Ties keep original relative order, so the output is deterministic
    for any input.
    """
    ordered = sorted(text.tokens, key=idf.idf_of, reverse=True)
    return NormalizedText(tuple(ordered))


@dataclass(frozen=True)
class IdfTable:
    """Smoothed idf over a corpus of ``corpus_size`` documents.

    idf(t) = ln(N / (1 + df(t))); tokens never seen in the corpus fall
    back to the df = 0 value ln(N), the most informative weight.
    """

    corpus_size: int
    idf: dict[str, float] = field(default_factory=dict)
    default_idf: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "default_idf", math.log(self.corpus_size))

    def idf_of(self, token: str) -> float:
        """idf for any token, with the df = 0 convention for unknowns."""
        return self.idf.get(token, self.default_idf)


def compute_idf(doc_freq: Mapping[str, int], corpus_size: int) -> IdfTable:
    """Build an IdfTable with idf(t) = ln(N / (1 + df(t))).

    Natural logarithm; df may equal N (smoothing keeps the log finite),
    but no token can appear in more documents than the corpus holds.
    """
    if corpus_size < 1:
        raise ValueError(f"corpus_size must be >= 1, got {corpus_size}")
    idf = {}
    for token, df in doc_freq.items():
        if df < 0:
            raise ValueError(f"negative document frequency for {token!r}: {df}")
        if df > corpus_size:
            raise ValueError(
                f"document frequency for {token!r} exceeds the corpus size "
                f"{corpus_size}: {df}"
            )
        idf[token] = math.log(corpus_size / (1 + df))
    return IdfTable(corpus_size=corpus_size, idf=idf)


# The integers of the df file and the embedding header: int() alone also
# takes "1_0", non-ASCII digits and surrounding whitespace, which the
# values reject.
_INTEGER = re.compile(r"[+-]?[0-9]+")


def load_doc_freq(source: IO[str]) -> tuple[dict[str, int], int]:
    """Read the df TSV: first line "N<TAB><int>", then token<TAB>df rows.

    Counts must be integers and each token may appear once; a violation
    is a ValueError naming its line.
    """
    first = source.readline()
    fields = first.rstrip("\n").split("\t")
    if len(fields) != 2 or fields[0] != "N":
        raise ValueError(f"malformed df header line: {first!r}")
    corpus_size = _count(fields[1], 1)
    doc_freq = {}
    for lineno, line in enumerate(source, start=2):
        if not line.strip():
            continue
        fields = line.rstrip("\n").split("\t")
        if len(fields) != 2:
            raise ValueError(f"malformed df row, line {lineno}: {line!r}")
        token, count = fields
        if token in doc_freq:
            raise ValueError(f"duplicate df token {token!r}, line {lineno}")
        doc_freq[token] = _count(count, lineno)
    return doc_freq, corpus_size


def _count(value: str, lineno: int) -> int:
    if not _INTEGER.fullmatch(value):
        raise ValueError(f"non-integer df count, line {lineno}: {value!r}")
    return int(value)


def save_doc_freq(doc_freq: Mapping[str, int], corpus_size: int, sink: IO[str]) -> None:
    sink.write(f"N\t{corpus_size}\n")
    for token in sorted(doc_freq):
        sink.write(f"{token}\t{doc_freq[token]}\n")


def count_doc_freq(documents: Iterable[Iterable[str]]) -> tuple[dict[str, int], int]:
    """Document frequencies over tokenized documents; returns (df, N)."""
    doc_freq: dict[str, int] = {}
    n_docs = 0
    for tokens in documents:
        n_docs += 1
        for token in set(tokens):
            doc_freq[token] = doc_freq.get(token, 0) + 1
    return doc_freq, n_docs
