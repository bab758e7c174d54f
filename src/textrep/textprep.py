"""Text normalization and idf-descending token ordering.

Normalization lowercases, strips punctuation and symbol characters,
replaces numbers by the single character "0", and drops URLs and user
mentions (hashtags survive with their "#" stripped).  Sorting by idf
produces the rank order that the learned weights attach to.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass

from .embeddings import IdfTable

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
