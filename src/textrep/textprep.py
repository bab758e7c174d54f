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

    @property
    def n(self) -> int:
        return len(self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class SortedText:
    """Tokens reordered to descending idf, with the source permutation."""

    tokens: tuple[str, ...]
    source_positions: tuple[int, ...]
    idf_values: tuple[float, ...]


def _is_punctuation(ch: str) -> bool:
    return unicodedata.category(ch)[0] in ("P", "S")


def _replace_digit_run(match: re.Match, text: str) -> str:
    # Runs touching a letter are replaced in place ("b2b" -> "b0b");
    # standalone runs become their own "0" token.
    before = text[match.start() - 1] if match.start() > 0 else ""
    after = text[match.end()] if match.end() < len(text) else ""
    if (before and before.isalpha()) or (after and after.isalpha()):
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
    text = "".join(ch for ch in text if not _is_punctuation(ch))
    return NormalizedText(tokens=tuple(text.split()))


def sort_by_idf(text: NormalizedText, idf: IdfTable) -> SortedText:
    """Stable descending sort on idf; unknown tokens get the df=0 idf.

    Ties keep original relative order, so the output is deterministic
    for any input.
    """
    values = [idf.idf_of(t) for t in text.tokens]
    order = sorted(range(len(values)), key=lambda i: -values[i])
    return SortedText(
        tokens=tuple(text.tokens[i] for i in order),
        source_positions=tuple(order),
        idf_values=tuple(values[i] for i in order),
    )
