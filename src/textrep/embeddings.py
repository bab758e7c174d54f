"""Word embedding tables and smoothed inverse document frequency.

All downstream math reads vectors and idf values through the two tables
defined here.  Tables are immutable after construction and safe to share
across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO, Iterable, Mapping, Optional

import numpy as np


class EmbeddingParseError(ValueError):
    """Raised when an embedding file violates the word2vec text format."""


@dataclass(frozen=True)
class EmbeddingTable:
    """Immutable token -> dense vector map with fixed dimensionality."""

    dimension: int
    entries: dict[str, np.ndarray]
    duplicate_warnings: int = 0

    @property
    def vocabulary_size(self) -> int:
        return len(self.entries)

    def lookup(self, token: str) -> Optional[np.ndarray]:
        """Return the stored vector for ``token`` or None when absent.

        Absence is a value, not an error; no default vector is ever
        substituted and no case folding happens here.
        """
        return self.entries.get(token)

    def __contains__(self, token: str) -> bool:
        return token in self.entries


@dataclass(frozen=True)
class IdfTable:
    """Smoothed idf over a corpus of ``corpus_size`` documents.

    idf(t) = ln(N / (1 + df(t))); tokens never seen in the corpus fall
    back to the df = 0 value ln(N), the most informative weight.
    """

    corpus_size: int
    doc_freq: dict[str, int]
    idf: dict[str, float] = field(default_factory=dict)

    @property
    def default_idf(self) -> float:
        return math.log(self.corpus_size)

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
    return IdfTable(corpus_size=corpus_size, doc_freq=dict(doc_freq), idf=idf)


def load_embeddings(source: IO[str]) -> EmbeddingTable:
    """Parse word2vec textual format: header "<count> <dim>", then rows.

    Duplicate tokens keep the first occurrence; every duplicate bumps
    ``duplicate_warnings`` on the returned table.
    """
    header = source.readline()
    parts = header.split()
    if len(parts) != 2:
        raise EmbeddingParseError(f"malformed header line: {header!r}")
    try:
        declared_count, dimension = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise EmbeddingParseError(f"malformed header line: {header!r}") from exc
    if dimension < 1:
        raise EmbeddingParseError(f"dimension must be positive, got {dimension}")

    entries: dict[str, np.ndarray] = {}
    duplicates = 0
    for lineno, line in enumerate(source, start=2):
        if not line.strip():
            continue
        fields = line.split()
        token = fields[0]
        if len(fields) - 1 != dimension:
            raise EmbeddingParseError(
                f"dimension mismatch, line {lineno}: expected {dimension} "
                f"components, got {len(fields) - 1}"
            )
        try:
            vector = np.array([float(v) for v in fields[1:]], dtype=np.float64)
        except ValueError as exc:
            raise EmbeddingParseError(f"unparseable value, line {lineno}") from exc
        if not np.all(np.isfinite(vector)):
            raise EmbeddingParseError(f"non-finite value, line {lineno}")
        if token in entries:
            duplicates += 1
            continue
        entries[token] = vector
        vector.flags.writeable = False

    if not entries:
        raise EmbeddingParseError("empty vocabulary")
    return EmbeddingTable(
        dimension=dimension, entries=entries, duplicate_warnings=duplicates
    )


def save_embeddings(table: EmbeddingTable, sink: IO[str]) -> None:
    """Write the table back out in word2vec textual format (6 sig. digits)."""
    sink.write(f"{table.vocabulary_size} {table.dimension}\n")
    for token, vector in table.entries.items():
        comps = " ".join(f"{v:.6g}" for v in vector)
        sink.write(f"{token} {comps}\n")


def load_doc_freq(source: IO[str]) -> tuple[dict[str, int], int]:
    """Read the df TSV: first line "N<TAB><int>", then token<TAB>df rows."""
    first = source.readline()
    fields = first.rstrip("\n").split("\t")
    if len(fields) != 2 or fields[0] != "N":
        raise ValueError(f"malformed df header line: {first!r}")
    corpus_size = int(fields[1])
    doc_freq = {}
    for lineno, line in enumerate(source, start=2):
        if not line.strip():
            continue
        fields = line.rstrip("\n").split("\t")
        if len(fields) != 2:
            raise ValueError(f"malformed df row, line {lineno}: {line!r}")
        doc_freq[fields[0]] = int(fields[1])
    return doc_freq, corpus_size


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
