"""Word embedding tables and smoothed inverse document frequency.

All downstream math reads vectors and idf values through the two tables
defined here.  Tables are immutable after construction and safe to share
across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO, Iterable, Mapping

import numpy as np


class EmbeddingParseError(ValueError):
    """Raised when an embedding file violates the word2vec text format."""


@dataclass(frozen=True)
class EmbeddingTable:
    """Immutable token -> row map over one read-only (rows, dim) matrix.

    ``vectors[rows[token]]`` is the token's embedding, and ``rows``
    numbers its tokens 0..n-1 in insertion order.  Absence is a value,
    not an error: no default vector is ever substituted and no case
    folding happens here.
    """

    rows: dict[str, int]
    vectors: np.ndarray
    duplicate_warnings: int = 0

    def __post_init__(self):
        if self.vectors.ndim != 2 or self.vectors.shape[0] != len(self.rows):
            raise ValueError(
                f"expected a ({len(self.rows)}, dim) matrix, got shape "
                f"{self.vectors.shape}"
            )
        if list(self.rows.values()) != list(range(len(self.rows))):
            raise ValueError("rows must number the tokens 0..n-1 in order")
        self.vectors.flags.writeable = False

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]

    @property
    def vocabulary_size(self) -> int:
        return len(self.rows)

    def row_ids(self, tokens: Iterable[str]) -> list[int]:
        """Rows of the in-vocabulary tokens, in order; OOV tokens are dropped."""
        get = self.rows.get
        return [i for i in map(get, tokens) if i is not None]

    def __contains__(self, token: str) -> bool:
        return token in self.rows


@dataclass(frozen=True)
class IdfTable:
    """Smoothed idf over a corpus of ``corpus_size`` documents.

    idf(t) = ln(N / (1 + df(t))); tokens never seen in the corpus fall
    back to the df = 0 value ln(N), the most informative weight.
    """

    corpus_size: int
    doc_freq: dict[str, int]
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
    return IdfTable(corpus_size=corpus_size, doc_freq=dict(doc_freq), idf=idf)


# Lines parsed per np.loadtxt call: large enough to amortize the call,
# small enough that a block's strings stay a few MB.
BLOCK_LINES = 2048


def load_embeddings(source: IO[str]) -> EmbeddingTable:
    """Parse word2vec textual format: header "<count> <dim>", then rows.

    Values are plain decimal floats, parsed in blocks by numpy.  The file
    must hold exactly ``count`` rows, duplicates included; duplicate
    tokens keep the first occurrence and each one bumps
    ``duplicate_warnings`` on the returned table.  Blank lines are
    skipped.
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
    try:
        matrix = np.empty((declared_count, dimension))
    except (MemoryError, ValueError) as exc:
        raise EmbeddingParseError(
            f"cannot allocate the declared {declared_count} x {dimension} "
            f"matrix: {exc}"
        ) from exc

    rows: dict[str, int] = {}
    read = 0
    # The pending block: value strings, their line numbers, and the block
    # positions of first occurrences (the rows the matrix keeps).
    values: list[str] = []
    linenos: list[int] = []
    kept: list[int] = []

    def flush() -> None:
        if not values:
            return
        block = _parse_block(values, linenos, dimension)
        start = len(rows) - len(kept)
        matrix[start : len(rows)] = (
            block if len(kept) == len(values) else block[kept]
        )
        values.clear()
        linenos.clear()
        kept.clear()

    for lineno, line in enumerate(source, start=2):
        fields = line.split(None, 1)
        if not fields:
            continue
        read += 1
        if read > declared_count:
            read += sum(1 for rest in source if rest.strip())
            break
        if len(fields) == 1:
            flush()  # earlier lines are reported first
            raise EmbeddingParseError(
                f"dimension mismatch, line {lineno}: expected {dimension} "
                f"components, got 0"
            )
        token = fields[0]
        if token not in rows:
            kept.append(len(values))
            rows[token] = len(rows)
        values.append(fields[1])
        linenos.append(lineno)
        if len(values) == BLOCK_LINES:
            flush()
    flush()

    if read != declared_count:
        raise EmbeddingParseError(
            f"header declares {declared_count} rows, but the file has {read}"
        )
    if not rows:
        raise EmbeddingParseError("empty vocabulary")
    matrix.flags.writeable = False
    return EmbeddingTable(
        rows=rows,
        vectors=matrix[: len(rows)],
        duplicate_warnings=read - len(rows),
    )


def _parse_values(values: list[str]) -> np.ndarray:
    # comments=None: a "#" is a bad value, not the end of the row.
    return np.loadtxt(values, dtype=np.float64, ndmin=2, comments=None)


def _parse_block(
    values: list[str], linenos: list[int], dimension: int
) -> np.ndarray:
    """The (len(values), dimension) matrix of one block of value strings.

    Only a bad block is re-parsed line by line, so that its first bad
    line is reported with its number.
    """
    try:
        block = _parse_values(values)
    except ValueError:
        pass
    else:
        if block.shape == (len(values), dimension) and np.isfinite(block).all():
            return block
    return np.concatenate([
        _parse_line(value, lineno, dimension)
        for value, lineno in zip(values, linenos)
    ])


def _parse_line(value: str, lineno: int, dimension: int) -> np.ndarray:
    count = len(value.split())
    if count != dimension:
        raise EmbeddingParseError(
            f"dimension mismatch, line {lineno}: expected {dimension} "
            f"components, got {count}"
        )
    try:
        row = _parse_values([value])
    except ValueError as exc:
        raise EmbeddingParseError(f"unparseable value, line {lineno}") from exc
    if not np.all(np.isfinite(row)):
        raise EmbeddingParseError(f"non-finite value, line {lineno}")
    return row


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
    try:
        return int(value)
    except ValueError:
        raise ValueError(
            f"non-integer df count, line {lineno}: {value!r}"
        ) from None


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
