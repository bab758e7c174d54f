"""Word embedding tables.

All downstream math reads vectors through the table defined here; the idf
table and the df file live in ``textprep``, which holds no numpy.  Tables
are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import IO

import numpy as np

# The df functions are reachable here too: perfbench reads compute_idf
# and spans load_doc_freq and count_doc_freq under this module's name.
from .textprep import _INTEGER, compute_idf, count_doc_freq  # noqa: F401
from .textprep import load_doc_freq, save_doc_freq  # noqa: F401


class EmbeddingParseError(ValueError):
    """Raised when an embedding file violates the word2vec text format."""


@dataclass(frozen=True, eq=False)
class EmbeddingTable:
    """Immutable token -> row map over one read-only (rows, dim) matrix.

    ``vectors[rows[token]]`` is the token's embedding, and ``rows``
    numbers its tokens 0..n-1 in insertion order.  Absence is a value,
    not an error: no default vector is ever substituted and no case
    folding happens here.  Tables compare and hash by identity.
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


# Lines parsed per np.loadtxt call: large enough to amortize the call,
# small enough that a block's strings stay a few MB.
BLOCK_LINES = 2048


def load_embeddings(source: IO[str]) -> EmbeddingTable:
    """Parse word2vec textual format: header "<count> <dim>", then rows.

    Values are plain decimal floats, parsed in blocks by numpy.  The file
    must hold exactly ``count`` rows, duplicates included; duplicate
    tokens keep the first occurrence and each one bumps
    ``duplicate_warnings`` on the returned table.  Blank lines are
    skipped, and rows past the declared count are counted, not parsed.
    """
    header = source.readline()
    fields = header.split()
    if len(fields) != 2 or not all(map(_INTEGER.fullmatch, fields)):
        raise EmbeddingParseError(f"malformed header line: {header!r}")
    declared_count, dimension = map(int, fields)
    if dimension < 1:
        raise EmbeddingParseError(f"dimension must be positive, got {dimension}")
    try:
        matrix = np.empty((declared_count, dimension))
    except (MemoryError, ValueError) as exc:
        raise EmbeddingParseError(
            f"cannot allocate the declared {declared_count} x {dimension} "
            f"matrix: {exc}"
        ) from exc

    # Each non-blank line as (line number, [token, values]); a token-only
    # line has no values and is reported by _parse_line, in file order.
    lines = ((lineno, fields) for lineno, line in enumerate(source, start=2)
             if (fields := line.split(None, 1)))
    rows: dict[str, int] = {}
    read = 0
    while block := list(
            islice(lines, min(BLOCK_LINES, declared_count - read))):
        read += len(block)
        start = len(rows)
        kept = []
        for i, (_, fields) in enumerate(block):
            if fields[0] not in rows:
                rows[fields[0]] = len(rows)
                kept.append(i)
        parsed = _parse_block(
            [fields[1] if len(fields) == 2 else "" for _, fields in block],
            [lineno for lineno, _ in block], dimension)
        matrix[start : len(rows)] = (
            parsed if len(kept) == len(block) else parsed[kept])
        del block, parsed  # freed before the next block is read
    read += sum(1 for _ in lines)  # rows past the declared count

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
    line is reported with its number.  So is a block with an empty value
    (a token-only line), because numpy warns on a block of only those.
    """
    if "" not in values:
        try:
            block = _parse_values(values)
            if (block.shape == (len(values), dimension)
                    and np.isfinite(block).all()):
                return block
        except ValueError:
            pass
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
