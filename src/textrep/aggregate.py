"""Turn token sequences into single fixed-size vector representations.

The learned representer multiplies each idf-rank-sorted embedding with a
per-rank weight and averages; texts shorter than the weight vector reuse
it through subsampling with linear interpolation.  The classic baselines
(mean/max/min, top-30% idf variants, idf-weighted mean, tf-idf) live
here too so every method is evaluated through one code path.  Texts are
encoded once as idf-sorted embedding row ids.  Each method is one block
kernel over those rows, run by a batch driver, which groups texts by the
number of rows they use, and by a one-text driver.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .embeddings import EmbeddingTable, IdfTable
from .textprep import NORMALIZATION_VERSION, NormalizedText

BASELINE_METHODS = (
    "mean",
    "max",
    "min",
    "minmax_concat",
    "mean_top30",
    "max_top30",
    "minmax_top30",
    "idf_weighted_mean",
)


class UnrepresentableText(ValueError):
    """No in-vocabulary token survived; the text has no representation."""

    def __init__(self, tokens):
        self.tokens = tuple(tokens)
        super().__init__(f"unrepresentable text: {list(tokens)!r}")


@dataclass
class WeightModel:
    """Learned per-rank weights.

    ``weights`` is the model's own read-only copy, because a representer
    reads it once, when it is built.  ``metric`` is always "euclidean":
    the training loss is built on Euclidean distances, so the weights are
    fit for no other metric.
    """

    n_max: int
    weights: np.ndarray
    metric: str = "euclidean"
    normalization_version: str = NORMALIZATION_VERSION
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.weights = np.array(self.weights, dtype=np.float64)
        self.weights.flags.writeable = False
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if self.weights.shape != (self.n_max,):
            raise ValueError(
                f"expected {self.n_max} weights, got shape {self.weights.shape}"
            )
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")
        if self.metric != "euclidean":
            raise ValueError(
                f"model metric must be 'euclidean', got {self.metric!r}"
            )

    def to_json(self) -> str:
        doc = {
            "n_max": self.n_max,
            "weights": [float(w) for w in self.weights],
            "metric": self.metric,
            "normalization_version": self.normalization_version,
            "metadata": self.metadata,
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "WeightModel":
        doc = json.loads(text)
        return cls(
            n_max=doc["n_max"],
            weights=np.array(doc["weights"], dtype=np.float64),
            metric=doc.get("metric", "euclidean"),
            normalization_version=doc.get("normalization_version", "v1"),
            metadata=doc.get("metadata", {}),
        )


@dataclass(frozen=True)
class Representation:
    """One text's vector, as a representer's single-text call returns it."""

    vector: Any


@functools.lru_cache(maxsize=256)
def interpolation_matrix(m: int, n_max: int) -> np.ndarray:
    """The m x n_max matrix P_m that subsamples n_max weights down to m.

    z = P_m @ w interpolates linearly: rank j (1-based) lands on the
    real-valued index 1 + (j-1)(n_max-1)/(m-1) and mixes the two weights
    around it.  P_{n_max} is the identity and P_1 picks w_1.  The result
    is cached and read-only.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m > n_max:
        raise ValueError(f"m={m} exceeds n_max={n_max}")
    matrix = np.zeros((m, n_max))
    if m == 1:
        matrix[0, 0] = 1.0
    else:
        rows = np.arange(m)
        indices = rows * (n_max - 1) / (m - 1)
        floor = np.floor(indices).astype(np.intp)
        ceil = np.minimum(floor + 1, n_max - 1)
        frac = indices - floor
        matrix[rows, floor] = 1.0 - frac
        matrix[rows, ceil] += frac
    matrix.flags.writeable = False
    return matrix


# Embedding rows gathered at once when representing a batch: enough to
# amortize numpy's per-call cost, few enough that a block of dim-300
# rows stays near 1 MB whatever the batch size.
GATHER_ROWS = 512


def _idf_by_row(table: EmbeddingTable, idf: IdfTable) -> list[float]:
    """The idf of each table row's token, indexed by row.

    One C-level pass over the vocabulary: ``EmbeddingTable`` checks that
    its rows are numbered 0..n-1 in insertion order.
    """
    return list(map(idf.idf.get, table.rows, itertools.repeat(idf.default_idf)))


def _text_ids(
    text: NormalizedText, table: EmbeddingTable, by_idf: Callable[[int], float]
) -> list[int]:
    ids = table.row_ids(text.tokens)
    ids.sort(key=by_idf, reverse=True)
    return ids


def _sorted_ids(
    texts: Iterable[NormalizedText], table: EmbeddingTable, key: list[float]
) -> list[list[int]]:
    by_idf = key.__getitem__
    return [_text_ids(text, table, by_idf) for text in texts]


def encode(
    texts: Iterable[NormalizedText], table: EmbeddingTable, idf: IdfTable
) -> list[list[int]]:
    """Each text's in-vocabulary row ids, in descending idf order.

    The sort is stable, so equal idf keeps text order: a text's ids equal
    ``table.row_ids(sort_by_idf(text, idf).tokens)``.
    """
    return _sorted_ids(texts, table, _idf_by_row(table, idf))


# A block kernel maps (ids, k) to the vectors of texts that use k rows
# each: the (k,) ids of one text give its vector, a (k, texts) id matrix
# gives the texts' vectors (flattened or one row per text).
BlockKernel = Callable[[Any, int], np.ndarray]


def _blocks(
    encoded: Sequence[Sequence[int]], length: Callable[[int], int]
) -> Iterator[tuple[int, list[int], np.ndarray]]:
    """Texts grouped by k = length(m), the rows a text with m ids uses.

    Yields (k, text indices, (k, texts) id matrix) with at most
    GATHER_ROWS ids per block; texts without ids are left out.
    """
    groups: dict[int, list[int]] = {}
    for i, ids in enumerate(encoded):
        if ids:
            groups.setdefault(length(len(ids)), []).append(i)
    for k, members in groups.items():
        step = max(1, GATHER_ROWS // k)
        for start in range(0, len(members), step):
            chunk = members[start : start + step]
            yield k, chunk, np.array([encoded[i][:k] for i in chunk]).T


def _represent_blocks(
    encoded: Sequence[Sequence[int]],
    width: int,
    length: Callable[[int], int],
    kernel: BlockKernel,
) -> tuple[np.ndarray, np.ndarray]:
    """The batch driver: (vectors, representable) of encoded texts.

    Texts without an in-vocabulary token get a zero row and a False in
    the mask.
    """
    vectors = np.zeros((len(encoded), width))
    for k, chunk, ids in _blocks(encoded, length):
        vectors[chunk] = kernel(ids, k).reshape(len(chunk), width)
    return vectors, np.array([len(ids) > 0 for ids in encoded], dtype=bool)


def _one_text(
    table: EmbeddingTable,
    key: list[float],
    width: int,
    length: Callable[[int], int],
    kernel: BlockKernel,
) -> Callable[[NormalizedText], np.ndarray]:
    """The one-text driver: encode a text and run ``kernel`` on its ids.

    The vector is allocated before the kernel's temporaries, as the batch
    driver's output is.  Vectors that a caller keeps then pack together
    instead of between freed gathers: returning the kernel's own block
    raised peak RSS by 8-12 MB in a process that kept 6000 dim-300
    vectors.
    """
    by_idf = key.__getitem__

    def single(text: NormalizedText) -> np.ndarray:
        ids = _text_ids(text, table, by_idf)
        if not ids:
            raise UnrepresentableText(text.tokens)
        k = length(len(ids))
        vector = np.empty(width)
        vector[:] = kernel(ids[:k], k)
        return vector

    return single


def rank_weights(model: WeightModel) -> list[np.ndarray]:
    """The weights of every text length: entry k - 1 is z_k = P_k w,
    which a text keeping k rows uses."""
    return [interpolation_matrix(k, model.n_max) @ model.weights
            for k in range(1, model.n_max + 1)]


def _learned_kernel(vectors: np.ndarray, zs: list[np.ndarray]) -> BlockKernel:
    def kernel(ids, k: int) -> np.ndarray:
        block = zs[k - 1] @ vectors[ids].reshape(k, -1)  # texts * dim values
        block /= k
        return block

    return kernel


def represent_learned(
    encoded: Sequence[Sequence[int]],
    table: EmbeddingTable,
    zs: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted averages of encoded texts: (vectors, representable).

    A text keeps its k = min(m, n_max) highest-idf rows V and becomes
    z_k V / k, where ``zs`` is ``rank_weights(model)``.  Texts without an
    in-vocabulary token get a zero row and a False in the mask.
    """
    return _represent_blocks(encoded, table.dimension,
                             functools.partial(min, len(zs)),
                             _learned_kernel(table.vectors, zs))


def _top30_count(m: int) -> int:
    return max(1, math.ceil(0.3 * m))


def _baseline_length(method: str) -> Callable[[int], int]:
    return _top30_count if method.endswith("_top30") else (lambda m: m)


def _baseline_width(table: EmbeddingTable, method: str) -> int:
    return (2 if method.startswith("minmax") else 1) * table.dimension


def _baseline_kernel(
    vectors: np.ndarray, row_idf: np.ndarray, method: str
) -> BlockKernel:
    base = method.replace("_top30", "")
    if base == "mean":
        return lambda ids, k: vectors[ids].mean(axis=0)
    if base == "max":
        return lambda ids, k: vectors[ids].max(axis=0)
    if base == "min":
        return lambda ids, k: vectors[ids].min(axis=0)
    if base.startswith("minmax"):
        def minmax(ids, k: int) -> np.ndarray:
            rows = vectors[ids]
            return np.concatenate((rows.min(axis=0), rows.max(axis=0)), axis=-1)
        return minmax
    # idf_weighted_mean
    return lambda ids, k: np.einsum(
        "k...,k...d->...d", row_idf[ids], vectors[ids]) / k


def represent_baseline(
    encoded: Sequence[Sequence[int]],
    table: EmbeddingTable,
    row_idf: np.ndarray,
    method: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-baseline aggregates of encoded texts: (vectors, representable).

    The ``_top30`` variants keep the ceil(0.3 m) highest-idf rows, the
    others all m; ``row_idf`` holds the idf of each table row's token.
    Texts without an in-vocabulary token get a zero row and a False in
    the mask.
    """
    if method not in BASELINE_METHODS:
        raise ValueError(f"unknown baseline method {method!r}")
    return _represent_blocks(encoded, _baseline_width(table, method),
                             _baseline_length(method),
                             _baseline_kernel(table.vectors, row_idf, method))


def tfidf_vector(text: NormalizedText, idf: IdfTable) -> dict[str, float]:
    """Sparse tf-idf vector: raw in-text count times smoothed idf."""
    counts: dict[str, int] = {}
    for token in text.tokens:
        counts[token] = counts.get(token, 0) + 1
    return {t: c * idf.idf_of(t) for t, c in counts.items()}


def tfidf_cosine_distance(x: Mapping[str, float], y: Mapping[str, float]) -> float:
    """Cosine distance between sparse vectors; any zero vector is at distance 1."""
    nx = math.sqrt(sum(v * v for v in x.values()))
    ny = math.sqrt(sum(v * v for v in y.values()))
    if nx == 0.0 or ny == 0.0:
        return 1.0
    dot = sum(v * y[t] for t, v in x.items() if t in y)
    return 1.0 - dot / (nx * ny)


def distance(x, y, metric: str):
    """Euclidean or cosine distance between two representations, or
    row-wise between two equally shaped stacks of vectors.

    ``x`` and ``y`` are Representations or arrays whose last axis is the
    vector; one pair gives a float, stacks give an array.  A zero vector
    is at cosine distance 1 from every vector.
    """
    xv = np.asarray(getattr(x, "vector", x))
    yv = np.asarray(getattr(y, "vector", y))
    if xv.shape != yv.shape:
        raise ValueError(f"dimension mismatch: {xv.shape} vs {yv.shape}")
    if metric == "euclidean":
        diff = xv - yv
        d = np.sqrt(np.einsum("...i,...i->...", diff, diff))
    elif metric == "cosine":
        nx = np.sqrt(np.einsum("...i,...i->...", xv, xv))
        ny = np.sqrt(np.einsum("...i,...i->...", yv, yv))
        dot = np.einsum("...i,...i->...", xv, yv)
        zero = (nx == 0.0) | (ny == 0.0)
        d = np.where(zero, 1.0, 1.0 - dot / np.where(zero, 1.0, nx * ny))
    else:
        raise ValueError(f"unknown metric {metric!r}")
    return float(d) if d.ndim == 0 else d


@dataclass(frozen=True)
class Representer:
    """One text-to-vector block kernel behind two drivers.

    ``batch(texts)`` returns (vectors, representable): one vector per
    text and a boolean mask of the texts that have a representation.
    ``single(text)`` encodes one text and runs the same kernel on its
    ids alone; it returns the text's vector or raises
    UnrepresentableText.  Calling the representer on a text returns
    ``single``'s vector as a Representation.
    """

    batch: Callable[[Sequence[NormalizedText]], tuple[Any, np.ndarray]]
    single: Callable[[NormalizedText], Any]

    def __call__(self, text: NormalizedText) -> Representation:
        return Representation(self.single(text))


def learned_representer(
    table: EmbeddingTable, idf: IdfTable, model: WeightModel
) -> Representer:
    """The learned model as a Representer.

    The model must have been trained on text normalized the way
    ``textprep.normalize`` does it now.  Its weights are read once, here.
    """
    if model.normalization_version != NORMALIZATION_VERSION:
        raise ValueError(
            f"model was trained on normalization "
            f"{model.normalization_version!r}, but this textrep normalizes "
            f"text as {NORMALIZATION_VERSION!r}"
        )
    key = _idf_by_row(table, idf)
    zs = rank_weights(model)
    return Representer(
        batch=lambda texts: represent_learned(
            _sorted_ids(texts, table, key), table, zs),
        single=_one_text(table, key, table.dimension,
                         functools.partial(min, model.n_max),
                         _learned_kernel(table.vectors, zs)),
    )


def baseline_representer(
    table: EmbeddingTable, idf: IdfTable, method: str
) -> Representer:
    """A fixed baseline as a Representer."""
    if method not in BASELINE_METHODS:
        raise ValueError(f"unknown baseline method {method!r}")
    key = _idf_by_row(table, idf)
    row_idf = np.array(key)
    return Representer(
        batch=lambda texts: represent_baseline(
            _sorted_ids(texts, table, key), table, row_idf, method),
        single=_one_text(table, key, _baseline_width(table, method),
                         _baseline_length(method),
                         _baseline_kernel(table.vectors, row_idf, method)),
    )


def tfidf_representer(idf: IdfTable) -> Representer:
    """tf-idf as a Representer: sparse dict vectors, every text
    representable (an empty text is the zero vector)."""
    return Representer(
        batch=lambda texts: (
            [tfidf_vector(text, idf) for text in texts],
            np.ones(len(texts), dtype=bool),
        ),
        single=lambda text: tfidf_vector(text, idf),
    )


def load_model(path) -> WeightModel:
    with open(path, "r", encoding="utf-8") as fh:
        return WeightModel.from_json(fh.read())


def save_model(model: WeightModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model.to_json())
        fh.write("\n")
