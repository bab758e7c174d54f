"""Turn token sequences into single fixed-size vector representations.

The learned representer multiplies each idf-rank-sorted embedding with a
per-rank weight and averages; texts shorter than the weight vector reuse
it through subsampling with linear interpolation.  The classic baselines
(mean/max/min, top-30% idf variants, idf-weighted mean, tf-idf) live
here too so every method is evaluated through one code path.  Texts are
encoded once as idf-sorted embedding row ids.  Each method is one spec
(output width, rows kept, block kernel over those rows), run by a batch
driver, which groups texts by the number of rows they use, and by a
one-text driver.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import weakref
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Iterable, Mapping, Sequence

import numpy as np

from .embeddings import EmbeddingTable
from .settings import BASELINE_METHODS
from .textprep import NORMALIZATION_VERSION, IdfTable, NormalizedText


class UnrepresentableText(ValueError):
    """No in-vocabulary token survived; the text has no representation."""


@dataclass
class WeightModel:
    """Learned per-rank weights.

    ``weights`` is the model's own read-only copy, because a representer
    reads it once, when it is built.  ``metric`` is a class constant,
    "euclidean": the training loss is built on Euclidean distances, so the
    weights are fit for no other metric.  ``normalization_version`` is one
    too, ``textprep.normalize``'s: ``from_json`` refuses a model file of
    any other.
    """

    n_max: int
    weights: np.ndarray
    metadata: dict = field(default_factory=dict)
    metric: ClassVar[str] = "euclidean"
    normalization_version: ClassVar[str] = NORMALIZATION_VERSION

    def __post_init__(self):
        try:
            self.weights = np.array(self.weights, dtype=np.float64)
        except OverflowError:  # an integer beyond the float range
            raise ValueError("weights must be finite") from None
        self.weights.flags.writeable = False
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if self.weights.shape != (self.n_max,):
            raise ValueError(
                f"expected {self.n_max} weights, got shape {self.weights.shape}"
            )
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")

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
        try:
            doc = json.loads(text)
        except RecursionError:
            raise ValueError("model file nests its JSON too deeply") from None
        if not isinstance(doc, dict):
            raise ValueError("model file must hold a JSON object")
        doc.setdefault("metadata", {})
        # type(), not isinstance(): JSON true is a bool, not a number.
        for key, kind, name in (("n_max", int, "an integer"),
                                ("weights", list, "a list"),
                                ("metadata", dict, "an object")):
            if type(doc.get(key)) is not kind:
                raise ValueError(f"model file needs {key!r} as {name}")
        if not all(type(w) in (int, float) for w in doc["weights"]):
            raise ValueError("model file needs 'weights' as a list of numbers")
        model = cls(n_max=doc["n_max"], weights=doc["weights"],
                    metadata=doc["metadata"])
        metric = doc.get("metric", cls.metric)
        if metric != cls.metric:
            raise ValueError(f"model metric must be 'euclidean', got {metric!r}")
        version = doc.get("normalization_version", "v1")
        if version != cls.normalization_version:
            raise ValueError(
                f"model was trained on normalization {version!r}, but this "
                f"textrep normalizes text as {cls.normalization_version!r}")
        return model


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


class _Encoding:
    """The encoding every method shares over one (table, idf) pair.

    ``key`` is ``_idf_by_row(table, idf)``; ``encode_text`` gives a
    text's in-vocabulary row ids in descending idf order.  From the
    second representer built over the pair on, ``batch`` memoizes them
    in ``memo``, keyed weakly by the text, so an entry lives as long as
    its text; callers slice the shared lists and never mutate them.
    """

    def __init__(self, table: EmbeddingTable, idf: IdfTable):
        self.idf = idf  # held, so that _encoding can test it by identity
        self.key = _idf_by_row(table, idf)
        get, by_idf = table.rows.get, self.key.__getitem__

        def encode_text(text: NormalizedText) -> list[int]:
            ids = [i for i in map(get, text.tokens) if i is not None]
            ids.sort(key=by_idf, reverse=True)
            return ids

        self.encode_text = encode_text
        self.representers = 0
        self.memo: weakref.WeakKeyDictionary | None = None

    def batch(self, texts: Iterable[NormalizedText]) -> list[list[int]]:
        if self.memo is None:
            return list(map(self.encode_text, texts))
        memo, encoded = self.memo, []
        for text in texts:
            if (ids := memo.get(text)) is None:
                ids = memo[text] = self.encode_text(text)
            encoded.append(ids)
        return encoded


# Each table's encoding of the idf it was last paired with.  An entry dies
# with its table, because the encoding refers to the table's rows, not to
# the table.  Under threads the worst case is a text encoded twice.
_ENCODINGS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _encoding(table: EmbeddingTable, idf: IdfTable) -> _Encoding:
    """The pair's encoding, built by its first caller.  Pairing the table
    with another idf table replaces it, and with it the memo."""
    encoding = _ENCODINGS.get(table)
    if encoding is None or encoding.idf is not idf:
        encoding = _ENCODINGS[table] = _Encoding(table, idf)
    return encoding


def encode(
    texts: Iterable[NormalizedText], table: EmbeddingTable, idf: IdfTable
) -> list[list[int]]:
    """Each text's in-vocabulary row ids, in descending idf order.

    Out-of-vocabulary tokens are dropped, and the sort is stable, so
    equal idf keeps text order: a text's ids are the rows of
    ``sort_by_idf(text, idf).tokens`` that the table holds.  The memo of
    the pair's representers is neither read nor filled.
    """
    return list(map(_encoding(table, idf).encode_text, texts))


def _represent_blocks(
    encoded: Sequence[Sequence[int]], spec: tuple
) -> tuple[np.ndarray, np.ndarray]:
    """The batch driver: (vectors, representable) of encoded texts.

    A method's spec is (width, length, kernel): its vectors have
    ``width`` values, a text with m ids keeps its k = length(m)
    highest-idf rows, and kernel(ids, k, out) maps the k ids of one text
    to its vector, written into ``out``, or a (k, texts) id matrix to the
    texts' vectors (flattened or one row per text) when ``out`` is None.
    Texts are grouped by k and gathered at most GATHER_ROWS ids per
    block, after the output is allocated.
    Texts without an in-vocabulary token get a zero row and a False in
    the mask.
    """
    width, length, kernel = spec
    vectors = np.zeros((len(encoded), width))
    groups: dict[int, list[int]] = {}
    for i, ids in enumerate(encoded):
        if ids:
            groups.setdefault(length(len(ids)), []).append(i)
    for k, members in groups.items():
        step = max(1, GATHER_ROWS // k)
        for start in range(0, len(members), step):
            chunk = members[start : start + step]
            ids = np.array([encoded[i][:k] for i in chunk]).T
            vectors[chunk] = kernel(ids, k, None).reshape(len(chunk), width)
    return vectors, np.array([len(ids) > 0 for ids in encoded], dtype=bool)


def rank_weights(model: WeightModel) -> list[np.ndarray]:
    """The weights of every text length: entry k - 1 is z_k = P_k w,
    which a text keeping k rows uses."""
    return [interpolation_matrix(k, model.n_max) @ model.weights
            for k in range(1, model.n_max + 1)]


def represent_learned(
    encoded: Sequence[Sequence[int]], spec: tuple
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted averages of encoded texts: (vectors, representable).

    ``spec`` is ``learned_representer``'s: a text keeps its k = min(m,
    n_max) highest-idf rows V and becomes z_k V / k, z_k = P_k w.  Texts
    without an in-vocabulary token get a zero row and a False in the mask.
    """
    return _represent_blocks(encoded, spec)


def represent_baseline(
    encoded: Sequence[Sequence[int]],
    table: EmbeddingTable,
    spec: tuple,
    method: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-baseline aggregates of encoded texts: (vectors, representable).

    ``spec`` is ``baseline_representer``'s spec of ``method`` over
    ``table``: the ``_top30`` variants keep the ceil(0.3 m) highest-idf
    rows, the others all m.  Traced benchmark runs name the call by
    ``method``.  Texts without an in-vocabulary token get a zero row and
    a False in the mask.
    """
    return _represent_blocks(encoded, spec)


def tfidf_vector(text: NormalizedText, idf: IdfTable) -> dict[str, float]:
    """Sparse tf-idf vector: raw in-text count times smoothed idf."""
    return {t: c * idf.idf_of(t) for t, c in Counter(text.tokens).items()}


def tfidf_cosine_distance(x: Mapping[str, float], y: Mapping[str, float]) -> float:
    """Cosine distance between sparse vectors; any zero vector is at distance 1."""
    nx = math.sqrt(sum(v * v for v in x.values()))
    ny = math.sqrt(sum(v * v for v in y.values()))
    if nx == 0.0 or ny == 0.0:
        return 1.0
    dot = sum(v * y[t] for t, v in x.items() if t in y)
    return 1.0 - dot / (nx * ny)


def distance(x, y, metric: str):
    """Euclidean or cosine distance between two vectors, or row-wise
    between two equally shaped stacks of vectors.

    ``x`` and ``y`` are arrays whose last axis is the vector; one pair
    gives a float, stacks give an array.  A zero vector is at cosine
    distance 1 from every vector.
    """
    xv, yv = np.asarray(x), np.asarray(y)
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
    """One text-to-vector method behind two drivers.

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


def _representer(
    encoding: _Encoding,
    spec: tuple,
    represent: Callable[[list[list[int]]], tuple[np.ndarray, np.ndarray]],
) -> Representer:
    """``spec`` behind the batch entry point ``represent(encoded)`` and
    the one-text driver, both fed by the pair's shared ``encoding``.

    The one-text driver runs the kernel on one text's k ids, with no
    grouping, output matrix, mask or memo.  It allocates the vector
    before the kernel's temporaries, as the batch driver allocates its
    output, and the kernel writes into it.  Vectors that a caller keeps
    then pack together instead of between freed gathers: returning the
    kernel's own block raised peak RSS by 8-12 MB in a process that kept
    6000 dim-300 vectors.
    """
    # Texts are scored again where several methods share the pair; a
    # process that builds one representer, as each CLI command does,
    # scores each text once, so it keeps nothing.
    encoding.representers += 1
    if encoding.representers == 2:
        encoding.memo = weakref.WeakKeyDictionary()
    encode_text = encoding.encode_text
    width, length, kernel = spec

    def single(text: NormalizedText) -> np.ndarray:
        ids = encode_text(text)
        if not ids:
            raise UnrepresentableText(
                f"unrepresentable text: {list(text.tokens)!r}")
        k = length(len(ids))
        vector = np.empty(width)
        kernel(ids[:k], k, vector)
        return vector

    return Representer(
        batch=lambda texts: represent(encoding.batch(texts)),
        single=single,
    )


def learned_representer(
    table: EmbeddingTable, idf: IdfTable, model: WeightModel
) -> Representer:
    """The learned model as a Representer; its weights are read once,
    here."""
    zs = rank_weights(model)
    vectors = table.vectors

    def kernel(ids, k: int, out) -> np.ndarray:
        rows = vectors.take(ids, axis=0).reshape(k, -1)  # texts * dim values
        block = np.matmul(zs[k - 1], rows, out=out)
        block /= k
        return block

    spec = table.dimension, functools.partial(min, len(zs)), kernel
    return _representer(_encoding(table, idf), spec,
                        lambda encoded: represent_learned(encoded, spec))


def baseline_representer(
    table: EmbeddingTable, idf: IdfTable, method: str
) -> Representer:
    """A fixed baseline as a Representer."""
    if method not in BASELINE_METHODS:
        raise ValueError(f"unknown baseline method {method!r}")
    encoding = _encoding(table, idf)
    vectors, dim = table.vectors, table.dimension
    top30 = method.endswith("_top30")
    length = (lambda m: max(1, math.ceil(0.3 * m))) if top30 else (lambda m: m)
    if method == "idf_weighted_mean":
        row_idf = np.array(encoding.key)
        spec = dim, length, lambda ids, k, out: np.divide(np.einsum(
            "k...,k...d->...d", row_idf.take(ids), vectors.take(ids, axis=0),
            out=out), k, out=out)
    elif method.startswith("minmax"):
        def minmax(ids, k: int, out) -> np.ndarray:
            rows = vectors.take(ids, axis=0)
            return np.concatenate((rows.min(axis=0), rows.max(axis=0)),
                                  axis=-1, out=out)
        spec = 2 * dim, length, minmax
    else:
        reduce = getattr(np.ndarray, method.removesuffix("_top30"))  # mean/max/min
        spec = dim, length, lambda ids, k, out: reduce(
            vectors.take(ids, axis=0), axis=0, out=out)
    return _representer(
        encoding, spec,
        lambda encoded: represent_baseline(encoded, table, spec, method))


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
