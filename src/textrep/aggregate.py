"""Turn token sequences into single fixed-size vector representations.

The learned representer multiplies each idf-rank-sorted embedding with a
per-rank weight and averages; texts shorter than the weight vector reuse
it through subsampling with linear interpolation.  The classic baselines
(mean/max/min, top-30% idf variants, idf-weighted mean, tf-idf) live
here too so every method is evaluated through one code path.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .embeddings import EmbeddingTable, IdfTable
from .textprep import (
    NORMALIZATION_VERSION,
    NormalizedText,
    SortedText,
    sort_by_idf,
)

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
    """Learned per-rank weights plus the distance metric they were fit for."""

    n_max: int
    weights: np.ndarray
    metric: str = "euclidean"
    normalization_version: str = NORMALIZATION_VERSION
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if self.weights.shape != (self.n_max,):
            raise ValueError(
                f"expected {self.n_max} weights, got shape {self.weights.shape}"
            )
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")
        if self.metric not in ("euclidean", "cosine"):
            raise ValueError(f"unknown metric {self.metric!r}")

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
    vector: np.ndarray
    used_tokens: int


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


def represent_learned(
    text: SortedText, table: EmbeddingTable, model: WeightModel
) -> Representation:
    """Weighted average of the idf-sorted in-vocabulary embeddings.

    OOV tokens are dropped; texts with more than n_max surviving tokens
    keep their n_max highest-idf ones (the sequence is already sorted).
    """
    ids = table.row_ids(text.tokens)[: model.n_max]
    if not ids:
        raise UnrepresentableText(text.tokens)
    m = len(ids)
    z = interpolation_matrix(m, model.n_max) @ model.weights
    vector = (z @ table.vectors[ids]) / m
    return Representation(vector=vector, used_tokens=m)


def represent_baseline(
    text: NormalizedText,
    table: EmbeddingTable,
    idf: IdfTable,
    method: str,
) -> Representation:
    """Aggregate in-vocabulary embeddings with one of the fixed baselines."""
    if method not in BASELINE_METHODS:
        raise ValueError(f"unknown baseline method {method!r}")

    rows = table.rows
    tokens = [t for t in text.tokens if t in rows]
    if not tokens:
        raise UnrepresentableText(text.tokens)
    if method.endswith("_top30"):
        keep = max(1, math.ceil(0.3 * len(tokens)))
        ranked = sorted(range(len(tokens)), key=lambda i: -idf.idf_of(tokens[i]))
        tokens = [tokens[i] for i in sorted(ranked[:keep])]
    matrix = table.vectors[[rows[t] for t in tokens]]
    m = len(tokens)

    base = method.replace("_top30", "")
    if base == "mean":
        vector = matrix.mean(axis=0)
    elif base == "max":
        vector = matrix.max(axis=0)
    elif base == "min":
        vector = matrix.min(axis=0)
    elif base in ("minmax_concat", "minmax"):
        vector = np.concatenate([matrix.min(axis=0), matrix.max(axis=0)])
    elif base == "idf_weighted_mean":
        values = np.array([idf.idf_of(t) for t in tokens])
        vector = (values @ matrix) / m
    else:  # pragma: no cover - guarded by BASELINE_METHODS
        raise ValueError(method)
    return Representation(vector=vector, used_tokens=m)


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


def distance(x: Representation, y: Representation, metric: str) -> float:
    """Euclidean or cosine distance between two representations."""
    xv, yv = x.vector, y.vector
    if xv.shape != yv.shape:
        raise ValueError(f"dimension mismatch: {xv.shape} vs {yv.shape}")
    if metric == "euclidean":
        return float(np.linalg.norm(xv - yv))
    if metric == "cosine":
        nx, ny = np.linalg.norm(xv), np.linalg.norm(yv)
        if nx == 0.0 or ny == 0.0:
            return 1.0
        return float(1.0 - (xv @ yv) / (nx * ny))
    raise ValueError(f"unknown metric {metric!r}")


def learned_representer(table: EmbeddingTable, idf: IdfTable, model: WeightModel):
    """Closure NormalizedText -> Representation for the learned model.

    The model must have been trained on text normalized the way
    ``textprep.normalize`` does it now.
    """
    if model.normalization_version != NORMALIZATION_VERSION:
        raise ValueError(
            f"model was trained on normalization "
            f"{model.normalization_version!r}, but this textrep normalizes "
            f"text as {NORMALIZATION_VERSION!r}"
        )

    def represent(text: NormalizedText) -> Representation:
        return represent_learned(sort_by_idf(text, idf), table, model)

    return represent


def baseline_representer(table: EmbeddingTable, idf: IdfTable, method: str):
    """Closure NormalizedText -> Representation for a fixed baseline."""

    def represent(text: NormalizedText) -> Representation:
        return represent_baseline(text, table, idf, method)

    return represent


def load_model(path) -> WeightModel:
    with open(path, "r", encoding="utf-8") as fh:
        return WeightModel.from_json(fh.read())


def save_model(model: WeightModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model.to_json())
        fh.write("\n")
