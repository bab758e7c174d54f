"""Pair-classification scoring: optimal split threshold, split error,
Jensen-Shannon divergence of the two distance distributions, and an exact
two-tailed binomial sign test for comparing methods."""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Any, Callable, IO, Sequence, Union

import numpy as np

from .aggregate import Representer, distance
from .pairgen import TextPair


@dataclass
class EvalReport:
    method_name: str
    theta: float
    split_error: float
    js_divergence: float
    bin_edges: list[float]
    histogram_related: list[int]
    histogram_nonrelated: list[int]
    n_pairs: int
    unrepresentable_count: int

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True)

    def summary(self) -> str:
        return (
            f"{self.method_name}: split_error={self.split_error:.4f} "
            f"js={self.js_divergence:.4f} theta={self.theta:.6g}"
        )

    def write_histogram_csv(self, sink: IO[str]) -> None:
        """Rows "bin_low,bin_high,count_related,count_nonrelated"."""
        sink.write("bin_low,bin_high,count_related,count_nonrelated\n")
        for i in range(len(self.histogram_related)):
            sink.write(
                f"{self.bin_edges[i]},{self.bin_edges[i + 1]},"
                f"{self.histogram_related[i]},{self.histogram_nonrelated[i]}\n"
            )


def split_error(
    distances: Sequence[float], labels: Sequence[int], theta: float
) -> float:
    """Fraction misclassified by "related iff d <= theta" (ties related);
    an infinite distance (an unrepresentable pair) is never related."""
    related = np.asarray(labels) == +1
    wrong = np.count_nonzero((np.asarray(distances) <= theta) != related)
    return wrong / len(distances)


def optimal_split(
    distances: Sequence[float], labels: Sequence[int]
) -> tuple[float, float]:
    """Threshold minimizing the misclassification count, by exhaustive scan.

    Candidate cuts are the n+1 positions of the stably sorted distances;
    the first cut with the fewest errors wins.  The returned theta is the
    midpoint of the straddling distances (or one unit outside the range at
    the extremes).
    """
    distances = np.asarray(distances, dtype=np.float64)
    labels = np.asarray(labels)
    n = len(distances)
    if n == 0:
        raise ValueError("empty sample set")
    if set(np.unique(labels).tolist()) != {+1, -1}:
        raise ValueError("need at least one distance of each label")

    order = np.argsort(distances, kind="stable")
    ordered = distances[order]
    # wrong[k] = related beyond the cut + non-related within it, where the
    # cut places the first k sorted samples on the "related" side.
    within = np.concatenate(([0], np.cumsum(labels[order] == +1)))
    wrong = (within[-1] - within) + (np.arange(n + 1) - within)
    # Cuts that fall between equal distances are unrealizable: no theta
    # separates identical values.  Rank them above every realizable cut.
    wrong[1:n][ordered[:-1] == ordered[1:]] = n + 1
    best_cut = int(np.argmin(wrong))

    if best_cut == 0:
        theta = ordered[0] - 1.0
    elif best_cut == n:
        theta = ordered[-1] + 1.0
    else:
        theta = (ordered[best_cut - 1] + ordered[best_cut]) / 2.0
    return float(theta), int(wrong[best_cut]) / n


def distance_histograms(
    related_d: Sequence[float], nonrelated_d: Sequence[float], bins: int = 100
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Counts of both distance sequences over ``bins`` equal-width bins
    spanning their pooled range: (related, non-related, bin edges)."""
    if bins < 2:
        raise ValueError("bins must be >= 2")
    if len(related_d) == 0 or len(nonrelated_d) == 0:
        raise ValueError("both distance sequences must be non-empty")
    lo = min(np.min(related_d), np.min(nonrelated_d))
    hi = max(np.max(related_d), np.max(nonrelated_d))
    if lo == hi:
        hi = lo + 1.0  # degenerate range: everything in bin 0 for both
    hist_r, edges = np.histogram(related_d, bins=bins, range=(lo, hi))
    hist_n, _ = np.histogram(nonrelated_d, bins=bins, range=(lo, hi))
    return hist_r, hist_n, edges


def js_divergence(
    related_d: Sequence[float], nonrelated_d: Sequence[float], bins: int = 100
) -> float:
    """Jensen-Shannon divergence between the two binned distance
    distributions, natural log, over the pooled value range."""
    hist_r, hist_n, _ = distance_histograms(related_d, nonrelated_d, bins)
    return _js_from_counts(hist_r, hist_n)


def _js_from_counts(counts_p, counts_q, smoothing: float = 1e-12) -> float:
    p = np.asarray(counts_p, dtype=np.float64) + smoothing
    q = np.asarray(counts_q, dtype=np.float64) + smoothing
    p /= p.sum()
    q /= q.sum()
    m = 0.5 * (p + q)
    kl_pm = float(np.sum(p * np.log(p / m)))
    kl_qm = float(np.sum(q * np.log(q / m)))
    return 0.5 * kl_pm + 0.5 * kl_qm


def binomial_test(n_disagree: int, k_first_better: int) -> float:
    """Exact two-tailed binomial test against p0 = 0.5 on disagreements.

    p = 2 * min(P(X <= k), P(X >= k)), capped at 1.  The distribution is
    symmetric, so this is the sum of C(n, i) for i <= min(k, n - k) over
    2^(n-1), computed in integers and rounded once.
    """
    n, k = n_disagree, k_first_better
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if n == 0:
        warnings.warn("binomial test on zero disagreements; p-value is 1")
        return 1.0
    tail, term = 0, 1  # term = C(n, i)
    for i in range(min(k, n - k) + 1):
        tail += term
        term = term * (n - i) // (i + 1)
    return min(1.0, tail / 2 ** (n - 1))


Metric = Union[str, Callable[[Any, Any], float]]

# Pairs represented per batch: enough for large length groups, few enough
# that a batch's vectors stay near 2 MB at 600 components per text.
PAIRS_PER_BATCH = 256


def pair_distances(
    pairs: Sequence[TextPair],
    representer: Representer,
    metric: Metric,
) -> tuple[np.ndarray, np.ndarray]:
    """(distances, labels) arrays in the order of ``pairs``.

    An unrepresentable pair is at distance +inf; a representable pair
    whose distance is not finite raises ValueError, so +inf only ever
    means unrepresentable.  Pairs are represented PAIRS_PER_BATCH at a
    time, both sides through one ``representer.batch`` call.  ``metric``
    names a ``distance`` metric, computed for the whole batch in one call,
    or is a function of two vectors, applied pair by pair.
    """
    distances = np.full(len(pairs), np.inf)
    labels = np.array([pair.label for pair in pairs], dtype=np.int64)
    for start in range(0, len(pairs), PAIRS_PER_BATCH):
        batch = pairs[start : start + PAIRS_PER_BATCH]
        n = len(batch)
        vectors, representable = representer.batch(
            [pair.text_a for pair in batch] + [pair.text_b for pair in batch]
        )
        kept = np.flatnonzero(representable[:n] & representable[n:])
        if isinstance(metric, str):
            # Unrepresentable texts have zero rows; their distances are
            # dropped.
            d = distance(vectors[:n], vectors[n:], metric)[kept]
        else:
            d = np.array([metric(vectors[i], vectors[n + i]) for i in kept])
        if not np.isfinite(d).all():
            raise ValueError("non-finite distance for representable pair "
                             f"{start + kept[~np.isfinite(d)][0]} (0-based)")
        distances[start + kept] = d
    return distances, labels


def evaluate_method(
    test_pairs: Sequence[TextPair],
    representer: Representer,
    metric: Metric,
    method_name: str = "method",
    *,
    val_pairs: Sequence[TextPair],
    bins: int = 100,
) -> EvalReport:
    """Score one representation method on a test set.

    theta is fitted by optimal_split on the representable validation
    pairs.  Unrepresentable test pairs are predicted non-related and
    reported separately, never silently dropped.
    """
    val_d, val_labels = pair_distances(val_pairs, representer, metric)
    val_kept = np.isfinite(val_d)
    if not val_kept.any():
        raise ValueError("zero representable validation pairs")
    theta, _ = optimal_split(val_d[val_kept], val_labels[val_kept])

    distances, labels = pair_distances(test_pairs, representer, metric)
    kept = np.isfinite(distances)
    if not kept.any():
        raise ValueError("zero representable test pairs")

    related_d = distances[kept & (labels == +1)]
    nonrelated_d = distances[kept & (labels == -1)]
    if len(related_d) and len(nonrelated_d):
        hist_r, hist_n, edges = distance_histograms(
            related_d, nonrelated_d, bins
        )
        js = _js_from_counts(hist_r, hist_n)
    else:
        js = 0.0
        edges = np.linspace(0.0, 1.0, bins + 1)
        hist_r = np.zeros(bins, dtype=int)
        hist_n = np.zeros(bins, dtype=int)

    return EvalReport(
        method_name=method_name,
        theta=theta,
        split_error=split_error(distances, labels, theta),
        js_divergence=js,
        bin_edges=[float(e) for e in edges],
        histogram_related=[int(c) for c in hist_r],
        histogram_nonrelated=[int(c) for c in hist_n],
        n_pairs=len(distances),
        unrepresentable_count=int(np.count_nonzero(~kept)),
    )
