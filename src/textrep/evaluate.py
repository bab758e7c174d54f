"""Pair-classification scoring: optimal split threshold, split error,
Jensen-Shannon divergence of the two distance distributions, and an exact
two-tailed binomial sign test for comparing methods."""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Callable, IO, Optional, Sequence

import numpy as np
from scipy import stats

from .aggregate import Representation, UnrepresentableText, distance
from .pairgen import TextPair
from .textprep import NormalizedText


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
    """Fraction misclassified by "related iff d <= theta" (ties related)."""
    wrong = sum(
        1
        for d, p in zip(distances, labels)
        if (d <= theta) != (p == +1)
    )
    return wrong / len(distances)


def optimal_split(samples: Sequence[tuple[float, int]]) -> tuple[float, float]:
    """Threshold minimizing the misclassification count, by exhaustive scan.

    Candidate cuts are the n+1 positions of the sorted distances; the
    returned theta is the midpoint of the straddling distances (or one
    unit outside the range at the extremes).
    """
    if not samples:
        raise ValueError("empty sample set")
    labels = {p for _, p in samples}
    if labels != {+1, -1}:
        raise ValueError("need at least one distance of each label")

    ordered = sorted(samples, key=lambda s: s[0])
    n = len(ordered)
    n_related = sum(1 for _, p in ordered if p == +1)

    # wrong(k) = related beyond the cut + non-related within it, where the
    # cut places the first k sorted samples on the "related" side.
    best_wrong = None
    best_cut = 0
    related_within = 0
    for k in range(n + 1):
        wrong = (n_related - related_within) + (k - related_within)
        if best_wrong is None or wrong < best_wrong:
            # Cuts that fall between equal distances are unrealizable: no
            # theta separates identical values.
            if k == 0 or k == n or ordered[k - 1][0] < ordered[k][0]:
                best_wrong = wrong
                best_cut = k
        if k < n and ordered[k][1] == +1:
            related_within += 1

    if best_cut == 0:
        theta = ordered[0][0] - 1.0
    elif best_cut == n:
        theta = ordered[-1][0] + 1.0
    else:
        theta = (ordered[best_cut - 1][0] + ordered[best_cut][0]) / 2.0
    return theta, best_wrong / n


def distance_histograms(
    related_d: Sequence[float], nonrelated_d: Sequence[float], bins: int = 100
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Counts of both distance sequences over ``bins`` equal-width bins
    spanning their pooled range: (related, non-related, bin edges)."""
    if bins < 2:
        raise ValueError("bins must be >= 2")
    if len(related_d) == 0 or len(nonrelated_d) == 0:
        raise ValueError("both distance sequences must be non-empty")
    pooled = list(related_d) + list(nonrelated_d)
    lo, hi = min(pooled), max(pooled)
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

    p = 2 * min(P(X <= k), P(X >= k)), capped at 1.
    """
    if not 0 <= k_first_better <= n_disagree:
        raise ValueError("need 0 <= k <= n")
    if n_disagree == 0:
        warnings.warn("binomial test on zero disagreements; p-value is 1")
        return 1.0
    lower = float(stats.binom.cdf(k_first_better, n_disagree, 0.5))
    upper = float(stats.binom.sf(k_first_better - 1, n_disagree, 0.5))
    return min(1.0, 2.0 * min(lower, upper))


def pair_distances(
    pairs: Sequence[TextPair],
    representer: Callable[[NormalizedText], Representation],
    metric: str,
) -> tuple[list[tuple[float, int]], list[TextPair]]:
    """Distances for representable pairs plus the unrepresentable leftovers."""
    samples = []
    unrepresentable = []
    for pair in pairs:
        try:
            rep_a = representer(pair.text_a)
            rep_b = representer(pair.text_b)
        except UnrepresentableText:
            unrepresentable.append(pair)
            continue
        samples.append((distance(rep_a, rep_b, metric), pair.label))
    return samples, unrepresentable


def evaluate_method(
    test_pairs: Sequence[TextPair],
    representer: Callable[[NormalizedText], Representation],
    metric: str,
    method_name: str = "method",
    val_pairs: Optional[Sequence[TextPair]] = None,
    theta: Optional[float] = None,
    bins: int = 100,
) -> EvalReport:
    """Score one representation method on a test set.

    theta comes either from the validation pairs (fitted by optimal_split)
    or is given directly.  Unrepresentable pairs are predicted non-related
    and reported separately, never silently dropped.
    """
    if theta is None:
        if val_pairs is None:
            raise ValueError("need either theta or val_pairs to fit it")
        val_samples, _ = pair_distances(val_pairs, representer, metric)
        if not val_samples:
            raise ValueError("zero representable validation pairs")
        theta, _ = optimal_split(val_samples)

    samples, unrepresentable = pair_distances(test_pairs, representer, metric)
    if not samples:
        raise ValueError("zero representable test pairs")

    wrong = sum(1 for d, p in samples if (d <= theta) != (p == +1))
    # Unrepresentable pairs are classified non-related: related ones count
    # as errors.
    wrong += sum(1 for pair in unrepresentable if pair.label == +1)
    n_total = len(samples) + len(unrepresentable)

    related_d = [d for d, p in samples if p == +1]
    nonrelated_d = [d for d, p in samples if p == -1]
    if related_d and nonrelated_d:
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
        theta=float(theta),
        split_error=wrong / n_total,
        js_divergence=js,
        bin_edges=[float(e) for e in edges],
        histogram_related=[int(c) for c in hist_r],
        histogram_nonrelated=[int(c) for c in hist_n],
        n_pairs=n_total,
        unrepresentable_count=len(unrepresentable),
    )
