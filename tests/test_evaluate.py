import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import textrep.evaluate as evaluate_mod
from textrep.aggregate import (
    UnrepresentableText,
    baseline_representer,
    distance,
)
from textrep.evaluate import (
    binomial_test,
    distance_histograms,
    evaluate_method,
    js_divergence,
    optimal_split,
    pair_distances,
    split_error,
)
from textrep.pairgen import TextPair
from textrep.textprep import NormalizedText

from synth import make_pairs, split_pairs


def brute_force_split(samples):
    """Independent O(n^2) oracle: try both extremes and every midpoint, in
    ascending order, and keep the first theta with the fewest errors."""
    distances = sorted({d for d, _ in samples})
    candidates = [distances[0] - 1.0]
    candidates += [
        (a + b) / 2.0 for a, b in zip(distances, distances[1:])
    ]
    candidates.append(distances[-1] + 1.0)
    best = None
    for theta in candidates:
        wrong = sum(1 for d, p in samples if (d <= theta) != (p == +1))
        if best is None or wrong < best[1]:
            best = (theta, wrong)
    return best[0], best[1] / len(samples)


class TestOptimalSplit:
    def test_perfectly_separable(self):
        theta, err = optimal_split([0.1, 0.2, 0.8, 0.9], [+1, +1, -1, -1])
        assert err == 0.0
        assert theta == pytest.approx(0.5)

    def test_interleaved(self):
        _, err = optimal_split([0.1, 0.7, 0.3, 0.9], [+1, +1, -1, -1])
        assert err == 0.25

    def test_indistinguishable(self):
        _, err = optimal_split([0.5, 0.5, 0.5, 0.5], [+1, -1, +1, -1])
        assert err == 0.5

    def test_single_label_rejected(self):
        with pytest.raises(ValueError):
            optimal_split([0.1, 0.2], [+1, +1])

    def test_against_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(2, 21))
            labels = [+1, -1] + [int(rng.choice([1, -1])) for _ in range(n - 2)]
            samples = [
                (float(rng.choice([0.1, 0.25, 0.5, 0.75]) + rng.integers(3)), p)
                for p in labels
            ]
            theta, err = optimal_split(*zip(*samples))
            oracle_theta, oracle_err = brute_force_split(samples)
            assert err == oracle_err
            # both thetas must realize the optimal error
            assert split_error(*zip(*samples), theta) == err

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]),
                  st.sampled_from([+1, -1])),
        min_size=2, max_size=40,
    ).filter(lambda samples: {p for _, p in samples} == {+1, -1}))
    def test_equals_brute_force_on_tied_distances(self, samples):
        distances, labels = zip(*samples)
        assert optimal_split(np.array(distances), np.array(labels)) == (
            brute_force_split(samples))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            samples = [
                (float(rng.uniform(0, 5)), int(rng.choice([1, -1])))
                for _ in range(15)
            ] + [(0.1, +1), (4.9, -1)]
            _, err = optimal_split(*zip(*samples))
            transformed = [(math.exp(d) + d**3, p) for d, p in samples]
            _, err_t = optimal_split(*zip(*transformed))
            assert err == err_t


class TestSplitError:
    def test_all_misclassified(self):
        assert split_error([1.0, 2.0], [+1, +1], 0.5) == 1.0

    def test_all_correct(self):
        assert split_error([1.0, 2.0], [+1, +1], 3.0) == 0.0

    def test_tie_predicts_related(self):
        assert split_error([0.5], [+1], 0.5) == 0.0
        assert split_error([0.5], [-1], 0.5) == 1.0

    def test_label_flip_complement(self):
        rng = np.random.default_rng(2)
        d = rng.uniform(0, 1, size=20).tolist()
        p = [int(x) for x in rng.choice([1, -1], size=20)]
        theta = 0.4
        total = split_error(d, p, theta) + split_error(d, [-x for x in p], theta)
        assert total == pytest.approx(1.0)

    def test_unrepresentable_predicted_nonrelated(self):
        # an unrepresentable pair sits at +inf: wrong if related, right if not
        assert split_error([math.inf], [+1], 1e308) == 1.0
        assert split_error([math.inf], [-1], 1e308) == 0.0
        assert split_error(np.array([0.1, math.inf, math.inf]),
                           np.array([+1, +1, -1]), 0.5) == pytest.approx(1 / 3)


class TestJsDivergence:
    def test_identical_inputs_zero(self):
        rng = np.random.default_rng(3)
        d = rng.uniform(0, 1, size=500).tolist()
        assert js_divergence(d, list(d)) < 1e-9

    def test_disjoint_supports_ln2(self):
        related = [0.0] * 200
        nonrelated = [10.0] * 200
        assert js_divergence(related, nonrelated) == pytest.approx(
            math.log(2), abs=1e-6
        )

    def test_two_bin_hand_case(self):
        # P=(1/2,1/2), Q=(1,0): JS = ln2 - (3/4)ln(3/2) - (1/4)ln... computed
        # by hand from the KL sums
        from textrep.evaluate import _js_from_counts

        got = _js_from_counts([1, 1], [2, 0])
        m = [0.75, 0.25]
        expected = 0.5 * (
            0.5 * math.log(0.5 / m[0]) + 0.5 * math.log(0.5 / m[1])
        ) + 0.5 * (1.0 * math.log(1.0 / m[0]))
        assert got == pytest.approx(expected, abs=1e-6)
        assert got == pytest.approx(0.215762, abs=1e-5)

    def test_bounds_on_random_inputs(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a = rng.normal(size=rng.integers(2, 200)).tolist()
            b = rng.normal(loc=rng.uniform(-2, 2), size=rng.integers(2, 200)).tolist()
            js = js_divergence(a, b)
            assert 0.0 <= js <= math.log(2) + 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=100).tolist()
        b = rng.normal(loc=1.0, size=80).tolist()
        assert js_divergence(a, b) == pytest.approx(js_divergence(b, a), abs=1e-12)


def binomial_reference(n, k):
    """2 min(P(X <= k), P(X >= k)) for X ~ Bin(n, 1/2), capped at 1, exact."""
    lower = Fraction(sum(math.comb(n, i) for i in range(k + 1)), 2**n)
    upper = Fraction(sum(math.comb(n, i) for i in range(k, n + 1)), 2**n)
    return min(Fraction(1), 2 * min(lower, upper))


def n_and_k(n_min=1, below_half=False):
    """(n, k) with n_min <= n <= 2000 and 0 <= k <= n, or k < n // 2."""
    return st.integers(n_min, 2000).flatmap(
        lambda n: st.tuples(
            st.just(n), st.integers(0, n // 2 - 1 if below_half else n)
        )
    )


class TestBinomialTest:
    def test_balanced_is_one(self):
        assert binomial_test(10, 5) == 1.0

    def test_extreme_tail(self):
        assert binomial_test(10, 0) == pytest.approx(2 * 0.5**10, abs=1e-12)

    def test_single_trial(self):
        assert binomial_test(1, 1) == 1.0

    def test_zero_trials_warns(self):
        with pytest.warns(UserWarning):
            assert binomial_test(0, 0) == 1.0

    def test_symmetric_in_k(self):
        for k in range(11):
            assert binomial_test(10, k) == pytest.approx(
                binomial_test(10, 10 - k), abs=1e-12
            )

    def test_hand_value(self):
        # C(20, 0) + ... + C(20, 5) = 1 + 20 + 190 + 1140 + 4845 + 15504
        assert binomial_test(20, 5) == 2 * 21700 / 2**20

    @settings(max_examples=50, deadline=None)
    @given(n_and_k())
    def test_equals_exact_definition(self, nk):
        n, k = nk
        assert binomial_test(n, k) == float(binomial_reference(n, k))

    @settings(max_examples=200, deadline=None)
    @given(n_and_k())
    def test_exactly_symmetric(self, nk):
        n, k = nk
        assert binomial_test(n, k) == binomial_test(n, n - k)

    @settings(max_examples=200, deadline=None)
    @given(n_and_k(n_min=2, below_half=True))
    def test_non_decreasing_up_to_half(self, nk):
        n, k = nk
        assert binomial_test(n, k) <= binomial_test(n, k + 1)

    @settings(max_examples=200, deadline=None)
    @given(n_and_k())
    def test_in_unit_interval(self, nk):
        n, k = nk
        # The exact value is at least 2^(1-n), which rounds to 0 only
        # below the smallest positive double, 2^-1074.
        lowest = 0.0 if n > 1075 else math.nextafter(0.0, 1.0)
        assert lowest <= binomial_test(n, k) <= 1.0


class TestEvaluateMethod:
    def test_mean_baseline_on_separable_data(self):
        table, idf, pairs = make_pairs(
            n_related=300, n_nonrelated=300, seed=2, stop_noise=0.5
        )
        train_p, val_p, test_p = split_pairs(pairs)
        report = evaluate_method(
            test_p,
            baseline_representer(table, idf, "mean"),
            "euclidean",
            method_name="mean",
            val_pairs=val_p,
        )
        assert report.split_error < 0.10
        assert report.n_pairs == len(test_p)
        assert len(report.histogram_related) == 100
        assert report.bin_edges == sorted(report.bin_edges)

    def test_label_shuffle_control(self):
        table, idf, pairs = make_pairs(n_related=300, n_nonrelated=300, seed=2)
        rng = np.random.default_rng(6)
        labels = [p.label for p in pairs]
        perm = rng.permutation(len(labels))
        shuffled = [
            TextPair(p.text_a, p.text_b, labels[perm[i]])
            for i, p in enumerate(pairs)
        ]
        train_p, val_p, test_p = split_pairs(shuffled)
        report = evaluate_method(
            test_p,
            baseline_representer(table, idf, "mean"),
            "euclidean",
            val_pairs=val_p,
        )
        assert 0.40 <= report.split_error <= 0.60

    def test_unrepresentable_counted_not_dropped(self):
        table, idf, pairs = make_pairs(n_related=50, n_nonrelated=50, seed=2)
        oov = TextPair(
            NormalizedText(("zzz",)), NormalizedText(("qqq",)), +1
        )
        report = evaluate_method(
            pairs + [oov],
            baseline_representer(table, idf, "mean"),
            "euclidean",
            val_pairs=pairs,
        )
        assert report.unrepresentable_count == 1
        assert report.n_pairs == 101

    def test_js_is_derived_from_the_report_histograms(self):
        table, idf, pairs = make_pairs(n_related=50, n_nonrelated=50, seed=2)
        representer = baseline_representer(table, idf, "mean")
        report = evaluate_method(
            pairs, representer, "euclidean", val_pairs=pairs, bins=17
        )
        distances, labels = pair_distances(pairs, representer, "euclidean")
        assert np.isfinite(distances).all()
        related = distances[labels == +1].tolist()
        nonrelated = distances[labels == -1].tolist()
        assert report.js_divergence == js_divergence(related, nonrelated, 17)
        hist_r, hist_n, edges = distance_histograms(related, nonrelated, 17)
        assert report.histogram_related == hist_r.tolist()
        assert report.histogram_nonrelated == hist_n.tolist()
        assert report.bin_edges == edges.tolist()

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_batched_pair_distances_match_per_pair(self, monkeypatch, metric):
        table, idf, pairs = make_pairs(n_related=20, n_nonrelated=20, seed=2)
        oov = NormalizedText(("zzz",))
        pairs = [
            TextPair(oov, p.text_b, p.label) if i % 7 == 3 else p
            for i, p in enumerate(pairs)
        ]
        representer = baseline_representer(table, idf, "minmax_top30")
        # batches of 3 pairs, so unrepresentable pairs straddle batches
        monkeypatch.setattr(evaluate_mod, "PAIRS_PER_BATCH", 3)
        distances, labels = pair_distances(pairs, representer, metric)
        want = []
        for pair in pairs:
            try:
                rep_a = representer.single(pair.text_a)
                rep_b = representer.single(pair.text_b)
            except UnrepresentableText:
                want.append(math.inf)
                continue
            want.append(distance(rep_a, rep_b, metric))
        assert labels.tolist() == [pair.label for pair in pairs]
        assert np.isinf(want).sum() == 6
        np.testing.assert_array_equal(np.isinf(distances), np.isinf(want))
        finite = np.isfinite(want)
        np.testing.assert_allclose(distances[finite], np.array(want)[finite],
                                   rtol=1e-12, atol=0)

    def test_non_finite_distance_of_representable_pair_raises(self):
        table, idf, pairs = make_pairs(n_related=5, n_nonrelated=5, seed=2)
        oov = TextPair(NormalizedText(("zzz",)), pairs[0].text_b, +1)
        representer = baseline_representer(table, idf, "mean")
        calls = []

        def metric(x, y):
            calls.append(1)
            return math.nan if len(calls) == 4 else 1.0

        # the unrepresentable pair is never measured, so the NaN is pair 4
        with pytest.raises(ValueError, match="non-finite distance for "
                                             "representable pair 4 "):
            pair_distances([oov] + pairs, representer, metric)
        with pytest.raises(ValueError, match="non-finite"):
            pair_distances(pairs, representer, lambda x, y: math.inf)

    @pytest.mark.parametrize("bins", [1, 0, -2])
    def test_bins_below_two_rejected_before_any_pair(self, bins):
        table, idf, pairs = make_pairs(n_related=5, n_nonrelated=5, seed=2)
        related = [pair for pair in pairs if pair.label == +1]
        represented = []

        class Recording:
            def batch(self, texts):
                represented.append(texts)
                return baseline_representer(table, idf, "mean").batch(texts)

        # one label in the test split, so no histogram would check bins
        with pytest.raises(ValueError, match=f"bins must be >= 2, got {bins}"):
            evaluate_method(related, Recording(), "euclidean",
                            val_pairs=pairs, bins=bins)
        assert represented == []

    def test_histogram_csv_format(self, tmp_path):
        import io

        table, idf, pairs = make_pairs(n_related=50, n_nonrelated=50, seed=2)
        report = evaluate_method(
            pairs,
            baseline_representer(table, idf, "mean"),
            "euclidean",
            val_pairs=pairs,
            bins=10,
        )
        sink = io.StringIO()
        report.write_histogram_csv(sink)
        lines = sink.getvalue().strip().split("\n")
        assert lines[0] == "bin_low,bin_high,count_related,count_nonrelated"
        assert len(lines) == 11
