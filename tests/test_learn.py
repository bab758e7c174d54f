import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import textrep.learn as learn_mod
from textrep.aggregate import WeightModel, distance, learned_representer
from textrep.embeddings import compute_idf
from textrep.learn import (
    Couples,
    TrainConfig,
    batch_loss_and_gradient,
    couple_gram,
    grid_search_kappa,
    prepare_couples,
    sigmoid,
    softplus,
    train,
    train_couples,
)
from textrep.pairgen import TextPair
from textrep.textprep import NormalizedText

from synth import make_pairs, split_pairs, table_from


def couple_of(vectors_a, vectors_b, label, n_max=1):
    """Couples holding the one couple of two texts' embedding matrices."""
    vectors_a = np.asarray(vectors_a, dtype=np.float64)
    vectors_b = np.asarray(vectors_b, dtype=np.float64)
    gram = couple_gram(vectors_a, vectors_b, n_max)
    return Couples(gram[None], np.array([label]))


def stack(couples):
    """One Couples holding every couple of a list of Couples, in order."""
    return Couples(np.concatenate([c.grams for c in couples]),
                   np.concatenate([c.labels for c in couples]))


def batch_distances(couples, w):
    """Pair distances sqrt(w^T G w), computed independently of learn."""
    return np.array([math.sqrt(max(w @ g @ w, 0.0)) for g in couples.grams])


def lower_middle(distances):
    return int(np.argsort(distances, kind="stable")[(len(distances) - 1) // 2])


def random_couple(rng, nu, n_max, label, fixed_length):
    m_a = n_max if fixed_length else int(rng.integers(1, n_max + 1))
    m_b = n_max if fixed_length else int(rng.integers(1, n_max + 1))
    return couple_of(
        rng.normal(size=(m_a, nu)), rng.normal(size=(m_b, nu)), label, n_max
    )


def random_batch(rng, size=10):
    nu = int(rng.integers(1, 9))
    n_max = int(rng.integers(2, 11))
    fixed = bool(rng.random() < 0.5)
    couples = stack([
        random_couple(rng, nu, n_max, +1 if i < size // 2 else -1, fixed)
        for i in range(size)
    ])
    w = rng.uniform(0.2, 1.0, size=n_max)
    return couples, w, n_max


def fd_gradient(couples, w, loss, kappa, lam, median_index, h=1e-5):
    grad = np.zeros_like(w)
    for k in range(len(w)):
        wp, wm = w.copy(), w.copy()
        wp[k] += h
        wm[k] -= h
        lp, _ = batch_loss_and_gradient(couples, wp, loss, kappa, lam, median_index)
        lm, _ = batch_loss_and_gradient(couples, wm, loss, kappa, lam, median_index)
        grad[k] = (lp - lm) / (2 * h)
    return grad


def contrastive(couple, w):
    return batch_loss_and_gradient(couple, w, "contrastive", 0.0, 0.0)


class TestContrastiveLoss:
    def test_coincident_related_is_zero(self):
        t = np.array([[0.3, -0.7]])
        loss, _ = contrastive(couple_of(t, t.copy(), +1), np.array([1.0]))
        assert loss == 0.0

    def test_signed_values(self):
        w = np.array([1.0])
        loss, _ = contrastive(couple_of([[2.0]], [[0.0]], -1), w)
        assert loss == pytest.approx(-2.0)
        loss, _ = contrastive(couple_of([[0.5]], [[0.0]], +1), w)
        assert loss == pytest.approx(0.5)

    def test_sign_structure(self):
        rng = np.random.default_rng(0)
        w = np.array([1.0])
        for _ in range(50):
            a, b = rng.normal(size=(1, 4)), rng.normal(size=(1, 4))
            assert contrastive(couple_of(a, b, +1), w)[0] >= 0
            assert contrastive(couple_of(a, b, -1), w)[0] <= 0


class TestContrastiveGradient:
    def test_scalar_hand_case(self):
        # nu=1, one word per side, vectors (2) and (0), w=(1), p=+1:
        # d(w) = |2w|/1 = 2w, so dL/dw = 2
        couple = couple_of([[2.0]], [[0.0]], +1)
        _, grad = contrastive(couple, np.array([1.0]))
        np.testing.assert_allclose(grad, [2.0])

    def test_coincident_zero_gradient(self):
        v = np.array([[1.0, 2.0]])
        couple = couple_of(v, v.copy(), +1)
        assert np.array_equal(couple.grams, np.zeros((1, 1, 1)))
        _, grad = contrastive(couple, np.array([0.7]))
        np.testing.assert_array_equal(grad, [0.0])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            couples, w, _ = random_batch(rng)
            fd = fd_gradient(couples, w, "contrastive", 0.0, 0.0, None)
            _, grad = batch_loss_and_gradient(couples, w, "contrastive", 0.0, 0.0)
            np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-8)

    def test_descent_step_reduces_loss(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            couple = random_couple(rng, 4, 6, +1, False)
            w = rng.uniform(0.2, 1.0, size=6)
            loss0, grad = batch_loss_and_gradient(
                couple, w, "contrastive", 0, 0
            )
            if np.allclose(grad, 0):
                continue
            loss1, _ = batch_loss_and_gradient(
                couple, w - 1e-4 * grad, "contrastive", 0, 0
            )
            assert loss1 < loss0


class TestMedianLoss:
    def test_median_couple_loss_is_ln2(self):
        # a one-couple batch is its own median: softplus(0) = ln 2
        rng = np.random.default_rng(3)
        couples, w, _ = random_batch(rng)
        for i in range(len(couples)):
            got, _ = batch_loss_and_gradient(
                couples[[i]], w, "median", 160.0, 0.0
            )
            assert got == pytest.approx(math.log(2), abs=1e-12)

    def test_matches_per_couple_reference(self):
        def reference_softplus(x):
            if x > 0:
                return x + math.log1p(math.exp(-x))
            return math.log1p(math.exp(x))

        rng = np.random.default_rng(8)
        for _ in range(20):
            couples, w, _ = random_batch(rng)
            distances = batch_distances(couples, w)
            mu = distances[lower_middle(distances)]
            labels = couples.labels.tolist()
            l2 = 0.001 * float(w @ w)
            median = sum(
                reference_softplus(-160.0 * p * (mu - d))
                for d, p in zip(distances, labels)
            ) / len(couples) + l2
            contrastive = sum(
                p * d for d, p in zip(distances, labels)
            ) / len(couples) + l2
            for loss, expected in (("median", median),
                                   ("contrastive", contrastive)):
                got, _ = batch_loss_and_gradient(couples, w, loss, 160.0, 0.001)
                assert got == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_hand_value(self):
        # kappa=1, p=+1, mu=1, d=2: ln(1 + e)
        assert softplus(1.0) == pytest.approx(math.log(1 + math.e), abs=1e-12)

    def test_saturation_below_median(self):
        # related couple far inside the median: softplus(-large) ~ 0
        assert softplus(-160.0 * 0.5) < 1e-6

    def test_median_index_is_lower_middle(self):
        couples = stack([
            couple_of([[float(d)]], [[0.0]], +1 if i < 3 else -1)
            for i, d in enumerate([5, 1, 3, 2, 4, 6])
        ])
        w = np.array([1.0])
        # distances 5,1,3,2,4,6 sorted -> 1,2,3,4,5,6; lower middle is 3,
        # at batch index 2
        np.testing.assert_allclose(batch_distances(couples, w), [5, 1, 3, 2, 4, 6])
        free = batch_loss_and_gradient(couples, w, "median", 1.0, 0.001)
        lower = batch_loss_and_gradient(couples, w, "median", 1.0, 0.001, 2)
        upper = batch_loss_and_gradient(couples, w, "median", 1.0, 0.001, 3)
        assert free[0] == lower[0]
        assert np.array_equal(free[1], lower[1])
        assert free[0] != upper[0]
        assert not np.array_equal(free[1], upper[1])

    def test_label_balance_in_training_batches(self, monkeypatch):
        rng = np.random.default_rng(4)
        couples = stack([
            random_couple(rng, 4, 5, +1 if i % 3 else -1, False)
            for i in range(60)
        ])
        seen = []

        def recording(batch, *args):
            seen.append(batch.labels.tolist())
            return batch_loss_and_gradient(batch, *args)

        monkeypatch.setattr(learn_mod, "batch_loss_and_gradient", recording)
        train_couples(couples, TrainConfig(batch_size=10, n_max=5, max_epochs=2))
        assert seen
        for labels in seen:
            assert labels.count(+1) == labels.count(-1) == 5

    def test_monotone_in_margin(self):
        for p in (+1, -1):
            margins = np.linspace(-2, 2, 41)
            losses = [softplus(-5.0 * p * m) for m in margins]
            diffs = np.diff(losses)
            if p == +1:
                assert np.all(diffs < 0)
            else:
                assert np.all(diffs > 0)


class TestMedianGradient:
    def test_median_couple_gradient_exactly_zero(self):
        rng = np.random.default_rng(5)
        couples, w, n_max = random_batch(rng)
        median = couples[[lower_middle(batch_distances(couples, w))]]
        _, grad = batch_loss_and_gradient(median, w, "median", 160.0, 0.0)
        assert np.array_equal(grad, np.zeros(n_max))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 20:
            couples, w, n_max = random_batch(rng)
            distances = batch_distances(couples, w)
            median_index = lower_middle(distances)
            spread = np.abs(distances - distances[median_index])
            if np.any((spread < 1e-6) & (np.arange(len(couples)) != median_index)):
                continue
            if np.any(distances < 1e-6):
                continue
            fd = fd_gradient(couples, w, "median", 20.0, 0.001, median_index)
            _, grad = batch_loss_and_gradient(
                couples, w, "median", 20.0, 0.001, median_index
            )
            np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-8)
            checked += 1

    def test_vanishes_linearly_with_kappa(self):
        rng = np.random.default_rng(7)
        couples, w, n_max = random_batch(rng)
        median_index = lower_middle(batch_distances(couples, w))
        norms = [
            np.linalg.norm(
                batch_loss_and_gradient(
                    couples, w, "median", kappa, 0.0, median_index
                )[1]
            )
            for kappa in (1e-3, 1e-4, 1e-5)
        ]
        assert norms[0] == pytest.approx(10 * norms[1], rel=1e-2)
        assert norms[1] == pytest.approx(10 * norms[2], rel=1e-2)


class TestCoupleGram:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_max=st.integers(1, 12),
        dim=st.integers(5, 12),
        len_a=st.integers(1, 18),
        len_b=st.integers(1, 18),
    )
    def test_distance_matches_represent_learned(
        self, seed, n_max, dim, len_a, len_b
    ):
        # training's sqrt(w^T G w) and evaluation's distance between the
        # two learned representations must be the same distance
        rng = np.random.default_rng(seed)
        vocab = [f"w{i}" for i in range(24)]
        table = table_from({t: rng.normal(size=dim) for t in vocab})
        idf = compute_idf({t: int(rng.integers(0, 100)) for t in vocab}, 100)

        def text(length):
            tokens = list(rng.choice(vocab, size=length, replace=False))
            tokens += [f"oov{i}" for i in range(int(rng.integers(0, 3)))]
            rng.shuffle(tokens)
            return NormalizedText(tuple(tokens))

        pair = TextPair(text(len_a), text(len_b), +1)
        model = WeightModel(n_max=n_max, weights=rng.uniform(0.1, 1.0, n_max))
        couples = prepare_couples([pair], table, idf, n_max)
        assert len(couples) == 1 and couples.labels.tolist() == [+1]
        represent = learned_representer(table, idf, model)
        reps = [represent(t) for t in (pair.text_a, pair.text_b)]
        expected = distance(*reps, "euclidean")
        gram = couples.grams[0]
        got = math.sqrt(max(model.weights @ gram @ model.weights, 0.0))
        if expected == 0.0:
            assert got == 0.0
        else:
            assert abs(got - expected) <= 1e-12 * expected


class TestSigmoidSoftplus:
    def test_sigmoid_bounds_and_symmetry(self):
        for x in np.linspace(-50, 50, 101):
            s = sigmoid(x)
            assert 0.0 <= s <= 1.0
            assert s + sigmoid(-x) == pytest.approx(1.0, abs=1e-12)

    def test_softplus_overflow_safe(self):
        assert softplus(1000.0) == pytest.approx(1000.0)
        assert softplus(-1000.0) == 0.0
        assert softplus(0.0) == pytest.approx(math.log(2), abs=1e-15)


@pytest.fixture(scope="module")
def small_world():
    table, idf, pairs = make_pairs(n_related=400, n_nonrelated=400, seed=5)
    return table, idf, pairs


class TestTrain:
    def test_learns_separable_data(self, small_world):
        table, idf, pairs = small_world
        train_p, val_p, test_p = split_pairs(pairs)
        config = TrainConfig(loss="median", kappa=160.0, n_max=30, seed=1,
                             batch_size=20, max_epochs=40)
        model, trace = train(train_p, table, idf, config)
        assert len(trace) >= 1
        assert trace[-1].mean_loss < trace[0].mean_loss

        from textrep.aggregate import learned_representer
        from textrep.evaluate import evaluate_method

        report = evaluate_method(
            test_p, learned_representer(table, idf, model), "euclidean",
            val_pairs=val_p,
        )
        assert report.split_error < 0.05

    def test_deterministic_given_seed(self, small_world):
        table, idf, pairs = small_world
        config = TrainConfig(loss="median", kappa=80.0, n_max=30, seed=9,
                             batch_size=20, max_epochs=5)
        subset = pairs[:200] + pairs[400:600]
        m1, _ = train(subset, table, idf, config)
        m2, _ = train(subset, table, idf, config)
        assert np.array_equal(m1.weights, m2.weights)

    def test_rejects_odd_batch(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=99)

    def test_rejects_n_max_below_one(self):
        for n_max in (0, -1):
            with pytest.raises(ValueError, match="n_max must be >= 1"):
                TrainConfig(n_max=n_max)

    def test_needs_both_labels(self):
        couples = Couples(np.zeros((10, 2, 2)), np.full(10, +1))
        with pytest.raises(ValueError, match="per label"):
            train_couples(couples, TrainConfig(batch_size=4, n_max=2))

    def test_paper_defaults(self):
        config = TrainConfig()
        assert config.lam == 0.001
        assert config.batch_size == 100
        assert config.eta_initial == 0.01
        assert config.eta_reduced == 0.001
        assert config.stop_delta == 0.0005
        assert config.init_weight == 0.5


class TestGridSearchKappa:
    def test_singleton_grid(self, small_world):
        table, idf, pairs = small_world
        config = TrainConfig(n_max=30, batch_size=20, max_epochs=5)
        best, scores = grid_search_kappa(
            pairs, table, idf, config, grid=(80.0,), folds=2
        )
        assert best == 80.0
        assert set(scores) == {80.0}

    def test_tie_breaks_to_smaller_kappa(self, small_world, monkeypatch):
        import textrep.evaluate as evaluate_mod
        import textrep.learn as learn_mod

        table, idf, pairs = small_world
        config = TrainConfig(n_max=30, batch_size=20, max_epochs=2)

        def stub_train(couples, cfg):
            return WeightModel(n_max=cfg.n_max, weights=np.ones(cfg.n_max)), []

        monkeypatch.setattr(learn_mod, "train_couples", stub_train)
        monkeypatch.setattr(
            evaluate_mod, "optimal_split",
            lambda distances, labels: (0.0, 0.25),
        )
        best, scores = grid_search_kappa(
            pairs[:100], table, idf, config, grid=(160.0, 20.0, 80.0), folds=2
        )
        assert best == 20.0
        assert all(v == 0.25 for v in scores.values())

    def test_rejects_bad_args(self, small_world):
        table, idf, pairs = small_world
        config = TrainConfig(n_max=30)
        with pytest.raises(ValueError):
            grid_search_kappa(pairs, table, idf, config, grid=(), folds=2)
        with pytest.raises(ValueError):
            grid_search_kappa(pairs, table, idf, config, grid=(10.0,), folds=1)
