import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from textrep.aggregate import (
    Representation,
    UnrepresentableText,
    WeightModel,
    distance,
    interpolation_matrix,
    learned_representer,
    represent_baseline,
    represent_learned,
    tfidf_cosine_distance,
    tfidf_vector,
)
from textrep.embeddings import compute_idf
from textrep.textprep import NormalizedText, sort_by_idf

from synth import table_from


def model_of(weights, metric="euclidean"):
    w = np.asarray(weights, dtype=np.float64)
    return WeightModel(n_max=len(w), weights=w, metric=metric)


def interpolate(model, m):
    return interpolation_matrix(m, model.n_max) @ model.weights


finite_weights = st.lists(
    st.floats(-1e9, 1e9, allow_nan=False), min_size=1, max_size=60
)


class TestInterpolateWeights:
    def test_integer_indices_pick_through(self):
        model = model_of([0.9, 0.7, 0.5, 0.3, 0.1])
        z = interpolate(model, 3)
        np.testing.assert_array_equal(z, [0.9, 0.5, 0.1])

    def test_identity_is_bit_equal(self):
        rng = np.random.default_rng(0)
        for n_max in range(1, 51):
            model = model_of(rng.normal(size=n_max))
            z = interpolate(model, n_max)
            assert np.array_equal(z, model.weights)

    def test_midpoint_interpolation(self):
        model = model_of([0.8, 0.6, 0.4, 0.2])
        z = interpolate(model, 3)
        np.testing.assert_allclose(z, [0.8, 0.5, 0.2], atol=1e-15)

    def test_single_token_gets_first_weight(self):
        model = model_of([0.7, 0.1, 0.4])
        np.testing.assert_array_equal(interpolate(model, 1), [0.7])

    def test_endpoints_exact(self):
        rng = np.random.default_rng(1)
        for n_max in range(2, 51):
            model = model_of(rng.normal(size=n_max))
            for m in range(2, n_max + 1):
                z = interpolate(model, m)
                assert z[0] == model.weights[0]
                assert z[-1] == model.weights[-1]

    def test_rejects_bad_m(self):
        model = model_of([1.0, 2.0])
        with pytest.raises(ValueError):
            interpolate(model, 3)
        with pytest.raises(ValueError):
            interpolate(model, 0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 60).flatmap(
        lambda n_max: st.tuples(st.integers(1, n_max), st.just(n_max))
    ))
    def test_rows_are_convex_combinations(self, shape):
        matrix = interpolation_matrix(*shape)
        assert matrix.shape == shape
        assert not matrix.flags.writeable
        assert np.all(matrix >= 0.0)
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0, rtol=0, atol=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(finite_weights, st.data())
    def test_identity_endpoints_and_range(self, weights, data):
        w = np.array(weights)
        n_max = len(w)
        assert np.array_equal(interpolation_matrix(n_max, n_max) @ w, w)
        np.testing.assert_array_equal(interpolation_matrix(1, n_max) @ w, w[:1])
        if n_max > 1:
            m = data.draw(st.integers(2, n_max))
            z = interpolation_matrix(m, n_max) @ w
            assert z[0] == w[0] and z[-1] == w[-1]
        with pytest.raises(ValueError):
            interpolation_matrix(data.draw(st.integers(-3, 0)), n_max)
        with pytest.raises(ValueError):
            interpolation_matrix(n_max + data.draw(st.integers(1, 3)), n_max)


class TestRepresentLearned:
    def sorted_text(self, tokens, idf):
        return sort_by_idf(NormalizedText(tuple(tokens)), idf)

    def test_uniform_weights_are_mean(self):
        table = table_from({"a": [1, 0], "b": [0, 1]})
        idf = compute_idf({"a": 1, "b": 2}, 10)
        model = model_of([1.0, 1.0])
        rep = represent_learned(self.sorted_text(["a", "b"], idf), table, model)
        np.testing.assert_allclose(rep.vector, [0.5, 0.5])
        assert rep.used_tokens == 2

    def test_weighted_sum(self):
        table = table_from({"a": [1, 0], "b": [0, 1]})
        idf = compute_idf({"a": 1, "b": 2}, 10)
        model = model_of([2.0, 0.0])
        # a (df 1) has higher idf than b (df 2): rank 1 and weight 2 go to a
        rep = represent_learned(self.sorted_text(["a", "b"], idf), table, model)
        np.testing.assert_allclose(rep.vector, [1.0, 0.0])

    def test_all_oov_raises(self):
        table = table_from({"a": [1.0]})
        idf = compute_idf({}, 10)
        with pytest.raises(UnrepresentableText, match="unrepresentable"):
            represent_learned(self.sorted_text(["x", "y"], idf), table, model_of([1.0]))

    def test_truncates_to_n_max_highest_idf(self):
        table = table_from({f"w{i}": [float(i)] for i in range(5)})
        idf = compute_idf({f"w{i}": i for i in range(5)}, 100)
        model = model_of([1.0, 1.0])
        rep = represent_learned(
            self.sorted_text([f"w{i}" for i in range(5)], idf), table, model
        )
        # lowest df = highest idf: w0 and w1 survive
        np.testing.assert_allclose(rep.vector, [0.5])
        assert rep.used_tokens == 2

    def test_order_invariance(self):
        rng = np.random.default_rng(2)
        table = table_from({f"w{i}": rng.normal(size=4) for i in range(12)})
        idf = compute_idf({f"w{i}": i for i in range(12)}, 100)
        model = model_of(rng.uniform(0, 1, size=8))
        tokens = [f"w{i}" for i in rng.choice(12, size=8, replace=False)]
        base = represent_learned(self.sorted_text(tokens, idf), table, model)
        for _ in range(5):
            rng.shuffle(tokens)
            rep = represent_learned(self.sorted_text(tokens, idf), table, model)
            np.testing.assert_allclose(rep.vector, base.vector, atol=1e-12)

    def test_representer_rejects_other_normalization(self):
        table = table_from({"a": [1.0]})
        idf = compute_idf({"a": 1}, 10)
        model = WeightModel(n_max=1, weights=np.ones(1),
                            normalization_version="v999")
        with pytest.raises(ValueError, match="'v999'.*'v1'"):
            learned_representer(table, idf, model)

    def test_weight_scaling_scales_output(self):
        rng = np.random.default_rng(3)
        table = table_from({f"w{i}": rng.normal(size=3) for i in range(6)})
        idf = compute_idf({f"w{i}": i for i in range(6)}, 100)
        w = rng.uniform(0.1, 1, size=6)
        tokens = [f"w{i}" for i in range(4)]
        r1 = represent_learned(self.sorted_text(tokens, idf), table, model_of(w))
        r2 = represent_learned(self.sorted_text(tokens, idf), table, model_of(3.0 * w))
        np.testing.assert_allclose(r2.vector, 3.0 * r1.vector, atol=1e-12)


class TestBaselines:
    table = table_from({"a": [1, 0], "b": [0, 1]})
    idf = compute_idf({"a": 1, "b": 2}, 10)

    def rep(self, tokens, method, table=None, idf=None):
        return represent_baseline(
            NormalizedText(tuple(tokens)),
            table or self.table,
            idf or self.idf,
            method,
        )

    def test_max(self):
        np.testing.assert_allclose(self.rep(["a", "b"], "max").vector, [1, 1])

    def test_minmax_concat(self):
        np.testing.assert_allclose(
            self.rep(["a", "b"], "minmax_concat").vector, [0, 0, 1, 1]
        )

    def test_mean_top30_keeps_ceil(self):
        table = table_from({f"w{i}": [float(i)] for i in range(10)})
        idf = compute_idf({f"w{i}": i for i in range(10)}, 100)
        rep = self.rep([f"w{i}" for i in range(10)], "mean_top30", table, idf)
        # ceil(0.3 * 10) = 3 highest-idf tokens: w0, w1, w2
        np.testing.assert_allclose(rep.vector, [1.0])
        assert rep.used_tokens == 3

    def test_idf_weighted_mean(self):
        got = self.rep(["a", "b"], "idf_weighted_mean").vector
        ia = math.log(10 / 2)
        ib = math.log(10 / 3)
        np.testing.assert_allclose(got, [ia / 2, ib / 2])

    def test_all_oov_raises(self):
        with pytest.raises(UnrepresentableText):
            self.rep(["zz"], "mean")


class TestTfidf:
    def test_hand_counts(self):
        idf = compute_idf({"a": 2, "b": 0}, 10)
        vec = tfidf_vector(NormalizedText(("a", "a", "b")), idf)
        assert vec["a"] == pytest.approx(2 * math.log(10 / 3))
        assert vec["b"] == pytest.approx(math.log(10))

    def test_identical_texts_distance_zero(self):
        idf = compute_idf({"a": 2, "b": 0}, 10)
        v = tfidf_vector(NormalizedText(("a", "b")), idf)
        assert tfidf_cosine_distance(v, v) == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_vocabulary_distance_one(self):
        idf = compute_idf({"a": 2, "b": 0}, 10)
        va = tfidf_vector(NormalizedText(("a",)), idf)
        vb = tfidf_vector(NormalizedText(("b",)), idf)
        assert tfidf_cosine_distance(va, vb) == pytest.approx(1.0)

    def test_empty_text_zero_vector_max_distance(self):
        idf = compute_idf({"a": 2}, 10)
        empty = tfidf_vector(NormalizedText(()), idf)
        assert empty == {}
        other = tfidf_vector(NormalizedText(("a",)), idf)
        assert tfidf_cosine_distance(empty, other) == 1.0


class TestDistance:
    def r(self, v):
        return Representation(np.asarray(v, dtype=np.float64), used_tokens=1)

    def test_identity(self):
        x = self.r([1.0, 2.0])
        assert distance(x, x, "euclidean") == 0.0
        assert distance(x, x, "cosine") == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal(self):
        x, y = self.r([1, 0]), self.r([0, 1])
        assert distance(x, y, "euclidean") == pytest.approx(math.sqrt(2))
        assert distance(x, y, "cosine") == pytest.approx(1.0)

    def test_zero_vector_cosine_is_one(self):
        assert distance(self.r([0, 0]), self.r([1, 0]), "cosine") == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            distance(self.r([1]), self.r([1, 2]), "euclidean")

    def test_euclidean_symmetry_and_triangle(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            x, y, z = (self.r(rng.normal(size=5)) for _ in range(3))
            dxy = distance(x, y, "euclidean")
            assert dxy == pytest.approx(distance(y, x, "euclidean"), abs=1e-12)
            assert dxy <= (
                distance(x, z, "euclidean") + distance(z, y, "euclidean") + 1e-9
            )


class TestModelIO:
    def test_json_round_trip(self, tmp_path):
        from textrep.aggregate import load_model, save_model

        model = WeightModel(
            n_max=3,
            weights=np.array([0.5, 0.25, 0.125]),
            metric="euclidean",
            metadata={"loss": "median", "kappa": 160.0, "lambda": 0.001, "seed": 1},
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.weights, model.weights)
        assert loaded.metric == "euclidean"
        assert loaded.metadata["kappa"] == 160.0
