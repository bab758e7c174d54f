import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from textrep.aggregate import (
    BASELINE_METHODS,
    Representation,
    UnrepresentableText,
    WeightModel,
    _idf_by_row,
    baseline_representer,
    distance,
    encode,
    interpolation_matrix,
    learned_representer,
    rank_weights,
    tfidf_cosine_distance,
    tfidf_representer,
    tfidf_vector,
)
from textrep.embeddings import compute_idf
from textrep.textprep import NormalizedText, sort_by_idf

from synth import table_from


def model_of(weights):
    w = np.asarray(weights, dtype=np.float64)
    return WeightModel(n_max=len(w), weights=w)


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
    def rep(self, tokens, table, idf, model):
        return learned_representer(table, idf, model)(
            NormalizedText(tuple(tokens))
        )

    def test_uniform_weights_are_mean(self):
        table = table_from({"a": [1, 0], "b": [0, 1]})
        idf = compute_idf({"a": 1, "b": 2}, 10)
        model = model_of([1.0, 1.0])
        rep = self.rep(["a", "b"], table, idf, model)
        np.testing.assert_allclose(rep.vector, [0.5, 0.5])

    def test_weighted_sum(self):
        table = table_from({"a": [1, 0], "b": [0, 1]})
        idf = compute_idf({"a": 1, "b": 2}, 10)
        model = model_of([2.0, 0.0])
        # a (df 1) has higher idf than b (df 2): rank 1 and weight 2 go to a
        rep = self.rep(["a", "b"], table, idf, model)
        np.testing.assert_allclose(rep.vector, [1.0, 0.0])

    def test_all_oov_raises(self):
        table = table_from({"a": [1.0]})
        idf = compute_idf({}, 10)
        with pytest.raises(UnrepresentableText, match="unrepresentable"):
            self.rep(["x", "y"], table, idf, model_of([1.0]))

    def test_truncates_to_n_max_highest_idf(self):
        table = table_from({f"w{i}": [float(i)] for i in range(5)})
        idf = compute_idf({f"w{i}": i for i in range(5)}, 100)
        model = model_of([1.0, 1.0])
        rep = self.rep([f"w{i}" for i in range(5)], table, idf, model)
        # lowest df = highest idf: w0 and w1 survive
        np.testing.assert_allclose(rep.vector, [0.5])

    def test_order_invariance(self):
        rng = np.random.default_rng(2)
        table = table_from({f"w{i}": rng.normal(size=4) for i in range(12)})
        idf = compute_idf({f"w{i}": i for i in range(12)}, 100)
        model = model_of(rng.uniform(0, 1, size=8))
        tokens = [f"w{i}" for i in rng.choice(12, size=8, replace=False)]
        base = self.rep(tokens, table, idf, model)
        for _ in range(5):
            rng.shuffle(tokens)
            rep = self.rep(tokens, table, idf, model)
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
        r1 = self.rep(tokens, table, idf, model_of(w))
        r2 = self.rep(tokens, table, idf, model_of(3.0 * w))
        np.testing.assert_allclose(r2.vector, 3.0 * r1.vector, atol=1e-12)


class TestBaselines:
    table = table_from({"a": [1, 0], "b": [0, 1]})
    idf = compute_idf({"a": 1, "b": 2}, 10)

    def rep(self, tokens, method, table=None, idf=None):
        representer = baseline_representer(
            table or self.table, idf or self.idf, method
        )
        return representer(NormalizedText(tuple(tokens)))

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

    def test_idf_weighted_mean(self):
        got = self.rep(["a", "b"], "idf_weighted_mean").vector
        ia = math.log(10 / 2)
        ib = math.log(10 / 3)
        np.testing.assert_allclose(got, [ia / 2, ib / 2])

    def test_all_oov_raises(self):
        with pytest.raises(UnrepresentableText):
            self.rep(["zz"], "mean")


def reference_learned(text, table, idf, model):
    """One text's learned vector, computed the scalar way."""
    ids = table.row_ids(sort_by_idf(text, idf).tokens)[: model.n_max]
    if not ids:
        return None
    z = interpolation_matrix(len(ids), model.n_max) @ model.weights
    return (z @ table.vectors[ids]) / len(ids)


def reference_baseline(text, table, idf, method):
    """One text's baseline vector, computed the scalar way."""
    tokens = [t for t in text.tokens if t in table]
    if not tokens:
        return None
    if method.endswith("_top30"):
        keep = max(1, math.ceil(0.3 * len(tokens)))
        ranked = sorted(range(len(tokens)), key=lambda i: -idf.idf_of(tokens[i]))
        tokens = [tokens[i] for i in sorted(ranked[:keep])]
    matrix = table.vectors[table.row_ids(tokens)]
    base = method.replace("_top30", "")
    if base == "mean":
        return matrix.mean(axis=0)
    if base == "max":
        return matrix.max(axis=0)
    if base == "min":
        return matrix.min(axis=0)
    if base.startswith("minmax"):
        return np.concatenate([matrix.min(axis=0), matrix.max(axis=0)])
    values = np.array([idf.idf_of(t) for t in tokens])
    return (values @ matrix) / len(tokens)


def assert_close(got, want, tol=1e-12):
    """Equal within tol, relative to the largest component of ``want``
    when that exceeds 1 (the worlds below draw unit-scale vectors, so
    cancelling sums are held to an absolute tol)."""
    assert got.shape == want.shape
    scale = max(np.max(np.abs(want), initial=0.0), 1.0)
    assert np.max(np.abs(got - want), initial=0.0) <= tol * scale


@st.composite
def worlds(draw):
    """A small table with idf ties, a model, and a batch of texts mixing
    lengths, repeated tokens, OOV tokens and all-OOV texts."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(draw(st.integers(1, 15)))]
    dim = draw(st.integers(1, 5))
    table = table_from({t: rng.normal(size=dim) for t in vocab})
    # df from a narrow range, so many tokens share an idf
    idf = compute_idf({t: draw(st.integers(0, 3)) for t in vocab}, 10)
    n_max = draw(st.integers(1, 8))
    model = model_of(rng.uniform(-1.0, 1.0, size=n_max))
    words = st.sampled_from(vocab + ["oov1", "oov2"])
    texts = draw(st.lists(
        st.lists(words, max_size=3 * n_max + 2).map(
            lambda tokens: NormalizedText(tuple(tokens))),
        min_size=1, max_size=12,
    ))
    return table, idf, model, texts


class TestEncode:
    @settings(max_examples=200, deadline=None)
    @given(worlds())
    def test_equals_sorted_row_ids(self, world):
        table, idf, _, texts = world
        assert encode(texts, table, idf) == [
            table.row_ids(sort_by_idf(text, idf).tokens) for text in texts
        ]

    @settings(max_examples=200, deadline=None)
    @given(worlds(), st.randoms(use_true_random=False))
    def test_idf_order_ignores_token_order(self, world, random):
        table, idf, _, texts = world
        token_of = list(table.rows)
        for text in texts:
            tokens = list(text.tokens)
            random.shuffle(tokens)
            shuffled = NormalizedText(tuple(tokens))
            assert [
                [idf.idf_of(token_of[i]) for i in ids]
                for ids in encode([text, shuffled], table, idf)
            ] == [sorted((idf.idf_of(t) for t in text.tokens if t in table),
                         reverse=True)] * 2

    def test_stable_under_ties(self):
        table = table_from({t: [float(i)] for i, t in enumerate("abcd")})
        idf = compute_idf({"a": 1, "b": 1, "c": 1, "d": 0}, 10)
        text = NormalizedText(("c", "x", "a", "d", "b", "a"))
        # d has the highest idf; the tied a, b, c keep their text order
        assert encode([text], table, idf) == [[3, 2, 0, 1, 0]]


class TestBatchRepresentation:
    @settings(max_examples=200, deadline=None)
    @given(worlds())
    def test_learned_matches_scalar_reference(self, world):
        table, idf, model, texts = world
        representer = learned_representer(table, idf, model)
        vectors, representable = representer.batch(texts)
        assert vectors.shape == (len(texts), table.dimension)
        for text, vector, ok in zip(texts, vectors, representable):
            want = reference_learned(text, table, idf, model)
            assert ok == (want is not None)
            if ok:
                assert_close(vector, want)
                assert_close(representer(text).vector, vector)
                assert np.array_equal(representer(text).vector,
                                      representer.batch([text])[0][0])
            else:
                with pytest.raises(UnrepresentableText):
                    representer(text)

    @settings(max_examples=50, deadline=None)
    @given(worlds(), st.sampled_from(BASELINE_METHODS))
    def test_baselines_match_scalar_reference(self, world, method):
        table, idf, _, texts = world
        representer = baseline_representer(table, idf, method)
        vectors, representable = representer.batch(texts)
        width = 2 * table.dimension if "minmax" in method else table.dimension
        assert vectors.shape == (len(texts), width)
        for text, vector, ok in zip(texts, vectors, representable):
            want = reference_baseline(text, table, idf, method)
            assert ok == (want is not None)
            if ok:
                assert_close(vector, want)
                assert_close(representer(text).vector, vector)
                assert np.array_equal(representer(text).vector,
                                      representer.batch([text])[0][0])
            else:
                with pytest.raises(UnrepresentableText):
                    representer(text)

    @settings(max_examples=100, deadline=None)
    @given(worlds())
    def test_rank_weights_are_interpolated_weights(self, world):
        model = world[2]
        zs = rank_weights(model)
        assert len(zs) == model.n_max
        for k, z in enumerate(zs, start=1):
            assert np.array_equal(
                z, interpolation_matrix(k, model.n_max) @ model.weights)

    @settings(max_examples=100, deadline=None)
    @given(worlds())
    def test_row_key_is_idf_of_each_row_token(self, world):
        table, idf, _, _ = world
        key = [None] * table.vocabulary_size
        for token, row in table.rows.items():
            key[row] = idf.idf_of(token)
        assert _idf_by_row(table, idf) == key

    def test_tfidf_single_text_is_its_vector(self):
        idf = compute_idf({"a": 2, "b": 0}, 10)
        text = NormalizedText(("a", "a", "b"))
        representer = tfidf_representer(idf)
        assert representer(text).vector == tfidf_vector(text, idf)
        vectors, representable = representer.batch([text, NormalizedText(())])
        assert vectors == [tfidf_vector(text, idf), {}]
        assert representable.tolist() == [True, True]

    def test_unknown_method_rejected_up_front(self):
        with pytest.raises(ValueError, match="unknown baseline method"):
            baseline_representer(TestBaselines.table, TestBaselines.idf, "median")

    def test_peak_memory_beyond_output_is_a_few_mb(self):
        # n_max tokens per text: every text gathers n_max rows, so an
        # uncapped gather of the whole batch would take 4000 * 20 * 300 *
        # 8 bytes = 192 MB.
        rng = np.random.default_rng(5)
        vocab = [f"w{i}" for i in range(2000)]
        table = table_from({t: rng.normal(size=300) for t in vocab})
        idf = compute_idf({t: int(rng.integers(0, 100)) for t in vocab}, 100)
        model = model_of(rng.uniform(size=20))
        texts = [NormalizedText(tuple(rng.choice(vocab, size=20)))
                 for _ in range(4000)]
        for representer in (learned_representer(table, idf, model),
                            baseline_representer(table, idf, "mean")):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                vectors, _ = representer.batch(texts)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert vectors.nbytes == 4000 * 300 * 8
            extra = peak - before - vectors.nbytes
            assert extra < 4 * 2**20, f"{extra / 2**20:.1f} MB"


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
        return Representation(np.asarray(v, dtype=np.float64))

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

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 6),
           st.sampled_from(["euclidean", "cosine"]))
    def test_stacks_match_pairs(self, seed, n, dim, metric):
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=(2, n, dim))
        x[rng.random(n) < 0.2] = 0.0
        y[rng.random(n) < 0.2] = 0.0
        got = distance(x, y, metric)
        assert got.shape == (n,)
        for xi, yi, d in zip(x, y, got):
            assert d == pytest.approx(
                distance(self.r(xi), self.r(yi), metric), rel=1e-12, abs=1e-15
            )
            nx, ny = math.hypot(*xi), math.hypot(*yi)
            if metric == "euclidean":
                assert d == pytest.approx(math.dist(xi, yi), rel=1e-12)
            elif nx == 0.0 or ny == 0.0:
                assert d == 1.0
            else:
                dot = math.fsum(a * b for a, b in zip(xi, yi))
                assert d == pytest.approx(1.0 - dot / (nx * ny), abs=1e-12)

    def test_euclidean_symmetry_and_triangle(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            x, y, z = (self.r(rng.normal(size=5)) for _ in range(3))
            dxy = distance(x, y, "euclidean")
            assert dxy == pytest.approx(distance(y, x, "euclidean"), abs=1e-12)
            assert dxy <= (
                distance(x, z, "euclidean") + distance(z, y, "euclidean") + 1e-9
            )


class TestWeightModel:
    def test_keeps_a_read_only_copy(self):
        source = np.array([0.5, 0.25, 0.125])
        model = WeightModel(n_max=3, weights=source)
        source[0] = 9.0
        assert model.weights.tolist() == [0.5, 0.25, 0.125]
        with pytest.raises(ValueError):
            model.weights[0] = 1.0


class TestModelIO:
    def test_json_round_trip(self, tmp_path):
        from textrep.aggregate import load_model, save_model

        model = WeightModel(
            n_max=3,
            weights=np.array([0.5, 0.25, 0.125]),
            metadata={"loss": "median", "kappa": 160.0, "lambda": 0.001, "seed": 1},
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.weights, model.weights)
        assert loaded.metric == "euclidean"
        assert loaded.metadata["kappa"] == 160.0
