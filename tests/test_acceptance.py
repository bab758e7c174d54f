"""Acceptance suite: every release criterion, one test each, one printed
pass/fail line per criterion.  Run with `pytest tests/test_acceptance.py -s`
to see the lines."""

import functools
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from textrep.aggregate import (
    WeightModel,
    baseline_representer,
    interpolation_matrix,
    learned_representer,
)
from textrep.cli import dispatch
from textrep.embeddings import EmbeddingTable, compute_idf, save_doc_freq
from textrep.evaluate import (
    binomial_test,
    evaluate_method,
    js_divergence,
    optimal_split,
)
from textrep.learn import (
    TrainConfig,
    batch_loss_and_gradient,
    grid_search_kappa,
    train,
)
from textrep.pairgen import TextPair, save_pairs
from textrep.textprep import NormalizedText

from synth import (
    build_world,
    make_pairs,
    save_embeddings,
    split_pairs,
    table_from,
)
from test_evaluate import brute_force_split
from test_learn import batch_distances, couple_of, lower_middle, stack


def check(name, condition):
    print(f"[{'PASS' if condition else 'FAIL'}] {name}")
    assert condition, name


# ---------------------------------------------------------------------------
# gradient oracle
# ---------------------------------------------------------------------------


def random_instance(rng):
    nu = int(rng.integers(1, 9))
    n_max = int(rng.integers(2, 11))
    fixed = bool(rng.random() < 0.5)
    couples = []
    for i in range(10):
        m_a = n_max if fixed else int(rng.integers(1, n_max + 1))
        m_b = n_max if fixed else int(rng.integers(1, n_max + 1))
        couples.append(couple_of(
            rng.normal(size=(m_a, nu)), rng.normal(size=(m_b, nu)),
            +1 if i < 5 else -1, n_max,
        ))
    w = rng.uniform(0.2, 1.0, size=n_max)
    return stack(couples), w, n_max


def instance_is_degenerate(couples, w):
    """(degenerate?, median index) for a batch."""
    distances = batch_distances(couples, w)
    median_index = lower_middle(distances)
    if np.any(distances < 1e-6):
        return True, median_index
    others = np.delete(
        np.abs(distances - distances[median_index]), median_index
    )
    return bool(np.any(others < 1e-6)), median_index


def test_gradient_oracle():
    rng = np.random.default_rng(2024)
    h = 1e-5
    start = time.monotonic()
    checked = 0
    worst = 0.0
    while checked < 100:
        couples, w, n_max = random_instance(rng)
        degenerate, median_index = instance_is_degenerate(couples, w)
        if degenerate:
            continue  # excluded and re-sampled per the criterion
        loss = "median" if checked % 2 == 0 else "contrastive"
        kappa = float(rng.uniform(1, 200))
        _, grad = batch_loss_and_gradient(
            couples, w, loss, kappa, 0.001, median_index
        )
        fd = np.zeros(n_max)
        for k in range(n_max):
            wp, wm = w.copy(), w.copy()
            wp[k] += h
            wm[k] -= h
            lp, _ = batch_loss_and_gradient(
                couples, wp, loss, kappa, 0.001, median_index
            )
            lm, _ = batch_loss_and_gradient(
                couples, wm, loss, kappa, 0.001, median_index
            )
            fd[k] = (lp - lm) / (2 * h)
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, rel)
        checked += 1
    elapsed = time.monotonic() - start
    check(
        f"gradient oracle: 100 instances, worst rel err {worst:.2e} < 1e-4, "
        f"{elapsed:.1f}s < 10s",
        worst < 1e-4 and elapsed < 10.0,
    )


# ---------------------------------------------------------------------------
# loss identities
# ---------------------------------------------------------------------------


def test_loss_identities():
    rng = np.random.default_rng(1)
    couples, w, n_max = random_instance(rng)
    median = couples[[lower_middle(batch_distances(couples, w))]]

    # a one-couple batch is its own median
    loss, grad = batch_loss_and_gradient(median, w, "median", 160.0, 0.0)
    median_ok = abs(loss - math.log(2)) < 1e-12
    grad_ok = np.array_equal(grad, np.zeros(n_max))
    t = rng.normal(size=(1, 5))
    coincident = couple_of(t, t.copy(), +1)
    loss, grad = batch_loss_and_gradient(
        coincident, np.ones(1), "contrastive", 0.0, 0.0
    )
    contrastive_ok = loss == 0.0 and np.array_equal(grad, np.zeros(1))
    check(
        "loss identities: median couple loss = ln 2, coincident contrastive "
        "loss = 0, median couple gradient = 0",
        median_ok and contrastive_ok and grad_ok,
    )


# ---------------------------------------------------------------------------
# interpolation identities
# ---------------------------------------------------------------------------


def test_interpolation_identities():
    rng = np.random.default_rng(2)
    ok = True
    for n_max in range(1, 51):
        model = WeightModel(n_max=n_max, weights=rng.normal(size=n_max))
        z = interpolation_matrix(n_max, n_max) @ model.weights
        ok &= np.array_equal(z, model.weights)
        for m in range(2, n_max + 1):
            z = interpolation_matrix(m, n_max) @ model.weights
            ok &= z[0] == model.weights[0] and z[-1] == model.weights[-1]
    check(
        "interpolation identities: m=n_max bit-equal, endpoints exact for "
        "all 2 <= m <= n_max <= 50",
        bool(ok),
    )


# ---------------------------------------------------------------------------
# mean-equivalence
# ---------------------------------------------------------------------------


def test_mean_equivalence():
    rng = np.random.default_rng(3)
    vocab = {f"w{i}": rng.normal(size=6) for i in range(200)}
    table = table_from(vocab)
    idf = compute_idf(
        {f"w{i}": int(rng.integers(0, 500)) for i in range(200)}, 1000
    )
    n_max = 12
    model = WeightModel(n_max=n_max, weights=np.ones(n_max))
    represent_learned = learned_representer(table, idf, model)
    represent_mean = baseline_representer(table, idf, "mean")
    worst = 0.0
    for _ in range(1000):
        length = int(rng.integers(1, n_max + 1))
        tokens = tuple(rng.choice(list(vocab), size=length))
        text = NormalizedText(tokens)
        learned = represent_learned(text)
        mean = represent_mean(text)
        worst = max(worst, np.abs(learned.vector - mean.vector).max())
    check(
        f"mean-equivalence: all-ones weights match mean baseline, worst "
        f"inf-norm gap {worst:.2e} < 1e-12",
        worst < 1e-12,
    )


# ---------------------------------------------------------------------------
# split oracle
# ---------------------------------------------------------------------------


def test_split_oracle():
    rng = np.random.default_rng(4)
    start = time.monotonic()
    ok = True
    for _ in range(500):
        n = int(rng.integers(2, 21))
        labels = [+1, -1] + [int(rng.choice([1, -1])) for _ in range(n - 2)]
        samples = [
            (round(float(rng.uniform(0, 3)), 1), p) for p in labels
        ]
        theta, err = optimal_split(*zip(*samples))
        oracle_theta, oracle_err = brute_force_split(samples)
        ok &= err == oracle_err
        # theta must sit in an optimal interval: realize the oracle error
        realized = sum(
            1 for d, p in samples if (d <= theta) != (p == +1)
        ) / len(samples)
        ok &= realized == oracle_err
    elapsed = time.monotonic() - start
    check(
        f"split oracle: 500 datasets match brute force exactly, "
        f"{elapsed:.2f}s < 5s",
        ok and elapsed < 5.0,
    )


# ---------------------------------------------------------------------------
# JS bounds
# ---------------------------------------------------------------------------


def test_js_bounds():
    rng = np.random.default_rng(5)
    in_bounds = True
    for _ in range(100):
        a = rng.normal(size=int(rng.integers(2, 300))).tolist()
        b = rng.normal(loc=rng.uniform(-3, 3),
                       size=int(rng.integers(2, 300))).tolist()
        js = js_divergence(a, b)
        in_bounds &= 0.0 <= js <= math.log(2) + 1e-12
    d = rng.uniform(0, 1, size=400).tolist()
    identical = js_divergence(d, list(d))
    disjoint = js_divergence([0.0] * 100, [5.0] * 100)
    check(
        "JS bounds: random inputs within [0, ln 2], identical < 1e-9, "
        "disjoint = ln 2 within 1e-6",
        in_bounds
        and identical < 1e-9
        and abs(disjoint - math.log(2)) < 1e-6,
    )


# ---------------------------------------------------------------------------
# synthetic separability + weight shape (shared training run)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def separability_run():
    start = time.monotonic()
    table, idf, pairs = make_pairs(n_related=2000, n_nonrelated=2000, seed=7)
    train_p, val_p, test_p = split_pairs(pairs)

    config = TrainConfig(loss="median", n_max=30, seed=42, max_epochs=40)
    kappa, _ = grid_search_kappa(
        train_p, table, idf, config, grid=(40.0, 160.0, 320.0), folds=3
    )
    config = TrainConfig(loss="median", kappa=kappa, n_max=30, seed=42,
                         max_epochs=40)
    model, _ = train(train_p, table, idf, config)

    learned = evaluate_method(
        test_p, learned_representer(table, idf, model), "euclidean",
        method_name="learned", val_pairs=val_p,
    )
    mean = evaluate_method(
        test_p, baseline_representer(table, idf, "mean"), "euclidean",
        method_name="mean", val_pairs=val_p,
    )
    elapsed = time.monotonic() - start
    return model, learned, mean, kappa, elapsed


def test_synthetic_separability(separability_run):
    model, learned, mean, kappa, elapsed = separability_run
    check(
        f"synthetic separability: learned error {learned.split_error:.4f} "
        f"< 5% and < mean baseline {mean.split_error:.4f} "
        f"(kappa={kappa:g}, {elapsed:.1f}s < 120s)",
        learned.split_error < 0.05
        and learned.split_error < mean.split_error
        and elapsed < 120.0,
    )


def test_weight_shape(separability_run):
    model, *_ = separability_run
    q = math.ceil(model.n_max / 4)
    first = float(model.weights[:q].mean())
    last = float(model.weights[-q:].mean())
    check(
        f"weight shape: mean of first quarter {first:.3f} >= 2x mean of "
        f"last quarter {last:.3f}",
        first >= 2.0 * last,
    )


# ---------------------------------------------------------------------------
# generalization across embeddings without retraining
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def world7_splits():
    table, idf, pairs = make_pairs(n_related=2000, n_nonrelated=2000, seed=7)
    return (table, idf, *split_pairs(pairs))


@functools.lru_cache(maxsize=None)
def world7_weights(max_epochs):
    table, idf, train_p, _, _ = world7_splits()
    model, _ = train(train_p, table, idf, TrainConfig(max_epochs=max_epochs))
    return model


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_rotation_invariance(seed):
    # Training sees the vectors only through distances, which a rotation
    # of the embedding space keeps.
    table, idf, train_p, _, _ = world7_splits()
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(
        size=(table.dimension, table.dimension)))
    rotated = EmbeddingTable(rows=table.rows, vectors=table.vectors @ q)
    model, _ = train(train_p, rotated, idf, TrainConfig(max_epochs=3))
    want = world7_weights(3).weights
    gap = np.max(np.abs(model.weights - want)) / np.max(np.abs(want))
    check(f"rotation invariance: weights within {gap:.1e} <= 1e-12 relative",
          gap <= 1e-12)


def test_cross_embedding_transfer():
    # Worlds share a vocabulary and structure but draw new vectors; the
    # weights trained on world 7 are applied to the others as they are.
    _, idf, _, val_p, test_p = world7_splits()
    model = world7_weights(60)
    for seed in (8, 9, 10):
        table = build_world(seed=seed)[0]
        learned, mean = (
            evaluate_method(test_p, representer, "euclidean",
                            method_name=name, val_pairs=val_p)
            for name, representer in (
                ("learned", learned_representer(table, idf, model)),
                ("mean", baseline_representer(table, idf, "mean")))
        )
        check(
            f"cross-embedding transfer: world 7 weights on world {seed}'s "
            f"table, learned error {learned.split_error:.3f} < 0.05 and "
            f"< mean {mean.split_error:.3f} / 4",
            learned.split_error < 0.05
            and learned.split_error < mean.split_error / 4,
        )


# ---------------------------------------------------------------------------
# no-signal control
# ---------------------------------------------------------------------------


def test_no_signal_control():
    table, idf, pairs = make_pairs(n_related=2000, n_nonrelated=2000, seed=7)
    rng = np.random.default_rng(3)
    labels = [p.label for p in pairs]
    perm = rng.permutation(len(labels))
    shuffled = [
        TextPair(p.text_a, p.text_b, labels[perm[i]])
        for i, p in enumerate(pairs)
    ]
    train_p, val_p, test_p = split_pairs(shuffled)
    config = TrainConfig(loss="contrastive", n_max=30, seed=42, max_epochs=40)
    model, _ = train(train_p, table, idf, config)
    drift = float(np.abs(model.weights - 0.5).max())
    report = evaluate_method(
        test_p, learned_representer(table, idf, model), "euclidean",
        val_pairs=val_p,
    )
    check(
        f"no-signal control: error {report.split_error:.3f} in [0.45, 0.55], "
        f"weight drift {drift:.3f} <= 0.2",
        0.45 <= report.split_error <= 0.55 and drift <= 0.2,
    )


# ---------------------------------------------------------------------------
# CLI determinism
# ---------------------------------------------------------------------------


def test_cli_train_determinism(tmp_path):
    table, idf, pairs = make_pairs(n_related=200, n_nonrelated=200, seed=9)
    with open(tmp_path / "vec.txt", "w") as fh:
        save_embeddings(table, fh)
    with open(tmp_path / "df.tsv", "w") as fh:
        save_doc_freq(idf.doc_freq, idf.corpus_size, fh)
    with open(tmp_path / "pairs.tsv", "w") as fh:
        save_pairs(pairs, fh)

    blobs = []
    for name in ("m1.json", "m2.json"):
        out = tmp_path / name
        code = dispatch([
            "train", "--pairs", str(tmp_path / "pairs.tsv"),
            "--emb", str(tmp_path / "vec.txt"),
            "--df", str(tmp_path / "df.tsv"),
            "--nmax", "30", "--batch", "20", "--max-epochs", "8",
            "--seed", "42", "--out", str(out),
        ])
        assert code == 0
        blobs.append(out.read_bytes())
    check(
        "determinism: two identical train runs give byte-identical model "
        "files",
        blobs[0] == blobs[1],
    )


# ---------------------------------------------------------------------------
# binomial test
# ---------------------------------------------------------------------------


def test_binomial_values():
    extreme = binomial_test(10, 0)
    balanced = binomial_test(10, 5)
    check(
        f"binomial test: p(n=10,k=0) = {extreme:.6f} ~ 0.001953 within "
        f"1e-9, balanced p = {balanced}",
        abs(extreme - 2 * 0.5**10) < 1e-9 and balanced == 1.0,
    )
