"""Golden numerics: trained weights and every method's distances, pinned.

``golden.json`` holds, for a fixed synthetic world, the weights after a
3-epoch training (full runs are chaotic at kappa = 160) and, for the
learned model, all 8 baselines, tf-idf and the cosine distances of mean
and minmax_top30, the validation and test pair distances, theta and
split error.  Changes that only reorder float sums
must keep weights and distances within 1e-12 relative; split errors and
pair counts must stay equal.

Regenerate (only when the numerics are meant to change) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from synth import make_pairs, split_pairs
from textrep.aggregate import (
    BASELINE_METHODS,
    baseline_representer,
    learned_representer,
    tfidf_cosine_distance,
    tfidf_representer,
)
from textrep.evaluate import evaluate_method, pair_distances
from textrep.learn import TrainConfig, train
from textrep.pairgen import TextPair
from textrep.textprep import NormalizedText

GOLDEN = Path(__file__).with_name("golden.json")
RTOL = 1e-12


def compute_golden() -> dict:
    table, idf, pairs = make_pairs(n_related=150, n_nonrelated=150, seed=3)
    # Out-of-vocabulary tokens in every third pair, and one all-OOV pair
    # per split, so filtering and the unrepresentable count are pinned too.
    pairs = [
        TextPair(NormalizedText(p.text_a.tokens + (f"oov{i}",)), p.text_b,
                 p.label) if i % 3 == 0 else p
        for i, p in enumerate(pairs)
    ]
    train_p, val_p, test_p = split_pairs(pairs, seed=5)
    all_oov = TextPair(NormalizedText(("oov",)), test_p[0].text_b, +1)
    val_p, test_p = val_p + [all_oov], test_p + [all_oov]
    config = TrainConfig(max_epochs=3, batch_size=50)
    model, _ = train(train_p, table, idf, config)

    methods = {"learned": (learned_representer(table, idf, model), "euclidean")}
    for method in BASELINE_METHODS:
        methods[method] = (baseline_representer(table, idf, method), "euclidean")
    methods["tfidf"] = (tfidf_representer(idf), tfidf_cosine_distance)
    for method in ("mean", "minmax_top30"):
        methods[f"{method}:cosine"] = (baseline_representer(table, idf, method),
                                       "cosine")

    out = {"weights": model.weights.tolist(), "methods": {}}
    for name, (representer, metric) in methods.items():
        entry = {}
        for split, subset in (("val", val_p), ("test", test_p)):
            distances, _ = pair_distances(subset, representer, metric)
            representable = np.isfinite(distances)
            entry[f"{split}_distances"] = distances[representable].tolist()
            entry[f"{split}_unrepresentable"] = int((~representable).sum())
        report = evaluate_method(test_p, representer, metric,
                                 method_name=name, val_pairs=val_p)
        entry["theta"] = report.theta
        entry["split_error"] = report.split_error
        entry["n_pairs"] = report.n_pairs
        out["methods"][name] = entry
    return out


def test_numerics_match_golden():
    expected = json.loads(GOLDEN.read_text())
    got = compute_golden()
    np.testing.assert_allclose(got["weights"], expected["weights"],
                               rtol=RTOL, atol=0)
    assert got["methods"].keys() == expected["methods"].keys()
    for name, want in expected["methods"].items():
        have = got["methods"][name]
        for split in ("val", "test"):
            assert (have[f"{split}_unrepresentable"]
                    == want[f"{split}_unrepresentable"]), name
            np.testing.assert_allclose(
                have[f"{split}_distances"], want[f"{split}_distances"],
                rtol=RTOL, atol=0, err_msg=f"{name} {split}",
            )
        np.testing.assert_allclose(have["theta"], want["theta"],
                                   rtol=RTOL, atol=0, err_msg=name)
        assert have["split_error"] == want["split_error"], name
        assert have["n_pairs"] == want["n_pairs"], name


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute_golden(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
