"""The library surface that the benchmark in ``perfbench/`` relies on.

``perfbench/tracer.py`` wraps textrep functions by module and name, and
``perfbench/workloads.library_round`` calls the library directly.  A
renamed function would make a traced run report it as absent, and a
changed signature would fail every benchmark round, so both are pinned
here.  ``tracer.py`` is only read, never changed.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from textrep import aggregate
from textrep.aggregate import (
    BASELINE_METHODS,
    WeightModel,
    baseline_representer,
    learned_representer,
)
from textrep.evaluate import evaluate_method
from textrep.learn import (
    TrainConfig,
    grid_search_kappa,
    prepare_couples,
    train_couples,
)
from textrep.textprep import normalize

from synth import make_pairs, split_pairs

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_callable():
    tracer = load_tracer()
    absent = [
        f"{module}.{name}"
        for table in (tracer.SPANNED, tracer.COUNTED)
        for module, names in table.items()
        for name in names
        if not callable(
            getattr(importlib.import_module(f"textrep.{module}"), name, None))
    ]
    assert absent == []


def test_library_round_calls():
    table, idf, pairs = make_pairs(n_related=60, n_nonrelated=60, seed=4)
    train_p, val_p, test_p = split_pairs(pairs)
    config = TrainConfig(batch_size=10)

    couples = prepare_couples(train_p, table, idf, config.n_max)
    assert len(couples) == len(train_p)
    model, epochs = train_couples(couples, config)
    assert len(epochs) >= 1 and np.all(np.isfinite(model.weights))

    best, scores = grid_search_kappa(
        train_p, table, idf, dataclasses.replace(config, max_epochs=2),
        grid=(40.0, 160.0), folds=2)
    assert best in scores and set(scores) == {40.0, 160.0}

    report = evaluate_method(
        test_p, learned_representer(table, idf, model), model.metric,
        method_name="learned", val_pairs=val_p)
    assert report.n_pairs == len(test_p)
    assert report.unrepresentable_count == 0
    for method in BASELINE_METHODS:
        baseline = evaluate_method(
            test_p, baseline_representer(table, idf, method), "euclidean",
            method_name=method, val_pairs=val_p)
        assert 0.0 <= baseline.split_error <= 1.0

    represent = learned_representer(table, idf, model)
    vector = represent(normalize("T0W0 and S0!")).vector
    assert vector.shape == (table.dimension,)
    assert np.all(np.isfinite(vector))


def test_representer_batches_reach_traced_entry_points(monkeypatch):
    # The tracer spans aggregate.represent_learned and represent_baseline,
    # and names a baseline's span by represent_baseline's 4th positional
    # argument, so a representer's batch must call both through
    # aggregate's module globals, with the method passed positionally.
    calls = []

    def recorder(name):
        original = getattr(aggregate, name)

        def record(*args, **kwargs):
            calls.append((name, args[3] if len(args) > 3 else None, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(aggregate, name, record)

    recorder("represent_learned")
    recorder("represent_baseline")
    table, idf, pairs = make_pairs(n_related=4, n_nonrelated=4, seed=4)
    texts = [pair.text_a for pair in pairs]
    model = WeightModel(n_max=3, weights=np.ones(3))

    learned_representer(table, idf, model).batch(texts)
    assert calls == [("represent_learned", None, {})]
    for method in BASELINE_METHODS:
        calls.clear()
        baseline_representer(table, idf, method).batch(texts)
        assert calls == [("represent_baseline", method, {})]
