"""The benchmark's three workloads and their correctness checks.

``train`` and ``eval`` call the textrep library in this process; a round
is training, kappa search, then scoring, baselines and single-text
embedding, each timed on its own.  ``pipeline`` runs the CLI stages as a user does,
one process per stage, or in this process through ``textrep.cli.dispatch``
when traced.  Every textrep function is reached through its module
attribute at call time, so the tracer's wrappers see each call.
"""

from __future__ import annotations

import contextlib
import dataclasses
from contextlib import nullcontext
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

GRID = (40.0, 160.0)
FOLDS = 2
# Scoring is short next to training, so each round scores this many times
# to give its throughput medians more samples.
SCORING_REPEATS = 2
# Kappa search and the CLI's small trainings stop at this many epochs, so
# they do a fixed amount of work on every seed; only the train workload's
# main training runs to convergence.
CAPPED_EPOCHS = 6
PROCESS_TIMEOUT_S = 150


class CheckFailed(Exception):
    """A correctness check failed; the run stops and reports incorrect."""


@dataclass
class Ledger:
    """Operations attempted and failed, plus every correctness check."""

    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def call(self, what, func, *args, **kwargs):
        self.attempted += 1
        try:
            return func(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            self.errors.append(f"{what}: {exc!r}")
            raise

    def check(self, name: str, ok: bool, detail="") -> None:
        self.attempted += 1
        self.checks.append({"name": name, "ok": bool(ok), "detail": str(detail)})
        if not ok:
            self.failed += 1
            raise CheckFailed(f"{name}: {detail}")


def median(values):
    return float(np.median(values))


# ---------------------------------------------------------------------------
# library workloads: train and eval
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LibrarySpec:
    baselines: tuple  # baseline methods scored
    grid_pairs: int  # size of the fixed train-split prefix kappa search uses
    fixed_model: bool  # score the generated model instead of the trained one


def library_spec(workload: str) -> LibrarySpec:
    from textrep import aggregate

    if workload == "train":
        return LibrarySpec(baselines=("mean",), grid_pairs=1000,
                           fixed_model=False)
    return LibrarySpec(baselines=aggregate.BASELINE_METHODS, grid_pairs=1200,
                       fixed_model=True)


@dataclass
class Tables:
    table: object
    idf: object
    pairs: dict
    model: object
    embed_texts: list


def library_setup(inputs: str, ledger: Ledger, with_model: bool) -> Tables:
    """Read the embedding, df and pair files (and the model) into tables."""
    from textrep import aggregate, embeddings, pairgen

    def read(name, loader):
        with open(os.path.join(inputs, name), encoding="utf-8") as fh:
            return ledger.call(f"load {name}", loader, fh)

    table = read("emb.txt", embeddings.load_embeddings)
    doc_freq, corpus_size = read("df.tsv", embeddings.load_doc_freq)
    idf = embeddings.compute_idf(doc_freq, corpus_size)
    pairs = {s: read(f"{s}.tsv", pairgen.load_pairs)
             for s in ("train", "val", "test")}
    model = None
    if with_model:
        model = ledger.call("load model", aggregate.load_model,
                            os.path.join(inputs, "model.json"))
    with open(os.path.join(inputs, "embed.txt"), encoding="utf-8") as fh:
        embed_texts = [line.rstrip("\n") for line in fh]
    return Tables(table, idf, pairs, model, embed_texts)


def library_round(t: Tables, spec: LibrarySpec, planted: dict,
                  ledger: Ledger) -> dict:
    """One round of a library workload: a fresh training, a kappa search,
    then the scoring operations SCORING_REPEATS times.  Returns the wall
    time of each operation, the work each one counts, and the outputs."""
    from textrep import aggregate, evaluate, learn, textprep

    config = learn.TrainConfig()
    train_p, val_p, test_p = t.pairs["train"], t.pairs["val"], t.pairs["test"]
    times = {op: [] for op in ("train", "grid-kappa", "eval", "baseline-eval",
                               "embed")}

    start = time.perf_counter()
    couples = ledger.call("prepare_couples", learn.prepare_couples,
                          train_p, t.table, t.idf, config.n_max)
    model, epochs = ledger.call("train_couples", learn.train_couples,
                                couples, config)
    del couples
    times["train"].append(time.perf_counter() - start)
    ledger.check("weights finite", np.all(np.isfinite(model.weights)),
                 model.weights.tolist())

    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        best, scores = ledger.call(
            "grid_search_kappa", learn.grid_search_kappa,
            train_p[: spec.grid_pairs], t.table, t.idf,
            dataclasses.replace(config, max_epochs=CAPPED_EPOCHS),
            grid=GRID, folds=FOLDS)
    times["grid-kappa"].append(time.perf_counter() - start)
    # A fold that raised is scored 1.0 with a warning; count it as failed.
    ledger.attempted += FOLDS * len(GRID)
    ledger.failed += len(caught)
    ledger.errors += [str(w.message) for w in caught]
    ledger.check("grid scores in [0, 1]",
                 best in GRID and all(0.0 <= s <= 1.0 for s in scores.values()),
                 scores)

    scored = t.model if spec.fixed_model else model
    dim = t.table.dimension
    for _ in range(SCORING_REPEATS):
        start = time.perf_counter()
        report = ledger.call(
            "evaluate_method learned", evaluate.evaluate_method, test_p,
            aggregate.learned_representer(t.table, t.idf, scored),
            scored.metric, method_name="learned", val_pairs=val_p)
        times["eval"].append(time.perf_counter() - start)

        start = time.perf_counter()
        baselines = {}
        for method in spec.baselines:
            baselines[method] = ledger.call(
                f"evaluate_method {method}", evaluate.evaluate_method, test_p,
                aggregate.baseline_representer(t.table, t.idf, method),
                "euclidean", method_name=method, val_pairs=val_p)
        times["baseline-eval"].append(time.perf_counter() - start)

        start = time.perf_counter()
        represent = aggregate.learned_representer(t.table, t.idf, scored)
        vectors = [ledger.call("embed", lambda raw: represent(
            textprep.normalize(raw)).vector, raw) for raw in t.embed_texts]
        times["embed"].append(time.perf_counter() - start)

        for name, rep in [("learned", report)] + list(baselines.items()):
            ledger.check(f"{name}: unrepresentable_count == planted",
                         rep.unrepresentable_count == planted["test"]
                         and rep.n_pairs == len(test_p),
                         f"{rep.unrepresentable_count} vs {planted['test']}")
        ledger.check("learned split_error < mean split_error",
                     report.split_error < baselines["mean"].split_error,
                     f"{report.split_error} vs {baselines['mean'].split_error}")
        ledger.check("embedded vectors finite, one per text",
                     len(vectors) == len(t.embed_texts) and all(
                         v.shape == (dim,) and np.all(np.isfinite(v))
                         for v in vectors), len(vectors))

    scored_pairs = len(val_p) + len(test_p)
    return {
        "times": times,
        "counts": {"eval": scored_pairs,
                   "baseline-eval": scored_pairs * len(spec.baselines),
                   "embed": len(t.embed_texts)},
        "weights": model.weights.tolist(),
        "epochs": len(epochs),
        "kappa_best": best,
        "split_error": report.split_error,
        "baseline_split_error": {m: r.split_error for m, r in baselines.items()},
        "theta": report.theta,
    }


# ---------------------------------------------------------------------------
# pipeline workload
# ---------------------------------------------------------------------------

PAIR_COUNTS = {"train": 400, "val": 800, "test": 1200}  # pairs per label
LAUNCH = "from textrep.cli import main; main()"


def pipeline_stages(embed_text: str) -> list[tuple[str, list[str]]]:
    """(stage name, CLI argv) in run order; paths relative to the inputs."""
    common = ["--emb", "emb.txt", "--df", "df.tsv"]
    capped = ["--max-epochs", str(CAPPED_EPOCHS)]
    stages = [("idf-build", ["idf-build", "--corpus", "corpus.txt",
                             "--out", "df.tsv"])]
    for k, (split, count) in enumerate(PAIR_COUNTS.items(), start=1):
        stages.append((f"pairs-wiki-{split}", [
            "pairs-wiki", "--corpus", "corpus.txt", "--out", f"{split}.tsv",
            "--count", str(count), "--nmin", "10", "--nmax", "30",
            "--seed", str(k)]))
    stages += [
        ("train", ["train", "--pairs", "train.tsv", *common, *capped,
                   "--out", "model.json", "--log", "epochs.tsv"]),
        ("grid-kappa", ["grid-kappa", "--pairs", "train.tsv", *common,
                        *capped, "--grid", ",".join(f"{k:g}" for k in GRID),
                        "--folds", str(FOLDS), "--out", "kappa.json"]),
        ("eval", ["eval", "--pairs", "test.tsv", "--val", "val.tsv",
                  "--model", "model.json", *common, "--report", "eval.json",
                  "--hist", "eval.csv"]),
        ("baseline-eval", ["baseline-eval", "--pairs", "test.tsv",
                           "--val", "val.tsv", *common, "--method", "tfidf",
                           "--report", "tfidf.json"]),
        ("embed", ["embed", *common, "--model", "model.json",
                   "--text", embed_text]),
    ]
    return stages


STAGES = [name for name, _ in pipeline_stages("")]
# Stages whose times are metrics of their own; rounds after the first
# re-run only these, so each gets more than one sample in a run.
REPEATED_STAGES = ("train", "grid-kappa", "eval", "baseline-eval", "embed")


@dataclass
class Process:
    code: int
    wall_s: float
    max_rss_kb: int
    stdout: str
    stderr: str


def run_process(argv, cwd, env=None, timeout=PROCESS_TIMEOUT_S) -> Process:
    """Run a child to completion; its wall time and its own peak RSS.

    Output goes to files in ``cwd`` rather than pipes, so the child can be
    reaped with ``os.wait4``, which returns the child's own resource usage.
    """
    out_path = os.path.join(cwd, ".stage.out")
    err_path = os.path.join(cwd, ".stage.err")
    with open(os.devnull, "rb") as devnull, open(out_path, "wb") as out, \
            open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=devnull,
                                stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Process(proc.returncode, wall, usage.ru_maxrss, stdout, stderr)


def cli_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env.pop("PYTHONHOME", None)
    return env


def pipeline_setup(src: str, cwd: str, ledger: Ledger) -> float:
    """One CLI process start through ``import textrep.cli``."""
    proc = ledger.call("textrep --version", run_process,
                       [sys.executable, "-c", LAUNCH, "--version"], cwd,
                       cli_env(src))
    ledger.check("--version exits 0", proc.code == 0, proc.stderr[-500:])
    return proc.wall_s


def in_process_stage(argv) -> Process:
    """One stage through ``textrep.cli.dispatch`` in this process."""
    from textrep import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.dispatch(argv)
    return Process(code, time.perf_counter() - start, 0, out.getvalue(),
                   err.getvalue())


def parses_as_vector(text: str) -> bool:
    try:
        values = [float(v) for v in text.strip().split(",")]
    except ValueError:
        return False
    return len(values) > 1 and all(math.isfinite(v) for v in values)


def pipeline_round(src: str, inputs: str, ledger: Ledger, full=True,
                   in_process=False, tracer=None) -> dict:
    """The CLI stages once, each its own process unless ``in_process``.

    A round that is not ``full`` re-runs only the stages whose times are
    metrics of their own, on the files the first round wrote.  ``tracer``
    records a span per stage.
    """
    with open(os.path.join(inputs, "embed.txt"), encoding="utf-8") as fh:
        embed_text = fh.readline().rstrip("\n")
    times = {}
    peak_kb = 0
    outputs = {}
    cwd = os.getcwd()
    for stage, argv in pipeline_stages(embed_text):
        if not full and stage not in REPEATED_STAGES:
            continue
        if not in_process:
            proc = ledger.call(stage, run_process,
                               [sys.executable, "-c", LAUNCH, *argv],
                               inputs, cli_env(src))
        else:
            span = tracer.span(f"cli.{stage}") if tracer else nullcontext()
            os.chdir(inputs)
            try:
                with span:
                    proc = ledger.call(stage, in_process_stage, argv)
            finally:
                os.chdir(cwd)
        ledger.check(f"{stage} exits 0", proc.code == 0, proc.stderr[-500:])
        times[stage] = [proc.wall_s]
        peak_kb = max(peak_kb, proc.max_rss_kb)
        outputs[stage] = proc.stdout

    reports = {}
    for name in ("model.json", "kappa.json", "eval.json", "tfidf.json"):
        try:
            with open(os.path.join(inputs, name), encoding="utf-8") as fh:
                reports[name] = json.load(fh)
            ok = True
        except (OSError, ValueError) as exc:
            ok, reports[name] = False, repr(exc)
        ledger.check(f"{name} parses", ok, reports[name] if not ok else "")
    weights = reports["model.json"]["weights"]
    ledger.check("weights finite", all(math.isfinite(w) for w in weights),
                 weights)
    n_scored = {}
    for split in ("val", "test"):
        with open(os.path.join(inputs, f"{split}.tsv"), encoding="utf-8") as fh:
            n_scored[split] = sum(1 for line in fh if line.strip())
    for name in ("eval.json", "tfidf.json"):
        rep = reports[name]
        ledger.check(f"{name} scores every test pair",
                     rep["n_pairs"] == n_scored["test"]
                     and 0.0 <= rep["split_error"] <= 1.0, rep["n_pairs"])
    ledger.check("embed prints one finite vector",
                 parses_as_vector(outputs["embed"]), outputs["embed"][:200])
    scored = n_scored["val"] + n_scored["test"]
    return {
        "times": times,
        "counts": {"eval": scored, "baseline-eval": scored, "embed": 1},
        "peak_rss_kb": peak_kb,
        "weights": weights,
        "epochs": reports["model.json"]["metadata"]["epochs"],
        "kappa_best": reports["kappa.json"]["kappa_best"],
        "split_error": reports["eval.json"]["split_error"],
        "baseline_split_error": {"tfidf": reports["tfidf.json"]["split_error"]},
        "theta": reports["eval.json"]["theta"],
    }
