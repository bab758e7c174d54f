import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings

import textrep
from textrep.aggregate import tfidf_cosine_distance, tfidf_vector
from textrep.cli import TRAIN_FLAGS, build_parser, dispatch
from textrep.embeddings import (
    compute_idf,
    load_doc_freq,
    save_doc_freq,
)
from textrep.evaluate import (
    distance_histograms,
    js_divergence,
    optimal_split,
    split_error,
)
from textrep.learn import TrainConfig
from textrep.pairgen import load_pairs, save_pairs

from synth import (
    CORPUS_SIZE,
    DOC_FREQ,
    make_pairs,
    save_embeddings,
    split_pairs,
)
from generated import (
    DF_FILES,
    EMBEDDING_FILES,
    MODEL_FILES,
    PAIR_FILES,
    TWEET_FILES,
    generated,
    storm_and_quake_tweets,
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Embedding, df and pair files for a small synthetic world."""
    root = tmp_path_factory.mktemp("cli")
    table, _, pairs = make_pairs(n_related=300, n_nonrelated=300, seed=13)
    train_p, val_p, test_p = split_pairs(pairs)

    with open(root / "vec.txt", "w") as fh:
        save_embeddings(table, fh)
    with open(root / "df.tsv", "w") as fh:
        save_doc_freq(DOC_FREQ, CORPUS_SIZE, fh)
    for name, split in (("train", train_p), ("val", val_p), ("test", test_p)):
        with open(root / f"{name}.tsv", "w") as fh:
            save_pairs(split, fh)
    return root


def run(*argv):
    return dispatch([str(a) for a in argv])


class TestIdfBuild:
    def test_builds_df_tsv(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("the cat sat\nthe dog ran\n\nthe bird flew\n")
        out = tmp_path / "df.tsv"
        assert run("idf-build", "--corpus", corpus, "--out", out) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "N\t3"
        assert "the\t3" in lines
        assert "cat\t1" in lines
        assert (tmp_path / "df.tsv.manifest.json").exists()

    def test_takes_no_seed(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("the cat sat\n")
        out = tmp_path / "df.tsv"
        assert run("idf-build", "--corpus", corpus, "--out", out,
                   "--seed", 1) == 1
        assert run("idf-build", "--corpus", corpus, "--out", out) == 0
        manifest = json.loads((tmp_path / "df.tsv.manifest.json").read_text())
        assert manifest["seed"] is None

    def test_manifest_records_peak_rss(self, tmp_path, monkeypatch):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("the cat sat\n")
        out = tmp_path / "df.tsv"
        manifest = tmp_path / "df.tsv.manifest.json"
        assert run("idf-build", "--corpus", corpus, "--out", out) == 0
        import resource

        # ru_maxrss only grows; the manifest rounds it to 0.1 MB.
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        peak_mb = peak / (1 << (20 if sys.platform == "darwin" else 10))
        recorded = json.loads(manifest.read_text())["peak_rss_mb"]
        assert 0 < recorded <= peak_mb + 0.05
        monkeypatch.setitem(sys.modules, "resource", None)  # no such module
        assert run("idf-build", "--corpus", corpus, "--out", out) == 0
        assert json.loads(manifest.read_text())["peak_rss_mb"] is None

    def test_missing_corpus_is_data_error(self, tmp_path):
        assert run("idf-build", "--corpus", tmp_path / "nope.txt",
                   "--out", tmp_path / "o.tsv") == 2

    def test_corpus_without_documents_names_the_file(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("\n  \n\t\n")
        assert run("idf-build", "--corpus", corpus,
                   "--out", tmp_path / "o.tsv") == 2
        assert capsys.readouterr().err == (
            f"error: {corpus}: corpus contains no documents\n")
        assert not (tmp_path / "o.tsv").exists()


class TestUsageErrors:
    def test_unknown_flag(self, tmp_path):
        assert run("idf-build", "--corpus", "x", "--out", "y",
                   "--bogus-flag") == 1

    def test_unknown_subcommand(self):
        assert run("frobnicate") == 1


class TestPairsWiki:
    def test_deterministic_output(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        words = " ".join(f"w{c}" for c in "abcdefghijklmnopqrstuvwxyz")
        corpus.write_text(f"{words} {words}\n\n{words} {words}\n")
        out1, out2 = tmp_path / "p1.tsv", tmp_path / "p2.tsv"
        for out in (out1, out2):
            assert run("pairs-wiki", "--corpus", corpus, "--out", out,
                       "--count", 5, "--nmin", 10, "--nmax", 20,
                       "--seed", 3) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().split("\n")
        assert len(lines) == 10
        labels = [line.split("\t")[0] for line in lines]
        assert labels.count("1") == labels.count("0") == 5

    def test_generation_error_names_the_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a b c\n\nd e f\n")
        out = tmp_path / "p.tsv"
        assert run("pairs-wiki", "--corpus", corpus, "--out", out,
                   "--count", 2, "--nmin", 10, "--nmax", 20) == 2
        assert capsys.readouterr().err == (
            f"error: {corpus}: only 0 of 2 related pairs extractable; "
            f"paragraphs are too short for the requested lengths\n")
        assert not out.exists()


def nested_model() -> str:
    """A model file whose metadata nests lists 5000 deep."""
    return ('{"n_max": 1, "weights": [1.0], "metadata": '
            + "[" * 5000 + "]" * 5000 + "}")


class TestPairsTweets:
    def test_end_to_end(self, tmp_path):
        tweets = tmp_path / "tweets.jsonl"
        tweets.write_text(storm_and_quake_tweets())
        out = tmp_path / "pairs.tsv"
        assert run("pairs-tweets", "--tweets", tweets, "--out", out,
                   "--count", 4, "--seed", 1) == 0
        assert len(out.read_text().strip().split("\n")) == 8

    def test_generation_error_names_the_tweet_file(self, tmp_path, capsys):
        tweets = tmp_path / "tweets.jsonl"
        tweets.write_text(json.dumps(
            {"text": "a b #x", "hashtags": ["x"], "timestamp": 0}) + "\n")
        out = tmp_path / "p.tsv"
        assert run("pairs-tweets", "--tweets", tweets, "--out", out,
                   "--count", 1) == 2
        assert capsys.readouterr().err == (
            f"error: {tweets}: need at least two tweets\n")
        assert not out.exists()


class TestTrainEval:
    def test_train_writes_model_and_log(self, workdir, tmp_path):
        model_path = tmp_path / "model.json"
        log_path = tmp_path / "epochs.tsv"
        assert run(
            "train", "--pairs", workdir / "train.tsv",
            "--emb", workdir / "vec.txt", "--df", workdir / "df.tsv",
            "--loss", "median", "--kappa", 160, "--nmax", 30,
            "--batch", 20, "--max-epochs", 10,
            "--out", model_path, "--log", log_path,
        ) == 0
        doc = json.loads(model_path.read_text())
        assert doc["n_max"] == 30
        assert len(doc["weights"]) == 30
        assert doc["metadata"]["loss"] == "median"
        log_lines = log_path.read_text().strip().split("\n")
        assert log_lines[0] == "epoch\tmean_loss\teta\twall_seconds"
        assert len(log_lines) >= 2
        assert (tmp_path / "model.json.manifest.json").exists()

    def test_train_determinism_byte_identical(self, workdir, tmp_path):
        outs = []
        for name in ("m1.json", "m2.json"):
            path = tmp_path / name
            assert run(
                "train", "--pairs", workdir / "train.tsv",
                "--emb", workdir / "vec.txt", "--df", workdir / "df.tsv",
                "--nmax", 30, "--batch", 20, "--max-epochs", 5,
                "--seed", 7, "--out", path,
            ) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_eval_report(self, workdir, tmp_path):
        model_path = tmp_path / "model.json"
        run("train", "--pairs", workdir / "train.tsv",
            "--emb", workdir / "vec.txt", "--df", workdir / "df.tsv",
            "--nmax", 30, "--batch", 20, "--max-epochs", 10,
            "--out", model_path)
        report_path = tmp_path / "report.json"
        hist_path = tmp_path / "hist.csv"
        assert run(
            "eval", "--pairs", workdir / "test.tsv",
            "--val", workdir / "val.tsv", "--model", model_path,
            "--emb", workdir / "vec.txt", "--df", workdir / "df.tsv",
            "--report", report_path, "--hist", hist_path,
        ) == 0
        report = json.loads(report_path.read_text())
        assert report["split_error"] < 0.10
        assert 0 <= report["js_divergence"] <= np.log(2) + 1e-12
        hist_lines = hist_path.read_text().strip().split("\n")
        assert hist_lines[0] == "bin_low,bin_high,count_related,count_nonrelated"
        assert len(hist_lines) == 101

    def test_baseline_eval(self, workdir, tmp_path):
        for method in ("mean", "minmax_concat", "tfidf"):
            report_path = tmp_path / f"{method}.json"
            assert run(
                "baseline-eval", "--pairs", workdir / "test.tsv",
                "--val", workdir / "val.tsv",
                "--emb", workdir / "vec.txt", "--df", workdir / "df.tsv",
                "--method", method, "--report", report_path,
            ) == 0
            report = json.loads(report_path.read_text())
            assert 0.0 <= report["split_error"] <= 1.0

    def test_baseline_eval_tfidf_report(self, workdir, tmp_path):
        report_path = tmp_path / "tfidf.json"
        assert run(
            "baseline-eval", "--pairs", workdir / "test.tsv",
            "--val", workdir / "val.tsv",
            "--emb", workdir / "vec.txt", "--df", workdir / "df.tsv",
            "--method", "tfidf", "--bins", 20, "--report", report_path,
        ) == 0
        with open(workdir / "df.tsv") as fh:
            idf = compute_idf(*load_doc_freq(fh))

        def samples(split):
            with open(workdir / f"{split}.tsv") as fh:
                pairs = load_pairs(fh)
            return [
                (tfidf_cosine_distance(tfidf_vector(p.text_a, idf),
                                       tfidf_vector(p.text_b, idf)), p.label)
                for p in pairs
            ]

        theta, _ = optimal_split(*zip(*samples("val")))
        test = samples("test")
        distances = [d for d, _ in test]
        labels = [p for _, p in test]
        related = [d for d, p in test if p == +1]
        nonrelated = [d for d, p in test if p == -1]
        hist_r, hist_n, edges = distance_histograms(related, nonrelated, 20)
        assert json.loads(report_path.read_text()) == {
            "method_name": "tfidf",
            "theta": theta,
            "split_error": split_error(distances, labels, theta),
            "js_divergence": js_divergence(related, nonrelated, 20),
            "bin_edges": edges.tolist(),
            "histogram_related": hist_r.tolist(),
            "histogram_nonrelated": hist_n.tolist(),
            "n_pairs": len(test),
            "unrepresentable_count": 0,
        }


    def test_baseline_eval_tfidf_reads_no_embeddings(self, workdir, tmp_path):
        garbage = tmp_path / "garbage.txt"
        garbage.write_text("not an embedding file\n")
        reports = {}
        for name, emb in (("real", workdir / "vec.txt"), ("garbage", garbage)):
            reports[name] = tmp_path / f"{name}.json"
            assert run(
                "baseline-eval", "--pairs", workdir / "test.tsv",
                "--val", workdir / "val.tsv", "--emb", emb,
                "--df", workdir / "df.tsv", "--method", "tfidf",
                "--report", reports[name],
            ) == 0
        assert reports["garbage"].read_text() == reports["real"].read_text()
        manifest = json.loads(
            Path(str(reports["garbage"]) + ".manifest.json").read_text()
        )
        assert sorted(manifest["input_digests"]) == sorted(
            str(workdir / f) for f in ("test.tsv", "val.tsv", "df.tsv")
        )

    def test_baseline_eval_needs_emb_for_embedding_methods(
            self, workdir, tmp_path, capsys):
        report = tmp_path / "mean.json"
        assert run(
            "baseline-eval", "--pairs", workdir / "test.tsv",
            "--val", workdir / "val.tsv", "--df", workdir / "df.tsv",
            "--method", "mean", "--report", report,
        ) == 1
        assert ("usage error: --emb is required unless --method is tfidf"
                in capsys.readouterr().err)
        assert not report.exists()

    def test_baseline_eval_tfidf_needs_no_emb(self, workdir, tmp_path):
        reports = {}
        for name, emb in (("with", ["--emb", workdir / "vec.txt"]),
                          ("without", [])):
            reports[name] = tmp_path / f"{name}.json"
            assert run(
                "baseline-eval", "--pairs", workdir / "test.tsv",
                "--val", workdir / "val.tsv", *emb,
                "--df", workdir / "df.tsv", "--method", "tfidf",
                "--report", reports[name],
            ) == 0
        assert reports["without"].read_text() == reports["with"].read_text()


class TestGridKappa:
    def test_writes_scores(self, workdir, tmp_path):
        out = tmp_path / "kappa.json"
        assert run(
            "grid-kappa", "--pairs", workdir / "train.tsv",
            "--emb", workdir / "vec.txt", "--df", workdir / "df.tsv",
            "--grid", "80,160", "--folds", 2, "--nmax", 30,
            "--batch", 20, "--max-epochs", 5, "--out", out,
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["kappa_best"] in (80.0, 160.0)
        assert set(doc["scores"]) == {"80.0", "160.0"}

    def test_diverging_folds_warn_one_line_each(self, workdir, tmp_path):
        out = tmp_path / "kappa.json"
        proc = run_python(
            "-m", "textrep.cli", "grid-kappa",
            "--pairs", workdir / "train.tsv", "--emb", workdir / "vec.txt",
            "--df", workdir / "df.tsv", "--grid", "40,160", "--folds", "2",
            "--eta", "1e300", "--eta-reduced", "1e299", "--max-epochs", "3",
            "--nmax", "30", "--batch", "20", "--out", out)
        *warned, summary = proc.stderr.splitlines()
        failed = [re.fullmatch(r"warning: fold (\d) failed for kappa=(\S+): "
                               r"non-finite loss at epoch \d+, batch \d+; "
                               r"weights=\[[^]]*\]", line) for line in warned]
        assert all(failed), warned
        assert [match.groups() for match in failed] == [
            ("0", "40.0"), ("1", "40.0"), ("0", "160.0"), ("1", "160.0")]
        assert not [line for line in proc.stderr.splitlines()
                    if "learn.py:" in line or "warnings.warn(" in line]
        assert summary == "kappa_best=40.0"
        assert json.loads(out.read_text())["kappa_best"] == 40.0

    @pytest.mark.parametrize("flags, message", [
        (("--folds", 151),
         "151 folds need at least 151 couples per label, "
         "got 150 related / 150 non-related"),
        (("--folds", 2, "--batch", 160),
         "batch 160 needs at least 80 couples per label in every training "
         "split, but with 2 folds the smallest keeps 75 related / "
         "75 non-related"),
    ], ids=["folds", "batch"])
    def test_refuses_a_plan_that_cannot_score_every_fold(
            self, workdir, tmp_path, capsys, flags, message):
        assert run(
            "grid-kappa", "--pairs", workdir / "train.tsv",
            "--emb", workdir / "vec.txt", "--df", workdir / "df.tsv",
            "--grid", "80,160", "--nmax", 30, "--batch", 20,
            "--max-epochs", 5, *flags, "--out", tmp_path / "kappa.json",
        ) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


class TestEmbed:
    def test_baseline_embedding_csv(self, workdir, capsys):
        assert run("embed", "--emb", workdir / "vec.txt",
                   "--df", workdir / "df.tsv", "--method", "mean",
                   "--text", "t0w1 t0w2 s3") == 0
        out = capsys.readouterr().out.strip()
        assert len(out.split(",")) == 20

    def test_unrepresentable_is_data_error(self, workdir):
        assert run("embed", "--emb", workdir / "vec.txt",
                   "--df", workdir / "df.tsv", "--text", "zzz qqq") == 2

    def test_method_with_model_is_usage_error(self, workdir, tmp_path,
                                              capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({"n_max": 2, "weights": [1.0, 0.5]}))
        assert run("embed", "--emb", workdir / "vec.txt",
                   "--df", workdir / "df.tsv", "--model", model_path,
                   "--method", "max", "--text", "t0w1 s3") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("usage error: --method cannot be combined "
                                "with --model\n")

    def test_overflowing_vector_is_data_error(self, tmp_path, capsys):
        (tmp_path / "vec.txt").write_text("2 1\na 2\nb 3\n")
        (tmp_path / "df.tsv").write_text("N\t10\na\t1\nb\t2\n")
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({"n_max": 2,
                                          "weights": [1e308, 1e308]}))
        assert run("embed", "--emb", tmp_path / "vec.txt",
                   "--df", tmp_path / "df.tsv", "--model", model_path,
                   "--text", "a b") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: the representation overflows: it "
                                "has non-finite values\n")


class TestDataErrors:
    def test_bad_pair_label(self, workdir, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("1\tt0w1 s1\tt0w2 s2\nyes\tt1w1 s1\tt2w2 s2\n")
        assert run("train", "--pairs", pairs, "--emb", workdir / "vec.txt",
                   "--df", workdir / "df.tsv", "--out", tmp_path / "m.json",
                   "--nmax", 30, "--batch", 2) == 2
        assert "line 2" in capsys.readouterr().err

    def test_df_above_corpus_size(self, workdir, tmp_path, capsys):
        df = tmp_path / "df.tsv"
        df.write_text("N\t10\nt0w1\t50\n")
        assert run("embed", "--emb", workdir / "vec.txt", "--df", df,
                   "--text", "t0w1") == 2
        assert "exceeds the corpus size" in capsys.readouterr().err

    @pytest.mark.parametrize("content, message", [
        ("N\t10\nt0w1\t3\nt0w2\tx\n", "non-integer df count, line 3: 'x'"),
        ("N\tten\nt0w1\t3\n", "non-integer df count, line 1: 'ten'"),
        ("N\t10\nt0w1\t3\nt0w1\t5\n", "duplicate df token 't0w1', line 3"),
        ("N\t1_0\nt0w1\t3\n", "non-integer df count, line 1: '1_0'"),
        ("N\t10\nt0w1\t 5\n", "non-integer df count, line 2: ' 5'"),
        ("N\t10\nt0w1\t\u0663\n", "non-integer df count, line 2: '\u0663'"),
        ("N\t10\nt0w1\t-3\n", "negative document frequency for 't0w1': -3"),
    ], ids=["bad_count", "bad_corpus_size", "duplicate_token",
            "underscore", "space", "non_ascii_digit", "negative_count"])
    def test_malformed_df_row(self, workdir, tmp_path, capsys, content,
                              message):
        df = tmp_path / "df.tsv"
        df.write_text(content)
        assert run("embed", "--emb", workdir / "vec.txt", "--df", df,
                   "--text", "t0w1") == 2
        assert capsys.readouterr().err == f"error: {df}: {message}\n"
        # The model is read before the df file, and the df file before
        # the embedding file, which is never opened here.
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({"n_max": 2, "weights": [1.0, 0.5]}))
        assert run("eval", "--pairs", workdir / "test.tsv",
                   "--val", workdir / "val.tsv", "--emb", tmp_path / "absent",
                   "--df", df, "--model", model_path,
                   "--report", tmp_path / "r.json") == 2
        assert capsys.readouterr().err == f"error: {df}: {message}\n"

    def test_memory_error_is_data_error(self, workdir, tmp_path, capsys,
                                        monkeypatch):
        # Raised in place of allocating a histogram of 10**11 bins.
        import textrep.evaluate

        message = "Unable to allocate 745. GiB for an array"

        def histograms(*args):
            raise MemoryError(message)

        monkeypatch.setattr(textrep.evaluate, "distance_histograms",
                            histograms)
        report = tmp_path / "r.json"
        assert run("baseline-eval", "--pairs", workdir / "test.tsv",
                   "--val", workdir / "val.tsv", "--emb", workdir / "vec.txt",
                   "--df", workdir / "df.tsv", "--method", "mean",
                   "--bins", 10**11, "--report", report) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    def test_model_of_other_normalization_version(self, workdir, tmp_path,
                                                  capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({
            "n_max": 2, "weights": [1.0, 0.5], "metric": "euclidean",
            "normalization_version": "v999", "metadata": {},
        }))
        common = ("--emb", workdir / "vec.txt", "--df", workdir / "df.tsv",
                  "--model", model_path)
        assert run("embed", *common, "--text", "t0w1 s3") == 2
        assert "'v999'" in capsys.readouterr().err
        assert run("eval", *common, "--pairs", workdir / "test.tsv",
                   "--val", workdir / "val.tsv",
                   "--report", tmp_path / "r.json") == 2
        err = capsys.readouterr().err
        assert "'v999'" in err and "'v1'" in err
        assert not (tmp_path / "r.json").exists()

    def test_model_version_is_checked_before_the_embedding_file(
            self, workdir, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({
            "n_max": 2, "weights": [1.0, 0.5],
            "normalization_version": "v999"}))
        bad_emb = tmp_path / "emb.txt"
        bad_emb.write_text("not a header\n")
        message = (f"error: {model_path}: model was trained on normalization "
                   f"'v999', but this textrep normalizes text as 'v1'\n")
        common = ("--emb", bad_emb, "--df", workdir / "df.tsv",
                  "--model", model_path)
        assert run("embed", *common, "--text", "t0w1 s3") == 2
        assert capsys.readouterr().err == message
        assert run("eval", *common, "--pairs", workdir / "test.tsv",
                   "--val", workdir / "val.tsv",
                   "--report", tmp_path / "r.json") == 2
        assert capsys.readouterr().err == message
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("metric", ["cosine", "manhattan"])
    def test_model_of_non_euclidean_metric(self, workdir, tmp_path, capsys,
                                           metric):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({
            "n_max": 2, "weights": [1.0, 0.5], "metric": metric,
            "normalization_version": "v1", "metadata": {},
        }))
        message = (f"error: {model_path}: model metric must be "
                   f"'euclidean', got '{metric}'\n")
        common = ("--emb", workdir / "vec.txt", "--df", workdir / "df.tsv",
                  "--model", model_path)
        assert run("embed", *common, "--text", "t0w1 s3") == 2
        assert capsys.readouterr().err == message
        assert run("eval", *common, "--pairs", workdir / "test.tsv",
                   "--val", workdir / "val.tsv",
                   "--report", tmp_path / "r.json") == 2
        assert capsys.readouterr().err == message
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("doc, message", [
        ({"n_max": "2", "weights": [1.0, 0.5]}, "needs 'n_max' as an integer"),
        ({"n_max": True, "weights": [1.0]}, "needs 'n_max' as an integer"),
        ({"n_max": 2.0, "weights": [1.0, 0.5]}, "needs 'n_max' as an integer"),
        ({"weights": [1.0, 0.5]}, "needs 'n_max' as an integer"),
        ({"n_max": 2}, "needs 'weights' as a list"),
        ({"n_max": 2, "weights": {"w": 1.0}}, "needs 'weights' as a list"),
        ([2, [1.0, 0.5]], "must hold a JSON object"),
        ({"n_max": 2, "weights": ["1.5", True]},
         "needs 'weights' as a list of numbers"),
        ({"n_max": 2, "weights": [1.0, 0.5], "metadata": [1]},
         "needs 'metadata' as an object"),
    ], ids=["string_n_max", "bool_n_max", "float_n_max", "missing_n_max",
            "missing_weights", "object_weights", "not_an_object",
            "non_number_weights", "list_metadata"])
    def test_malformed_model_file(self, workdir, tmp_path, capsys, doc,
                                  message):
        model_path = tmp_path / "model.json"
        message = f"error: {model_path}: model file {message}\n"
        model_path.write_text(json.dumps(doc))
        common = ("--emb", workdir / "vec.txt", "--df", workdir / "df.tsv",
                  "--model", model_path)
        assert run("embed", *common, "--text", "t0w1 s3") == 2
        assert capsys.readouterr().err == message
        assert run("eval", *common, "--pairs", workdir / "test.tsv",
                   "--val", workdir / "val.tsv",
                   "--report", tmp_path / "r.json") == 2
        assert capsys.readouterr().err == message
        assert not (tmp_path / "r.json").exists()

    def test_deeply_nested_model_file(self, workdir, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text(nested_model())
        assert run("embed", "--emb", workdir / "vec.txt",
                   "--df", workdir / "df.tsv", "--model", model_path,
                   "--text", "t0w1 s3") == 2
        assert capsys.readouterr().err == (
            f"error: {model_path}: model file nests its JSON too deeply\n")

    def test_deeply_nested_tweet_record(self, tmp_path, capsys):
        tweets = tmp_path / "tweets.jsonl"
        good = {"text": "a b c d e #x", "hashtags": ["x"], "timestamp": 0}
        tweets.write_text(json.dumps(good) + "\n"
                          + '{"text": ' + "[" * 5000 + "]" * 5000 + "}\n")
        assert run("pairs-tweets", "--tweets", tweets,
                   "--out", tmp_path / "p.tsv", "--count", 1) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            f"error: {tweets}: malformed tweet record, line 2: ")
        assert not (tmp_path / "p.tsv").exists()

    def test_model_without_metric_is_euclidean(self, workdir, tmp_path,
                                               capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({"n_max": 2, "weights": [1.0, 0.5]}))
        assert run("embed", "--emb", workdir / "vec.txt",
                   "--df", workdir / "df.tsv", "--model", model_path,
                   "--text", "t0w1 s3") == 0
        assert len(capsys.readouterr().out.split(",")) == 20

    @pytest.mark.parametrize("record", [
        {"text": "a b c d e #x", "hashtags": ["x"]},
        [1, 2],
        {"text": "a b c d e #x", "hashtags": "x", "timestamp": 0},
        {"text": "a b c d e #x", "hashtags": {"x": 1}, "timestamp": 0},
        {"text": "a b c d e #x", "hashtags": ["x", 1], "timestamp": 0},
        {"text": 7, "hashtags": ["x"], "timestamp": 0},
        {"text": "a b c d e #x", "hashtags": ["x"], "timestamp": "900"},
        {"text": "a b c d e #x", "hashtags": ["x"], "timestamp": 12.9},
        {"text": "a b c d e #x", "hashtags": ["x"], "timestamp": True},
    ], ids=["missing_timestamp", "not_an_object", "string_hashtags",
            "object_hashtags", "non_string_hashtag", "non_string_text",
            "string_timestamp", "float_timestamp", "bool_timestamp"])
    def test_malformed_tweet_record(self, tmp_path, capsys, record):
        tweets = tmp_path / "tweets.jsonl"
        good = {"text": "a b c d e #x", "hashtags": ["x"], "timestamp": 0}
        tweets.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n")
        assert run("pairs-tweets", "--tweets", tweets,
                   "--out", tmp_path / "p.tsv", "--count", 1) == 2
        assert "line 2" in capsys.readouterr().err
        assert not (tmp_path / "p.tsv").exists()

    def test_embedding_row_count_below_header(self, workdir, tmp_path,
                                              capsys):
        lines = (workdir / "vec.txt").read_text().splitlines(keepends=True)
        emb = tmp_path / "short.txt"
        emb.write_text("".join(lines[:-1]))
        declared = int(lines[0].split()[0])
        message = f"declares {declared} rows, but the file has {declared - 1}"
        common = ("--emb", emb, "--df", workdir / "df.tsv")
        assert run("embed", *common, "--text", "t0w1") == 2
        assert message in capsys.readouterr().err
        assert run("train", *common, "--pairs", workdir / "train.tsv",
                   "--out", tmp_path / "m.json") == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("flag, command", [
        ("--emb", "embed"), ("--df", "embed"), ("--pairs", "eval"),
        ("--val", "eval"), ("--model", "eval"), ("--corpus", "idf-build"),
        ("--tweets", "pairs-tweets")])
    def test_undecodable_file_is_named(self, workdir, tmp_path, capsys, flag,
                                       command):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"n_max": 2, "weights": [1.0, 0.5]}))
        corpus, tweets = tmp_path / "corpus.txt", tmp_path / "tweets.jsonl"
        corpus.write_text("the cat sat\nthe dog ran\n")
        tweets.write_text(storm_and_quake_tweets())
        files = {"--emb": workdir / "vec.txt", "--df": workdir / "df.tsv",
                 "--pairs": workdir / "test.tsv", "--val": workdir / "val.tsv",
                 "--model": model, "--corpus": corpus, "--tweets": tweets}
        good = files[flag].read_bytes()
        bad = files[flag] = tmp_path / "bad.in"
        bad.write_bytes(good[:9] + b"\xff" + good[9:])
        out = tmp_path / "out"
        flags = {
            "embed": ("--emb", "--df", "--text", "t0w1"),
            "eval": ("--pairs", "--val", "--emb", "--df", "--model",
                     "--report", out),
            "idf-build": ("--corpus", "--out", out),
            "pairs-tweets": ("--tweets", "--out", out, "--count", 1),
        }[command]
        argv = [command]
        for item in flags:
            argv += [item, files[item]] if item in files else [item]
        assert run(*argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {bad}: not valid UTF-8 (invalid start byte)\n")
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command, flag, message", [
        ("train", "--pairs", "pair text is not normalized, line 1"),
        ("grid-kappa", "--pairs", "pair text is not normalized, line 1"),
        ("eval", "--val", "pair text is not normalized, line 1"),
        ("baseline-eval", "--val", "pair text is not normalized, line 1"),
        ("embed", "--model", "model file must hold a JSON object"),
    ], ids=["train", "grid-kappa", "eval", "baseline-eval", "embed"])
    def test_small_inputs_are_read_before_the_embedding_file(
            self, workdir, tmp_path, capsys, command, flag, message):
        bad_emb, bad_pairs = tmp_path / "emb.txt", tmp_path / "pairs.tsv"
        bad_emb.write_text("not a header\n")
        bad_pairs.write_text("1\tThe Cat\tx\n")
        model = tmp_path / "model.json"
        model.write_text("[]" if flag == "--model" else json.dumps(
            {"n_max": 2, "weights": [1.0, 0.5]}))
        common = ("--emb", bad_emb, "--df", workdir / "df.tsv")
        out = tmp_path / "out"
        argv = {
            "train": ("--pairs", bad_pairs, "--out", out),
            "grid-kappa": ("--pairs", bad_pairs, "--out", out),
            "eval": ("--pairs", workdir / "test.tsv", "--val", bad_pairs,
                     "--model", model, "--report", out),
            "baseline-eval": ("--pairs", workdir / "test.tsv",
                              "--val", bad_pairs, "--method", "mean",
                              "--report", out),
            "embed": ("--model", model, "--text", "t0w1"),
        }[command]
        assert run(command, *common, *argv) == 2
        bad = model if flag == "--model" else bad_pairs
        assert capsys.readouterr().err.startswith(f"error: {bad}: {message}")
        assert not out.exists()

    def test_nmax_below_one(self, workdir, tmp_path, capsys):
        common = ("--pairs", workdir / "train.tsv", "--emb",
                  workdir / "vec.txt", "--df", workdir / "df.tsv",
                  "--nmax", 0, "--batch", 20, "--max-epochs", 2)
        for command in ("train", "grid-kappa"):
            out = tmp_path / f"{command}.json"
            assert run(command, *common, "--out", out) == 2
            assert "n_max must be >= 1" in capsys.readouterr().err
            assert not out.exists()


# (subcommand, flag, value, error message) for out-of-range numeric flags.
OUT_OF_RANGE = [
    ("train", "--lambda", "-1", "lam must be finite and >= 0, got -1.0"),
    ("train", "--lambda", "nan", "lam must be finite and >= 0, got nan"),
    ("train", "--kappa", "0", "kappa must be finite and > 0, got 0.0"),
    ("train", "--max-epochs", "0", "max_epochs must be >= 1, got 0"),
    ("grid-kappa", "--grid", "nan,10",
     "kappa must be finite and > 0, got nan"),
    ("pairs-wiki", "--count", "-3", "count must be >= 1, got -3"),
    ("pairs-tweets", "--count", "0", "count must be >= 1, got 0"),
    ("pairs-wiki", "--nmin", "0", "invalid length range [0, 20]"),
    ("pairs-wiki", "--nmax", "3", "invalid length range [20, 3]"),
    ("grid-kappa", "--folds", "1", "folds must be >= 2, got 1"),
    ("eval", "--bins", "0", "bins must be >= 2, got 0"),
    ("baseline-eval", "--bins", "0", "bins must be >= 2, got 0"),
    ("grid-kappa", "--grid", "1,,2",
     "--grid must be comma-separated numbers, got '1,,2'"),
    ("grid-kappa", "--grid", "40,40", "kappa grid repeats 40.0"),
]
RANGE_IDS = [f"{command}{flag}={value}"
             for command, flag, value, _ in OUT_OF_RANGE]
TRAIN_CONFIG_CASES = [case[1:] for case in OUT_OF_RANGE if case[0] == "train"]
# Flags outside TrainConfig that are also checked before any input is read.
CHECKED_FIRST = [(case, id_) for case, id_ in zip(OUT_OF_RANGE, RANGE_IDS)
                 if case[1] in ("--grid", "--folds", "--bins", "--nmin",
                                "--nmax", "--count")]


class TestFlagRanges:
    """An out-of-range numeric flag exits 2 with one error line and writes
    nothing: no output, no histogram, no manifest."""

    def argv(self, workdir, tmp_path, command, flag, value,
             emb=None, pairs=None, corpus=None):
        emb = emb or workdir / "vec.txt"
        pairs = pairs or workdir / "train.tsv"
        tables = ("--emb", emb, "--df", workdir / "df.tsv")
        if command in ("train", "grid-kappa"):
            rest = ("--pairs", pairs, *tables, "--nmax", 30, "--batch", 20,
                    "--max-epochs", 2)
        elif command == "pairs-wiki":
            if corpus is None:
                corpus = tmp_path / "corpus.txt"
                corpus.write_text(" ".join(f"w{i}" for i in range(60))
                                  + "\n\n"
                                  + " ".join(f"v{i}" for i in range(60))
                                  + "\n")
            rest = ("--corpus", corpus, "--count", 5)  # a later flag wins
        elif command == "pairs-tweets":
            if corpus is None:
                corpus = tmp_path / "tweets.jsonl"
                corpus.write_text("".join(
                    json.dumps({"text": f"w{i} a b c d e", "hashtags": ["x"],
                                "timestamp": i}) + "\n" for i in range(4)))
            rest = ("--tweets", corpus, "--count", 1)
        else:
            # A test split of one label: no histogram is built to check bins.
            test = tmp_path / "related.tsv"
            lines = (workdir / "test.tsv").read_text().splitlines(True)
            test.write_text("".join(row for row in lines if row[0] == "1"))
            if command == "eval":
                model = tmp_path / "model.json"
                model.write_text(
                    json.dumps({"n_max": 2, "weights": [1.0, 0.5]}))
                method = ("--model", model)
            else:
                method = ("--method", "mean")
            rest = ("--pairs", test, "--val", workdir / "val.tsv", *method,
                    *tables, "--hist", tmp_path / "out.csv")
        out = "--report" if "eval" in command else "--out"
        return (command, *rest, out, tmp_path / "out", flag, value)

    def check_rejected(self, tmp_path, capsys, argv, message):
        before = set(tmp_path.iterdir())
        assert run(*argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert set(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command, flag, value, message", OUT_OF_RANGE,
                             ids=RANGE_IDS)
    def test_exits_2_and_writes_nothing(self, workdir, tmp_path, capsys,
                                        command, flag, value, message):
        argv = self.argv(workdir, tmp_path, command, flag, value)
        self.check_rejected(tmp_path, capsys, argv, message)

    @pytest.mark.parametrize("command", ["train", "grid-kappa"])
    @pytest.mark.parametrize("flag, value, message", TRAIN_CONFIG_CASES,
                             ids=[f"{f}={v}" for f, v, _ in TRAIN_CONFIG_CASES])
    def test_train_config_checked_before_any_input_is_read(
            self, workdir, tmp_path, capsys, command, flag, value, message):
        argv = self.argv(workdir, tmp_path, command, flag, value,
                         emb=tmp_path / "absent.txt",
                         pairs=tmp_path / "absent.tsv")
        self.check_rejected(tmp_path, capsys, argv, message)

    @pytest.mark.parametrize("command, flag, value, message",
                             [case for case, _ in CHECKED_FIRST],
                             ids=[id_ for _, id_ in CHECKED_FIRST])
    def test_range_checked_before_any_input_is_read(
            self, workdir, tmp_path, capsys, command, flag, value, message):
        absent = tmp_path / "absent.txt"
        argv = self.argv(workdir, tmp_path, command, flag, value,
                         emb=absent, corpus=absent)
        self.check_rejected(tmp_path, capsys, argv, message)


def well_formed_model(doc) -> bool:
    """Whether a model document holds what the README's model contract
    asks for."""
    if not isinstance(doc, dict):
        return False
    weights = doc.get("weights")
    return (type(doc.get("n_max")) is int and type(weights) is list and len(weights) == doc["n_max"]
            and all(type(w) in (int, float) and math.isfinite(w)
                    for w in weights)
            and doc.get("metric", "euclidean") == "euclidean"
            and doc.get("normalization_version", "v1") == "v1"
            and type(doc.get("metadata", {})) is dict)


class TestGeneratedInputs:
    """Generated df, pair, tweet, model and embedding files through
    dispatch: exit 0, or exit 2 with one error line; never an exception."""

    @pytest.fixture(scope="class")
    def gendir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("generated")

    def outcome(self, argv):
        """The exit code and stdout of a run that passed the check."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(*argv)
        lines = err.getvalue().splitlines()
        assert code == 0 or (code == 2 and len(lines) == 1
                             and lines[0].startswith("error: ")), (code, lines)
        return code, out.getvalue()

    @settings(max_examples=150, deadline=None)
    @given(text=DF_FILES)
    def test_df_file(self, workdir, gendir, text):
        df = gendir / "df.tsv"
        df.write_text(text, encoding="utf-8")
        code, _ = self.outcome(("embed", "--emb", workdir / "vec.txt",
                                "--df", df, "--text", "t0w1 s1"))
        if code == 0:  # every count was read as written: ASCII digits
            rows = [line.split("\t") for line in text.split("\n")
                    if line.strip()]
            assert all(re.fullmatch(r"[+-]?[0-9]+", count)
                       for _, count in rows)

    @settings(max_examples=150, deadline=None)
    @given(text=PAIR_FILES)
    def test_pair_file(self, workdir, gendir, text):
        pairs = gendir / "pairs.tsv"
        pairs.write_text(text, encoding="utf-8")
        self.outcome(("baseline-eval", "--method", "mean", "--pairs", pairs,
                      "--val", pairs, "--emb", workdir / "vec.txt",
                      "--df", workdir / "df.tsv",
                      "--report", gendir / "report.json"))

    @settings(max_examples=150, deadline=None)
    @given(text=generated(MODEL_FILES))
    @example(text=nested_model())
    def test_model_file(self, workdir, gendir, text):
        model_path = gendir / "model.json"
        model_path.write_text(text, encoding="utf-8")
        code, out = self.outcome(("embed", "--emb", workdir / "vec.txt",
                                  "--df", workdir / "df.tsv",
                                  "--model", model_path, "--text", "t0w1 s1"))
        if code == 0:  # the model was well formed; its vector is finite
            assert well_formed_model(json.loads(text))
            values = [float(v) for v in out.split(",")]
            assert len(values) == 20 and all(map(math.isfinite, values))

    @settings(max_examples=150, deadline=None)
    @given(text=TWEET_FILES)
    @example(text=storm_and_quake_tweets())
    def test_tweet_file(self, gendir, text):
        tweets, out = gendir / "tweets.jsonl", gendir / "tweets.tsv"
        tweets.write_text(text, encoding="utf-8")
        code, _ = self.outcome(("pairs-tweets", "--tweets", tweets,
                                "--out", out, "--count", 2))
        if code == 0:  # every record was read as written; 2 pairs per label
            with open(tweets, encoding="utf-8") as fh:
                docs = [json.loads(line) for line in fh if line.strip()]
            assert all(isinstance(doc["text"], str)
                       and isinstance(doc["hashtags"], list)
                       and all(isinstance(t, str) for t in doc["hashtags"])
                       and type(doc["timestamp"]) is int for doc in docs)
            with open(out, encoding="utf-8") as fh:
                labels = sorted(pair.label for pair in load_pairs(fh))
            assert labels == [-1, -1, 1, 1]

    @settings(max_examples=150, deadline=None)
    @given(data=EMBEDDING_FILES)
    def test_embedding_file(self, workdir, gendir, data):
        emb = gendir / "emb.txt"
        emb.write_bytes(data)
        code, out = self.outcome(("embed", "--emb", emb,
                                  "--df", workdir / "df.tsv",
                                  "--text", "ab cd"))
        if code == 0:  # UTF-8 under a header of two ASCII integers
            header = data.decode("utf-8").split("\n", 1)[0]
            assert re.fullmatch(r"[+-]?[0-9]+ [0-9]+", header)
            assert all(map(math.isfinite, map(float, out.split(","))))


README = Path(__file__).resolve().parents[1] / "README.md"


def numeric_flag_table():
    """{(subcommand, flag): default cell} from the README's table of
    numeric flags."""
    text = README.read_text()
    start = text.index("| flag | subcommands | default | allowed |")
    rows = {}
    for line in text[start:].splitlines()[2:]:
        if not line.startswith("|"):
            break
        flags, commands, default, _ = (cell.strip() for cell in
                                       line.strip("|").split("|"))
        for flag in re.findall(r"--[a-z-]+", flags):
            for command in re.findall(r"[a-z-]+", commands):
                rows[command, flag] = default
    return rows


def parser_flags():
    """{(subcommand, flag): argparse action} over every subcommand."""
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {(name, action.option_strings[0]): action
            for name, sub in subparsers.choices.items()
            for action in sub._actions if action.option_strings}


class TestReadmeFlagTable:
    def test_lists_every_numeric_flag(self):
        numeric = {key for key, action in parser_flags().items()
                   if action.type in (int, float) or key[1] == "--grid"}
        assert set(numeric_flag_table()) == numeric

    def test_defaults_match_the_parser_and_train_config(self):
        actions = parser_flags()
        config = TrainConfig()
        fields = {flag: field for flag, field, _ in TRAIN_FLAGS}
        fields["--seed"] = "seed"
        for (command, flag), cell in numeric_flag_table().items():
            default = actions[command, flag].default
            if cell == "required":
                assert actions[command, flag].required, (command, flag)
            elif isinstance(default, str):
                assert cell == default, (command, flag)
            else:
                assert float(cell) == default, (command, flag)
            if command == "train" and flag in fields:
                assert getattr(config, fields[flag]) == default, flag


def run_python(*args):
    """Run a fresh interpreter that imports textrep from this checkout."""
    src = str(Path(textrep.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH")))
    )
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, check=True)


class TestImport:
    def test_loads_no_scipy(self):
        code = ("import sys, textrep.cli; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        assert run_python("-c", code).stdout.strip() == "[]"

    def test_adds_only_stdlib_modules_beyond_numpy(self):
        # The import a CLI launch pays for: textrep's own modules and the
        # standard library, nothing else past numpy.
        code = ("import sys, numpy; before = set(sys.modules); "
                "import textrep.cli; "
                "print(sorted(m for m in set(sys.modules) - before "
                "if m.split('.')[0] not in sys.stdlib_module_names "
                "and m.split('.')[0] != 'textrep'))")
        assert run_python("-c", code).stdout.strip() == "[]"

    def test_stages_without_array_math_load_no_numpy(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        words = " ".join(f"w{c}" for c in "abcdefghijklmnopqrstuvwxyz")
        corpus.write_text(f"{words}\n\n{words}\n")
        tweets = tmp_path / "tweets.jsonl"
        tweets.write_text(storm_and_quake_tweets())
        runs = [
            ["--version"], ["--help"],
            ["idf-build", "--corpus", corpus, "--out", tmp_path / "df.tsv"],
            ["pairs-wiki", "--corpus", corpus, "--out", tmp_path / "w.tsv",
             "--count", 2, "--nmin", 3, "--nmax", 5],
            ["pairs-tweets", "--tweets", tweets, "--out", tmp_path / "t.tsv",
             "--count", 2],
        ]
        # --version and --help end in argparse's SystemExit, not a return.
        code = ("import contextlib, io, json, sys\n"
                "from textrep.cli import dispatch\n"
                "codes = []\n"
                "for argv in json.loads(sys.argv[1]):\n"
                "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
                "            contextlib.redirect_stderr(io.StringIO()):\n"
                "        try:\n"
                "            codes.append(dispatch(argv))\n"
                "        except SystemExit as exc:\n"
                "            codes.append(exc.code)\n"
                "print(json.dumps([codes, 'numpy' in sys.modules]))\n")
        argv = json.dumps([[str(a) for a in args] for args in runs])
        codes, numpy_loaded = json.loads(run_python("-c", code, argv).stdout)
        assert codes == [0] * len(runs)
        assert not numpy_loaded

    def test_runs_as_module(self):
        proc = run_python("-m", "textrep.cli", "--version")
        assert proc.stdout.strip() == textrep.__version__
