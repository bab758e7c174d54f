import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import textrep
from textrep.aggregate import tfidf_cosine_distance, tfidf_vector
from textrep.cli import dispatch
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
from textrep.pairgen import load_pairs, save_pairs

from synth import make_pairs, save_embeddings, split_pairs


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Embedding, df and pair files for a small synthetic world."""
    root = tmp_path_factory.mktemp("cli")
    table, idf, pairs = make_pairs(n_related=300, n_nonrelated=300, seed=13)
    train_p, val_p, test_p = split_pairs(pairs)

    with open(root / "vec.txt", "w") as fh:
        save_embeddings(table, fh)
    with open(root / "df.tsv", "w") as fh:
        save_doc_freq(idf.doc_freq, idf.corpus_size, fh)
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

    def test_missing_corpus_is_data_error(self, tmp_path):
        assert run("idf-build", "--corpus", tmp_path / "nope.txt",
                   "--out", tmp_path / "o.tsv") == 2


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


class TestPairsTweets:
    def test_end_to_end(self, tmp_path):
        tweets = tmp_path / "tweets.jsonl"
        rows = []
        for i, tag_i in enumerate("abcdef"):
            for tag, prefix in (("storm", "s"), ("quake", "q")):
                text = " ".join(f"{prefix}{tag_i}{c}" for c in "vwxyz")
                rows.append(json.dumps({
                    "text": f"{text} #{tag}", "hashtags": [tag],
                    "timestamp": i * 60, "author": "n",
                }))
        tweets.write_text("\n".join(rows) + "\n")
        out = tmp_path / "pairs.tsv"
        assert run("pairs-tweets", "--tweets", tweets, "--out", out,
                   "--count", 4, "--seed", 1) == 0
        assert len(out.read_text().strip().split("\n")) == 8


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
    ], ids=["bad_count", "bad_corpus_size", "duplicate_token"])
    def test_malformed_df_row(self, workdir, tmp_path, capsys, content,
                              message):
        df = tmp_path / "df.tsv"
        df.write_text(content)
        assert run("embed", "--emb", workdir / "vec.txt", "--df", df,
                   "--text", "t0w1") == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert run("eval", "--pairs", workdir / "test.tsv",
                   "--val", workdir / "val.tsv", "--emb", workdir / "vec.txt",
                   "--df", df, "--model", tmp_path / "absent.json",
                   "--report", tmp_path / "r.json") == 2
        assert message in capsys.readouterr().err

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

    @pytest.mark.parametrize("metric", ["cosine", "manhattan"])
    def test_model_of_non_euclidean_metric(self, workdir, tmp_path, capsys,
                                           metric):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({
            "n_max": 2, "weights": [1.0, 0.5], "metric": metric,
            "normalization_version": "v1", "metadata": {},
        }))
        message = f"error: model metric must be 'euclidean', got '{metric}'\n"
        common = ("--emb", workdir / "vec.txt", "--df", workdir / "df.tsv",
                  "--model", model_path)
        assert run("embed", *common, "--text", "t0w1 s3") == 2
        assert capsys.readouterr().err == message
        assert run("eval", *common, "--pairs", workdir / "test.tsv",
                   "--val", workdir / "val.tsv",
                   "--report", tmp_path / "r.json") == 2
        assert capsys.readouterr().err == message
        assert not (tmp_path / "r.json").exists()

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
    ], ids=["missing_timestamp", "not_an_object"])
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

    def test_nmax_below_one(self, workdir, tmp_path, capsys):
        common = ("--pairs", workdir / "train.tsv", "--emb",
                  workdir / "vec.txt", "--df", workdir / "df.tsv",
                  "--nmax", 0, "--batch", 20, "--max-epochs", 2)
        for command in ("train", "grid-kappa"):
            out = tmp_path / f"{command}.json"
            assert run(command, *common, "--out", out) == 2
            assert "n_max must be >= 1" in capsys.readouterr().err
            assert not out.exists()


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

    def test_runs_as_module(self):
        proc = run_python("-m", "textrep.cli", "--version")
        assert proc.stdout.strip() == textrep.__version__
