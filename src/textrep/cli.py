"""Command-line surface for the whole pipeline.

Subcommands: idf-build, pairs-wiki, pairs-tweets, train, grid-kappa,
eval, baseline-eval, embed.  Every run but embed's writes a manifest
JSON next to its primary output so experiments can be replayed; pairs-wiki,
pairs-tweets, train and grid-kappa take all their randomness from
--seed, and the others use none.  Exit codes: 0 success, 1 usage error,
2 data error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

# Only modules free of numpy are imported here.  The subcommands that
# compute with arrays (train, grid-kappa, eval, baseline-eval, embed)
# import the rest in their own bodies, so a launch that only builds the
# parser, counts document frequencies or draws pairs never loads numpy.
from . import __version__
from .pairgen import (
    check_count,
    check_lengths,
    load_articles,
    load_pairs,
    load_tweets,
    save_pairs,
    tweet_pairs,
    wiki_pairs,
)
from .settings import (
    BASELINE_METHODS,
    BINS,
    FOLDS,
    KAPPA_GRID,
    LOSSES,
    SPAN_LENGTH,
    TrainConfig,
)
from .textprep import (
    compute_idf,
    count_doc_freq,
    load_doc_freq,
    normalize,
    save_doc_freq,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise UsageError(message)


def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_path, args: argparse.Namespace, inputs: list,
                    started: float) -> None:
    manifest = {
        "command": args.command,
        "config": {
            k: v for k, v in sorted(vars(args).items()) if k != "func"
        },
        "input_digests": {str(p): _digest(p) for p in inputs},
        "seed": getattr(args, "seed", None),
        "tool_version": __version__,
        "wall_seconds": round(time.monotonic() - started, 3),
    }
    path = Path(str(out_path) + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load_idf(args):
    with open(args.df, "r", encoding="utf-8") as fh:
        return compute_idf(*load_doc_freq(fh))


def _load_tables(args):
    from .embeddings import load_embeddings

    with open(args.emb, "r", encoding="utf-8") as fh:
        table = load_embeddings(fh)
    return table, _load_idf(args)


def _read_pairs(path):
    with open(path, "r", encoding="utf-8") as fh:
        return load_pairs(fh)


def cmd_idf_build(args):
    with open(args.corpus, "r", encoding="utf-8") as fh:
        documents = (
            normalize(line).tokens for line in fh if line.strip()
        )
        doc_freq, n_docs = count_doc_freq(documents)
    if n_docs == 0:
        raise ValueError("corpus contains no documents")
    with open(args.out, "w", encoding="utf-8") as fh:
        save_doc_freq(doc_freq, n_docs, fh)
    return (args.out, [args.corpus],
            f"wrote df for {len(doc_freq)} tokens over {n_docs} documents "
            f"to {args.out}")


def cmd_pairs_wiki(args):
    check_lengths(args.nmin, args.nmax)
    check_count(args.count)
    with open(args.corpus, "r", encoding="utf-8") as fh:
        articles = load_articles(fh)
    pairs = wiki_pairs(articles, args.nmin, args.nmax, args.count, args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        save_pairs(pairs, fh)
    return args.out, [args.corpus], f"wrote {len(pairs)} pairs to {args.out}"


def cmd_pairs_tweets(args):
    check_count(args.count)
    with open(args.tweets, "r", encoding="utf-8") as fh:
        tweets = load_tweets(fh)
    pairs = tweet_pairs(tweets, args.count, args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        save_pairs(pairs, fh)
    return args.out, [args.tweets], f"wrote {len(pairs)} pairs to {args.out}"


# The training flags and the TrainConfig field each one sets; the field
# holds the flag's default and its valid range.
TRAIN_FLAGS = (
    ("--loss", "loss", "training loss"),
    ("--kappa", "kappa", "median-loss scale"),
    ("--lambda", "lam", "L2 regularization strength"),
    ("--batch", "batch_size", "minibatch size, even, 50/50 labels"),
    ("--eta", "eta_initial", "initial learning rate"),
    ("--eta-reduced", "eta_reduced", "reduced learning rate"),
    ("--stop-delta", "stop_delta", "epoch-loss improvement stop threshold"),
    ("--nmax", "n_max", "number of rank weights"),
    ("--init-weight", "init_weight", "initial weight value"),
    ("--max-epochs", "max_epochs", "safety cap on epochs"),
)


def _dest(flag: str) -> str:
    """A flag's argparse dest, its manifest config key; --lambda keeps
    "lam", because lambda is a Python keyword."""
    return "lam" if flag == "--lambda" else flag[2:].replace("-", "_")


def _train_config(args) -> TrainConfig:
    return TrainConfig(seed=args.seed, **{
        field: getattr(args, _dest(flag)) for flag, field, _ in TRAIN_FLAGS})


def cmd_train(args):
    from . import aggregate, learn

    config = _train_config(args)
    table, idf = _load_tables(args)
    model, trace = learn.train(_read_pairs(args.pairs), table, idf, config)
    aggregate.save_model(model, args.out)
    if args.log:
        with open(args.log, "w", encoding="utf-8") as fh:
            fh.write("epoch\tmean_loss\teta\twall_seconds\n")
            for rec in trace:
                fh.write(
                    f"{rec.epoch}\t{rec.mean_loss:.10g}\t{rec.eta:g}\t"
                    f"{rec.wall_seconds:.3f}\n"
                )
    return (args.out, [args.pairs, args.emb, args.df],
            f"trained {len(trace)} epochs; model written to {args.out}")


def cmd_grid_kappa(args):
    from . import learn

    config = _train_config(args)
    grid = [float(x) for x in args.grid.split(",")]
    learn.kappa_configs(config, grid, args.folds)  # checked before any input
    table, idf = _load_tables(args)
    best, scores = learn.grid_search_kappa(
        _read_pairs(args.pairs), table, idf, config, grid=grid,
        folds=args.folds)
    doc = {"kappa_best": best,
           "scores": {str(k): v for k, v in sorted(scores.items())}}
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return args.out, [args.pairs, args.emb, args.df], f"kappa_best={best}"


def _evaluate(args, inputs, representer, metric, method_name):
    """Score the --pairs test split with theta fitted on --val, write the
    report and the --hist CSV, and return what dispatch needs for the
    manifest."""
    from . import evaluate

    report = evaluate.evaluate_method(
        _read_pairs(args.pairs), representer, metric, method_name=method_name,
        val_pairs=_read_pairs(args.val), bins=args.bins)
    with open(args.report, "w", encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")
    if args.hist:
        with open(args.hist, "w", encoding="utf-8") as fh:
            report.write_histogram_csv(fh)
    return args.report, inputs, report.summary()


def cmd_eval(args):
    from . import aggregate, evaluate

    evaluate.check_bins(args.bins)
    table, idf = _load_tables(args)
    model = aggregate.load_model(args.model)
    return _evaluate(args,
                     [args.pairs, args.val, args.model, args.emb, args.df],
                     aggregate.learned_representer(table, idf, model),
                     model.metric,
                     f"learned:{model.metadata.get('loss', 'unknown')}")


def cmd_baseline_eval(args):
    if args.method != "tfidf" and args.emb is None:
        raise UsageError("--emb is required unless --method is tfidf")
    from . import aggregate, evaluate

    evaluate.check_bins(args.bins)
    # tf-idf reads no embeddings, so --emb is neither parsed nor digested.
    if args.method == "tfidf":
        idf = _load_idf(args)
        representer = aggregate.tfidf_representer(idf)
        metric = aggregate.tfidf_cosine_distance
        inputs = [args.pairs, args.val, args.df]
    else:
        table, idf = _load_tables(args)
        representer = aggregate.baseline_representer(table, idf, args.method)
        metric = args.metric
        inputs = [args.pairs, args.val, args.emb, args.df]
    return _evaluate(args, inputs, representer, metric, args.method)


def cmd_embed(args):
    from . import aggregate

    table, idf = _load_tables(args)
    text = normalize(args.text)
    if args.model:
        model = aggregate.load_model(args.model)
        rep = aggregate.learned_representer(table, idf, model)(text)
    else:
        rep = aggregate.baseline_representer(table, idf, args.method)(text)
    print(",".join(f"{v:.10g}" for v in rep.vector))


def build_parser() -> _Parser:
    parser = _Parser(prog="textrep", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    config = TrainConfig()

    def defaulted(default, text, **keywords):
        """A flag typed, defaulted and documented by a library default."""
        shown = format(default, "g") if isinstance(default, float) else default
        return dict(type=type(default), default=default,
                    help=f"{text} (default {shown})", **keywords)

    # Flag groups: flag -> add_argument keywords.  A flag shared by several
    # subcommands is declared once, here.
    need = {"required": True}
    tables = {"--emb": need, "--df": need}
    seed = {"--seed": defaulted(config.seed, "random seed")}
    pairs = {"--out": need, "--count": dict(
        type=int, required=True,
        help="pairs per label (output is 2*count lines)"), **seed}
    training = {"--pairs": need, **tables, "--out": need, **{
        flag: defaulted(getattr(config, field), text, dest=_dest(flag),
                        choices=LOSSES if field == "loss" else None)
        for flag, field, text in TRAIN_FLAGS}, **seed}
    scoring = {
        "--pairs": dict(required=True, help="test pairs TSV"),
        "--val": dict(required=True, help="validation pairs TSV"),
        **tables, "--report": need, "--hist": {},
        "--bins": defaulted(BINS, "histogram bins"),
    }
    grid = ",".join(f"{k:g}" for k in KAPPA_GRID)

    for name, func, text, flags in (
        ("idf-build", cmd_idf_build, "count document frequencies",
         {"--corpus": need, "--out": need}),
        ("pairs-wiki", cmd_pairs_wiki, "span pairs from a paragraph corpus",
         {"--corpus": need, **pairs,
          "--nmin": dict(type=int, default=SPAN_LENGTH),
          "--nmax": dict(type=int, default=SPAN_LENGTH)}),
        ("pairs-tweets", cmd_pairs_tweets, "hashtag-paired tweets",
         {"--tweets": need, **pairs}),
        ("train", cmd_train, "train rank weights",
         {**training, "--log": dict(help="epoch-loss TSV path")}),
        ("grid-kappa", cmd_grid_kappa, "cross-validated kappa search", {
            **training, "--grid": defaulted(grid, "comma-separated kappas"),
            "--folds": defaulted(FOLDS, "cross-validation folds")}),
        ("eval", cmd_eval, "evaluate a trained model",
         {**scoring, "--model": need}),
        ("baseline-eval", cmd_baseline_eval, "evaluate a fixed baseline", {
            **scoring,  # with --emb optional: tf-idf reads no embeddings
            "--emb": dict(help="embedding file (not read by --method tfidf)"),
            "--method": dict(required=True,
                             choices=BASELINE_METHODS + ("tfidf",)),
            "--metric": dict(choices=("euclidean", "cosine"),
                             default="euclidean")}),
        ("embed", cmd_embed, "print a text's representation as CSV", {
            **tables, "--model": {},
            "--method": dict(default="mean", choices=BASELINE_METHODS),
            "--text": need}),
    ):
        p = sub.add_parser(name, help=text)
        for flag, keywords in flags.items():
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def dispatch(argv=None) -> int:
    """Run a subcommand; all but embed return (output, inputs, summary)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        started = time.monotonic()
        done = args.func(args)
        if done is not None:
            out_path, inputs, summary = done
            _write_manifest(out_path, args, inputs, started)
            print(summary, file=sys.stderr)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, FloatingPointError, OSError) as exc:  # data errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
