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
import warnings
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


def _peak_rss_mb():
    """This process's peak resident set size so far in MB, or None where
    the platform has no ``resource`` module.  ``resource`` is imported
    here, so that a launch that writes no manifest does not load it."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in bytes on macOS and in kilobytes elsewhere.
    return round(peak / (1 << (20 if sys.platform == "darwin" else 10)), 1)


def _write_manifest(out_path, args: argparse.Namespace, inputs: list,
                    started: float) -> None:
    manifest = {
        "command": args.command,
        "config": {
            k: v for k, v in sorted(vars(args).items()) if k != "func"
        },
        "input_digests": {str(p): _digest(p) for p in inputs},
        "peak_rss_mb": _peak_rss_mb(),
        "seed": getattr(args, "seed", None),
        "tool_version": __version__,
        "wall_seconds": round(time.monotonic() - started, 3),
    }
    path = Path(str(out_path) + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _read(path, load):
    """``load(fh)`` over the text file at ``path``.  Every data error it
    raises, bytes that are not UTF-8 included, names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return load(fh)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not valid UTF-8 ({exc.reason})") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _load_idf(args):
    return _read(args.df, lambda fh: compute_idf(*load_doc_freq(fh)))


def _load_tables(args):
    """(embedding table, idf table).  The df file is read first: every
    command reads its small inputs before the embedding file, so that an
    error in them shows before the long parse."""
    from .embeddings import load_embeddings

    idf = _load_idf(args)
    return _read(args.emb, load_embeddings), idf


def _check_method(args) -> None:
    """Refuse --method with --model, and an embedding method without
    --emb: usage errors, checked before anything else."""
    method = getattr(args, "method", None)
    if method and getattr(args, "model", None):
        raise UsageError("--method cannot be combined with --model")
    if args.emb is None and method != "tfidf":
        raise UsageError("--emb is required unless --method is tfidf")


def _method(args):
    """(representer, metric, report name, input files) of the method that
    --model or --method selects; embed's --method defaults to mean.  The
    model is read first, then the df file, then the embedding file, which
    tf-idf neither parses nor digests.  A model trained on another
    normalization is refused as its file is read."""
    from . import aggregate

    if getattr(args, "model", None):
        model = _read(args.model, lambda fh: aggregate.WeightModel.from_json(
            fh.read()))
        table, idf = _load_tables(args)
        return (aggregate.learned_representer(table, idf, model), model.metric,
                f"learned:{model.metadata.get('loss', 'unknown')}",
                [args.model, args.emb, args.df])
    if args.method == "tfidf":
        return (aggregate.tfidf_representer(_load_idf(args)),
                aggregate.tfidf_cosine_distance, "tfidf", [args.df])
    method = args.method or "mean"
    table, idf = _load_tables(args)
    return (aggregate.baseline_representer(table, idf, method),
            getattr(args, "metric", None), method, [args.emb, args.df])


def cmd_idf_build(args):
    doc_freq, n_docs = _read(args.corpus, lambda fh: count_doc_freq(
        normalize(line).tokens for line in fh if line.strip()))
    if n_docs == 0:
        raise ValueError(f"{args.corpus}: corpus contains no documents")
    with open(args.out, "w", encoding="utf-8") as fh:
        save_doc_freq(doc_freq, n_docs, fh)
    return (args.out, [args.corpus],
            f"wrote df for {len(doc_freq)} tokens over {n_docs} documents "
            f"to {args.out}")


def cmd_pairs_wiki(args):
    check_lengths(args.nmin, args.nmax)
    check_count(args.count)
    # Generated inside _read, so that a PairGenerationError names the file.
    pairs = _read(args.corpus, lambda fh: wiki_pairs(
        load_articles(fh), args.nmin, args.nmax, args.count, args.seed))
    with open(args.out, "w", encoding="utf-8") as fh:
        save_pairs(pairs, fh)
    return args.out, [args.corpus], f"wrote {len(pairs)} pairs to {args.out}"


def cmd_pairs_tweets(args):
    check_count(args.count)
    pairs = _read(args.tweets, lambda fh: tweet_pairs(
        load_tweets(fh), args.count, args.seed))
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
    pairs = _read(args.pairs, load_pairs)
    table, idf = _load_tables(args)
    model, trace = learn.train(pairs, table, idf, config)
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
    try:
        grid = [float(x) for x in args.grid.split(",")]
    except ValueError:
        raise ValueError(f"--grid must be comma-separated numbers, got "
                         f"{args.grid!r}") from None
    learn.kappa_configs(config, grid, args.folds)  # checked before any input
    pairs = _read(args.pairs, load_pairs)
    table, idf = _load_tables(args)
    best, scores = learn.grid_search_kappa(
        pairs, table, idf, config, grid=grid, folds=args.folds)
    doc = {"kappa_best": best,
           "scores": {str(k): v for k, v in sorted(scores.items())}}
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return args.out, [args.pairs, args.emb, args.df], f"kappa_best={best}"


def cmd_eval(args):
    """eval and baseline-eval: score the --pairs test split with theta
    fitted on the --val split, and write the report and the --hist CSV."""
    from . import evaluate

    _check_method(args)
    evaluate.check_bins(args.bins)
    test_pairs, val_pairs = (_read(args.pairs, load_pairs),
                             _read(args.val, load_pairs))
    representer, metric, name, inputs = _method(args)
    report = evaluate.evaluate_method(
        test_pairs, representer, metric, method_name=name,
        val_pairs=val_pairs, bins=args.bins)
    with open(args.report, "w", encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")
    if args.hist:
        with open(args.hist, "w", encoding="utf-8") as fh:
            report.write_histogram_csv(fh)
    return args.report, [args.pairs, args.val, *inputs], report.summary()


def cmd_embed(args):
    _check_method(args)
    import numpy as np

    representer = _method(args)[0]
    text = normalize(args.text)
    # An overflow is the data error below, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        vector = representer.single(text)
    if not np.isfinite(vector).all():
        raise ValueError("the representation overflows: it has non-finite "
                         "values")
    print(",".join(f"{v:.10g}" for v in vector))


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
        ("baseline-eval", cmd_eval, "evaluate a fixed baseline", {
            **scoring,  # with --emb optional: tf-idf reads no embeddings
            "--emb": dict(help="embedding file (not read by --method tfidf)"),
            "--method": dict(required=True,
                             choices=BASELINE_METHODS + ("tfidf",)),
            "--metric": dict(choices=("euclidean", "cosine"),
                             default="euclidean")}),
        ("embed", cmd_embed, "print a text's representation as CSV", {
            **tables, "--model": {},
            "--method": dict(choices=BASELINE_METHODS,
                             help="baseline method, without --model "
                                  "(default mean)"),
            "--text": need}),
    ):
        p = sub.add_parser(name, help=text)
        for flag, keywords in flags.items():
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def dispatch(argv=None) -> int:
    """Run a subcommand; all but embed return (output, inputs, summary).
    A library warning prints as one ``warning: <message>`` line."""
    parser = build_parser()
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_, **__: print(
            f"warning: {message}", file=sys.stderr)
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
        except (ValueError, FloatingPointError, OSError, MemoryError) as exc:
            # Data errors, and a run too large for this machine's memory.
            print(f"error: {exc}", file=sys.stderr)
            return 2


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
