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

from . import __version__
from .aggregate import (
    BASELINE_METHODS,
    baseline_representer,
    learned_representer,
    load_model,
    save_model,
    tfidf_cosine_distance,
    tfidf_representer,
)
from .embeddings import (
    compute_idf,
    count_doc_freq,
    load_doc_freq,
    load_embeddings,
    save_doc_freq,
)
from .evaluate import evaluate_method
from .learn import TrainConfig, grid_search_kappa, train
from .pairgen import (
    load_articles,
    load_pairs,
    load_tweets,
    save_pairs,
    tweet_pairs,
    wiki_pairs,
)
from .textprep import normalize


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
    with open(args.corpus, "r", encoding="utf-8") as fh:
        articles = load_articles(fh)
    pairs = wiki_pairs(articles, args.nmin, args.nmax, args.count, args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        save_pairs(pairs, fh)
    return args.out, [args.corpus], f"wrote {len(pairs)} pairs to {args.out}"


def cmd_pairs_tweets(args):
    with open(args.tweets, "r", encoding="utf-8") as fh:
        tweets = load_tweets(fh)
    pairs = tweet_pairs(tweets, args.count, args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        save_pairs(pairs, fh)
    return args.out, [args.tweets], f"wrote {len(pairs)} pairs to {args.out}"


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        loss=args.loss,
        kappa=args.kappa,
        lam=args.lam,
        batch_size=args.batch,
        eta_initial=args.eta,
        eta_reduced=args.eta_reduced,
        stop_delta=args.stop_delta,
        seed=args.seed,
        n_max=args.nmax,
        init_weight=args.init_weight,
        max_epochs=args.max_epochs,
    )


def cmd_train(args):
    table, idf = _load_tables(args)
    model, trace = train(_read_pairs(args.pairs), table, idf,
                         _train_config(args))
    save_model(model, args.out)
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
    table, idf = _load_tables(args)
    pairs = _read_pairs(args.pairs)
    grid = [float(x) for x in args.grid.split(",")]
    config = _train_config(args)
    best, scores = grid_search_kappa(
        pairs, table, idf, config, grid=grid, folds=args.folds
    )
    doc = {"kappa_best": best,
           "scores": {str(k): v for k, v in sorted(scores.items())}}
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return args.out, [args.pairs, args.emb, args.df], f"kappa_best={best}"


def _evaluate(args, inputs, pairs, representer, metric, method_name):
    """Score the (test, validation) ``pairs``, write the report and the
    --hist CSV, and return what dispatch needs for the manifest."""
    test_pairs, val_pairs = pairs
    report = evaluate_method(test_pairs, representer, metric,
                             method_name=method_name, val_pairs=val_pairs,
                             bins=args.bins)
    with open(args.report, "w", encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")
    if args.hist:
        with open(args.hist, "w", encoding="utf-8") as fh:
            report.write_histogram_csv(fh)
    return args.report, inputs, report.summary()


def cmd_eval(args):
    table, idf = _load_tables(args)
    model = load_model(args.model)
    pairs = _read_pairs(args.pairs), _read_pairs(args.val)
    return _evaluate(args,
                     [args.pairs, args.val, args.model, args.emb, args.df],
                     pairs, learned_representer(table, idf, model),
                     model.metric,
                     f"learned:{model.metadata.get('loss', 'unknown')}")


def cmd_baseline_eval(args):
    if args.method != "tfidf" and args.emb is None:
        raise UsageError("--emb is required unless --method is tfidf")
    # tf-idf reads no embeddings, so --emb is neither parsed nor digested.
    if args.method == "tfidf":
        idf = _load_idf(args)
        representer = tfidf_representer(idf)
        metric = tfidf_cosine_distance
        inputs = [args.pairs, args.val, args.df]
    else:
        table, idf = _load_tables(args)
        representer = baseline_representer(table, idf, args.method)
        metric = args.metric
        inputs = [args.pairs, args.val, args.emb, args.df]
    pairs = _read_pairs(args.pairs), _read_pairs(args.val)
    return _evaluate(args, inputs, pairs, representer, metric, args.method)


def cmd_embed(args):
    table, idf = _load_tables(args)
    text = normalize(args.text)
    if args.model:
        model = load_model(args.model)
        rep = learned_representer(table, idf, model)(text)
    else:
        rep = baseline_representer(table, idf, args.method)(text)
    print(",".join(f"{v:.10g}" for v in rep.vector))


def build_parser() -> _Parser:
    parser = _Parser(prog="textrep", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_train_flags(p):
        for flag in ("--pairs", "--emb", "--df", "--out"):
            p.add_argument(flag, required=True)
        p.add_argument("--loss", choices=("contrastive", "median"),
                       default="median", help="training loss (default median)")
        p.add_argument("--kappa", type=float, default=160.0,
                       help="median-loss scale (default 160)")
        p.add_argument("--lambda", dest="lam", type=float, default=0.001,
                       help="L2 regularization strength (default 0.001)")
        p.add_argument("--batch", type=int, default=100,
                       help="minibatch size, even, 50/50 labels (default 100)")
        p.add_argument("--eta", type=float, default=0.01,
                       help="initial learning rate (default 0.01)")
        p.add_argument("--eta-reduced", type=float, default=0.001,
                       help="reduced learning rate (default 0.001)")
        p.add_argument("--stop-delta", type=float, default=0.0005,
                       help="epoch-loss improvement stop threshold "
                            "(default 0.0005)")
        p.add_argument("--nmax", type=int, default=20,
                       help="number of rank weights (default 20)")
        p.add_argument("--init-weight", type=float, default=0.5,
                       help="initial weight value (default 0.5)")
        p.add_argument("--max-epochs", type=int, default=500,
                       help="safety cap on epochs (default 500)")
        p.add_argument("--seed", type=int, default=42,
                       help="random seed (default 42)")

    p = sub.add_parser("idf-build", help="count document frequencies")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_idf_build)

    p = sub.add_parser("pairs-wiki", help="span pairs from a paragraph corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, required=True,
                   help="pairs per label (output is 2*count lines)")
    p.add_argument("--nmin", type=int, default=20)
    p.add_argument("--nmax", type=int, default=20)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_pairs_wiki)

    p = sub.add_parser("pairs-tweets", help="hashtag-paired tweets")
    p.add_argument("--tweets", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_pairs_tweets)

    p = sub.add_parser("train", help="train rank weights")
    add_common_train_flags(p)
    p.add_argument("--log", default=None, help="epoch-loss TSV path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("grid-kappa", help="cross-validated kappa search")
    add_common_train_flags(p)
    p.add_argument("--grid", default="10,20,40,80,160,320")
    p.add_argument("--folds", type=int, default=5)
    p.set_defaults(func=cmd_grid_kappa)

    p = sub.add_parser("eval", help="evaluate a trained model")
    p.add_argument("--pairs", required=True, help="test pairs TSV")
    p.add_argument("--val", required=True, help="validation pairs TSV")
    p.add_argument("--model", required=True)
    p.add_argument("--emb", required=True)
    p.add_argument("--df", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--hist", default=None)
    p.add_argument("--bins", type=int, default=100)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("baseline-eval", help="evaluate a fixed baseline")
    p.add_argument("--pairs", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--emb", default=None,
                   help="embedding file (not read by --method tfidf)")
    p.add_argument("--df", required=True)
    p.add_argument("--method", required=True,
                   choices=BASELINE_METHODS + ("tfidf",))
    p.add_argument("--metric", choices=("euclidean", "cosine"),
                   default="euclidean")
    p.add_argument("--report", required=True)
    p.add_argument("--hist", default=None)
    p.add_argument("--bins", type=int, default=100)
    p.set_defaults(func=cmd_baseline_eval)

    p = sub.add_parser("embed", help="print a text's representation as CSV")
    p.add_argument("--emb", required=True)
    p.add_argument("--df", required=True)
    p.add_argument("--model", default=None)
    p.add_argument("--method", default="mean", choices=BASELINE_METHODS)
    p.add_argument("--text", required=True)
    p.set_defaults(func=cmd_embed)

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
