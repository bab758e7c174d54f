"""textrep benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload train|eval|pipeline --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; textrep is imported from
``src/``.  The workload's inputs are generated from ``--seed`` in a
separate process, then set-up is timed several times and rounds of the
workload repeat for about ``--seconds``; every reported time is the
median over all samples of that operation.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` wraps textrep's public functions in spans and prints the
per-layer metrics plus the tracing overhead.  The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A failed correctness check makes the exit code 1; a
checkout without ``src/textrep`` makes it 2 and prints no result.

Full results, including machine info, input digests, every round's
times and the trained weights at full precision, go to
``.perfbench/results/``; spans of a traced run go beside them.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
GEN_TIMEOUT_S = 170

# (name, unit, better): every workload reports all of them.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("pipeline_s", "s", "lower"),
    ("train_s", "s", "lower"),
    ("grid_kappa_s", "s", "lower"),
    ("eval_pairs_per_s", "pairs/s", "higher"),
    ("baseline_pairs_per_s", "pairs/s", "higher"),
    ("embed_texts_per_s", "texts/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("split_error", "fraction", "lower"),
)

BASELINE_METHODS = ("mean", "max", "min", "minmax_concat", "mean_top30",
                    "max_top30", "minmax_top30", "idf_weighted_mean")

PER_LAYER = (
    ("embeddings.load_embeddings.s", "s"),
    ("embeddings.load_embeddings.us_per_row", "us"),
    ("embeddings.load_doc_freq.s", "s"),
    ("embeddings.count_doc_freq.s", "s"),
    ("textprep.normalize.calls", "count"),
    ("textprep.normalize.s", "s"),
    ("textprep.sort_by_idf.calls", "count"),
    ("textprep.sort_by_idf.s", "s"),
    ("pairgen.load_articles.s", "s"),
    ("pairgen.wiki_pairs.s", "s"),
    ("pairgen.save_pairs.s", "s"),
    ("pairgen.load_pairs.s", "s"),
    ("learn.prepare_couples.s", "s"),
    ("learn.prepare_couples.kept_ratio", "ratio"),
    ("learn.prepare_couples.alloc_mb", "MB"),
    ("learn.train_couples.s", "s"),
    ("learn.train_couples.epochs", "count"),
    ("learn.batch_loss_and_gradient.calls", "count"),
    ("learn.batch_loss_and_gradient.p50_ms", "ms"),
    ("learn.batch_loss_and_gradient.p90_ms", "ms"),
    ("learn.grid_search_kappa.s", "s"),
    ("aggregate.represent_learned.calls", "count"),
    ("aggregate.represent_learned.us_per_text", "us"),
    *((f"aggregate.represent_baseline.{m}.us_per_text", "us")
      for m in BASELINE_METHODS),
    ("aggregate.distance.calls", "count"),
    ("aggregate.tfidf_vector.s", "s"),
    ("aggregate.tfidf_cosine_distance.s", "s"),
    ("evaluate.evaluate_method.s", "s"),
    ("evaluate.evaluate_method.unrepresentable_ratio", "ratio"),
    ("evaluate.pair_distances.s", "s"),
    ("evaluate.optimal_split.calls", "count"),
    ("evaluate.optimal_split.s", "s"),
    ("evaluate.js_divergence.s", "s"),
    ("cli.import_s", "s"),
    ("cli.import_scipy_stats_s", "s"),
    *((f"cli.{stage}.s", "s") for stage in wl.STAGES),
    ("cli.dispatch.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
    ("trace.absent", "count"),
)


# ---------------------------------------------------------------------------
# machine info
# ---------------------------------------------------------------------------


def blas_threads():
    """OpenBLAS's own thread count, read from the loaded library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def layer_better(name: str) -> str:
    """Direction of a per-layer metric: less time, work and memory is
    better; a higher share of pairs kept is better."""
    return "higher" if name.endswith(".kept_ratio") else "lower"


def cache_sizes() -> dict:
    """Per-level cache sizes of CPU 0, as sysfs reports them."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def machine_info() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "caches": cache_sizes(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# untraced runs: end-to-end metrics
# ---------------------------------------------------------------------------


def another_round(elapsed: float, last: float, seconds: float) -> bool:
    """Start another round if it should end within half a round of the
    time budget, so a round of 0.6 x ``seconds`` still runs twice."""
    return elapsed + last <= seconds + 0.5 * last


def repeat_rounds(one_round, seconds: float, ledger) -> list:
    """Run rounds until about ``seconds`` have gone; at least one."""
    rounds = []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        rounds.append(one_round(len(rounds)))
        first, last = rounds[0], rounds[-1]
        ledger.check("weights identical across rounds",
                     last["weights"] == first["weights"],
                     f"round {len(rounds)}")
        ledger.check("split_error identical across rounds",
                     last["split_error"] == first["split_error"],
                     f"round {len(rounds)}")
        now = time.perf_counter()
        if not another_round(now - start, now - begun, seconds):
            return rounds


def summarize(rounds) -> dict:
    """Time metrics from the median time of each operation over all its
    samples; a pass is the sum of those medians."""
    times = {}
    for r in rounds:
        for op, samples in r["times"].items():
            times.setdefault(op, []).extend(samples)
    med = {op: wl.median(samples) for op, samples in times.items()}
    counts = rounds[0]["counts"]
    return {
        "pipeline_s": sum(med.values()),
        "train_s": med["train"],
        "grid_kappa_s": med["grid-kappa"],
        "eval_pairs_per_s": counts["eval"] / med["eval"],
        "baseline_pairs_per_s": counts["baseline-eval"] / med["baseline-eval"],
        "embed_texts_per_s": counts["embed"] / med["embed"],
    }


def end_to_end(workload, inputs, planted, seconds, ledger, detail):
    setups = []
    if workload == "pipeline":
        for _ in range(SETUP_REPEATS):
            setups.append(wl.pipeline_setup(str(SRC), str(inputs), ledger))
        rounds = repeat_rounds(
            lambda done: wl.pipeline_round(str(SRC), str(inputs), ledger,
                                           full=done == 0),
            seconds, ledger)
        peak_mb = max(r["peak_rss_kb"] for r in rounds) / 1024
    else:
        spec = wl.library_spec(workload)
        tables = None
        for _ in range(SETUP_REPEATS):
            tables = None  # drop the previous copy before reading again
            start = time.perf_counter()
            tables = wl.library_setup(str(inputs), ledger, spec.fixed_model)
            setups.append(time.perf_counter() - start)
        rounds = repeat_rounds(
            lambda done: wl.library_round(tables, spec, planted, ledger),
            seconds, ledger)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {"setup_s": wl.median(setups), "peak_rss_mb": peak_mb,
               "split_error": rounds[0]["split_error"], **summarize(rounds)}
    detail["setup_s"] = setups
    detail["rounds"] = rounds
    return metrics


# ---------------------------------------------------------------------------
# traced runs: per-layer metrics
# ---------------------------------------------------------------------------


def count_rows(tracer, args, table):
    tracer.add("embeddings.load_embeddings.rows",
               table.vocabulary_size + table.duplicate_warnings)


def count_kept(tracer, args, couples):
    tracer.add("learn.prepare_couples.pairs", len(args[0]))
    tracer.add("learn.prepare_couples.couples", len(couples))


def count_epochs(tracer, args, result):
    tracer.add("learn.train_couples.epochs", len(result[1]))


def count_unrepresentable(tracer, args, report):
    tracer.add("evaluate.evaluate_method.unrepresentable",
               report.unrepresentable_count)
    tracer.add("evaluate.evaluate_method.pairs", report.n_pairs)


def by_method(name, args, kwargs):
    return f"{name}.{args[3] if len(args) > 3 else kwargs.get('method')}"


AFTER = {
    "embeddings.load_embeddings": count_rows,
    "learn.prepare_couples": count_kept,
    "learn.train_couples": count_epochs,
    "evaluate.evaluate_method": count_unrepresentable,
}
LABELS = {"aggregate.represent_baseline": by_method}


IMPORT_PROBE = ("import time; {pre}; t = time.perf_counter(); import {mod}; "
                "print(time.perf_counter() - t)")


def import_cost(inputs) -> dict:
    """Seconds to import ``textrep.cli`` in a fresh interpreter, and the
    part of it that ``scipy.stats`` adds once numpy is loaded."""
    cost = {}
    for key, pre, mod in (("textrep.cli", "pass", "textrep.cli"),
                          ("scipy.stats", "import numpy", "scipy.stats")):
        proc = wl.run_process(
            [sys.executable, "-c", IMPORT_PROBE.format(pre=pre, mod=mod)],
            str(inputs), wl.cli_env(str(SRC)))
        cost[key] = float(proc.stdout.strip()) if proc.code == 0 else 0.0
    return cost


def allocation_peak_mb(inputs, ledger) -> float:
    """tracemalloc peak of one prepare_couples call on the train split."""
    from textrep import learn

    tables = wl.library_setup(str(inputs), ledger, with_model=False)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        couples = learn.prepare_couples(tables.pairs["train"], tables.table,
                                        tables.idf, learn.TrainConfig().n_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del couples
    return peak / 2**20


def traced(workload, inputs, planted, seconds, ledger, detail, spans_path):
    """Untraced reference iteration, then traced iterations for the rest."""
    import textrep.cli  # noqa: F401  (load every module before wrapping)

    imports = {}
    if workload == "pipeline":
        imports = import_cost(inputs)

        def iteration(tracer=None):
            return wl.pipeline_round(str(SRC), str(inputs), ledger,
                                     in_process=True, tracer=tracer)
    else:
        spec = wl.library_spec(workload)

        def iteration(tracer=None):
            tables = wl.library_setup(str(inputs), ledger, spec.fixed_model)
            return wl.library_round(tables, spec, planted, ledger)

    begin = time.perf_counter()
    reference = iteration()
    untraced_s = time.perf_counter() - begin

    tracer = tracing.Tracer()
    tracer.install(LABELS, AFTER)
    walls = []
    try:
        while True:
            start = time.perf_counter()
            result = iteration(tracer)
            walls.append(time.perf_counter() - start)
            ledger.check("traced weights equal untraced",
                         result["weights"] == reference["weights"],
                         f"iteration {len(walls)}")
            if not another_round(time.perf_counter() - begin, walls[-1],
                                 seconds):
                break
    finally:
        tracer.uninstall()
    alloc = 0.0 if workload == "pipeline" else allocation_peak_mb(inputs, ledger)
    tracer.write_spans(str(spans_path))

    n = len(walls)
    stats, counts = tracer.stats, tracer.counts

    def per_iter(name):
        stat = stats.get(name)
        return stat.total / n if stat else 0.0

    def calls(name):
        stat = stats.get(name)
        return stat.calls / n if stat else 0.0

    def us_per_call(name):
        stat = stats.get(name)
        return stat.total / stat.calls * 1e6 if stat else 0.0

    def ratio(num, den):
        return counts[num] / counts[den] if counts.get(den) else 0.0

    def pct_ms(name, q):
        stat = stats.get(name)
        return float(np.quantile(stat.durations, q)) * 1e3 if stat else 0.0

    traced_s = wl.median(walls)
    metrics = {
        "embeddings.load_embeddings.us_per_row": (
            stats["embeddings.load_embeddings"].total * 1e6
            / counts["embeddings.load_embeddings.rows"]
            if counts.get("embeddings.load_embeddings.rows") else 0.0),
        "textprep.normalize.calls": calls("textprep.normalize"),
        "textprep.sort_by_idf.calls": calls("textprep.sort_by_idf"),
        "learn.prepare_couples.kept_ratio": ratio(
            "learn.prepare_couples.couples", "learn.prepare_couples.pairs"),
        "learn.prepare_couples.alloc_mb": alloc,
        "learn.train_couples.epochs": (
            counts.get("learn.train_couples.epochs", 0.0)
            / stats["learn.train_couples"].calls
            if "learn.train_couples" in stats else 0.0),
        "learn.batch_loss_and_gradient.calls":
            calls("learn.batch_loss_and_gradient"),
        "learn.batch_loss_and_gradient.p50_ms":
            pct_ms("learn.batch_loss_and_gradient", 0.5),
        "learn.batch_loss_and_gradient.p90_ms":
            pct_ms("learn.batch_loss_and_gradient", 0.9),
        "aggregate.represent_learned.calls": calls("aggregate.represent_learned"),
        "aggregate.represent_learned.us_per_text":
            us_per_call("aggregate.represent_learned"),
        "aggregate.distance.calls":
            counts.get("aggregate.distance", 0.0) / n,
        "evaluate.evaluate_method.unrepresentable_ratio": ratio(
            "evaluate.evaluate_method.unrepresentable",
            "evaluate.evaluate_method.pairs"),
        "evaluate.optimal_split.calls": calls("evaluate.optimal_split"),
        "cli.import_s": imports.get("textrep.cli", 0.0),
        "cli.import_scipy_stats_s": imports.get("scipy.stats", 0.0),
        "cli.dispatch.self_s": (stats["cli.dispatch"].self_total / n
                                if "cli.dispatch" in stats else 0.0),
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_ratio": (traced_s - untraced_s) / untraced_s,
        "trace.spans": (len(tracer.spans) + tracer.dropped) / n,
        "trace.absent": len(tracer.absent),
    }
    for method in BASELINE_METHODS:
        metrics[f"aggregate.represent_baseline.{method}.us_per_text"] = \
            us_per_call(f"aggregate.represent_baseline.{method}")
    for name, _ in PER_LAYER:
        if name not in metrics and name.endswith(".s"):
            metrics[name] = per_iter(name[: -len(".s")])
    detail["traced"] = {
        "iterations": n, "iteration_s": walls, "untraced_iteration_s": untraced_s,
        "absent": tracer.absent, "spans_stored": len(tracer.spans),
        "spans_dropped": tracer.dropped, "imports": imports,
        "self_s": {k: s.self_total / n for k, s in sorted(stats.items())},
        "total_s": {k: s.total / n for k, s in sorted(stats.items())},
        "calls": {k: s.calls / n for k, s in sorted(stats.items())},
        "counts": counts,
    }
    detail["rounds"] = [reference]
    return metrics


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def generate(workload, seed, inputs) -> dict:
    inputs.parent.mkdir(parents=True, exist_ok=True)
    proc = wl.run_process(
        [sys.executable, str(HERE / "gen.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(inputs)],
        str(inputs.parent), timeout=GEN_TIMEOUT_S)
    if proc.code != 0:
        raise RuntimeError(f"input generation failed:\n{proc.stderr}")
    with open(inputs / "inputs.json", encoding="utf-8") as fh:
        return json.load(fh)


def print_table(metrics, units):
    for name, value in metrics.items():
        unit, better = units[name]
        print(f"{name:48s} {value:14.6g} {unit:9s} {better}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "eval", "pipeline"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "textrep" / "__init__.py").is_file():
        print(f"error: no textrep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    inputs = work / "inputs"
    ledger = wl.Ledger()
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    metrics = {}
    correct = True
    try:
        try:
            record = generate(args.workload, args.seed, inputs)
        except (RuntimeError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        detail["inputs"] = record
        detail["machine"] = machine_info()
        planted = record["planted_all_oov"]
        try:
            if args.trace:
                metrics = traced(args.workload, inputs, planted, args.seconds,
                                 ledger, detail, results / f"{tag}.spans.json")
            else:
                metrics = end_to_end(args.workload, inputs, planted,
                                     args.seconds, ledger, detail)
        except Exception as exc:  # reported as a failed run, not a crash
            correct = False
            detail["failure"] = repr(exc)
            print(f"error: {exc!r}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        units = {n: (u, layer_better(n)) for n, u in PER_LAYER}
        names = [n for n, _ in PER_LAYER]
    else:
        units = {n: (u, b) for n, u, b in END_TO_END}
        names = [n for n, _, _ in END_TO_END]
    correct = correct and ledger.failed == 0 and all(n in metrics for n in names)
    detail.update(correct=correct, attempted=ledger.attempted,
                  failed=ledger.failed, checks=ledger.checks,
                  errors=ledger.errors, metrics=metrics)
    with open(results / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True, default=str)
        fh.write("\n")

    shown = {n: metrics[n] for n in names if n in metrics}
    print_table(shown, units)
    print(f"error_rate {ledger.failed}/{ledger.attempted}; "
          f"details in {(results / f'{tag}.json').relative_to(ROOT)}")
    print("machine " + json.dumps(detail.get("machine"), sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, ledger.attempted),
        "failed": ledger.failed,
        "metrics": {n: {"value": v, "unit": units[n][0]}
                    for n, v in shown.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
