"""Span tracer for the textrep benchmark's traced runs.

The tracer replaces each listed public textrep function with a wrapper
that records a span (id, parent id, name, start, end) around the call.
It patches every ``textrep`` module namespace that holds the function, so
calls made through names imported by another module (``cli`` imports
``train`` and ``evaluate_method``; ``learn`` calls
``batch_loss_and_gradient`` through its own globals) are seen too.  A
function that no longer exists is reported as absent, not as an error.

Spans stay in memory and are written out once, when the run ends.  Self
time is derived from the spans: a span's duration minus the time its
child spans cover.  The per-call sums are kept as the spans close, so
stats survive when the stored span list hits its cap.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from array import array

# Functions wrapped with a span, by textrep module.
SPANNED = {
    "embeddings": ("load_embeddings", "load_doc_freq", "count_doc_freq"),
    "textprep": ("normalize", "sort_by_idf"),
    "pairgen": ("load_articles", "wiki_pairs", "save_pairs", "load_pairs"),
    "learn": ("prepare_couples", "train_couples", "batch_loss_and_gradient",
              "grid_search_kappa"),
    "aggregate": ("represent_learned", "represent_baseline", "tfidf_vector",
                  "tfidf_cosine_distance"),
    "evaluate": ("evaluate_method", "pair_distances", "optimal_split",
                 "js_divergence"),
    "cli": ("dispatch",),
}
# One call takes a few microseconds, so these are counted, not timed.
COUNTED = {"aggregate": ("distance",)}

MAX_STORED_SPANS = 200_000


class Stat:
    __slots__ = ("calls", "total", "self_total", "durations")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_total = 0.0
        self.durations = array("d")


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        self._next_id = 1
        self._stack: list[int] = []
        self._child_time: list[float] = []
        self._restore: list[tuple] = []

    # -- recording -------------------------------------------------------
    def _open(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        self._child_time.append(0.0)
        return sid, parent

    def _close(self, name, sid, parent, start, end):
        self._stack.pop()
        child = self._child_time.pop()
        duration = end - start
        if self._child_time:
            self._child_time[-1] += duration
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        stat.calls += 1
        stat.total += duration
        stat.self_total += duration - child
        stat.durations.append(duration)
        if len(self.spans) < MAX_STORED_SPANS:
            self.spans.append((sid, parent, name, start, end))
        else:
            self.dropped += 1

    @contextlib.contextmanager
    def span(self, name: str):
        """One span around the benchmark's own stage boundaries."""
        ids = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, *ids, start, time.perf_counter())

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def _spanned(self, name, func, label, after):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_name = name if label is None else label(name, args, kwargs)
            ids = tracer._open()
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(span_name, *ids, start, time.perf_counter())
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def _counted(self, name, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tracer.counts[name] = tracer.counts.get(name, 0.0) + 1
            return func(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------
    def install(self, labels: dict, after: dict) -> None:
        """Wrap every listed function in every loaded textrep module.

        ``labels[name](name, args, kwargs)`` names a function's spans by
        its arguments; ``after[name](tracer, args, result)`` adds counts
        taken from a call's result.
        """
        modules = {n: m for n, m in sys.modules.items()
                   if n == "textrep" or n.startswith("textrep.")}
        for kind, table in (("span", SPANNED), ("count", COUNTED)):
            for mod_name, funcs in table.items():
                home = modules.get(f"textrep.{mod_name}")
                for func_name in funcs:
                    name = f"{mod_name}.{func_name}"
                    original = getattr(home, func_name, None)
                    if not callable(original):
                        self.absent.append(name)
                        continue
                    if kind == "span":
                        wrapper = self._spanned(name, original,
                                                labels.get(name),
                                                after.get(name))
                    else:
                        wrapper = self._counted(name, original)
                    for module in modules.values():
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, attr, wrapper)
                                self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def write_spans(self, path: str) -> None:
        doc = {
            "fields": ["id", "parent", "name", "start", "end"],
            "dropped": self.dropped,
            "absent": self.absent,
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
