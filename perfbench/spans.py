"""Span tracing of persum's layers from outside the package.

Each traced function is replaced, in every persum module that binds it, by a
wrapper that records a span (name, start, end, parent span). Replacing the
bindings rather than the function is what makes callers see the wrapper:
`persum.experiment` calls `score_pair` through its own module global, which
`from .rouge import score_pair` created. Spans stay in memory, in flat arrays,
until `metrics()` folds them into per-layer totals at the end of the run.

The program is single-threaded and has no queues, so a span's children nest
strictly inside it and waiting time is zero: only counts and busy time exist.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import Counter

# module -> public functions wrapped in it (a function a later change removes is skipped)
TRACED = {
    "cli": ("main",),
    "corpus": ("read_tweet_csv", "reconstruct_threads", "write_corpus", "split_corpus", "read_corpus"),
    "weaklabel": ("weaklabel_corpus", "write_weak_pairs"),
    "summarize": ("load_predictions", "prediction_candidate", "builtin_candidate"),
    "rouge": ("tokenize", "rouge_n", "rouge_l", "score_pair"),
    "experiment": (
        "run_experiment",
        "write_per_dialog_csv",
        "read_per_dialog_csv",
        "table_from_per_dialog",
        "emit_report",
        "sample_nested_subsets",
    ),
}
GENERATORS = {"corpus.read_tweet_csv"}  # spans time each next(), not the call

# (metric, unit, better); the same list, in this order, is BENCHMARK.json's per_layer
LAYER_METRICS = (
    ("rouge.rouge_l.calls", "count", "lower"),
    ("rouge.rouge_l.s", "s", "lower"),
    ("rouge.rouge_l.cells", "count", "lower"),
    ("rouge.tokenize.calls", "count", "lower"),
    ("rouge.tokenize.s", "s", "lower"),
    ("rouge.tokenize.tokens", "count", "lower"),
    ("rouge.tokenize.distinct_ratio", "ratio", "higher"),
    ("rouge.rouge_n.calls", "count", "lower"),
    ("rouge.rouge_n.s", "s", "lower"),
    ("rouge.score_pair.calls", "count", "lower"),
    ("rouge.score_pair.self_s", "s", "lower"),
    ("experiment.run_experiment.s", "s", "lower"),
    ("experiment.run_experiment.self_s", "s", "lower"),
    ("experiment.write_per_dialog_csv.s", "s", "lower"),
    ("experiment.write_per_dialog_csv.rows", "count", "higher"),
    ("experiment.write_per_dialog_csv.bytes", "bytes", "lower"),
    ("experiment.rows_per_score_pair", "ratio", "higher"),
    ("experiment.warnings", "count", "lower"),
    ("experiment.read_per_dialog_csv.s", "s", "lower"),
    ("experiment.read_per_dialog_csv.rows", "count", "higher"),
    ("experiment.table_from_per_dialog.s", "s", "lower"),
    ("experiment.emit_report.s", "s", "lower"),
    ("experiment.sample_nested_subsets.s", "s", "lower"),
    ("summarize.load_predictions.s", "s", "lower"),
    ("summarize.load_predictions.entries", "count", "higher"),
    ("summarize.prediction_candidate.calls", "count", "lower"),
    ("summarize.prediction_candidate.s", "s", "lower"),
    ("summarize.builtin_candidate.calls", "count", "lower"),
    ("summarize.builtin_candidate.s", "s", "lower"),
    ("summarize.candidate_ratio", "ratio", "higher"),
    ("corpus.read_tweet_csv.s", "s", "lower"),
    ("corpus.reconstruct_threads.self_s", "s", "lower"),
    ("corpus.write_corpus.s", "s", "lower"),
    ("corpus.write_corpus.bytes", "bytes", "lower"),
    ("corpus.split_corpus.s", "s", "lower"),
    ("corpus.read_corpus.calls", "count", "lower"),
    ("corpus.read_corpus.s", "s", "lower"),
    ("corpus.read_corpus.dialogs", "count", "higher"),
    ("weaklabel.weaklabel_corpus.s", "s", "lower"),
    ("weaklabel.write_weak_pairs.s", "s", "lower"),
    ("weaklabel.write_weak_pairs.bytes", "bytes", "lower"),
    ("weaklabel.labeled_ratio", "ratio", "higher"),
    ("cli.main.self_s", "s", "lower"),
)


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_after(counts: Counter, name: str, args: tuple, kwargs: dict, result) -> None:
    """Work counters recorded at the layer boundary, from arguments and results."""
    if name == "rouge.tokenize":
        counts["rouge.tokenize.tokens"] += len(result)
    elif name == "rouge.rouge_l":
        counts["rouge.rouge_l.cells"] += len(_arg(args, kwargs, 0, "candidate")) * len(
            _arg(args, kwargs, 1, "reference")
        )
    elif name == "experiment.run_experiment":
        counts["experiment.warnings"] += len(result.warnings)
    elif name == "experiment.write_per_dialog_csv":
        counts["experiment.write_per_dialog_csv.rows"] += len(_arg(args, kwargs, 0, "rows"))
        counts["experiment.write_per_dialog_csv.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))
    elif name == "experiment.read_per_dialog_csv":
        counts["experiment.read_per_dialog_csv.rows"] += len(result)
    elif name == "summarize.load_predictions":
        counts["summarize.load_predictions.entries"] += len(result.entries)
    elif name in ("summarize.prediction_candidate", "summarize.builtin_candidate"):
        counts["summarize.candidates"] += result is not None
    elif name == "corpus.write_corpus":
        counts["corpus.write_corpus.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))
    elif name == "corpus.read_corpus":
        counts["corpus.read_corpus.dialogs"] += len(result.dialogs)
    elif name == "weaklabel.weaklabel_corpus":
        counts["weaklabel.labeled"] += result[1].labeled
        counts["weaklabel.total"] += result[1].total
    elif name == "weaklabel.write_weak_pairs":
        counts["weaklabel.write_weak_pairs.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.tokenize_inputs: set[str] = set()

    def _open(self, name_id: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, func):
        name_id = len(self.names)
        self.names.append(name)
        counts = self.counts
        tokenize_inputs = self.tokenize_inputs

        if name in GENERATORS:

            def traced_generator(*args, **kwargs):
                inner = iter(func(*args, **kwargs))
                while True:
                    idx = self._open(name_id)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    yield item

            return traced_generator

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(idx)
            if name == "rouge.tokenize":
                tokenize_inputs.add(_arg(args, kwargs, 0, "text"))
            _count_after(counts, name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in TRACED through all the persum modules that bind it."""
        modules = [m for key, m in list(sys.modules.items()) if key == "persum" or key.startswith("persum.")]
        for module_name, functions in TRACED.items():
            home = sys.modules.get(f"persum.{module_name}")
            for func_name in functions:
                original = getattr(home, func_name, None)
                if original is None:
                    continue
                wrapper = self.wrap(f"{module_name}.{func_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def metrics(self) -> dict[str, float]:
        """Fold the spans into LAYER_METRICS; layers that did no work read 0."""
        n_names = len(self.names)
        calls = [0] * n_names
        busy = [0.0] * n_names
        self_time = [0.0] * n_names
        covered = [0.0] * len(self.starts)  # part of each span its child spans cover
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[idx] - self.starts[idx]
        for idx in range(len(self.starts)):
            duration = self.ends[idx] - self.starts[idx]
            name_id = self.name_ids[idx]
            calls[name_id] += 1
            busy[name_id] += duration
            self_time[name_id] += duration - covered[idx]

        totals: dict[str, float] = dict(self.counts)
        for name_id, name in enumerate(self.names):
            totals[f"{name}.calls"] = calls[name_id]
            totals[f"{name}.s"] = busy[name_id]
            totals[f"{name}.self_s"] = self_time[name_id]
        tokenize_calls = totals.get("rouge.tokenize.calls", 0)
        totals["rouge.tokenize.distinct_ratio"] = _ratio(len(self.tokenize_inputs), tokenize_calls)
        totals["experiment.rows_per_score_pair"] = _ratio(
            totals.get("experiment.write_per_dialog_csv.rows", 0), totals.get("rouge.score_pair.calls", 0)
        )
        candidate_calls = totals.get("summarize.prediction_candidate.calls", 0) + totals.get(
            "summarize.builtin_candidate.calls", 0
        )
        totals["summarize.candidate_ratio"] = _ratio(totals.get("summarize.candidates", 0), candidate_calls)
        totals["weaklabel.labeled_ratio"] = _ratio(totals.get("weaklabel.labeled", 0), totals.get("weaklabel.total", 0))
        return {name: totals.get(name, 0) for name, _, _ in LAYER_METRICS}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
