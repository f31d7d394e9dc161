"""Outside-in span tracing of moecast's public functions.

The tracer replaces public functions of the ``moecast`` modules with thin
wrappers, from outside the package: every module-level name bound to the
original function (``from .x import f`` copies included) is rebound, so the
package's own internal calls go through the wrapper too.  Nothing under
``src/`` changes.

A span records its name, start, end and the index of the span that was open
when it began (its parent).  Spans stay in memory and are written out as JSON
when the run ends.  Counts that are not call counts (epochs, recursion steps,
bytes written, stored arrays) are recorded by small hooks at the same
boundaries.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import zipfile
from collections import Counter

# (module, attribute, span name); attributes "Class.method" patch a class.
WRAPPED = (
    ("market_data", "generate_synthetic", "market_data.generate_synthetic"),
    ("market_data", "write_csv", "market_data.write_csv"),
    ("market_data", "load_csv", "market_data.load_csv"),
    ("market_data", "make_windows", "market_data.make_windows"),
    ("market_data", "rolling_volatility", "market_data.rolling_volatility"),
    ("regime", "classify_median", "regime.classify_median"),
    ("regime", "classify_threshold", "regime.classify_threshold"),
    ("lstm_expert", "train_early_stopping", "lstm_expert.train_early_stopping"),
    ("lstm_expert", "forward_batch", "lstm_expert.forward_batch"),
    ("lstm_expert", "backward_bptt", "lstm_expert.backward_bptt"),
    ("lstm_expert", "adam_step", "lstm_expert.adam_step"),
    ("lstm_expert", "predict_lstm", "lstm_expert.predict_lstm"),
    ("linear_expert", "fit_ols", "linear_expert.fit_ols"),
    ("linear_expert", "predict_linear", "linear_expert.predict_linear"),
    ("moe", "combine", "moe.combine"),
    ("evaluation", "mse", "evaluation.mse"),
    ("evaluation", "mae", "evaluation.mae"),
    ("evaluation", "rmse", "evaluation.rmse"),
    ("evaluation", "recursive_forecast", "evaluation.recursive_forecast"),
    ("evaluation", "run_walk_forward", "evaluation.run_walk_forward"),
    ("evaluation", "fit_pooled_experts", "evaluation.fit_pooled_experts"),
    ("evaluation", "run_holdout", "evaluation.run_holdout"),
    ("reporting", "records_to_csv", "reporting.records_to_csv"),
    ("reporting", "records_from_csv", "reporting.records_from_csv"),
    ("reporting", "predictions_to_csv", "reporting.predictions_to_csv"),
    ("reporting", "render_tables_text", "reporting.render_tables_text"),
    ("reporting", "tables_to_csv", "reporting.tables_to_csv"),
    ("model_store", "ModelStore.save", "model_store.save"),
    ("model_store", "ModelStore.load", "model_store.load"),
)

_TEXT_WRITERS = {
    "reporting.records_to_csv",
    "reporting.predictions_to_csv",
    "reporting.render_tables_text",
    "reporting.tables_to_csv",
}


def _after_call(tracer: "Tracer", name: str, args, kwargs, out) -> None:
    """Counts beyond call counts, read from arguments and results."""
    if name == "lstm_expert.train_early_stopping":
        tracer.counts["lstm_expert.epochs"] += len(out[1])
    elif name == "evaluation.recursive_forecast":
        tracer.counts["evaluation.recursive_steps"] += int(args[4] if len(args) > 4 else kwargs["h"])
    elif name in _TEXT_WRITERS:
        tracer.counts["reporting.bytes"] += len(out.encode("utf-8"))
    elif name == "model_store.save":
        path = args[1] if len(args) > 1 else kwargs["path"]
        with zipfile.ZipFile(path) as archive:
            tracer.counts["model_store.arrays"] += sum(
                1 for member in archive.namelist() if member != "manifest.npy"
            )
        tracer.counts["model_store.bytes"] += os.path.getsize(path)


class Tracer:
    """Spans and counts of one traced region, kept in memory."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
            _after_call(tracer, name, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Rebind every moecast module name that refers to a wrapped function."""
        import moecast  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sys.modules.items() if n == "moecast" or n.startswith("moecast.")]
        for module_name, attr, span_name in WRAPPED:
            owner = sys.modules[f"moecast.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(span_name, raw.__func__))
                else:
                    patched = self._wrap(span_name, raw)
                self._restore.append((cls, method, raw))
                setattr(cls, method, patched)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore = []

    def export(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}

    def merge(self, exported: dict) -> None:
        """Append spans and counts recorded in another process."""
        offset = len(self.spans)
        for name, start, end, parent in exported["spans"]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1])
        self.counts.update(exported["counts"])


# ---------------------------------------------------------------------------
# per-layer metrics


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def busy_seconds(spans: list[list], names: set[str]) -> float:
    """Wall time covered by spans of the given names (nesting counted once)."""
    return _covered([(s[1], s[2]) for s in spans if s[0] in names])


def self_seconds(spans: list[list], name: str) -> float:
    """Duration of each ``name`` span minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    return sum(
        (span[2] - span[1]) - _covered(children.get(index, []))
        for index, span in enumerate(spans)
        if span[0] == name
    )


# metric -> ("s", span names) for busy time, ("calls", span names) for call
# counts, ("count", counter name) for hook counts, ("self", span name)
LAYER_METRICS = {
    "market_data.synth_s": ("s", {"market_data.generate_synthetic", "market_data.write_csv"}),
    "market_data.load_csv_s": ("s", {"market_data.load_csv"}),
    "market_data.windows_calls": ("calls", {"market_data.make_windows", "market_data.rolling_volatility"}),
    "market_data.windows_s": ("s", {"market_data.make_windows", "market_data.rolling_volatility"}),
    "regime.classify_calls": ("calls", {"regime.classify_median", "regime.classify_threshold"}),
    "regime.classify_s": ("s", {"regime.classify_median", "regime.classify_threshold"}),
    "lstm_expert.train_calls": ("calls", {"lstm_expert.train_early_stopping"}),
    "lstm_expert.train_s": ("s", {"lstm_expert.train_early_stopping"}),
    "lstm_expert.epochs": ("count", "lstm_expert.epochs"),
    "lstm_expert.minibatches": ("calls", {"lstm_expert.adam_step"}),
    "lstm_expert.forward_calls": ("calls", {"lstm_expert.forward_batch"}),
    "lstm_expert.forward_s": ("s", {"lstm_expert.forward_batch"}),
    "lstm_expert.backward_s": ("s", {"lstm_expert.backward_bptt"}),
    "lstm_expert.adam_s": ("s", {"lstm_expert.adam_step"}),
    "lstm_expert.predict_calls": ("calls", {"lstm_expert.predict_lstm"}),
    "lstm_expert.predict_s": ("s", {"lstm_expert.predict_lstm"}),
    "linear_expert.fit_calls": ("calls", {"linear_expert.fit_ols"}),
    "linear_expert.fit_s": ("s", {"linear_expert.fit_ols"}),
    "linear_expert.predict_calls": ("calls", {"linear_expert.predict_linear"}),
    "moe.combine_calls": ("calls", {"moe.combine"}),
    "moe.combine_s": ("s", {"moe.combine"}),
    "evaluation.recursive_calls": ("calls", {"evaluation.recursive_forecast"}),
    "evaluation.recursive_steps": ("count", "evaluation.recursive_steps"),
    "evaluation.recursive_s": ("s", {"evaluation.recursive_forecast"}),
    "evaluation.score_s": ("s", {"evaluation.mse", "evaluation.mae", "evaluation.rmse"}),
    "evaluation.self_s": ("self", "evaluation.run_walk_forward"),
    "evaluation.pooled_fit_s": ("s", {"evaluation.fit_pooled_experts"}),
    "evaluation.holdout_s": ("s", {"evaluation.run_holdout"}),
    "reporting.records_csv_s": ("s", {"reporting.records_to_csv", "reporting.records_from_csv"}),
    "reporting.predictions_csv_s": ("s", {"reporting.predictions_to_csv"}),
    "reporting.tables_s": ("s", {"reporting.render_tables_text", "reporting.tables_to_csv"}),
    "reporting.bytes": ("count", "reporting.bytes"),
    "model_store.save_s": ("s", {"model_store.save"}),
    "model_store.load_s": ("s", {"model_store.load"}),
    "model_store.arrays": ("count", "model_store.arrays"),
    "model_store.bytes": ("count", "model_store.bytes"),
}

COUNT_KINDS = {"calls", "count"}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of one traced round."""
    calls = Counter(span[0] for span in tracer.spans)
    out: dict[str, float] = {}
    for metric, (kind, what) in LAYER_METRICS.items():
        if kind == "s":
            out[metric] = busy_seconds(tracer.spans, what)
        elif kind == "calls":
            out[metric] = sum(calls[name] for name in what)
        elif kind == "count":
            out[metric] = tracer.counts.get(what, 0)
        else:
            out[metric] = self_seconds(tracer.spans, what)
    return out


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
