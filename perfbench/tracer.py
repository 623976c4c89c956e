"""In-memory span tracer that times the library's layers from outside.

Every hook replaces a function at the module (or class) attribute its
caller looks it up through, e.g. ``cli.batch_evaluate`` or
``builder.fit``, with a wrapper that records one span per call.  Hooks
are installed only for the traced run and removed afterwards, so the
end-to-end numbers are measured on the unmodified library.

A hook whose attribute no longer exists (a later refactor deleted or
renamed it) is skipped with a note, and the metrics it feeds are left
out; nothing a hook does may fail the run.  Exceptions raised by the
wrapped function itself pass through unchanged.
"""

from __future__ import annotations

import gc
import os
import resource
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

SWEEP_MODULE = "run_threshold_sweep"


def _result_len(args, kwargs, result):
    return len(result)


def _arg_len(index):
    return lambda args, kwargs, result: len(args[index])


def _file_size(index):
    return lambda args, kwargs, result: os.path.getsize(args[index])


def _dir_files_size(index):
    def measure(args, kwargs, result):
        with os.scandir(args[index]) as entries:
            return sum(e.stat().st_size for e in entries if e.is_file())

    return measure


def _consensus_count(args, kwargs, result):
    return result.consensus_count


@dataclass(frozen=True)
class Hook:
    """Wrap ``target`` (``module:attr`` or ``module:Class.attr``), recording
    spans named ``span``; each counter maps (args, kwargs, result) to a
    count stored on the span.  Counter argument indices include ``self``
    for methods."""

    target: str
    span: str
    counters: dict[str, Callable] = field(default_factory=dict)


_BATCH_EVALUATE_COUNTERS = {"consensus_rows": _consensus_count}

HOOKS = (
    Hook("conf_ensemble.cli:load_experiment_config", "config.load_experiment_config"),
    Hook("conf_ensemble.cli:load_dataset", "config.load_dataset"),
    Hook("conf_ensemble.cli:load_csv", "datasets.load_csv", {"rows": _result_len}),
    Hook("conf_ensemble.cli:build_ensemble", "builder.build_ensemble"),
    Hook("conf_ensemble.cli:save_manifest", "persist.save_manifest",
         {"bytes": _dir_files_size(1)}),
    Hook("conf_ensemble.cli:load_manifest", "persist.load_manifest"),
    Hook("conf_ensemble.cli:batch_evaluate", "cascade.batch_evaluate",
         _BATCH_EVALUATE_COUNTERS),
    Hook("conf_ensemble.cli:expected_calibration_error",
         "metrics.expected_calibration_error"),
    Hook("conf_ensemble.cli:score_histogram", "metrics.score_histogram"),
    Hook("conf_ensemble.cli:_write_json", "cli.write_json", {"bytes": _file_size(0)}),
    Hook(f"{SWEEP_MODULE}:build_ensemble", "builder.build_ensemble"),
    Hook(f"{SWEEP_MODULE}:batch_evaluate", "cascade.batch_evaluate",
         _BATCH_EVALUATE_COUNTERS),
    Hook(f"{SWEEP_MODULE}:expected_calibration_error",
         "metrics.expected_calibration_error"),
    Hook("conf_ensemble.builder:_filter_pool", "builder.select_pool",
         {"rows_in": _arg_len(0), "rows_kept": _result_len}),
    Hook("conf_ensemble.builder:member_report", "builder.member_report"),
    Hook("conf_ensemble.builder:materialize", "datasets.materialize"),
    Hook("conf_ensemble.builder:fit", "classifiers.fit"),
    Hook("conf_ensemble.builder:predict_logits_batch", "classifiers.predict_logits_batch",
         {"rows": _arg_len(1)}),
    Hook("conf_ensemble.builder:softmax_batch", "numerics.softmax_batch"),
    Hook("conf_ensemble.builder:score_histogram", "metrics.score_histogram"),
    # Each call is recorded as classifiers.sgd_step or classifiers.epoch_loss.
    Hook("conf_ensemble.classifiers:objective_and_gradient", "classifiers.objective"),
    Hook("conf_ensemble.classifiers:softmax_batch", "numerics.softmax_batch"),
    Hook("conf_ensemble.cascade:predict_logits_batch", "classifiers.predict_logits_batch",
         {"rows": _arg_len(1)}),
    Hook("conf_ensemble.cascade:softmax_batch", "numerics.softmax_batch"),
    Hook("conf_ensemble.cascade:EvaluationRecord.to_json_dict", "cascade.to_json_dict"),
    Hook("conf_ensemble.cascade:EvaluationRecord.write_csv", "cascade.write_csv",
         {"bytes": _file_size(1)}),
    Hook("conf_ensemble.datasets:Dataset.all_indices", "datasets.all_indices"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 for an op's root span
    op: int
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans in memory; the caller writes ``spans`` out at the end.

    Spans are recorded only inside ``run_op``, so calls the benchmark makes
    itself (setup, output checks) are not attributed to any layer."""

    def __init__(self, modules: dict, hooks):
        self.modules = modules  # module name -> module object, for hook lookup
        self.hooks = hooks
        self.spans: list[Span] = []
        self.notes: list[str] = []
        self.installed_spans: set[str] = set()
        self.failed_counters: set[str] = set()
        self._op = -1
        self._stack: list[int] = []
        self._fit_features: list[object] = []
        self._installed: list[tuple[object, str, object]] = []
        self._gc_started = 0.0
        self._gc_seconds = 0.0
        self._gc_collections = 0

    def note(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)

    # -- spans ----------------------------------------------------------------
    def _begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def run_op(self, op: int, name: str, fn):
        """Run ``fn`` as op ``op`` under a root span named ``name``; the
        root also records the op's GC time and collections and CPU time."""
        self._op = op
        cpu0 = _cpu_seconds()
        gc0, collections0 = self._gc_seconds, self._gc_collections
        gc.callbacks.append(self._on_gc)
        root = self._begin(name)
        try:
            return fn()
        finally:
            self._end(root)
            gc.callbacks.remove(self._on_gc)
            self.spans[root].counts.update(
                cpu_s=_cpu_seconds() - cpu0,
                gc_s=self._gc_seconds - gc0,
                gc_collections=self._gc_collections - collections0,
            )

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self._gc_seconds += time.perf_counter() - self._gc_started
            self._gc_collections += 1

    # -- hooks ----------------------------------------------------------------
    def install(self) -> None:
        for hook in self.hooks:
            owner, attr = self._resolve(hook.target)
            if owner is None:
                continue
            original = getattr(owner, attr)
            if hook.span == "classifiers.fit":
                wrapper = self._wrap_fit(original)
            elif hook.span == "classifiers.objective":
                wrapper = self._wrap_objective(original)
            else:
                wrapper = self._wrap(hook, original)
            setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, original))
            if hook.span == "classifiers.objective":
                self.installed_spans.update(("classifiers.sgd_step", "classifiers.epoch_loss"))
            else:
                self.installed_spans.add(hook.span)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _resolve(self, target: str):
        module_name, _, path = target.partition(":")
        owner = self.modules.get(module_name)
        for part in path.split(".")[:-1]:
            owner = getattr(owner, part, None)
        attr = path.split(".")[-1]
        if owner is None or not callable(getattr(owner, attr, None)):
            self.note(f"hook {target} not found; the metrics it feeds are absent")
            return None, None
        return owner, attr

    def _wrap(self, hook: Hook, original):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return original(*args, **kwargs)
            index = tracer._begin(hook.span)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._end(index)
            for name, measure in hook.counters.items():
                try:
                    tracer.spans[index].counts[name] = measure(args, kwargs, result)
                except Exception as exc:  # a changed signature must not fail the run
                    tracer.failed_counters.add(f"{hook.span}.{name}")
                    tracer.note(f"{hook.span}.{name} not measurable: {exc!r}")
            return result

        return wrapper

    def _wrap_fit(self, original):
        tracer = self

        def fit(*args, **kwargs):
            if not tracer._stack:
                return original(*args, **kwargs)
            data = args[1] if len(args) > 1 else kwargs.get("data")
            tracer._fit_features.append(getattr(data, "features", None))
            index = tracer._begin("classifiers.fit")
            try:
                return original(*args, **kwargs)
            finally:
                tracer._end(index)
                tracer._fit_features.pop()

        return fit

    def _wrap_objective(self, original):
        """The per-epoch loss pass receives the very features array its
        enclosing fit was given; an SGD step receives a sliced copy."""
        tracer = self

        def objective_and_gradient(*args, **kwargs):
            if not tracer._stack:
                return original(*args, **kwargs)
            features = args[2] if len(args) > 2 else kwargs.get("X")
            full = bool(tracer._fit_features) and features is tracer._fit_features[-1]
            index = tracer._begin("classifiers.epoch_loss" if full else "classifiers.sgd_step")
            try:
                return original(*args, **kwargs)
            finally:
                tracer._end(index)

        return objective_and_gradient

    # -- per-layer metrics ----------------------------------------------------
    def layer_metrics(self, names, ops: int) -> dict:
        """Per-op value of each metric in ``names`` that the hooks could
        measure: ``<span>.calls|s|self_s|<counter>``, the cascade level
        rows, and the op root's totals and process figures."""
        totals: dict[str, float] = defaultdict(float)
        self_times = self._self_times()
        levels_seen: dict[int, int] = defaultdict(int)
        for index, span in enumerate(self.spans):
            duration = span.end - span.start
            self_time = self_times[index]
            totals[f"{span.name}.calls"] += 1
            totals[f"{span.name}.s"] += duration
            totals[f"{span.name}.self_s"] += self_time
            for counter, value in span.counts.items():
                totals[f"{span.name}.{counter}"] += value
            if span.parent < 0:
                totals["op.self_s"] += self_time
                totals["python.gc_s"] += span.counts["gc_s"]
                totals["python.gc_collections"] += span.counts["gc_collections"]
                totals["process.cpu_s"] += span.counts["cpu_s"]
            elif span.name == "classifiers.predict_logits_batch":
                # The k-th forward pass inside one cascade evaluation is level k.
                batch = self._ancestor(index, "cascade.batch_evaluate")
                if batch is not None:
                    level = levels_seen[batch]
                    levels_seen[batch] += 1
                    totals[f"cascade.level{level}.rows"] += span.counts.get("rows", 0)
        totals["cascade.consensus.rows"] = totals["cascade.batch_evaluate.consensus_rows"]

        out = {}
        for name in names:
            spans, counters = self._sources(name)
            missing = [s for s in spans if s not in self.installed_spans]
            missing += [c for c in counters if c in self.failed_counters]
            if missing:
                self.note(f"metric {name} absent: {', '.join(missing)} not measured")
                continue
            out[name] = totals[name] / ops
        return out

    @staticmethod
    def _sources(metric: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """The hooked spans and span counters a metric is built from."""
        if metric.startswith(("op.", "python.", "process.", "cli.main.", "sweep.main.")):
            return (), ()
        if metric == "cascade.consensus.rows":
            return ("cascade.batch_evaluate",), ("cascade.batch_evaluate.consensus_rows",)
        if metric.startswith("cascade.level"):
            return (("cascade.batch_evaluate", "classifiers.predict_logits_batch"),
                    ("classifiers.predict_logits_batch.rows",))
        return (metric.rsplit(".", 1)[0],), (metric,)

    def op_time_and_self_sum(self) -> tuple[float, float]:
        """Per op: the root spans' duration, and the self times of all
        spans summed, which must add up to it."""
        roots = [s for s in self.spans if s.parent < 0]
        op_time = sum(s.end - s.start for s in roots)
        return op_time / len(roots), sum(self._self_times()) / len(roots)

    def _self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        self_times = [s.end - s.start for s in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                self_times[span.parent] -= span.end - span.start
        return self_times

    def _ancestor(self, index: int, name: str):
        parent = self.spans[index].parent
        while parent >= 0:
            if self.spans[parent].name == name:
                return parent
            parent = self.spans[parent].parent
        return None


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime
