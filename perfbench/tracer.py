"""Layer tracer for the benchmark: wraps the public entry points of each
adaptnn module from outside the package and records one span per call.

A hook names a function (``train``) or a method (``PairEvaluator.gradient``)
of an adaptnn module. Function hooks replace every binding of that function
object in every loaded ``adaptnn`` module, so ``adaptnn.bench.train`` is
traced as well as ``adaptnn.optimizer.train``. Method hooks replace the
attribute on the class itself, which every binding shares. A hook whose
target no longer exists is reported as absent instead of failing the run.

Spans are kept in memory as ``(pass, hook, start, end, parent)`` tuples and
written out by :meth:`Tracer.write_spans` when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (metric prefix, module, attribute path). The prefix names the layer, which
# is the adaptnn module the hooked entry point lives in.
HOOKS = (
    ("bench.run_experiment", "adaptnn.bench", "run_experiment"),
    ("data.build_neighbor_sets", "adaptnn.data", "build_neighbor_sets"),
    ("core.Dataset", "adaptnn.core", "Dataset.__init__"),
    ("core.MetricMatrix", "adaptnn.core", "MetricMatrix.__init__"),
    ("objective.setup", "adaptnn.objective", "PairEvaluator.__init__"),
    ("objective.value", "adaptnn.objective", "PairEvaluator.objective"),
    ("objective.grad", "adaptnn.objective", "PairEvaluator.gradient"),
    ("metric.psd_project", "adaptnn.metric", "psd_project"),
    ("metric.pairwise_sq", "adaptnn.metric", "pairwise_sq"),
    ("optimizer.train", "adaptnn.optimizer", "train"),
    ("classifier.accuracy", "adaptnn.classifier", "accuracy"),
)


def _resolve(module_name, path):
    """(owner, attribute, original) for a hook target, or None if gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    # a method is looked up in the class's own namespace, not inherited
    if isinstance(owner, type):
        original = owner.__dict__.get(attr)
    else:
        original = getattr(owner, attr, None)
    if original is None:
        return None
    return owner, attr, original


def _bindings(original):
    """Every (module, name) in a loaded adaptnn module bound to original."""
    out = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "adaptnn" or mod_name.startswith("adaptnn.")):
            continue
        for name, value in list(vars(mod).items()):
            if value is original:
                out.append((mod, name))
    return out


def patch(module_name, path, make_wrapper):
    """Replace a hook target with make_wrapper(original) everywhere it is
    bound; returns an undo callable, or None when the target is gone."""
    target = _resolve(module_name, path)
    if target is None:
        return None
    owner, attr, original = target
    wrapper = make_wrapper(original)
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return lambda: setattr(owner, attr, original)
    sites = _bindings(original)
    for mod, name in sites:
        setattr(mod, name, wrapper)

    def undo():
        for mod, name in sites:
            setattr(mod, name, original)
    return undo


class Tracer:
    """Records a span per hooked call plus the work counts that are read off
    call arguments and results (pairs per fit, iterations, queries)."""

    def __init__(self):
        self.names = [name for name, _, _ in HOOKS]
        self.spans = []
        self.absent = []
        self.pass_index = -1
        self.on_train_report = None
        self.counts = None
        self._stack = []
        self._undo = []

    def install(self):
        self.absent = []
        for index, (name, module_name, path) in enumerate(HOOKS):
            undo = patch(module_name, path,
                         lambda fn, index=index: self._wrap(index, fn))
            if undo is None:
                self.absent.append(name)
            else:
                self._undo.append(undo)

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def _wrap(self, index, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        name = self.names[index]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)  # reserve the slot so children can point here
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (self.pass_index, index, start, end, parent)
            self._count(name, args, kwargs, result)
            return result
        return traced

    def begin_pass(self, on_train_report):
        """Start a new pass; on_train_report receives every TrainReport."""
        self.pass_index += 1
        self.on_train_report = on_train_report
        self.counts = {"fits": 0, "pairs": 0, "iterations": 0, "accepted": 0,
                       "queries": 0}

    def _count(self, name, args, kwargs, result):
        if name == "optimizer.train":
            nbrs = kwargs.get("nbrs", args[1] if len(args) > 1 else None)
            self.counts["fits"] += 1
            self.counts["pairs"] += sum(s.size for s in nbrs.similar) + \
                sum(d.size for d in nbrs.dissimilar)
            self.counts["iterations"] += result.iterations_run
            self.counts["accepted"] += sum(
                1 for it, _, _, acc in result.objective_trace if it > 0 and acc)
            if self.on_train_report is not None:
                self.on_train_report(result)
        elif name == "classifier.accuracy":
            test = kwargs.get("test", args[1] if len(args) > 1 else None)
            self.counts["queries"] += test.n_samples

    def pass_stats(self, pass_seconds):
        """Per-hook calls, busy and self seconds and train-call durations of
        the current pass, plus the accounting of its top-level spans against
        its wall time. Call it when the pass has ended."""
        pass_index = self.pass_index
        n = len(HOOKS)
        calls, busy, child = [0] * n, [0.0] * n, {}
        top_level = 0.0
        train_ms = []
        train_index = self.names.index("optimizer.train")
        for span in self.spans:
            if span is None or span[0] != pass_index:
                continue
            _, hook, start, end, parent = span
            dur = end - start
            calls[hook] += 1
            busy[hook] += dur
            if hook == train_index:
                train_ms.append(dur * 1e3)
            if parent < 0:
                top_level += dur
            else:
                child[parent] = child.get(parent, 0.0) + dur
        self_s = [0.0] * n
        for i, span in enumerate(self.spans):
            if span is None or span[0] != pass_index:
                continue
            self_s[span[1]] += (span[3] - span[2]) - child.get(i, 0.0)
        return {
            "calls": dict(zip(self.names, calls)),
            "s": dict(zip(self.names, busy)),
            "self_s": dict(zip(self.names, self_s)),
            "train_ms": train_ms,
            "top_level_s": top_level,
            "self_sum_s": sum(self_s),
            "coverage": top_level / pass_seconds,
            "counts": dict(self.counts),
        }

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write("pass\tlayer\tstart\tend\tparent\n")
            for span in self.spans:
                if span is None:
                    continue
                p, hook, start, end, parent = span
                f.write("%d\t%s\t%.9f\t%.9f\t%d\n"
                        % (p, self.names[hook], start, end, parent))
