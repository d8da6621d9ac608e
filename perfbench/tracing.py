"""Spans recorded from outside the program.

The benchmark never edits ``src/``. It replaces module attributes with
wrappers, under the names their callers look them up by (``from .ordinal
import hmor_loss_on_joints`` binds ``hmor.solver.hmor_loss_on_joints``, so
that is the name wrapped for the solver's calls). Each call records a span
in memory: name, start, end, parent span, op id and a work count (pairs or
bytes). A wrapped name that no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict


def _pair_count(pairs) -> int:
    return len(pairs.instance_pairs) + len(pairs.part_pairs) + len(pairs.joint_pairs)


def _want_grad(args, kwargs, position: int) -> bool:
    if "want_grad" in kwargs:
        return bool(kwargs["want_grad"])
    return bool(args[position]) if len(args) > position else True


def _loss_name(args, kwargs):
    return "ordinal.loss_grad" if _want_grad(args, kwargs, 4) else "ordinal.loss_value"


def _loss_pairs(args, kwargs, result):
    return _pair_count(kwargs["pairs"] if "pairs" in kwargs else args[2])


def _result_pairs(args, kwargs, result):
    return _pair_count(result)


def _loaded_bytes(args, kwargs, result):
    return os.path.getsize(kwargs.get("path", args[0] if args else None))


def _saved_bytes(args, kwargs, result):
    return os.path.getsize(kwargs.get("path", args[1] if len(args) > 1 else None))


# (module, attribute, span name or a function of the call's arguments,
#  work count of the call or None)
WRAPPED = [
    ("hmor", "refine", "solver.refine", None),
    ("hmor", "evaluate", "metrics.evaluate", None),
    ("hmor", "load_scene", "sceneio.load_scene", _loaded_bytes),
    ("hmor.solver", "hmor_loss_on_joints", _loss_name, _loss_pairs),
    ("hmor.solver", "count_violations_on_joints", "ordinal.count_violations_on_joints", None),
    ("hmor.solver", "enumerate_pairs", "ordinal.enumerate_pairs", _result_pairs),
    ("hmor.solver", "sample_view", "geometry.sample_view", None),
    ("hmor.metrics", "match_persons", "metrics.match_persons", None),
    ("hmor.metrics", "optimal_assignment", "metrics.optimal_assignment", None),
    ("hmor.metrics", "assemble_absolute", "skeleton.assemble_absolute", None),
    ("hmor.metrics", "mpjpe", "metrics.mpjpe", None),
    ("hmor.metrics", "joint_distances", "metrics.joint_distances", None),
    ("hmor.metrics", "similarity_align", "metrics.similarity_align", None),
    ("hmor.metrics", "pck", "metrics.pck", None),
    ("hmor.metrics", "auc", "metrics.auc", None),
    ("hmor.metrics", "ordinal_violations", "metrics.ordinal_violations", None),
    ("hmor.metrics", "enumerate_pairs", "ordinal.enumerate_pairs", _result_pairs),
    ("hmor.metrics", "count_violations", "ordinal.count_violations", None),
    ("hmor.cli", "load_scene", "sceneio.load_scene", _loaded_bytes),
    ("hmor.cli", "save_scene", "sceneio.save_scene", _saved_bytes),
    ("hmor.cli", "generate_scene", "synth.generate_scene", None),
    ("hmor.cli", "perturb", "synth.perturb", None),
    ("hmor.cli", "refine", "solver.refine", None),
    ("hmor.cli", "evaluate", "metrics.evaluate", None),
    ("hmor.cli", "enumerate_pairs", "ordinal.enumerate_pairs", _result_pairs),
    ("hmor.cli", "hmor_loss", "ordinal.hmor_loss", None),
    ("hmor.cli", "assemble_absolute", "skeleton.assemble_absolute", None),
    ("hmor.cli", "loss_pose", "depth.loss_terms", None),
    ("hmor.cli", "loss_init", "depth.loss_terms", None),
    ("hmor.cli", "loss_refine", "depth.loss_terms", None),
    ("hmor.cli", "loss_abs", "depth.loss_terms", None),
]

# Counted without a span: objective evaluations without a gradient are
# the line search's value evaluations (plus one initial value per refine).
COUNTED = [("hmor.solver", "_objective_on_vars", "solver.value_evals")]


class Tracer:
    """In-memory span store. A span is the list
    [name, start, end, parent index, op id, work count]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[tuple[str, int], int] = defaultdict(int)
        self.absent: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, 0])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, fn, name, work):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name(args, kwargs) if callable(name) else name)
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._stack.pop()
            if work is not None:
                self.spans[idx][5] = work(args, kwargs, result)
            return result
        return wrapper

    def _count_wrapper(self, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not _want_grad(args, kwargs, 4):
                self.counters[(counter, self.op)] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        for module_name, attr, name, work in WRAPPED:
            self._replace(module_name, attr,
                          lambda fn, name=name, work=work: self._span_wrapper(fn, name, work))
        for module_name, attr, counter in COUNTED:
            self._replace(module_name, attr,
                          lambda fn, counter=counter: self._count_wrapper(fn, counter))

    def _replace(self, module_name: str, attr: str, make) -> None:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.append(f"{module_name}.{attr}")
            return
        self._restore.append((module, attr, fn))
        setattr(module, attr, make(fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its direct children cover. Calls in one
    thread nest, so children never overlap and their durations add."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op, work in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def layer_totals(spans: list[list], ops) -> dict[str, list]:
    """Per span name over the spans whose op id is in ``ops``:
    [calls, work count, self seconds]."""
    wanted = set(ops)
    totals: dict[str, list] = defaultdict(lambda: [0, 0, 0.0])
    for span, self_s in zip(spans, self_times(spans)):
        if span[4] in wanted:
            t = totals[span[0]]
            t[0] += 1
            t[1] += span[5]
            t[2] += self_s
    return totals
