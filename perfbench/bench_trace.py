"""Span tracing of tvhazard's public entry points, from outside the package.

``patched(tracer)`` replaces every binding of the traced functions in the
loaded ``tvhazard`` modules (and the traced ``CensoredDesign`` methods) with
wrappers that record one span per call, and puts the originals back on exit.
Spans are kept in memory as ``[id, parent id, name, start, end]`` lists and
written out once, at the end of the run.  ``layer_metrics`` turns the spans
into per-layer totals and self times, and ``overhead_s`` estimates what
the wrappers themselves cost.
"""

from __future__ import annotations

import functools
import json
import sys
import math
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (span name, defining module, attribute); every binding of the function in
# a loaded tvhazard module is patched, e.g. ``fit`` in solver, baseline and
# the package namespace, and ``fused_lasso_prox`` where the solver calls it
FUNCTIONS = (
    ("datagen.generate", "tvhazard.datagen", "generate"),
    ("timeline.build_knot_set", "tvhazard.timeline", "build_knot_set"),
    ("likelihood.nll_dataset", "tvhazard.likelihood", "nll_dataset"),
    ("penalty.fused_lasso_prox", "tvhazard.penalty", "fused_lasso_prox"),
    ("penalty.isotonic_project", "tvhazard.penalty", "isotonic_project"),
    ("solver.fit", "tvhazard.solver", "fit"),
    ("formats.write_observations", "tvhazard.formats", "write_observations"),
    ("formats.read_observations", "tvhazard.formats", "read_observations"),
    ("formats.write_model", "tvhazard.formats", "write_model"),
    ("formats.read_model", "tvhazard.formats", "read_model"),
    ("baseline.fit_constant_additive", "tvhazard.baseline", "fit_constant_additive"),
    ("baseline.fit_proportional", "tvhazard.baseline", "fit_proportional"),
    ("baseline.proportional_nll", "tvhazard.baseline", "proportional_nll"),
)
# (span name, CensoredDesign attribute)
METHODS = (
    ("likelihood.design_build", "__init__"),
    ("likelihood.nll", "nll"),
    ("likelihood.nll_grad", "nll_grad"),
)
# spans of the benchmark's own operations carry this prefix
OP_PREFIX = "op."


class Tracer:
    """In-memory span recorder; single-threaded."""

    def __init__(self):
        self.spans = []
        self.fits = []  # (span id, iterations, converged) per solver.fit call
        self.prox_useful = 0
        self._stack = []

    def _open(self, name):
        sid = len(self.spans)
        record = [sid, self._stack[-1] if self._stack else -1, name, 0.0, 0.0]
        self.spans.append(record)
        self._stack.append(sid)
        record[3] = time.perf_counter()
        return record

    def _close(self, record):
        record[4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if name == "penalty.fused_lasso_prox" and np.any(result > 0.0):
                self.prox_useful += 1
            elif name == "solver.fit":
                self.fits.append((record[0], result.objective_trace[-1][0], result.converged))
            return result

        return functools.wraps(fn)(wrapper)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"fields": ["id", "parent", "name", "start", "end"]}) + "\n")
            for record in self.spans:
                f.write(json.dumps(record) + "\n")


def _tvhazard_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "tvhazard" or name.startswith("tvhazard."))]


def patch_targets():
    """Every ``(owner, attribute, original, span name)`` the traced run replaces."""
    modules = _tvhazard_modules()
    targets = []
    for name, defining, attr in FUNCTIONS:
        original = getattr(sys.modules[defining], attr)
        for module in modules:
            if module.__dict__.get(attr) is original:
                targets.append((module, attr, original, name))
    design = sys.modules["tvhazard.likelihood"].CensoredDesign
    for name, attr in METHODS:
        targets.append((design, attr, design.__dict__[attr], name))
    return targets


@contextmanager
def patched(tracer):
    """Route the traced entry points through ``tracer``; restore them on exit."""
    targets = patch_targets()
    wrappers = {}
    try:
        for owner, attr, original, name in targets:
            if name not in wrappers:
                wrappers[name] = tracer.wrap(name, original)
            setattr(owner, attr, wrappers[name])
        yield
    finally:
        for owner, attr, original, _ in targets:
            setattr(owner, attr, original)


def layer_metrics(tracer):
    """Totals, call counts and self times per span name, inside benchmark ops.

    Returns ``(calls, total_s, self_s, op_layer_self)`` where the first three
    map span names and ``op_layer_self[op][layer]`` is the self time of each
    layer (the span-name prefix) under each benchmark operation.  Spans
    outside every operation (correctness checks) are left out.
    """
    spans = tracer.spans
    child = defaultdict(float)
    op_of = {}
    for sid, parent, name, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
        if name.startswith(OP_PREFIX):
            op_of[sid] = name[len(OP_PREFIX):]
        elif parent >= 0 and parent in op_of:
            op_of[sid] = op_of[parent]
    calls = defaultdict(int)
    total = defaultdict(float)
    self_time = defaultdict(float)
    op_layer_self = defaultdict(lambda: defaultdict(float))
    for sid, _, name, start, end in spans:
        if sid not in op_of:
            continue
        duration = end - start
        calls[name] += 1
        total[name] += duration
        own = duration - child[sid]
        self_time[name] += own
        op_layer_self[op_of[sid]][name.split(".")[0]] += own
    return calls, total, self_time, op_layer_self


def _call_cost(name, result, repeats=20000):
    """Seconds one wrapper adds to a call that returns ``result``: best of five."""
    probe = Tracer()

    def bare():
        return result

    wrapped = probe.wrap(name, bare)
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(repeats):
            bare()
        middle = time.perf_counter()
        for _ in range(repeats):
            wrapped()
        end = time.perf_counter()
        probe.spans.clear()
        best = min(best, ((end - middle) - (middle - start)) / repeats)
    return max(best, 0.0)


def overhead_s(tracer):
    """Time the traced pass spent in the tracer: spans times the cost of one.

    A prox wrapper also checks the result for a positive entry, so prox
    spans are costed with a prox-sized result.
    """
    prox = sum(1 for record in tracer.spans if record[2] == "penalty.fused_lasso_prox")
    other = len(tracer.spans) - prox
    return (prox * _call_cost("penalty.fused_lasso_prox", np.zeros(16))
            + other * _call_cost("other", None))
