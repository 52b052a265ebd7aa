"""Spans around calls into each chromcat layer, for the traced run only.

``install`` wraps the given public functions and methods in every
``chromcat.*`` namespace that holds them, and ``uninstall`` puts every
original back.  Each call records a span (name, start, end, op id, parent
span) in memory; after the run ``layers.layer_metrics`` turns the spans and
the counters the wrappers keep into per-layer metrics.  Spans are not written
out: a traced run records millions of them.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op = array("i")
        self.parent = array("i")
        self.stack = []
        self.op_id = -1
        self.enabled = True
        self.counters = defaultdict(float)

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id):
        idx = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def __len__(self):
        return len(self.start)

    def self_times(self):
        """Per span name: (calls, total self seconds)."""
        child = [0.0] * len(self.start)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[i] - self.start[i]
        out = {}
        for i, nid in enumerate(self.span_name):
            calls, total = out.get(self.names[nid], (0, 0.0))
            out[self.names[nid]] = (calls + 1, total + self.end[i] - self.start[i] - child[i])
        return out


def _wrap(tracer, fn, span, count):
    nid = tracer.name_id(span)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if count is not None:
            count(tracer.counters, args, result)
        return result

    return wrapper


def _namespaces():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "chromcat" or name.startswith("chromcat."))]


def install(tracer, targets):
    """Wrap every ``(module, attribute or Class.method, span name, counter)``
    target; returns the patch list ``uninstall`` takes."""
    patches = []
    modules = _namespaces()
    for module_name, attr, span, count in targets:
        home = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, _wrap(tracer, original, span, count))
            patches.append((cls, meth, original))
            continue
        original = getattr(home, attr)
        wrapper = _wrap(tracer, original, span, count)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    patches.append((module, key, original))
    return patches


def uninstall(patches):
    for owner, key, original in reversed(patches):
        setattr(owner, key, original)
