"""In-memory span recording around calls into diracsym's layers.

A span is (id, parent id, op id, name, start, end, attrs).  Spans of one
benchmark op share the op id of its root span.  Nothing is written until
``write`` is called at the end of a run, so tracing adds only two clock
reads and a list append per call.
"""
from __future__ import annotations

import contextlib
import json
import time


class NullTracer:
    """Untraced runs go through the same call sites with this no-op."""

    def span(self, name, **attrs):
        return contextlib.nullcontext(attrs)

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 0

    @contextlib.contextmanager
    def span(self, name, **attrs):
        """Time the block; yields ``attrs``, which the caller may still
        fill in after the block (e.g. with counts read from outputs)."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        op = self._stack[0] if self._stack else sid
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield attrs
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, op, name, t0, t1, attrs))

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def durations(self, name, root=None):
        """Durations in seconds of the spans with this name, in the order
        they ended; ``root`` keeps only spans under a root of that name."""
        roots = {sid: n for sid, parent, _, n, _, _, _ in self.spans
                 if parent is None}
        return [t1 - t0 for _, _, op, n, t0, t1, _ in self.spans
                if n == name and (root is None or roots.get(op) == root)]

    def find(self, name):
        """(duration, attrs) of the spans with this name."""
        return [(t1 - t0, a) for _, _, _, n, t0, t1, a in self.spans
                if n == name]

    def write(self, path):
        """One JSON line per span, with its self time (duration minus the
        time covered by its direct children)."""
        child_time = {}
        for _, parent, _, _, t0, t1, _ in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        base = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for sid, parent, op, name, t0, t1, attrs in sorted(
                    self.spans, key=lambda s: s[4]):
                dur = t1 - t0
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "op": op, "name": name,
                    "start_s": t0 - base, "dur_s": dur,
                    "self_s": dur - child_time.get(sid, 0.0),
                    "attrs": attrs}, sort_keys=True) + "\n")
