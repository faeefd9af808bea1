"""Span recording around the calls through which slamplan's layers talk.

Nothing here edits the package: ``Tracer.install`` swaps a module-level
name (or a class attribute) for a wrapper that records a span, and
``Tracer.uninstall`` puts every original back.  Each span keeps its name,
start, end, parent span and the operation it belongs to, so a span's self
time is its duration minus the durations of its children.  Optional hooks
see each call's arguments and result and bump counters, so counts are taken
at the same boundaries as the times.

The recorder is single-threaded: spans opened in forked pool workers are
lost, which is why traced comparisons run with one worker.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # [id, name, parent, start, end, op]
        self.counters = defaultdict(float)
        self.op = None
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), name, self._stack[-1] if self._stack else None,
                    time.perf_counter(), None, self.op]
            self.spans.append(span)
            self._stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self.counters, args, result)
            return result

        return traced

    def install(self, owner, attr, name, hook=None):
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, hook))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def durations(self):
        """Per span name: (total seconds, total self seconds, calls)."""
        child_time = defaultdict(float)
        for sid, _, parent, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for sid, name, _, start, end, _ in self.spans:
            row = out[name]
            row[0] += end - start
            row[1] += end - start - child_time[sid]
            row[2] += 1
        return out

    def records(self):
        return [
            {"id": sid, "name": name, "parent": parent, "start": start,
             "end": end, "op": op}
            for sid, name, parent, start, end, op in self.spans
        ]
