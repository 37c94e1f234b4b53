"""In-memory span tracer that wraps snakesim's public functions where they are called.

A span is (op, id, parent, name, start, end): `op` is the benchmark
operation that caused it, shared by all its spans.  Wrappers are installed on
the module attribute the caller looks the name up in (for example
`snakesim.dynamics.position_step`, which `integrate_motion_trajectory`
resolves from its module globals), and removed again by `uninstall`.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))  # per op
        self.frames: list[tuple[int, int]] = []  # (op, frames) per trajectory file written
        self.op = 0
        self.enabled = False  # spans are recorded only while an operation runs
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    # -- recording --------------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named `name`."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (self.op, sid, parent, name, start, end)

    def count(self, key, value=1):
        self.counts[self.op][key] += value

    def wrap(self, owner, attr, name, after=None):
        """Replace owner.attr by a traced wrapper; `after(result, args)` records counters."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            result = tracer.call(name, original, *args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        self._installed.append((owner, attr, original))
        setattr(owner, attr, traced)

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- reduction over a set of operations -----------------------------------------

    def self_times(self, ops):
        """{name: [calls, self seconds]}; self time is the duration minus the children's."""
        child = defaultdict(float)
        for op, _, parent, _, start, end in self.spans:
            if parent >= 0 and op in ops:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0])
        for op, sid, _, name, start, end in self.spans:
            if op in ops:
                out[name][0] += 1
                out[name][1] += (end - start) - child[sid]
        return out

    def calls_under(self, name, ancestor, ops):
        """Number of `name` spans that have an `ancestor` span above them."""
        names = {sid: n for _, sid, _, n, _, _ in self.spans}
        parents = {sid: p for _, sid, p, _, _, _ in self.spans}
        total = 0
        for op, sid, _, n, _, _ in self.spans:
            if n != name or op not in ops:
                continue
            p = parents[sid]
            while p >= 0 and names[p] != ancestor:
                p = parents[p]
            total += p >= 0
        return total

    def total(self, key, ops):
        return sum(self.counts[op][key] for op in ops if op in self.counts)

    def write(self, path):
        """Spans as JSON lines, then one line of per-operation counters."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for op, sid, parent, name, start, end in self.spans:
                handle.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                         "start": start, "end": end}) + "\n")
            handle.write(json.dumps({"counts": {op: dict(c) for op, c in self.counts.items()},
                                     "frames_written": self.frames}) + "\n")
