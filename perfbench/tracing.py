"""In-memory span recorder that wraps empkit functions from outside.

A span records its name, start, end, parent and a few attributes of the
result.  Spans stay in a list until the run ends and are then written out
as JSON lines.  A span's self time is its duration minus the time covered
by its direct children.  The module a span belongs to is the first
dot-separated part of its name.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    @contextmanager
    def span(self, name, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": 0.0,
            "end": 0.0,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr, name, summarize=None):
        """Replace ``owner.attr`` by a version that records a span per call.

        ``summarize(result)`` returns attributes to keep on the span.  The
        original is put back by ``restore``.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = original(*args, **kwargs)
                if summarize is not None:
                    rec["attrs"].update(summarize(result))
                return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self):
        """Self time in seconds per span id."""
        covered = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        return {s["id"]: s["end"] - s["start"] - covered[s["id"]] for s in self.spans}

    def self_by_module(self, count=None):
        """Self time in seconds per module over the first ``count`` spans."""
        totals = defaultdict(float)
        selfs = self.self_times()
        for s in self.spans[:count]:
            totals[s["name"].split(".")[0]] += selfs[s["id"]]
        return dict(totals)

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


@contextmanager
def null_span(name, **attrs):
    """Stand-in for ``Tracer.span`` when tracing is off."""
    yield {"attrs": attrs}
