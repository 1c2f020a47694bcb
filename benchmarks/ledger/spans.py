"""In-memory spans around calls into the program's layers.

The traced run patches public functions of each layer with a wrapper that
records one span per call: layer name, start, end, parent span and the
request id in force when the span closed.  Spans stay in a list until the
process writes them out at exit.  A layer's self time is the duration of
its spans minus the part covered by their child spans.

Names are patched where the caller looks them up — a function imported
into another module is patched in that module too — so every call the
program makes through that name is seen.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter

#: Span record fields, in order.
NAME, START, END, PARENT, RID = range(5)


class Tracer:
    """Span recorder; ``enabled`` switches every installed wrapper."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.depth: Counter = Counter()
        self.rid = None
        self.enabled = True

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------
    def open(self, name: str) -> list:
        """Push a span and return its record (closed by :meth:`close`)."""
        parent = self.stack[-1] if self.stack else -1
        record = [name, self.clock(), 0.0, parent, None]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def close(self, record: list) -> None:
        record[END] = self.clock()
        record[RID] = self.rid
        self.stack.pop()

    def wrap(self, owner, attr: str, layer: str, count=None, group: str | None = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``count(args, kwargs, result)`` returns counter increments.  It runs
        only for the outermost active call of its ``group`` (by default the
        wrapped name), so a call nested in another of the same group — a
        truncated CDF delegating to its base — is not counted twice.
        """
        unwrap = getattr(owner, attr)
        group = group or f"{layer}:{attr}"
        tracer = self
        depth = self.depth

        if inspect.iscoroutinefunction(unwrap):

            async def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return await unwrap(*args, **kwargs)
                outermost = depth[group] == 0
                depth[group] += 1
                record = tracer.open(layer)
                try:
                    result = await unwrap(*args, **kwargs)
                finally:
                    tracer.close(record)
                    depth[group] -= 1
                if count is not None and outermost:
                    tracer.counts.update(count(args, kwargs, result))
                return result

        else:

            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return unwrap(*args, **kwargs)
                outermost = depth[group] == 0
                depth[group] += 1
                record = tracer.open(layer)
                try:
                    result = unwrap(*args, **kwargs)
                finally:
                    tracer.close(record)
                    depth[group] -= 1
                if count is not None and outermost:
                    tracer.counts.update(count(args, kwargs, result))
                return result

        wrapper.__wrapped__ = unwrap
        setattr(owner, attr, wrapper)

    def count_calls(self, owner, attr: str, counter: str) -> None:
        """Count calls of ``owner.attr`` without recording spans."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer.counts[counter] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)

    # ------------------------------------------------------------------
    # Output.
    # ------------------------------------------------------------------
    def dump(self, path) -> None:
        """Write every span and counter as one JSON document."""
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, handle)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    selfs = [record[END] - record[START] for record in spans]
    for record in spans:
        parent = record[PARENT]
        if parent >= 0:
            selfs[parent] -= record[END] - record[START]
    return selfs

