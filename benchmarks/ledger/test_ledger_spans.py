"""Self-time arithmetic and the span-recording wrappers."""

import asyncio

import pytest

from layers import span_digest
from spans import END, NAME, PARENT, RID, START, Tracer, self_times


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 5.0, 0, None],
        ["b", 2.0, 3.0, 1, None],
        ["a", 6.0, 7.0, 0, None],
    ]
    assert self_times(spans) == [5.0, 3.0, 1.0, 1.0]
    digest = span_digest(spans, roots=("root",))
    assert digest["self_s"] == {"root": 5.0, "a": 4.0, "b": 1.0}
    assert digest["samples"]["a"] == [3.0, 1.0] and digest["wall_s"] == 10.0


def test_self_times_sum_to_the_root_duration():
    spans = [["root", 0.0, 8.0, -1, None], ["x", 0.5, 4.0, 0, None], ["y", 1.0, 2.0, 1, None]]
    assert sum(self_times(spans)) == pytest.approx(8.0)


class _Model:
    def outer(self, xs):
        return [self.inner(x) for x in xs]

    def inner(self, x):
        return x * 2


def _fake_clock():
    ticks = iter(range(1000))
    return lambda: float(next(ticks))


def test_wrap_records_nesting_and_counts_outermost_calls_once():
    tracer = Tracer(clock=_fake_clock())
    counted = lambda a, k, r: {"calls": 1}  # noqa: E731
    tracer.wrap(_Model, "outer", "model", count=counted, group="g")
    tracer.wrap(_Model, "inner", "kernel", count=counted, group="g")
    try:
        root = tracer.open("job")
        assert _Model().outer([1, 2]) == [2, 4]
        tracer.close(root)
    finally:
        _Model.outer = _Model.outer.__wrapped__
        _Model.inner = _Model.inner.__wrapped__
    names = [record[NAME] for record in tracer.spans]
    assert names == ["job", "model", "kernel", "kernel"]
    assert [record[PARENT] for record in tracer.spans] == [-1, 0, 1, 1]
    assert all(record[END] > record[START] for record in tracer.spans)
    # inner calls run inside outer's group, so only outer counts.
    assert tracer.counts["calls"] == 1


def test_disabled_tracer_records_nothing():
    tracer = Tracer()
    tracer.enabled = False
    tracer.wrap(_Model, "inner", "kernel", count=lambda a, k, r: {"calls": 1})
    try:
        assert _Model().inner(3) == 6
    finally:
        _Model.inner = _Model.inner.__wrapped__
    assert tracer.spans == [] and not tracer.counts


class _Server:
    async def serve(self, x):
        return x + 1


def test_coroutine_wrapper_spans_the_awaited_call_and_keeps_the_request_id():
    tracer = Tracer(clock=_fake_clock())
    tracer.wrap(_Server, "serve", "server")
    try:
        tracer.rid = 7
        assert asyncio.run(_Server().serve(1)) == 2
    finally:
        _Server.serve = _Server.serve.__wrapped__
    assert len(tracer.spans) == 1 and tracer.spans[0][RID] == 7
