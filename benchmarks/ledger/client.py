"""The benchmark's TCP client: replays a schedule against a live server.

One process, a fixed number of connections, sessions pinned to a
connection by id.  The client is open loop across sessions — a request is
sent when it falls due, whether or not others are still waiting — and
closed loop within a session: a session's next request waits for the
previous response.  Every latency is timed from the request's due time, so
a server stall also counts against the requests queued behind it.

Before the first request the client asks the server for ``health`` and maps
schedule minutes onto the server's own clock from the returned
``now_minutes``, so every decision lands at the service time the schedule
gives it, whatever the time compression.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import deque
from dataclasses import dataclass, field

from repro.service.protocol import encode_request
from schedule import Step, to_request

#: Stream read limit: a metrics scrape is one JSON line far past 64 KiB.
READ_LIMIT = 1 << 22
#: Wall seconds between the health probe and the first due request.
LEAD_SECONDS = 0.25
#: Responses that mean the request was not decided.
FAILURES = ("error", "backpressure")


@dataclass
class PassResult:
    """What one replay of a schedule observed from the client side."""

    attempted: int = 0
    answered: int = 0
    skipped: int = 0
    severed: int = 0
    decisions: dict = field(default_factory=dict)
    #: (request id, due-to-response ms, send-to-response ms) per answer.
    latencies: list = field(default_factory=list)
    lag_ms: list = field(default_factory=list)
    backlog_s: float = 0.0
    wall_s: float = 0.0
    server_start_minutes: float = 0.0
    sessions_ordered: bool = True

    @property
    def failed(self) -> int:
        missing = self.attempted - self.answered
        return missing + sum(self.decisions.get(kind, 0) for kind in FAILURES)


async def _request_line(reader, writer, payload: dict) -> dict:
    writer.write((json.dumps(payload) + "\n").encode())
    await writer.drain()
    raw = await reader.readline()
    if not raw:
        raise ConnectionError("server closed the connection")
    return json.loads(raw)


async def admin(host: str, port: int, kind: str, **fields) -> dict:
    """One admin verb (``health``/``metrics``) on its own connection."""
    reader, writer = await asyncio.open_connection(host, port, limit=READ_LIMIT)
    try:
        return await _request_line(reader, writer, {"id": 0, "kind": kind, **fields})
    finally:
        writer.close()
        await writer.wait_closed()


class _Lane:
    """One connection's share of the schedule and its in-flight state."""

    def __init__(self, steps: list[Step], result: PassResult, clock) -> None:
        self.steps = steps
        self.result = result
        self.clock = clock
        self.pending: dict[int, tuple[Step, float, float]] = {}
        self.busy: set[int] = set()
        self.dead: set[int] = set()
        self.deferred: dict[int, deque] = {}
        self.last_kind: dict[int, str] = {}
        self.writer = None
        self.wakeup = asyncio.Event()
        self.sending_done = False

    def send(self, step: Step, due: float, request_id: int) -> None:
        line = encode_request(to_request(step, request_id)) + "\n"
        self.pending[request_id] = (step, due, self.clock())
        self.busy.add(step.session)
        self.result.attempted += 1
        self.writer.write(line.encode())
        self.wakeup.set()

    def answered(self, response: dict) -> None:
        now = self.clock()
        request_id = response["id"]
        step, due, sent = self.pending.pop(request_id)
        result = self.result
        result.answered += 1
        decision = response["decision"]
        result.decisions[decision] = result.decisions.get(decision, 0) + 1
        result.latencies.append((request_id, (now - due) * 1e3, (now - sent) * 1e3))
        session = step.session
        if step.kind == "session_start" and decision not in ("admit", "batch"):
            self.dead.add(session)
        elif step.kind == "session_end" or decision in FAILURES:
            self.dead.add(session)
        self.busy.discard(session)
        queue = self.deferred.get(session)
        if queue:
            if session in self.dead:
                result.skipped += len(queue)
                queue.clear()
            else:
                next_step, next_due, next_id = queue.popleft()
                self.send(next_step, next_due, next_id)


async def replay(
    host: str,
    port: int,
    steps: list[Step],
    speedup: float,
    connections: int = 2,
    timeout_s: float = 120.0,
) -> PassResult:
    """Drive ``steps`` against the server; the schedule runs ``speedup``x."""
    clock = time.perf_counter
    result = PassResult()
    sent_at = clock()
    health = await admin(host, port, "health")
    received_at = clock()
    body = json.loads(health["body"])
    result.server_start_minutes = float(body["now_minutes"])
    seconds_per_minute = 60.0 / speedup
    first = steps[0].at
    base = (sent_at + received_at) / 2.0 + LEAD_SECONDS
    lanes = [_Lane([], result, clock) for _ in range(connections)]
    request_ids: list[int] = []
    for index, step in enumerate(steps):
        lanes[step.session % connections].steps.append((step, index))
        request_ids.append(index + 1)

    async def run_lane(lane: _Lane) -> None:
        reader, writer = await asyncio.open_connection(host, port, limit=READ_LIMIT)
        lane.writer = writer

        async def receive() -> None:
            while True:
                if not lane.pending:
                    if lane.sending_done and not any(lane.deferred.values()):
                        return
                    lane.wakeup.clear()
                    await lane.wakeup.wait()
                    continue
                raw = await reader.readline()
                if not raw:
                    result.severed += 1
                    return
                lane.answered(json.loads(raw))

        receiver = asyncio.create_task(receive())
        try:
            for step, index in lane.steps:
                due = base + (step.at - first) * seconds_per_minute
                delay = due - clock()
                if delay > 0.0:
                    await asyncio.sleep(delay)
                result.lag_ms.append(max(0.0, clock() - due) * 1e3)
                session = step.session
                if lane.last_kind.get(session, "session_start") == "session_end":
                    result.sessions_ordered = False
                lane.last_kind[session] = step.kind
                if session in lane.dead:
                    result.skipped += 1
                elif session in lane.busy:
                    lane.deferred.setdefault(session, deque()).append(
                        (step, due, request_ids[index])
                    )
                else:
                    lane.send(step, due, request_ids[index])
            lane.sending_done = True
            lane.wakeup.set()
            await receiver
        finally:
            if not receiver.done():
                receiver.cancel()
                await asyncio.gather(receiver, return_exceptions=True)
            writer.close()
            await writer.wait_closed()

    started = clock()
    await asyncio.wait_for(
        asyncio.gather(*(run_lane(lane) for lane in lanes)), timeout=timeout_s
    )
    finished = clock()
    result.wall_s = finished - started
    last_due = base + (steps[-1].at - first) * seconds_per_minute
    result.backlog_s = max(0.0, finished - last_due)
    return result
