"""Seeded workload traces and the request schedule the benchmark replays.

The schedule is compiled here rather than with
``repro.service.loadgen.compile_timeline``: that function adds an operation's
wall time to its absolute start, while the session end is the arrival plus
the session's own running sum.  The two sums round differently, so a
``resume`` can land one ulp after its own ``session_end`` and draw an
``error``.  This compiler works in per-session offsets and keeps every
session's requests in the order they are issued.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: The deployment every service workload runs against: the ``serve``
#: defaults (20 movies, 5 planned, seed 1234), so only the trace varies.
CATALOG_MOVIES = 20
CATALOG_POPULAR = 5
CATALOG_SEED = 1234
WAIT_MINUTES = 2.0
TICK_MINUTES = 30.0
CAPACITY = 250

#: Figure-7 VCR traffic: (arrivals per minute, sessions).
VCR_TRAFFIC = (2.0, 200)
#: Seed of the popular-movie sessions of the VCR trace (see make_trace).
HEAD_SEED = 1997
#: Start/end-only traffic: (arrivals per minute, sessions).
CHURN_TRAFFIC = (20.0, 4000)
#: Every schedule is cut this many service minutes after its first arrival.
#: A fixed session count and span keep the work per seed nearly constant:
#: the span fixes the number of control ticks, the costliest requests.
SPAN_MINUTES = 300.0
#: The VCR schedule's span: five control ticks, short enough that a run
#: replays it many times.
VCR_SPAN_MINUTES = 150.0

#: ``VCROperation`` value -> request kind on the wire.
_OP_KIND = {"PAU": "pause", "RW": "rewind", "FF": "fastforward"}


@dataclass(frozen=True)
class Step:
    """One scheduled request: due at ``at`` service minutes."""

    at: float
    session: int
    kind: str
    movie: int = -1
    duration: float = 0.0


def deployment():
    """``(catalog, plan, capacity, reserve)`` exactly as ``serve`` derives it."""
    from repro.service.bootstrap import default_catalog, plan_for, reserve_for

    catalog = default_catalog(CATALOG_MOVIES, CATALOG_POPULAR, seed=CATALOG_SEED)
    plan = plan_for(catalog, WAIT_MINUTES)
    return catalog, plan, CAPACITY, reserve_for(plan)


def _generator(catalog, behavior, rate: float, seed: int):
    from repro.workloads.generator import WorkloadGenerator

    return WorkloadGenerator(catalog, behavior, arrival_rate=rate, seed=seed)


def _generate(catalog, behavior, rate: float, seed: int, sessions: int):
    """The first ``sessions`` sessions of a seeded trace."""
    generator = _generator(catalog, behavior, rate, seed)
    # Half again the expected horizon leaves the count short with
    # negligible probability; the check below makes that loud.
    trace = generator.generate(1.5 * sessions / rate)
    if len(trace) < sessions:
        raise RuntimeError(f"seed {seed} produced {len(trace)} < {sessions} sessions")
    trace.sessions = trace.sessions[:sessions]
    return trace


def _share(movies):
    """A catalog of ``movies`` with renormalised popularity, and their share."""
    from repro.vod.movie import MovieCatalog

    total = sum(m.popularity for m in movies)
    shared = [replace(m, popularity=m.popularity / total) for m in movies]
    return MovieCatalog(shared, popular_count=len(shared)), total


def make_trace(catalog, with_vcr: bool, seed: int):
    """The workload trace: Figure-7 VCR sessions or start/end-only churn.

    Churn is drawn whole from ``seed``.  The VCR trace is drawn in two
    halves: the long-tail sessions from ``seed``, the popular-movie sessions
    from :data:`HEAD_SEED`.  The popular sessions are all the controller
    re-plans from, so every seed gives it the same telemetry and the same
    re-planning work — the costliest requests, and otherwise the largest
    source of run-to-run spread — while the seed still varies the traffic
    the gate, the stream books and the VCR path see.
    """
    from repro.vod.vcr import VCRBehavior
    from repro.workloads.events import Trace

    if not with_vcr:
        rate, sessions = CHURN_TRAFFIC
        # A think time far beyond any movie: every session plays through.
        behavior = VCRBehavior.paper_figure7(mean_think_time=1e12)
        trace = _generate(catalog, behavior, rate, seed, sessions)
        trace.sessions = [replace(s, events=()) for s in trace.sessions]
        return trace
    rate, sessions = VCR_TRAFFIC
    behavior = VCRBehavior.paper_figure7()
    head, head_share = _share(catalog.popular)
    tail, tail_share = _share(catalog.unpopular)
    popular = _generate(head, behavior, rate * head_share, HEAD_SEED, round(sessions * head_share))
    horizon = popular.sessions[-1].arrival_minutes
    rest = _generator(tail, behavior, rate * tail_share, seed).generate(horizon)
    merged = sorted(popular.sessions + rest.sessions, key=lambda s: s.arrival_minutes)
    return Trace([replace(s, session_id=index) for index, s in enumerate(merged)])


def compile_schedule(trace, span_minutes: float = SPAN_MINUTES) -> list[Step]:
    """Flatten a trace into due-ordered steps, per-session order preserved.

    Each session's times are offsets from its arrival, made non-decreasing
    in the order the requests are issued, so ties and rounding can never
    reorder one session's requests.  Across sessions, steps sort by (due
    time, session, order).  Steps due ``span_minutes`` or more after the first arrival are dropped;
    sessions still open then are closed by the server's drain.
    """
    if not trace.sessions:
        return []
    cutoff = trace.sessions[0].arrival_minutes + span_minutes
    keyed: list[tuple[float, int, int, Step]] = []
    for session in trace:
        arrival = session.arrival_minutes
        offsets: list[tuple[float, str, float]] = [(0.0, "session_start", 0.0)]
        for event in session.events:
            offsets.append(
                (event.at_minutes, _OP_KIND[event.operation.value], max(event.duration, 1e-9))
            )
            offsets.append((event.at_minutes + max(event.wall_minutes, 0.0), "resume", 0.0))
        ended = session.ended_at_minutes
        if ended is None:
            ended = session.events[-1].at_minutes if session.events else 0.0
        offsets.append((ended, "session_end", 0.0))
        previous = arrival
        for order, (offset, kind, duration) in enumerate(offsets):
            at = max(previous, arrival + offset)
            previous = at
            if at >= cutoff:
                break
            movie = session.movie_id if kind == "session_start" else -1
            keyed.append(
                (at, session.session_id, order,
                 Step(at, session.session_id, kind, movie, duration))
            )
    keyed.sort(key=lambda entry: entry[:3])
    return [entry[3] for entry in keyed]


def workload_schedule(catalog, with_vcr: bool, seed: int) -> list[Step]:
    """The schedule a workload replays: its trace, cut at its span."""
    span = VCR_SPAN_MINUTES if with_vcr else SPAN_MINUTES
    return compile_schedule(make_trace(catalog, with_vcr, seed), span_minutes=span)


def to_request(step: Step, request_id: int):
    """The wire request for one step."""
    from repro.service.protocol import Request

    return Request(
        request_id=request_id,
        kind=step.kind,
        session=step.session,
        movie=step.movie,
        duration=step.duration,
    )
