"""The schedule compiler keeps each session's requests in issuing order."""

from repro.core.vcrop import VCROperation
from repro.workloads.events import SessionRecord, Trace, VCREventRecord

from schedule import CATALOG_MOVIES, compile_schedule, deployment, make_trace


def _session(session_id, arrival, events, ended):
    return SessionRecord(
        session_id=session_id,
        arrival_minutes=arrival,
        movie_id=0,
        movie_length=90.0,
        events=tuple(events),
        ended_at_minutes=ended,
    )


def test_resume_stays_before_its_session_end_under_rounding():
    # (0.1 + 0.2) + 0.3 rounds above 0.1 + (0.2 + 0.3): summing the resume
    # from the absolute start would put it after the session's end.
    event = VCREventRecord(
        at_minutes=0.2, position=0.2, operation=VCROperation.FAST_FORWARD,
        duration=0.9, wall_minutes=0.3,
    )
    steps = compile_schedule(Trace([_session(0, 0.1, [event], 0.5)]))
    assert [s.kind for s in steps] == ["session_start", "fastforward", "resume", "session_end"]
    assert [s.at for s in steps] == sorted(s.at for s in steps)


def _kinds_by_session(steps):
    kinds = {}
    for step in steps:
        kinds.setdefault(step.session, []).append(step.kind)
    return kinds


def test_generated_schedules_are_time_ordered_and_well_formed():
    catalog = deployment()[0]
    assert len(catalog) == CATALOG_MOVIES
    for with_vcr in (True, False):
        trace = make_trace(catalog, with_vcr=with_vcr, seed=3)
        steps = compile_schedule(trace, span_minutes=120.0)
        assert steps and all(a.at <= b.at for a, b in zip(steps, steps[1:]))
        assert steps[-1].at < trace.sessions[0].arrival_minutes + 120.0
        for kinds in _kinds_by_session(steps).values():
            assert kinds[0] == "session_start"
            assert "session_end" not in kinds[:-1]
            for first, second in zip(kinds, kinds[1:]):
                if first in ("pause", "rewind", "fastforward"):
                    assert second == "resume"
        if not with_vcr:
            assert {s.kind for s in steps} == {"session_start", "session_end"}


def test_same_seed_same_schedule():
    catalog = deployment()[0]
    one = compile_schedule(make_trace(catalog, with_vcr=True, seed=5), span_minutes=60.0)
    two = compile_schedule(make_trace(catalog, with_vcr=True, seed=5), span_minutes=60.0)
    assert one == two
