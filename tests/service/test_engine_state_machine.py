"""Generated request sequences against the admission engine.

A Hypothesis rule-based state machine opens, interrupts, resumes and ends
sessions on a virtual clock while control ticks, a capacity fault and its
recovery, and an SLO-paging latency fault run underneath.  A small model of
what each client has been told checks the engine after every step: stream
books against session holds, capacity, no ``error`` to a valid request, no
denied resume of an admitted operation, and miss holds that last exactly
until their restart wait.  At teardown the engine drains and a replay of
the recorded requests on a fresh engine must give a byte-identical decision
log.

A phase change the lifecycle does not declare raises
:class:`~repro.exceptions.SessionStateError` inside
:meth:`~repro.service.state.LiveSession.move_to`, so it surfaces here as an
``error`` response or an escaping exception.  The completeness test then
checks the other direction: every declared transition is performed.
"""

from __future__ import annotations

import io

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core.parameters import SystemConfiguration
from repro.exceptions import SessionStateError
from repro.obs.slo import SLOConfig
from repro.runtime.controller import CapacityController, ControllerPolicy, MovieSlot
from repro.service.clock import VirtualClock
from repro.service.engine import AdmissionEngine
from repro.service.faults import ServiceFaultConfig
from repro.service.protocol import Request
from repro.service.state import PHASE_TRANSITIONS, LiveSession, SessionPhase
from repro.vod.movie import Movie, MovieCatalog
from repro.vod.streams import StreamPurpose

# Hypothesis leans towards the first entry of a sampled tuple, so each
# tuple below lists its most eventful value first.
CAPACITY = 20
RESERVE = 2
TICK_MINUTES = 30.0
#: Movies 0 and 1 are planned (batched), drawn twice as often as the tail
#: titles 2 and 3.
PLANNED_MOVIES = (0, 1)
MOVIES = (0, 1, 0, 1, 2, 3)
#: Two ids, so an ended session's id is soon reused.
SESSION_IDS = range(2)
VCR_KINDS = ("fastforward", "rewind", "pause")
#: VCR durations either side of both planned buffer windows (B = 40, 45).
DURATIONS = (80.0, 46.0, 41.0, 39.0, 0.5)
#: Service minutes between consecutive requests.
REQUEST_GAP = 0.5
#: Clock steps short of and past the restart wait (w = 15 for both).
ADVANCES = (3.0, 11.0, 16.0, 0.5)
HELD_PURPOSES = tuple(p for p in StreamPurpose if p is not StreamPurpose.PLAYBACK)


def _catalog() -> MovieCatalog:
    movies = [
        Movie(0, "hot", 100.0, popularity=0.6),
        Movie(1, "warm", 90.0, popularity=0.3),
        Movie(2, "cold", 80.0, popularity=0.07),
        Movie(3, "frozen", 70.0, popularity=0.03),
    ]
    return MovieCatalog(movies, popular_count=2)


def _plan() -> dict[int, SystemConfiguration]:
    return {
        0: SystemConfiguration(movie_length=100.0, num_partitions=4, buffer_minutes=40.0),
        1: SystemConfiguration(movie_length=90.0, num_partitions=3, buffer_minutes=45.0),
    }


def build_engine(faults: ServiceFaultConfig, log: io.StringIO) -> AdmissionEngine:
    """Engine + capacity controller on a virtual clock, SLO shedding armed."""
    catalog = _catalog()
    engine = AdmissionEngine(
        catalog,
        _plan(),
        CAPACITY,
        reserve_streams=RESERVE,
        clock=VirtualClock(),
        decision_log=log,
        tick_minutes=TICK_MINUTES,
        faults=faults,
        slo=SLOConfig(min_samples=3),
    )
    slots = [
        MovieSlot(
            movie_id=movie.movie_id,
            name=movie.title,
            length=movie.length,
            max_wait=10.0,
            p_star=0.5,
        )
        for movie in catalog.popular
    ]
    policy = ControllerPolicy(
        stream_budget=CAPACITY - RESERVE, cooldown_minutes=TICK_MINUTES
    )
    engine.attach_controller(CapacityController(slots, engine.hub, policy=policy))
    return engine


def _optional(values: st.SearchStrategy) -> st.SearchStrategy:
    return st.one_of(values, st.none())


FAULTS = st.builds(
    ServiceFaultConfig,
    capacity_fault_at=_optional(st.sampled_from((5.0, 20.0, 45.0))),
    capacity_fraction=st.sampled_from((0.5, 0.7, 0.9)),
    capacity_recovery=_optional(st.sampled_from((10.0, 30.0))),
    latency_fault_at=_optional(st.sampled_from((5.0, 20.0, 45.0))),
    latency_fault_recovery=_optional(st.sampled_from((5.0, 15.0))),
)


class EngineMachine(RuleBasedStateMachine):
    """Valid client traffic against one engine, checked against a model."""

    @initialize(faults=FAULTS)
    def build(self, faults):
        self.faults = faults
        self.log = io.StringIO()
        self.engine = build_engine(faults, self.log)
        self.sent: list[tuple[float, Request]] = []
        #: Open session id -> movie id.
        self.open: dict[int, int] = {}
        #: Sessions with an admitted operation awaiting its resume.
        self.pending: set[int] = set()
        #: Session id -> release time of its live miss hold.
        self.pinned_until: dict[int, float] = {}
        #: Sessions whose miss hold was shed while the last request ran.
        self.shed: set[int] = set()
        account = self.engine.account
        revoke = account.revoke

        def recording_revoke(count, order):
            victims = revoke(count, order)
            for victim in victims:
                if victim.purpose is StreamPurpose.MISS_HOLD:
                    self.pinned_until.pop(victim.session_id, None)
                    self.shed.add(victim.session_id)
            return victims

        account.revoke = recording_revoke

    # ------------------------------------------------------------------
    # Sending requests.
    # ------------------------------------------------------------------
    def send(self, kind: str, session: int = -1, **fields):
        request = Request(
            request_id=len(self.sent), kind=kind, session=session, **fields
        )
        self.engine._clock.advance_to(self.engine.now + REQUEST_GAP)
        t = self.engine.now
        self.sent.append((t, request))
        self.shed.clear()
        response = self.engine.handle(request)
        assert response.decision != "error", (request, response)
        return t, response

    def _open_ids(self) -> list[int]:
        return sorted(self.open)

    def _start(self, session: int, movie: int) -> None:
        _, response = self.send("session_start", session, movie=movie)
        if movie in PLANNED_MOVIES:
            assert response.decision == "batch"
        else:
            assert response.decision in ("admit", "reject")
        if response.decision != "reject":
            self.open[session] = movie

    def _vcr(self, session: int, kind: str, duration: float) -> bool:
        _, response = self.send(kind, session, duration=duration)
        if session in self.pending:
            assert response.decision == "deny"
            return False
        assert response.decision in ("admit", "deny")
        if response.decision == "admit":
            self.pending.add(session)
        return response.decision == "admit"

    def _resume(self, session: int) -> None:
        t, response = self.send("resume", session)
        assert response.decision in ("hit", "miss"), response
        self.pending.discard(session)
        # The request's own SLO page may shed the hold it just pinned.
        if response.decision == "miss" and session not in self.shed:
            self.pinned_until[session] = t + response.wait_minutes

    @precondition(lambda self: len(self.open) < len(SESSION_IDS))
    @rule(data=st.data(), movie=st.sampled_from(MOVIES))
    def open_session(self, data, movie):
        free = [i for i in SESSION_IDS if i not in self.open]
        self._start(data.draw(st.sampled_from(free), label="session"), movie)

    @precondition(lambda self: self.open)
    @rule(data=st.data())
    def vcr(self, data):
        """One VCR operation, optionally resumed at once."""
        session = data.draw(st.sampled_from(self._open_ids()), label="session")
        kind = data.draw(st.sampled_from(VCR_KINDS), label="kind")
        duration = data.draw(st.sampled_from(DURATIONS), label="duration")
        if self._vcr(session, kind, duration) and data.draw(st.booleans()):
            self._resume(session)

    @precondition(lambda self: self.pending)
    @rule(data=st.data())
    def resume(self, data):
        self._resume(data.draw(st.sampled_from(sorted(self.pending)), label="session"))

    @precondition(lambda self: self.open)
    @rule(data=st.data(), reopen=st.one_of(st.sampled_from(MOVIES), st.none()))
    def end(self, data, reopen):
        """End a session, optionally reopening its id at once."""
        session = data.draw(st.sampled_from(self._open_ids()), label="session")
        _, response = self.send("session_end", session)
        assert response.decision == "closed"
        del self.open[session]
        self.pending.discard(session)
        self.pinned_until.pop(session, None)
        if reopen is not None:
            self._start(session, reopen)

    @precondition(lambda self: self.open)
    @rule(minutes=st.sampled_from(ADVANCES))
    def wait(self, minutes):
        """Move the clock; the ping runs the engine's lazy expiry sweep."""
        self.engine._clock.advance_to(self.engine.now + minutes)
        self.send("ping")

    # ------------------------------------------------------------------
    # Invariants.
    # ------------------------------------------------------------------
    def _sessions(self) -> list[LiveSession]:
        registry = self.engine.registry
        return [registry.get(session_id) for session_id in registry.open_ids()]

    @invariant()
    def books_match_session_holds(self):
        sessions = self._sessions()
        for purpose in HELD_PURPOSES:
            holding = sum(1 for session in sessions if session.holds is purpose)
            assert self.engine.account.held_for(purpose) == holding, purpose

    @invariant()
    def capacity_respected(self):
        # During a capacity fault too: the playback block is clamped to what
        # the faulted account can hold, so no re-plan over-commits it.
        account = self.engine.account
        assert account.in_use <= account.capacity, (
            account.capacity,
            {purpose.value: account.held_for(purpose) for purpose in StreamPurpose},
        )

    @invariant()
    def registry_matches_model(self):
        sessions = self._sessions()
        assert [session.session_id for session in sessions] == self._open_ids()
        for session in sessions:
            in_vcr = session.phase is SessionPhase.IN_VCR
            assert in_vcr == (session.session_id in self.pending), session

    @invariant()
    def miss_holds_last_until_their_restart_wait(self):
        now = self.engine.now
        for session in self._sessions():
            until = self.pinned_until.get(session.session_id)
            holding = session.holds is StreamPurpose.MISS_HOLD
            if until is None:
                assert not holding, session
            else:
                assert holding == (now < until), (session, until)

    def teardown(self):
        if not hasattr(self, "engine"):
            return
        self.engine.drain()
        assert len(self.engine.registry) == 0
        for purpose in HELD_PURPOSES:
            assert self.engine.account.held_for(purpose) == 0, purpose
        replay_log = io.StringIO()
        replay = build_engine(self.faults, replay_log)
        for t, request in self.sent:
            replay._clock.advance_to(t)
            replay.handle(request)
        assert replay_log.getvalue() == self.log.getvalue()


MACHINE_SETTINGS = settings(
    max_examples=100,
    stateful_step_count=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _scripted_walk() -> None:
    """One session through every declared phase change."""
    engine = build_engine(ServiceFaultConfig(), io.StringIO())

    def send(kind, **fields):
        return engine.handle(Request(request_id=0, kind=kind, session=1, **fields))

    assert send("session_start", movie=0).decision == "batch"
    assert send("pause", duration=1.0).decision == "admit"        # playing -> in_vcr
    assert send("resume").decision == "hit"                       # in_vcr -> playing
    assert send("fastforward", duration=60.0).decision == "admit"
    assert send("resume").decision == "miss"                      # in_vcr -> miss_hold
    assert send("pause", duration=1.0).decision == "admit"        # miss_hold -> in_vcr
    assert send("resume").decision == "hit"                       # in_vcr -> miss_hold
    engine._clock.advance_to(engine.restart_wait(0) + 1.0)
    assert send("rewind", duration=1.0).decision == "admit"       # miss_hold -> playing
    assert engine.registry.get(1).phase is SessionPhase.IN_VCR


def test_engine_state_machine_performs_exactly_the_declared_lifecycle(monkeypatch):
    performed: set[tuple[SessionPhase, SessionPhase]] = set()
    move_to = LiveSession.move_to

    def recording_move_to(session, phase):
        before = session.phase
        move_to(session, phase)
        performed.add((before, phase))

    monkeypatch.setattr(LiveSession, "move_to", recording_move_to)
    run_state_machine_as_test(EngineMachine, settings=MACHINE_SETTINGS)
    _scripted_walk()
    assert performed == PHASE_TRANSITIONS


def test_move_to_refuses_an_undeclared_transition():
    session = LiveSession(session_id=1, movie_id=0, planned=True, opened_at=0.0)
    with pytest.raises(SessionStateError, match="playing -> miss_hold"):
        session.move_to(SessionPhase.MISS_HOLD)
    with pytest.raises(SessionStateError, match="playing -> playing"):
        session.move_to(SessionPhase.PLAYING)
    assert session.phase is SessionPhase.PLAYING
    session.move_to(SessionPhase.IN_VCR)
    assert session.phase is SessionPhase.IN_VCR
    with pytest.raises(AttributeError):
        session.phase = SessionPhase.PLAYING
