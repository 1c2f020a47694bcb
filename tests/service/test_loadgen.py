"""Timeline compilation, virtual-clock determinism, wall-mode TCP driving."""

from __future__ import annotations

import asyncio
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.service.bootstrap import (
    capacity_for,
    default_catalog,
    plan_for,
    reserve_for,
    workload_for,
)
from repro.service.clock import VirtualClock
from repro.service.engine import AdmissionEngine
from repro.service.loadgen import (
    LoadReport,
    compile_timeline,
    run_virtual,
    run_wall,
)
from repro.service.server import AdmissionService
from repro.vod.vcr import VCRBehavior
from repro.workloads.generator import WorkloadGenerator


def make_deployment(seed=1234):
    catalog = default_catalog(movies=8, popular=3, seed=7)
    plan = plan_for(catalog, wait_minutes=2.0)
    reserve = reserve_for(plan)
    capacity = capacity_for(catalog, plan, reserve)
    trace = workload_for(catalog, arrival_rate=1.0, horizon_minutes=45.0,
                         seed=seed)
    return catalog, plan, capacity, reserve, trace


def make_engine(catalog, plan, capacity, reserve, **kwargs):
    return AdmissionEngine(
        catalog, plan, capacity, reserve_streams=reserve,
        clock=VirtualClock(), **kwargs,
    )


class TestTimeline:
    def test_compile_is_time_sorted_and_complete(self):
        *_, trace = make_deployment()
        timeline = compile_timeline(trace)
        times = [t.at_minutes for t in timeline]
        assert times == sorted(times)
        starts = [t for t in timeline if t.request.kind == "session_start"]
        ends = [t for t in timeline if t.request.kind == "session_end"]
        assert len(starts) == len(trace.sessions)
        assert len(ends) == len(trace.sessions)

    def test_every_vcr_op_pairs_with_a_resume(self):
        *_, trace = make_deployment()
        timeline = compile_timeline(trace)
        ops = sum(
            1 for t in timeline
            if t.request.kind in ("pause", "rewind", "fastforward")
        )
        resumes = sum(1 for t in timeline if t.request.kind == "resume")
        assert ops == resumes > 0

    def test_request_ids_unique(self):
        *_, trace = make_deployment()
        timeline = compile_timeline(trace)
        ids = [t.request.request_id for t in timeline]
        assert len(ids) == len(set(ids))

    def test_compile_deterministic(self):
        *_, trace = make_deployment()
        assert compile_timeline(trace) == compile_timeline(trace)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        movie_length=st.floats(20.0, 150.0),
        arrival_rate=st.floats(0.2, 3.0),
    )
    def test_sessions_stay_ordered_and_end_last(self, seed, movie_length, arrival_rate):
        # Figure-7 VCR traffic: a resume must never round past its own
        # session_end, and no session's requests may reorder.
        trace = WorkloadGenerator.single_movie(
            movie_length, VCRBehavior.paper_figure7(), arrival_rate, seed=seed
        ).generate(60.0)
        by_session: dict[int, list] = {}
        for timed in compile_timeline(trace):
            by_session.setdefault(timed.request.session, []).append(timed)
        assert len(by_session) == len(trace.sessions)
        for requests in by_session.values():
            times = [t.at_minutes for t in requests]
            ids = [t.request.request_id for t in requests]
            kinds = [t.request.kind for t in requests]
            assert times == sorted(times)
            assert ids == sorted(ids)
            assert kinds[0] == "session_start"
            assert kinds[-1] == "session_end" and "session_end" not in kinds[:-1]


class TestVirtualDeterminism:
    def _decision_log(self, seed):
        catalog, plan, capacity, reserve, trace = make_deployment(seed=seed)
        sink = io.StringIO()
        engine = make_engine(catalog, plan, capacity, reserve,
                             decision_log=sink)
        report = run_virtual(engine, trace)
        return sink.getvalue(), report

    def test_seeded_runs_are_byte_identical(self):
        first_log, first_report = self._decision_log(seed=42)
        second_log, second_report = self._decision_log(seed=42)
        assert first_log == second_log
        assert first_log.count("\n") > 50
        assert first_report.decisions == second_report.decisions

    def test_different_seeds_differ(self):
        first_log, _ = self._decision_log(seed=42)
        other_log, _ = self._decision_log(seed=43)
        assert first_log != other_log

    def test_no_error_decisions_from_a_clean_workload(self):
        _, report = self._decision_log(seed=42)
        assert "error" not in report.decisions
        assert report.sessions_started > 0


class TestLoadReport:
    def test_percentiles(self):
        report = LoadReport(mode="wall")
        report.latencies_ms = [float(v) for v in range(1, 101)]
        # Nearest-rank: ceil(q*N) over 100 samples 1..100 is just q*100.
        assert report.latency_percentile(0.50) == 50.0
        assert report.latency_percentile(0.99) == 99.0
        assert report.latency_percentile(0.0) == 1.0
        assert report.latency_percentile(1.0) == 100.0

    def test_percentiles_nearest_rank_even_sample(self):
        report = LoadReport(mode="wall")
        report.latencies_ms = [10.0, 20.0, 30.0, 40.0]
        # ceil(0.5*4)=2 -> 20, ceil(0.9*4)=4 -> 40, ceil(0.99*4)=4 -> 40.
        assert report.latency_percentile(0.50) == 20.0
        assert report.latency_percentile(0.90) == 40.0
        assert report.latency_percentile(0.99) == 40.0

    def test_percentiles_nearest_rank_odd_sample(self):
        report = LoadReport(mode="wall")
        report.latencies_ms = [50.0, 10.0, 30.0, 20.0, 40.0]  # unsorted on purpose
        # ceil(0.5*5)=3 -> 30 (the true median), ceil(0.9*5)=5 -> 50,
        # ceil(0.99*5)=5 -> 50.
        assert report.latency_percentile(0.50) == 30.0
        assert report.latency_percentile(0.90) == 50.0
        assert report.latency_percentile(0.99) == 50.0

    def test_percentile_single_sample(self):
        report = LoadReport(mode="wall")
        report.latencies_ms = [7.0]
        for q in (0.0, 0.5, 0.99, 1.0):
            assert report.latency_percentile(q) == 7.0

    def test_percentile_validation_and_empty(self):
        report = LoadReport(mode="wall")
        assert report.latency_percentile(0.5) == 0.0
        with pytest.raises(ConfigurationError):
            report.latency_percentile(1.5)

    def test_admissions_per_second(self):
        report = LoadReport(mode="wall")
        report.decisions = {"admit": 30, "batch": 30, "reject": 5}
        report.elapsed_seconds = 2.0
        assert report.admissions_per_second == 30.0

    def test_to_dict_shape(self):
        report = LoadReport(mode="virtual")
        summary = report.to_dict()
        assert summary["mode"] == "virtual"
        assert set(summary["latency_ms"]) == {"p50", "p90", "p99"}


class TestWallMode:
    def test_wall_run_matches_virtual_decisions(self):
        catalog, plan, capacity, reserve, trace = make_deployment()

        async def scenario():
            engine = make_engine(catalog, plan, capacity, reserve)
            service = AdmissionService(engine, host="127.0.0.1", port=0)
            await service.start()
            try:
                return await run_wall(
                    "127.0.0.1", service.port, trace,
                    connections=3, phased=True,
                )
            finally:
                await service.shutdown()

        report = asyncio.run(scenario())
        assert report.mode == "wall"
        assert report.sessions_started > 0
        assert report.sessions_completed == report.sessions_started
        assert report.peak_concurrency == report.sessions_started
        assert len(report.latencies_ms) == report.requests_sent
        assert report.latency_percentile(0.99) >= report.latency_percentile(0.5)

    def test_connection_count_validated(self):
        *_, trace = make_deployment()
        with pytest.raises(ConfigurationError):
            asyncio.run(run_wall("127.0.0.1", 1, trace, connections=0))
