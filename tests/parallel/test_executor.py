"""The deterministic executor: sharding, ordering, telemetry, fallbacks."""

from __future__ import annotations

import os

import pytest

from repro.exceptions import ConfigurationError, WorkerCrashError
from repro.parallel.executor import (
    MAX_SHARD_RETRIES,
    ParallelExecutor,
    ParallelOutcome,
    ShardReport,
    fork_available,
    resolve_workers,
)


def _square(value: int) -> int:
    return value * value


def _fail_on_three(value: int) -> int:
    if value == 3:
        raise ValueError("task three exploded")
    return value


def _crash_once(arg) -> int:
    """Kill the worker the first time value 3 is seen; succeed on re-run.

    The sentinel file persists across the retry, so the second attempt runs
    clean — the shape of a transient worker death (OOM kill, node blip).
    """
    sentinel, value = arg
    if value == 3 and not os.path.exists(sentinel):
        with open(sentinel, "w", encoding="utf-8") as handle:
            handle.write("crashed")
        os._exit(17)
    return value * value


def _always_crash(value) -> int:
    os._exit(17)


class TestResolveWorkers:
    def test_explicit_count(self):
        assert resolve_workers(3) == 3

    def test_none_and_zero_mean_all_cpus(self):
        expected = os.cpu_count() or 1
        assert resolve_workers(None) == expected
        assert resolve_workers(0) == expected

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_workers(-1)


class TestSerialFallback:
    def test_workers_one_runs_inline(self):
        outcome = ParallelExecutor(workers=1).map(_square, [1, 2, 3])
        assert outcome.results == (1, 4, 9)
        assert outcome.workers == 1
        assert len(outcome.shards) == 1
        assert outcome.shards[0].pid == os.getpid()

    def test_empty_items(self):
        outcome = ParallelExecutor(workers=4).map(_square, [])
        assert outcome.results == ()
        assert outcome.tasks == 0

    def test_fewer_items_than_workers(self):
        outcome = ParallelExecutor(workers=8).map(_square, [5, 6])
        assert outcome.results == (25, 36)
        # One shard per item, never idle shards.
        assert outcome.workers == 2


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
class TestParallelExecution:
    def test_results_in_item_order(self):
        items = list(range(17))
        outcome = ParallelExecutor(workers=4).map(_square, items)
        assert outcome.results == tuple(i * i for i in items)
        assert outcome.workers == 4

    def test_matches_serial(self):
        items = list(range(10))
        serial = ParallelExecutor(workers=1).map(_square, items)
        parallel = ParallelExecutor(workers=3).map(_square, items)
        assert serial.results == parallel.results

    def test_round_robin_shard_sizes(self):
        outcome = ParallelExecutor(workers=3).map(_square, range(8))
        # 8 tasks over 3 shards round-robin: 3, 3, 2.
        assert sorted(s.tasks for s in outcome.shards) == [2, 3, 3]
        assert sum(s.tasks for s in outcome.shards) == outcome.tasks

    def test_task_exception_propagates(self):
        with pytest.raises(ValueError, match="task three exploded"):
            ParallelExecutor(workers=2).map(_fail_on_three, range(6))


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
class TestWorkerCrashRecovery:
    def test_dead_worker_shard_is_reassigned(self, tmp_path):
        sentinel = str(tmp_path / "crashed")
        items = [(sentinel, i) for i in range(8)]
        executor = ParallelExecutor(workers=4)
        outcome = executor.map(_crash_once, items)
        assert outcome.results == tuple(i * i for i in range(8))
        assert executor.shard_retries >= 1
        assert outcome.retried_shards >= 1
        assert any(s.attempts > 1 for s in outcome.shards)
        assert outcome.timing_payload()["retried_shards"] == outcome.retried_shards

    def test_recovered_run_matches_serial_byte_for_byte(self, tmp_path):
        sentinel = str(tmp_path / "crashed")
        items = [(sentinel, i) for i in range(8)]
        recovered = ParallelExecutor(workers=4).map(_crash_once, items)
        serial = ParallelExecutor(workers=1).map(
            _square, [i for _, i in items]
        )
        assert recovered.results == serial.results

    def test_retries_are_bounded(self):
        assert MAX_SHARD_RETRIES == 2
        executor = ParallelExecutor(workers=2)
        with pytest.raises(WorkerCrashError, match="gave up after 2 retries each"):
            executor.map(_always_crash, range(4))
        # Both shards were re-submitted twice before the executor gave up.
        assert executor.shard_retries == 2 * MAX_SHARD_RETRIES


class TestTelemetry:
    def test_shard_report_describe(self):
        report = ShardReport(
            shard=0, tasks=2, seconds=0.5, cache_hits=3, cache_misses=1, pid=42
        )
        text = report.describe()
        assert "shard 0" in text and "2 tasks" in text and "3 hits" in text

    def test_outcome_totals_and_payload(self):
        outcome = ParallelExecutor(workers=1).map(_square, [1, 2, 3])
        payload = outcome.timing_payload()
        assert payload["tasks"] == 3
        assert payload["workers"] == 1
        assert len(payload["shards"]) == 1
        assert outcome.cache_hits == sum(s.cache_hits for s in outcome.shards)
        assert "tasks over" in outcome.describe()

    def test_merge_concatenates_phases(self):
        first = ParallelExecutor(workers=1).map(_square, [1, 2])
        second = ParallelExecutor(workers=1).map(_square, [3])
        merged = ParallelOutcome.merge(first, second)
        assert merged.results == (1, 4, 9)
        assert merged.tasks == 3
        assert merged.seconds == pytest.approx(first.seconds + second.seconds)
        assert len(merged.shards) == 2

    def test_merge_needs_an_outcome(self):
        with pytest.raises(ValueError):
            ParallelOutcome.merge()
