"""Deterministic process-pool fan-out for sweeps, grids and fault matrices.

The sizing procedure (Section 5), the Figure-8/9 experiment grids and the
chaos fault matrix are all embarrassingly parallel: many independent,
CPU-bound evaluations whose outputs are combined by *task index*, never by
completion order.  :class:`ParallelExecutor` exploits that
shape while keeping the repository's reproducibility contract intact:

Determinism contract
--------------------
* Tasks are assigned to shards round-robin by task index, one shard per
  worker, so the partition is a pure function of ``(len(items), workers)``.
* Each task's result is keyed by its task index; the driver re-sorts by
  index before returning.  The same inputs therefore produce bit-for-bit
  identical results regardless of worker count, scheduling order, or
  whether the serial fallback ran.
* Tasks must be pure functions of their item (memoisation through the
  worker-local :class:`~repro.runtime.modelcache.ModelEvaluationCache` is
  invisible: a cache hit returns exactly the value a fresh evaluation
  would).

Execution model
---------------
Fan-out uses a ``fork``-context process pool: workers inherit the parent's
imported modules, and each shard runs its tasks serially in-order inside one
worker, against a per-process :func:`worker_cache`.  When ``workers == 1``,
the item list is trivial, or the platform lacks ``fork`` (e.g. Windows), the
same shard runner executes inline in the driver process — identical code
path, identical output.

Every run reports per-shard wall-clock timing and cache hit/miss deltas
back to the driver via :class:`ShardReport`, so operators can verify both
the speedup and that worker-side memoisation is actually working.

Dead workers do not kill the run: a worker that dies mid-shard (OOM kill,
segfault, ``os._exit``) surfaces as a broken pool, and the driver re-submits
only the shards that never delivered, in a fresh pool, up to
:data:`MAX_SHARD_RETRIES` (2) times.  Because tasks are pure and keyed by index, a
re-run shard produces exactly the results the dead worker would have — the
determinism contract survives the crash.  Exhausting the retries raises
:class:`~repro.exceptions.WorkerCrashError`; ordinary task exceptions still
propagate unchanged on first occurrence (they would recur verbatim anyway).

Task callables must be module-level (picklable by qualified name) and items
must be picklable.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

from typing import TYPE_CHECKING

from repro.exceptions import ConfigurationError, WorkerCrashError
from repro.obs.log import get_logger
from repro.obs.spans import span

if TYPE_CHECKING:  # pragma: no cover - import layering: see worker_cache()
    from repro.runtime.modelcache import ModelEvaluationCache

__all__ = [
    "MAX_SHARD_RETRIES",
    "ShardReport",
    "ParallelOutcome",
    "ParallelExecutor",
    "fork_available",
    "resolve_workers",
    "worker_cache",
    "reset_worker_cache",
]

T = TypeVar("T")
R = TypeVar("R")

_log = get_logger("parallel.executor")

#: Fresh-pool re-submits of a shard whose worker died, before giving up.
MAX_SHARD_RETRIES = 2

#: Process-local evaluation cache shared by every shard this process runs.
_WORKER_CACHE: "ModelEvaluationCache | None" = None


def worker_cache() -> "ModelEvaluationCache":
    """This process's :class:`ModelEvaluationCache`, created on first use.

    In a pool worker the cache lives for the worker's lifetime; in the
    serial fallback it is simply the driver process's own cache.  The
    experiment sweeps evaluate each ``(movie, n)`` once, so they get no
    value hits from it (Figure 8: 0 of 207 per-operation lookups; the full
    Figure 9: 0 of 153); it pays off only where a process evaluates the
    same operation, distribution and configuration again.
    """
    # Imported here (not at module top) so importing the executor does not
    # pull in repro.runtime/repro.sizing, whose planner imports it back.
    from repro.runtime.modelcache import ModelEvaluationCache

    global _WORKER_CACHE
    if _WORKER_CACHE is None:
        _WORKER_CACHE = ModelEvaluationCache()
    return _WORKER_CACHE


def reset_worker_cache() -> None:
    """Drop this process's worker cache (benchmark/test isolation).

    Forked pool workers inherit the driver's cache contents at fork time —
    deterministically harmless (cached values equal fresh evaluations by
    contract) but unwanted when timing cold-start behaviour.
    """
    global _WORKER_CACHE
    _WORKER_CACHE = None


def fork_available() -> bool:
    """True when the platform supports the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


def resolve_workers(workers: int | None) -> int:
    """Normalise a worker-count knob: ``None``/``0`` means all CPUs."""
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise ConfigurationError(f"workers must be >= 0, got {workers}")
    return int(workers)


@dataclass(frozen=True)
class ShardReport:
    """Timing and cache telemetry for one shard's in-order task run."""

    shard: int
    tasks: int
    seconds: float
    cache_hits: int
    cache_misses: int
    pid: int
    attempts: int = 1

    def describe(self) -> str:
        """One-line human-readable form."""
        retried = f", attempt {self.attempts}" if self.attempts > 1 else ""
        return (
            f"shard {self.shard}: {self.tasks} tasks in {self.seconds:.2f}s "
            f"(cache {self.cache_hits} hits / {self.cache_misses} misses, "
            f"pid {self.pid}{retried})"
        )


@dataclass(frozen=True)
class ParallelOutcome:
    """A fan-out's results (in task order) plus its execution telemetry."""

    results: tuple
    shards: tuple[ShardReport, ...]
    workers: int
    seconds: float
    retried_shards: int = 0

    @property
    def tasks(self) -> int:
        """Total task count across all shards."""
        return len(self.results)

    @property
    def cache_hits(self) -> int:
        """Cache hits summed over shards."""
        return sum(s.cache_hits for s in self.shards)

    @property
    def cache_misses(self) -> int:
        """Cache misses summed over shards."""
        return sum(s.cache_misses for s in self.shards)

    def describe(self) -> str:
        """One-line driver summary (timing is wall clock, not CPU)."""
        return (
            f"{self.tasks} tasks over {self.workers} worker(s) in "
            f"{self.seconds:.2f}s; "
            + "; ".join(s.describe() for s in self.shards)
        )

    @staticmethod
    def merge(*outcomes: "ParallelOutcome") -> "ParallelOutcome":
        """Combine phase outcomes of a multi-phase grid into one report.

        Results are concatenated in phase order, shard reports are kept
        as-is (shard indices are per-phase), wall-clock seconds add up, and
        the worker count is the maximum any phase used.
        """
        if not outcomes:
            raise ConfigurationError("merge needs at least one outcome")
        return ParallelOutcome(
            results=tuple(r for o in outcomes for r in o.results),
            shards=tuple(s for o in outcomes for s in o.shards),
            workers=max(o.workers for o in outcomes),
            seconds=sum(o.seconds for o in outcomes),
            retried_shards=sum(o.retried_shards for o in outcomes),
        )

    def timing_payload(self) -> dict:
        """JSON-serialisable telemetry (benchmark artifacts, logs)."""
        return {
            "workers": self.workers,
            "tasks": self.tasks,
            "seconds": self.seconds,
            "retried_shards": self.retried_shards,
            "shards": [
                {
                    "shard": s.shard,
                    "tasks": s.tasks,
                    "seconds": s.seconds,
                    "cache_hits": s.cache_hits,
                    "cache_misses": s.cache_misses,
                    "pid": s.pid,
                    "attempts": s.attempts,
                }
                for s in self.shards
            ],
        }


@dataclass(frozen=True)
class _ShardResult:
    """What one shard ships back to the driver."""

    shard: int
    keyed_results: tuple  # ((task_index, result), ...)
    seconds: float
    cache_hits: int
    cache_misses: int
    pid: int


def _cache_counters(cache: ModelEvaluationCache) -> tuple[int, int]:
    stats = cache.stats()
    return (
        sum(s.hits for s in stats.values()),
        sum(s.misses for s in stats.values()),
    )


def _run_shard(
    func: Callable[[T], R], shard_index: int, tasks: Sequence[tuple[int, T]]
) -> _ShardResult:
    """Run one shard's tasks serially in-order (in a worker or inline)."""
    cache = worker_cache()
    hits_before, misses_before = _cache_counters(cache)
    with span("parallel.shard") as timer:
        keyed = tuple((index, func(item)) for index, item in tasks)
    seconds = timer.elapsed
    hits_after, misses_after = _cache_counters(cache)
    return _ShardResult(
        shard=shard_index,
        keyed_results=keyed,
        seconds=seconds,
        cache_hits=hits_after - hits_before,
        cache_misses=misses_after - misses_before,
        pid=os.getpid(),
    )


class ParallelExecutor:
    """Fans a pure task function over items with deterministic output order."""

    def __init__(self, workers: int | None = 1, tracer=None) -> None:
        self._workers = resolve_workers(workers)
        # Diagnostic only: ``worker_retry`` events depend on *when* a worker
        # died, so they never belong in a deterministic run trace — attach a
        # tracer here only for post-mortems.
        self._tracer = tracer if tracer is not None and tracer.enabled else None
        self.shard_retries = 0

    @property
    def workers(self) -> int:
        """The resolved worker count."""
        return self._workers

    def map(self, func: Callable[[T], R], items: Iterable[T]) -> ParallelOutcome:
        """Apply ``func`` to every item; results come back in item order.

        ``func`` must be a module-level callable (or otherwise picklable by
        reference) and pure in its item.  Exceptions raised by any task
        propagate to the caller unchanged.
        """
        indexed = list(enumerate(items))
        shard_count = max(1, min(self._workers, len(indexed)))
        _log.debug("fan-out: %d tasks over %d shard(s)", len(indexed), shard_count)
        shards: list[list[tuple[int, T]]] = [[] for _ in range(shard_count)]
        for index, item in indexed:
            shards[index % shard_count].append((index, item))

        attempts: dict[int, int] = {}
        with span("parallel.map") as timer:
            if shard_count == 1 or not fork_available():
                shard_results = [
                    _run_shard(func, shard_index, shard)
                    for shard_index, shard in enumerate(shards)
                ]
            else:
                shard_results = self._map_with_retries(
                    func, list(enumerate(shards)), attempts
                )
        seconds = timer.elapsed

        keyed: list[tuple[int, R]] = []
        for shard_result in shard_results:
            keyed.extend(shard_result.keyed_results)
        keyed.sort(key=lambda pair: pair[0])
        shard_results.sort(key=lambda s: s.shard)
        return ParallelOutcome(
            results=tuple(result for _, result in keyed),
            shards=tuple(
                ShardReport(
                    shard=s.shard,
                    tasks=len(s.keyed_results),
                    seconds=s.seconds,
                    cache_hits=s.cache_hits,
                    cache_misses=s.cache_misses,
                    pid=s.pid,
                    attempts=attempts.get(s.shard, 1),
                )
                for s in shard_results
            ),
            workers=shard_count,
            seconds=seconds,
            retried_shards=sum(1 for n in attempts.values() if n > 1),
        )

    def _map_with_retries(
        self,
        func: Callable[[T], R],
        pending: list[tuple[int, Sequence[tuple[int, T]]]],
        attempts: dict[int, int],
    ) -> list[_ShardResult]:
        """Fan the shards out, re-submitting the ones a dead worker ate.

        A crashed worker breaks its whole pool, so every shard still in
        flight fails together; the completed ones keep their results and the
        rest go into a fresh pool.  Task purity makes the re-run exact, and
        the driver keys results by task index, so the output is byte-for-byte
        the output of a crash-free run.
        """
        context = multiprocessing.get_context("fork")
        shard_results: list[_ShardResult] = []
        for shard_index, _ in pending:
            attempts[shard_index] = 1
        while True:
            failed: list[tuple[int, Sequence[tuple[int, T]]]] = []
            with ProcessPoolExecutor(
                max_workers=len(pending), mp_context=context
            ) as pool:
                futures = [
                    (shard_index, shard, pool.submit(_run_shard, func, shard_index, shard))
                    for shard_index, shard in pending
                ]
                for shard_index, shard, future in futures:
                    try:
                        shard_results.append(future.result())
                    except BrokenProcessPool:
                        failed.append((shard_index, shard))
            if not failed:
                return shard_results
            exhausted = [
                shard_index
                for shard_index, _ in failed
                if attempts[shard_index] > MAX_SHARD_RETRIES
            ]
            if exhausted:
                raise WorkerCrashError(
                    f"shard(s) {exhausted} kept crashing their worker; gave up "
                    f"after {MAX_SHARD_RETRIES} retries each"
                )
            for shard_index, _ in failed:
                attempt = attempts[shard_index]
                attempts[shard_index] = attempt + 1
                self.shard_retries += 1
                _log.warning(
                    "worker died; re-submitting shard %d (attempt %d)",
                    shard_index,
                    attempt + 1,
                )
                if self._tracer is not None:
                    self._tracer.emit(
                        "worker_retry", 0.0, shard=shard_index, attempt=attempt + 1
                    )
            pending = failed
