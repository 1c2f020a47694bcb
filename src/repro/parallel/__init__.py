"""Deterministic parallel execution for sweeps, grids and fault matrices.

* :class:`~repro.parallel.executor.ParallelExecutor` — fork-based process
  pool with a serial fallback, round-robin sharding, index-keyed results
  (bit-for-bit identical output for any worker count) and per-shard
  timing/cache telemetry.
* :mod:`~repro.parallel.sweeps` — per-movie feasible-set sweep tasks for the
  Section-5 grids (Figures 8/9, the sizing planner).
"""

from repro.parallel.executor import (
    ParallelExecutor,
    ParallelOutcome,
    ShardReport,
    fork_available,
    resolve_workers,
    reset_worker_cache,
    worker_cache,
)
from repro.parallel.sweeps import (
    FrontierTask,
    MovieFrontier,
    evaluate_frontier,
    sweep_frontiers,
    warm_feasible_set,
)

__all__ = [
    "ParallelExecutor",
    "ParallelOutcome",
    "ShardReport",
    "fork_available",
    "resolve_workers",
    "worker_cache",
    "FrontierTask",
    "MovieFrontier",
    "evaluate_frontier",
    "sweep_frontiers",
    "warm_feasible_set",
]
