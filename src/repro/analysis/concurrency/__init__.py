"""Whole-project async concurrency analysis for the admission service.

The per-file rules of :mod:`repro.analysis` see one module at a time; the
hazards that dominate risk in the long-running service (:mod:`repro.service`)
are *interprocedural*: a blocking call three frames below an ``async def``
stalls every connection on the event loop, and a read-modify-write of shared
session state that spans an ``await`` races against the other tasks the
scheduler interleaves.  This package closes that gap with one
whole-project pass:

* :mod:`~repro.analysis.concurrency.callgraph` — parses the full tree once
  (through the existing :class:`~repro.analysis.base.LintContext`), builds a
  module-level call graph, and runs an async-reachability fixpoint: which
  sync functions are transitively called from ``async def`` bodies.  Calls
  hopped through ``loop.run_in_executor``/``asyncio.to_thread`` do not
  propagate reachability — that is the sanctioned escape hatch.
* :mod:`~repro.analysis.concurrency.blocking` — ``async-blocking``:
  ``time.sleep``, blocking socket/subprocess/file I/O at any async-reachable
  site, reported with the call chain from the async entry point.
* :mod:`~repro.analysis.concurrency.awaitspan` — ``async-await-span``:
  read-modify-write of shared service state (session registry, stream
  account, engine books) where an ``await`` sits between the read and the
  write with no lock and no single-writer pragma.
* :mod:`~repro.analysis.concurrency.tasks` — ``async-task-leak``: coroutine
  calls whose result is dropped, and ``create_task``/``ensure_future``
  handles that are neither stored nor awaited.

Every rule rides the existing machinery: the
:func:`~repro.analysis.base.register_rule` registry, ``# lint: allow(...)``
pragmas, the fingerprint baseline, and the ``repro-vod lint`` CLI (including
``--format sarif``).
"""

from __future__ import annotations

from repro.analysis.concurrency.callgraph import (
    FunctionInfo,
    ProjectCallGraph,
)

# Importing the rule modules registers the concurrency rule family.
from repro.analysis.concurrency import awaitspan as _awaitspan  # noqa: F401
from repro.analysis.concurrency import blocking as _blocking  # noqa: F401
from repro.analysis.concurrency import tasks as _tasks  # noqa: F401

__all__ = ["FunctionInfo", "ProjectCallGraph"]
