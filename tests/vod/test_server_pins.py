"""Bit-identity pins for the simulated server under the Example-1 plan.

Each run reduces to its :class:`ServerMetricsReport` and to the sha256 of
``sorted(MetricsRegistry.snapshot(now).items())``.  Both are pinned exactly:
a refactor of the server's hot path (window lookups, gap queries, occupancy
accounting, duration sampling) must not move a single bit of either.  The
runs cover the fault-free Example-1 plan on three seeds, the same plan under
an injected fault plan that revokes streams and collapses partitions, and a
run driven tick by tick with :meth:`VODServer.step` and live
``reconfigure_movie`` calls that change the partition span mid-run.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.parameters import SystemConfiguration
from repro.core.vcrop import VCROperation
from repro.experiments.example1 import paper_example1_specs
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.vod.buffer import BufferPool
from repro.vod.movie import Movie, MovieCatalog
from repro.vod.server import ServerWorkload, VODServer
from repro.vod.vcr import VCRBehavior

#: The Example-1 plan at a 1230-stream budget: ``(length, n*, B*)`` per
#: movie, 614 partition streams, 112.6 buffer minutes, and the 21-stream
#: VCR reserve sized at 1 arrival/min for a 1% blocking target.
_PLAN = {
    0: SystemConfiguration(75.0, 374, 37.6),
    1: SystemConfiguration(60.0, 60, 30.0),
    2: SystemConfiguration(90.0, 180, 45.0),
}
_STREAMS = 614 + 21
_BUFFER_MINUTES = 112.6 + 1.0


def _server(seed: int, horizon: float = 400.0, warmup: float = 150.0) -> VODServer:
    specs = paper_example1_specs()
    movies = [
        Movie(index, spec.name, spec.length, popularity=1.0 / len(specs))
        for index, spec in enumerate(specs)
    ]
    # The viewers behave like the first movie's spec, as in the ledger's
    # Example-1 validation: gamma(2, 4) durations, Figure 7(d) mix.
    first = specs[0]
    behavior = VCRBehavior(
        mix=first.mix, durations={op: first.durations for op in VCROperation}
    )
    return VODServer(
        MovieCatalog(movies, popular_count=len(movies)),
        _PLAN,
        num_streams=_STREAMS,
        buffer_pool=BufferPool.for_minutes(_BUFFER_MINUTES),
        behavior=behavior,
        workload=ServerWorkload(
            arrival_rate=1.0, horizon=horizon, warmup=warmup, seed=seed
        ),
    )


def _digests(server: VODServer, report) -> tuple[str, str]:
    snapshot = sorted(server.metrics.snapshot(server.env.now).items())
    return (
        hashlib.sha256(repr(report).encode()).hexdigest(),
        hashlib.sha256(repr(snapshot).encode()).hexdigest(),
    )


def _fault_plan() -> FaultPlan:
    return FaultPlan(
        seed=0,
        events=(
            FaultEvent(170.0, FaultKind.STREAM_REVOKE, 60.0),
            FaultEvent(220.0, FaultKind.BUFFER_PRESSURE, 0.3, duration=60.0),
            FaultEvent(260.0, FaultKind.DISK_DEGRADE, 0.5, duration=80.0),
            FaultEvent(330.0, FaultKind.STREAM_REVOKE, 40.0),
        ),
    )


# (resume hits, resume misses, viewers started, report sha256, snapshot sha256)
_FAULT_FREE = {
    1: (
        651, 658, 284,
        "3aaf44cc1335d3f72988fc0505883773c96d9c088dbef331cdec23f4fa5710c7",
        "151c1ae2fc0cdcfa7bc14fa385b80e28b81dee471878d9a435d3ec1adebdb067",
    ),
    2: (
        603, 610, 261,
        "58db43e7d2e22441194444e75b2c048f4f36df1a6cc4f4d54672850b6a134675",
        "9094c507b0b34fe3e01ea38d04d105987e866cf0e3caed46aafa9d9e35f5716b",
    ),
    3: (
        574, 570, 255,
        "b76fb80309033af30ef91ab817b404f98edd6442281711d9acd7c1a0ccef24b3",
        "26474b1ed2c8dba1bfb5248113726dd4ecc53c5ff5ee6d587cad6ba8fb95ffd6",
    ),
}
_FAULTED = (
    475, 580, 255,
    "5eed9e296e76d518750f9160e4ba813ac24e52a1437c8f9022a67db224dbbe97",
    "147b72ba2e23c90b26e2fe4a83691cc79041cdd28b7b4e453177578545fed4c3",
)
_STEPPED = (
    499, 602, 233,
    "00daf3b04262f31564fe144bf583a3749ba9d9ee029d7dc5d846fa493b067ce5",
    "ce40495607271355fed105fb8a48f8cbc0240df2c8326f7316141996c9ae5e02",
)


class TestExample1Pins:
    @pytest.mark.parametrize("seed", sorted(_FAULT_FREE))
    def test_fault_free_run(self, seed):
        server = _server(seed)
        report = server.run()
        outcome = (report.resume_hits, report.resume_misses, report.viewers_started)
        assert outcome + _digests(server, report) == _FAULT_FREE[seed]

    def test_faulted_run_revokes_and_collapses(self):
        server = _server(4)
        server.attach_fault_layer(_fault_plan(), degrade=True)
        report = server.run()
        assert report.streams_revoked > 0
        assert report.partitions_collapsed > 0
        outcome = (report.resume_hits, report.resume_misses, report.viewers_started)
        assert outcome + _digests(server, report) == _FAULTED

    def test_stepped_run_with_live_reconfiguration(self):
        server = _server(5)
        server.start()
        server.step(120.0)
        # Fewer, wider partitions for movie 1; more, narrower ones for movie 3.
        server.reconfigure_movie(0, SystemConfiguration(75.0, 250, 30.0))
        server.step(160.0)
        server.reconfigure_movie(2, SystemConfiguration(90.0, 240, 45.0))
        server.step(200.0)
        assert server.metrics.counter_value("reconfigured") == 2
        server.metrics.reset_all(server.env.now)
        server.step(420.0)
        report = server.report()
        outcome = (report.resume_hits, report.resume_misses, report.viewers_started)
        assert outcome + _digests(server, report) == _STEPPED
