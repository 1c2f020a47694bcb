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
        "0fa94ffa074057f73a11bd54dc959a2cc2c7bf4348e13169e270121212fe5328",
        "ee395cb7584aa7d709d990c220e40c53dd1c1b5efb233605da735914de64731e",
    ),
    2: (
        603, 610, 261,
        "906c7ebbe20a3e8f41be8d3e8d9cdfa850d4e578e23a18276d9a0a01fe0b9d5e",
        "e2597f5a4d0b98e1c5829a443991b6a83c1420a6c5b289d24a90439a58ec99e7",
    ),
    3: (
        574, 570, 255,
        "042aa1f7a36e39c28af08d0241c4a455e574e79e7e99b7c8289e42f30de3965c",
        "ef72eb4262948a5c267335009dadec45409969063fa04ba0e83951800e4d9383",
    ),
}
_FAULTED = (
    475, 580, 255,
    "329ca750fa89f056088ac9311c909a128650929f0ef095b7d7f82c17599bb0a1",
    "3dad0926e00a5cbc7cfb7b119d329a38ea74d31dad5ec511f1a493183588e4a5",
)
_STEPPED = (
    499, 602, 233,
    "c036b7627539930ec4a475dd3e4a5a97685679d113b23a4e7acc22dcae8c3d8e",
    "fab769e6ba59a77f823302b687de365ac216e58e925db60ccd9a66e6f0118cc5",
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
