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
        "8f09c084512e06bed1f9fbd74ed141eb6ec9e985b15806fb795709c9639c42e2",
        "99de369041ad55b68a8249fbb425e2c152f011b05809cb096d82910a266efa9e",
    ),
    2: (
        603, 610, 261,
        "021bd2d804a8f007070cd5f1e44b57df30f82dcdc77daf89bc7a3e07e2007671",
        "ae27625f23b2c9000f283ca98782a70c7f8bd07f06718622ec9adc7b7659fee8",
    ),
    3: (
        574, 570, 255,
        "fe1470c97a52c79bde5442e364f7ab2d7f2848e697276e19c35abf8d9b13b9ab",
        "992288b494b071398b2b6896c2310e2cc655385e0933866cd4d1d6691f2050d3",
    ),
}
_FAULTED = (
    475, 580, 255,
    "5bd24a9ae0258bb9683c09ffd27e1842b6489484dd90fbda295222ce6e47fb18",
    "437ac0fb7cd0d6ce25d8250744652344fd36a920a0fe14c521496f94fb585c1d",
)
_STEPPED = (
    499, 602, 233,
    "8a196a9765fe302c87ff84de5b220d405dbcea5e1982f6ec1b495700b4158b97",
    "a270f397ffe570e4cd9154e8099faaf9ee2c3d233bd410e0670cbe940beaa1be",
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
