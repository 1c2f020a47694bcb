"""One window oracle: the closed form of :mod:`repro.core.windows` against
the simulated server's live-stream bisections, and the layering that keeps
both simulators on it.

``HitSimulator`` asks :func:`find_covering_window`; ``VODServer`` asks
:meth:`MovieService.find_window`.  With an unconstrained stream pool, no
faults and no reconfiguration, the server's restarts form the periodic
lattice the closed form assumes, so the two must agree on every hit and on
the stream that covers it, also within a tolerance of every window edge.

Two places are outside that claim, and the tests name them:

* the instants at which a stream starts or a window ends.  The server's
  clock reaches restart ``j`` as a running sum of spacings, the lattice puts
  it at ``j * l/n``, and the two differ by a few ulps; the closed form also
  admits a restart up to ``_TOL`` before it starts, and counts a window
  still live at the instant its tail ends, when the server has dropped it.
  At such an instant a query at position 0 or ``l`` can differ, so query
  times are drawn off them;
* shared edges under full buffering (``B = l``), where two windows meet.
  Both streams cover a position within ``_TOL`` of the edge; the server
  takes the younger, the closed form the one that covers strictly.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro
from repro.core.parameters import SystemConfiguration
from repro.core.windows import _TOL, find_covering_window
from repro.sim.engine import Environment
from repro.sim.metrics import MetricsRegistry
from repro.vod.movie import Movie
from repro.vod.partitioning import MovieService
from repro.vod.streams import StreamPool

EDGE_OFFSETS = (0.0, _TOL / 2, -_TOL / 2, 2 * _TOL, -2 * _TOL)


def lattice_service(config, now):
    """A ``MovieService`` run to ``now`` on a pool that never starves."""
    env = Environment()
    metrics = MetricsRegistry()
    pool = StreamPool(env, 2 * config.num_partitions + 2, metrics)
    movie = Movie(0, "m", config.movie_length, popularity=1.0)
    service = MovieService(env, movie, config, pool, metrics)
    service.start()
    env.run(until=now)
    assert metrics.counter_value("restarts_starved") == 0
    return service


def assert_same_hit(config, service, now, position):
    window = service.find_window(position)
    hit = find_covering_window(config, now, position)
    assert (window is None) == (hit is None), (now, position, window, hit)
    if hit is None:
        return
    lattice_start = hit.stream_index * config.partition_spacing
    if window.start_time != pytest.approx(lattice_start, abs=1e-6):
        # A shared edge under full buffering: the two answers are the
        # neighbouring streams on either side of it.
        assert config.partition_span == pytest.approx(config.partition_spacing)
        assert abs(window.start_time - lattice_start) == pytest.approx(
            config.partition_spacing
        )


_CONFIG = st.builds(
    lambda length, n, fill: SystemConfiguration(length, n, fill * length),
    st.floats(30.0, 150.0),
    st.integers(1, 40),
    st.floats(0.0, 1.0),
)
# A query time: a restart index and how far past it, as a share of the
# spacing.
_RESTART = st.integers(0, 120)
_PHASE = st.floats(0.0, 1.0, exclude_max=True)


def between_events(config, restart, phase):
    """The query time, kept 1e-6 spacings off every restart and window end.

    A window ends ``l + B/n`` after its restart, which is ``B/l`` of a
    spacing past some later restart.
    """
    for instant in (0.0, 1.0, (config.partition_span / config.partition_spacing) % 1.0):
        assume(abs(phase - instant) > 1e-6)
    return (restart + phase) * config.partition_spacing


class TestServiceMatchesClosedForm:
    @settings(max_examples=150, deadline=None)
    @given(
        config=_CONFIG,
        restart=_RESTART,
        phase=_PHASE,
        fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
    )
    def test_random_positions(self, config, restart, phase, fractions):
        now = between_events(config, restart, phase)
        service = lattice_service(config, now)
        for fraction in fractions:
            assert_same_hit(config, service, now, fraction * config.movie_length)

    @settings(max_examples=150, deadline=None)
    @given(config=_CONFIG, restart=_RESTART, phase=_PHASE)
    def test_every_window_edge(self, config, restart, phase):
        now = between_events(config, restart, phase)
        service = lattice_service(config, now)
        playback = config.rates.playback
        length = config.movie_length
        for stream in service.live_streams:
            playhead = stream.playhead(now, playback)
            for edge in (playhead - config.partition_span, min(playhead, length)):
                for offset in EDGE_OFFSETS:
                    position = edge + offset
                    if 0.0 <= position <= length:
                        assert_same_hit(config, service, now, position)

    def test_shared_edge_under_full_buffering(self):
        # Spacing 10 = span 10: at t=50 position 30 is the trailing edge of
        # the stream started at 10 and the leading edge of the one at 20.
        config = SystemConfiguration(120.0, 12, 120.0)
        service = lattice_service(config, 50.0)
        for offset in EDGE_OFFSETS:
            assert_same_hit(config, service, 50.0, 30.0 + offset)
        assert service.find_window(30.0 + _TOL / 2).start_time == 20.0
        assert find_covering_window(config, 50.0, 30.0 + _TOL / 2).stream_index == 1


def _imported_modules(package):
    """Every module the ``repro.<package>`` sources import, resolved."""
    root = Path(repro.__file__).parent / package
    here = f"repro.{package}"
    names = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                relative = "." * node.level + (node.module or "")
                names.add(importlib.util.resolve_name(relative, here))
    return names


@pytest.mark.parametrize("package, other", [("vod", "simulation"), ("simulation", "vod")])
def test_vod_and_simulation_import_nothing_from_each_other(package, other):
    prefix = f"repro.{other}"
    leaked = {n for n in _imported_modules(package) if n == prefix or n.startswith(prefix + ".")}
    assert not leaked, f"repro.{package} imports {sorted(leaked)}"
