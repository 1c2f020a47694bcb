"""Integration: phase-2 hold model and Erlang reservation sizing vs the server.

Single popular movie, FF/RW-only mix (no pause-stall path), so the loss
behaviour of the simulated stream pool matches the M/G/c/c assumptions.

Validated claims:

* **Little's law** — the time-averaged streams pinned by phase-2 holds equal
  the measured miss rate times the analytical mean hold (±15%).
* **Conservatism** — the Erlang-B denial prediction upper-bounds the
  simulated denial rate: simulated viewers stop issuing operations while
  drifting in phase 2, so the real offered load is slightly below the
  open-loop Little's-law estimate.  For sizing (pick a reserve meeting a
  denial target) conservative is the safe direction.
* **The sized reserve works** — the reserve chosen for a 1% target achieves
  ≤2% denials in simulation.
"""

from __future__ import annotations

import pytest

from repro.core.hitmodel import HitProbabilityModel, VCRMix
from repro.core.phase2 import Phase2Model
from repro.distributions import GammaDuration
from repro.experiments.figure7 import resume_counts
from repro.sizing.reservation import VCRLoadModel, erlang_b
from repro.vod import BufferPool, MovieCatalog, ServerWorkload, VCRBehavior, VODServer
from repro.vod.movie import Movie

LENGTH, N, BUFFER = 90.0, 18, 72.0
ARRIVAL, THINK = 0.6, 10.0
MIX = VCRMix(p_ff=0.5, p_rw=0.5, p_pause=0.0)


@pytest.fixture(scope="module")
def load_model():
    model = HitProbabilityModel(LENGTH, GammaDuration.paper_figure7(), mix=MIX)
    config = model.configuration(N, BUFFER)
    return VCRLoadModel(
        model, config, viewer_arrival_rate=ARRIVAL, mean_think_time=THINK
    )


def build_server(config, reserve: int, seed: int = 123, horizon: float = 2500.0):
    catalog = MovieCatalog([Movie(0, "only", LENGTH, popularity=1.0)], popular_count=1)
    return VODServer(
        catalog,
        {0: config},
        num_streams=N + reserve,
        buffer_pool=BufferPool.for_minutes(BUFFER + 1.0),
        behavior=VCRBehavior.uniform_duration_model(
            GammaDuration.paper_figure7(), MIX, THINK
        ),
        workload=ServerWorkload(
            arrival_rate=ARRIVAL, horizon=horizon, warmup=400.0, seed=seed
        ),
    )


def run_server(config, reserve: int, seed: int = 123, horizon: float = 2500.0):
    report = build_server(config, reserve, seed=seed, horizon=horizon).run()
    return report, horizon - 400.0


def test_littles_law_for_phase2_holds(load_model):
    report, minutes = run_server(load_model.config, reserve=25)
    miss_rate = report.resume_misses / minutes
    predicted = Phase2Model(load_model.config).expected_pinned_streams(miss_rate)
    assert report.mean_streams_miss_hold == pytest.approx(predicted, rel=0.2)


def test_erlang_prediction_is_conservative(load_model):
    load = load_model.offered_load()
    for reserve in (14, 18, 25):
        report, _ = run_server(load_model.config, reserve=reserve)
        observed = report.vcr_blocked / report.vcr_issued
        predicted = erlang_b(reserve, load)
        # Conservative: prediction at or above observation...
        assert predicted >= observed - 0.02, (reserve, predicted, observed)
        # ...but not uselessly loose.
        assert predicted <= observed + 0.15, (reserve, predicted, observed)


def test_sized_reserve_meets_target_in_simulation(load_model):
    plan = load_model.plan(blocking_target=0.01)
    report, _ = run_server(load_model.config, reserve=plan.reserve_streams)
    observed = report.vcr_blocked / report.vcr_issued
    assert observed <= 0.02, (plan, observed)


def test_hit_rate_matches_model_under_contention(load_model):
    """The analytical P(hit) holds up inside the resource-contended server,
    not just on the Figure-7 harness's pool that never starves.

    Hits are counted as the model counts them: an FF that reaches the end
    of the movie is a hit too (Eq. 20), not only a resume inside the window.
    """
    server = build_server(load_model.config, reserve=25)
    server.run()
    hits, trials = resume_counts(server.metrics)
    predicted = load_model.model.hit_probability(load_model.config)
    assert hits / trials == pytest.approx(predicted, abs=0.05)
