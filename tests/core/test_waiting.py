"""Waiting-time model: closed forms and agreement with the simulator."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hitmodel import VCRMix
from repro.core.parameters import SystemConfiguration
from repro.core.vcrop import VCROperation
from repro.core.waiting import WaitingTimeModel
from repro.distributions import ExponentialDuration
from repro.exceptions import ConfigurationError


@pytest.fixture
def model(base_config):
    # l=120, n=30, B=90: spacing 4, span 3, gap 1.
    return WaitingTimeModel(base_config)


class TestClosedForms:
    def test_type_fractions(self, model):
        assert model.type2_fraction == pytest.approx(0.75)  # B/l
        assert model.type1_fraction == pytest.approx(0.25)

    def test_max_wait_is_eq2_w(self, model, base_config):
        assert model.max_wait == pytest.approx(base_config.max_wait)

    def test_mean_wait(self, model):
        # gap^2 / (2 spacing) = 1 / 8.
        assert model.mean_wait == pytest.approx(0.125)

    def test_mean_wait_type1(self, model):
        assert model.mean_wait_type1 == pytest.approx(0.5)
        assert model.mean_wait == pytest.approx(
            model.type1_fraction * model.mean_wait_type1
        )

    def test_survival_and_cdf(self, model):
        assert model.survival(-1.0) == 1.0
        assert model.survival(0.0) == pytest.approx(0.25)
        assert model.survival(0.5) == pytest.approx(0.125)
        assert model.survival(1.0) == 0.0
        assert model.cdf(0.0) == pytest.approx(0.75)

    def test_quantiles(self, model):
        assert model.quantile(0.5) == 0.0           # inside the atom
        assert model.quantile(0.75) == pytest.approx(0.0)
        assert model.quantile(0.875) == pytest.approx(0.5)
        assert model.quantile(1.0) == pytest.approx(1.0)
        with pytest.raises(ConfigurationError):
            model.quantile(1.5)

    def test_variance_nonnegative(self, model):
        assert model.variance() >= 0.0

    def test_pure_batching_never_zero_wait(self):
        model = WaitingTimeModel(SystemConfiguration.pure_batching(120.0, 30))
        assert model.type2_fraction == 0.0
        assert model.mean_wait == pytest.approx(2.0)  # gap/2 = spacing/2

    def test_full_buffer_no_wait(self):
        model = WaitingTimeModel(SystemConfiguration(120.0, 10, 120.0))
        assert model.type2_fraction == 1.0
        assert model.mean_wait == 0.0


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 100), fraction=st.floats(0.0, 1.0))
def test_moment_identities(n, fraction):
    config = SystemConfiguration(120.0, n, 120.0 * fraction)
    model = WaitingTimeModel(config)
    # E[W] via the survival function: ∫ P(W > t) dt.
    from repro.numerics.quadrature import gauss_legendre

    if config.gap > 0:
        integral = gauss_legendre(model.survival, 0.0, config.gap, num_nodes=16)
        assert integral == pytest.approx(model.mean_wait, rel=1e-9, abs=1e-12)
    assert 0.0 <= model.type2_fraction <= 1.0
    assert model.max_wait == pytest.approx(config.max_wait)


def test_against_simulator(base_config):
    """The simulated server's type-1/type-2 split matches the closed form."""
    from repro.experiments.figure7 import simulate_one_title
    from repro.vod.server import ServerWorkload
    from repro.vod.vcr import VCRBehavior

    server = simulate_one_title(
        base_config,
        VCRBehavior.uniform_duration_model(
            ExponentialDuration(5.0), VCRMix.only(VCROperation.PAUSE)
        ),
        ServerWorkload(arrival_rate=0.5, horizon=2000.0, warmup=200.0, seed=20250704),
    )
    type1 = server.metrics.counter_value("viewers.type1")
    type2 = server.metrics.counter_value("viewers.type2")
    observed_type2 = type2 / (type1 + type2)
    expected = WaitingTimeModel(base_config).type2_fraction
    assert observed_type2 == pytest.approx(expected, abs=0.03)


class TestDefectionProbability:
    def test_closed_form_limits(self, model):
        # Infinite patience: nobody defects.
        assert model.defection_probability(1e9) == pytest.approx(0.0, abs=1e-6)
        # Zero-ish patience: every type-1 arrival defects.
        assert model.defection_probability(1e-9) == pytest.approx(
            model.type1_fraction, abs=1e-6
        )

    def test_monotone_in_patience(self, model):
        values = [model.defection_probability(theta) for theta in (0.1, 0.5, 1.0, 5.0)]
        assert values == sorted(values, reverse=True)

    def test_bounded_by_type1_fraction(self, model):
        for theta in (0.2, 1.0, 3.0):
            assert 0.0 <= model.defection_probability(theta) <= model.type1_fraction

    def test_full_buffer_no_defections(self):
        model = WaitingTimeModel(SystemConfiguration(120.0, 10, 120.0))
        assert model.defection_probability(0.1) == 0.0

    def test_rejects_bad_patience(self, model):
        with pytest.raises(ConfigurationError):
            model.defection_probability(0.0)

    def test_against_reneging_server(self):
        """Closed form vs the full server with exponential patience."""
        from repro.distributions import ExponentialDuration
        from repro.vod.buffer import BufferPool
        from repro.vod.movie import Movie, MovieCatalog
        from repro.vod.server import ServerWorkload, VODServer
        from repro.vod.vcr import VCRBehavior

        config = SystemConfiguration(60.0, 10, 20.0)  # spacing 6, span 2, gap 4
        patience = 1.5
        catalog = MovieCatalog(
            [Movie(0, "only", 60.0, popularity=1.0)], popular_count=1
        )
        server = VODServer(
            catalog,
            {0: config},
            num_streams=40,
            buffer_pool=BufferPool.for_minutes(21.0),
            behavior=VCRBehavior.uniform_duration_model(
                ExponentialDuration(4.0), mean_think_time=20.0
            ),
            workload=ServerWorkload(
                arrival_rate=1.0, horizon=2500.0, warmup=300.0, seed=73,
                mean_patience=patience,
            ),
        )
        report = server.run()
        arrivals = (
            report.viewers_started + report.viewers_defected
        )
        observed = report.viewers_defected / arrivals
        predicted = WaitingTimeModel(config).defection_probability(patience)
        assert observed == pytest.approx(predicted, abs=0.04)
