"""Metric families, tiers, and deterministic exposition."""

from __future__ import annotations

import json
import math

import pytest

from repro.core.parameters import SystemConfiguration
from repro.exceptions import ObservabilityError
from repro.obs.registry import (
    TIER_PROCESS,
    TIER_STABLE,
    ObsRegistry,
    default_registry,
    set_default_registry,
)
from repro.obs.slo import SLOConfig
from repro.service.clock import VirtualClock
from repro.service.engine import AdmissionEngine
from repro.service.protocol import Request
from repro.vod.movie import Movie, MovieCatalog


class TestFamilies:
    def test_counter_inc_and_value(self):
        registry = ObsRegistry()
        family = registry.counter("repro_hits_total", "Hits.")
        family.inc()
        family.inc(4)
        assert family.labels().value == 5

    def test_counter_rejects_negative(self):
        registry = ObsRegistry()
        with pytest.raises(ObservabilityError):
            registry.counter("repro_x_total").inc(-1)

    def test_gauge_set_and_inc(self):
        registry = ObsRegistry()
        gauge = registry.gauge("repro_in_use")
        gauge.set(7)
        gauge.inc(2)
        gauge.inc(-1)
        assert gauge.labels().value == 8

    def test_labelled_children_are_distinct(self):
        registry = ObsRegistry()
        family = registry.counter("repro_ops_total", labelnames=("op",))
        family.labels("FF").inc(2)
        family.labels("RW").inc(1)
        assert family.labels("FF").value == 2
        assert family.labels("RW").value == 1

    def test_label_arity_enforced(self):
        registry = ObsRegistry()
        family = registry.counter("repro_ops_total", labelnames=("op",))
        with pytest.raises(ObservabilityError):
            family.labels("a", "b")

    def test_get_or_create_is_idempotent(self):
        registry = ObsRegistry()
        first = registry.counter("repro_x_total", labelnames=("k",))
        again = registry.counter("repro_x_total", labelnames=("k",))
        assert first is again

    def test_schema_conflict_rejected(self):
        registry = ObsRegistry()
        registry.counter("repro_x_total", labelnames=("k",))
        with pytest.raises(ObservabilityError):
            registry.gauge("repro_x_total", labelnames=("k",))
        with pytest.raises(ObservabilityError):
            registry.counter("repro_x_total", labelnames=("other",))

    def test_invalid_names_rejected(self):
        registry = ObsRegistry()
        with pytest.raises(ObservabilityError):
            registry.counter("bad name")
        with pytest.raises(ObservabilityError):
            registry.counter("repro_ok", labelnames=("bad-label",))


class TestChildLookup:
    """``labels()`` returns an existing child in one lookup, and only then."""

    def test_non_string_values_share_the_string_child(self):
        family = ObsRegistry().counter("repro_ops_total", labelnames=("op",))
        assert family.labels(1) is family.labels("1")
        assert family.labels("1") is family.labels(1)
        assert family.labels(True) is family.labels("True")
        assert family.labels("True") is family.labels(True)
        assert [key for key, _ in family.children()] == [("1",), ("True",)]

    def test_wrong_arity_raises_after_a_child_exists(self):
        family = ObsRegistry().counter("repro_ops_total", labelnames=("op",))
        family.labels("FF").inc()
        with pytest.raises(ObservabilityError):
            family.labels()
        with pytest.raises(ObservabilityError):
            family.labels("FF", "RW")

    def test_label_less_updates_reach_the_one_child(self):
        registry = ObsRegistry()
        counter = registry.counter("repro_c_total")
        gauge = registry.gauge("repro_g")
        histogram = registry.histogram("repro_h", buckets=(1.0,))
        counter.inc()
        counter.inc(2)
        gauge.set(4)
        gauge.inc()
        histogram.observe(0.5)
        histogram.observe(2.0)
        for family in (counter, gauge, histogram):
            [(key, child)] = family.children()
            assert key == ()
            assert child is family.labels()
        assert counter.labels().value == 3
        assert gauge.labels().value == 5
        assert histogram.labels().count == 2

    def test_engine_binds_its_children_on_first_request(self):
        registry = ObsRegistry()
        engine = AdmissionEngine(
            MovieCatalog([Movie(0, "solo", 90.0, popularity=1.0)], popular_count=1),
            {0: SystemConfiguration(movie_length=90.0, num_partitions=3,
                                    buffer_minutes=30.0)},
            8,
            clock=VirtualClock(),
            registry=registry,
            slo=SLOConfig(),
        )
        lazy = (
            "repro_slo_burn_rate",
            "repro_slo_breaching",
            "repro_service_decisions_total",
            "repro_request_latency_seconds",
        )
        families = {f.name: f for f in registry.families(include_process=True)}
        for name in lazy:
            assert families[name].children() == []
        engine.handle(Request(request_id=0, kind="session_start", session=1, movie=0))
        assert len(families["repro_slo_burn_rate"].children()) == 4
        assert len(families["repro_slo_breaching"].children()) == 2
        assert [key for key, _ in families["repro_service_decisions_total"].children()] == [
            ("batch",)
        ]
        assert families["repro_request_latency_seconds"].labels("batch").count == 1


class TestHistogram:
    def test_cumulative_buckets(self):
        registry = ObsRegistry()
        family = registry.histogram("repro_lat", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0):
            family.observe(value)
        child = family.labels()
        assert child.count == 3
        assert child.sum == pytest.approx(5.55)
        assert child.cumulative() == [(0.1, 1), (1.0, 2), (10.0, 3)]

    def test_observation_above_top_bucket_counts_only_in_inf(self):
        registry = ObsRegistry()
        family = registry.histogram("repro_lat", buckets=(1.0,))
        family.observe(100.0)
        child = family.labels()
        assert child.cumulative() == [(1.0, 0)]
        assert child.count == 1


class TestExposition:
    def _populated(self) -> ObsRegistry:
        registry = ObsRegistry()
        events = registry.counter(
            "repro_sim_events_total", "Events.", labelnames=("event",)
        )
        events.labels("resume.hit").inc(3)
        events.labels("resume.miss").inc(1)
        registry.gauge("repro_streams", "Streams.").set(12)
        spans = registry.histogram(
            "repro_span_seconds", "Spans.", labelnames=("span",), buckets=(0.1, 1.0)
        )
        spans.labels("run").observe(0.05)
        return registry

    def test_prometheus_format(self):
        text = self._populated().render_prometheus()
        assert "# HELP repro_sim_events_total Events." in text
        assert "# TYPE repro_sim_events_total counter" in text
        assert 'repro_sim_events_total{event="resume.hit"} 3' in text
        assert "repro_streams 12" in text
        # Histograms are process-tier by default: excluded here.
        assert "repro_span_seconds" not in text

    def test_process_tier_opt_in(self):
        text = self._populated().render_prometheus(include_process=True)
        assert 'repro_span_seconds_bucket{span="run",le="0.1"} 1' in text
        assert 'repro_span_seconds_bucket{span="run",le="+Inf"} 1' in text
        assert 'repro_span_seconds_count{span="run"} 1' in text

    def test_exposition_is_deterministic(self):
        assert (
            self._populated().render_prometheus()
            == self._populated().render_prometheus()
        )

    def test_special_float_rendering(self):
        registry = ObsRegistry()
        registry.gauge("repro_nan").set(math.nan)
        registry.gauge("repro_inf").set(math.inf)
        text = registry.render_prometheus()
        assert "repro_nan NaN" in text
        assert "repro_inf +Inf" in text

    def test_json_export_round_trips(self):
        payload = self._populated().to_json()
        decoded = json.loads(json.dumps(payload))
        assert decoded["repro_sim_events_total"]["kind"] == "counter"
        series = decoded["repro_sim_events_total"]["series"]
        assert {"labels": ["resume.hit"], "value": 3.0} in series
        assert decoded["repro_span_seconds"]["tier"] == TIER_PROCESS

    def test_families_filter_by_tier(self):
        registry = self._populated()
        stable = [f.name for f in registry.families()]
        every = [f.name for f in registry.families(include_process=True)]
        assert "repro_span_seconds" not in stable
        assert "repro_span_seconds" in every
        assert all(
            f.tier == TIER_STABLE for f in registry.families()
        )


class TestDefaultRegistry:
    def test_swap_and_restore(self):
        fresh = ObsRegistry()
        previous = set_default_registry(fresh)
        try:
            assert default_registry() is fresh
        finally:
            set_default_registry(previous)
        assert default_registry() is previous
