"""Trace writer, event schema validation, and trace-file ingestion."""

from __future__ import annotations

import io
import json

import pytest

from repro.exceptions import TraceSchemaError
from repro.obs.trace import (
    BUFFER_EVENTS,
    EVENT_SCHEMA,
    EVENT_SCHEMAS,
    SCHEMA_VERSION,
    SUPPORTED_VERSIONS,
    NullTraceWriter,
    TraceWriter,
    read_trace,
    validate_event,
    validate_trace_file,
)


def _emit_some(writer: TraceWriter) -> None:
    writer.emit("run_start", 0.0, label="test")
    writer.emit("session_start", 1.5, movie=0, length=90.0)
    writer.emit("resume", 10.0, movie=0, hit=True, position=12.5, window_start=3.0)
    writer.emit("resume", 11.0, movie=0, hit=False, position=40.0, window_start=None)
    writer.emit("run_end", 20.0, label="test")


class TestWriter:
    def test_emits_envelope_and_payload(self):
        sink = io.StringIO()
        with TraceWriter(sink) as writer:
            _emit_some(writer)
        lines = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert [obj["seq"] for obj in lines] == [0, 1, 2, 3, 4]
        assert all(obj["v"] == SCHEMA_VERSION for obj in lines)
        assert lines[2] == {
            "v": SCHEMA_VERSION, "seq": 2, "t": 10.0, "ev": "resume",
            "movie": 0, "hit": True, "position": 12.5, "window_start": 3.0,
        }

    def test_buffer_flushes_on_overflow(self):
        assert BUFFER_EVENTS == 256
        sink = io.StringIO()
        writer = TraceWriter(sink)
        for k in range(BUFFER_EVENTS - 1):
            writer.emit("run_start", float(k), label="x")
        assert sink.getvalue() == ""
        writer.emit("run_end", 1.0, label="x")
        assert len(sink.getvalue().splitlines()) == BUFFER_EVENTS

    def test_validation_rejects_bad_payload_at_emission(self):
        writer = TraceWriter(io.StringIO())
        with pytest.raises(TraceSchemaError):
            writer.emit("resume", 1.0, movie=0, hit=True)  # missing fields
        with pytest.raises(TraceSchemaError):
            writer.emit("nonsense", 1.0)

    def test_events_emitted_counts(self):
        writer = TraceWriter(io.StringIO())
        _emit_some(writer)
        assert writer.events_emitted == 5

    def test_file_sink_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceWriter(path) as writer:
            _emit_some(writer)
        events = list(read_trace(path))
        assert len(events) == 5
        assert validate_trace_file(path) == 5


class TestNullWriter:
    def test_disabled_and_inert(self):
        writer = NullTraceWriter()
        assert writer.enabled is False
        with writer:
            writer.emit("run_start", 0.0, label="x")
            writer.flush()
        assert writer.events_emitted == 0

    def test_real_writer_is_enabled(self):
        assert TraceWriter(io.StringIO()).enabled is True


class TestValidateEvent:
    def _event(self, **overrides):
        obj = {"v": 1, "seq": 0, "t": 0.0, "ev": "run_start", "label": "x"}
        obj.update(overrides)
        return obj

    def test_accepts_valid(self):
        validate_event(self._event())

    def test_missing_envelope_field(self):
        obj = self._event()
        del obj["seq"]
        with pytest.raises(TraceSchemaError, match="seq"):
            validate_event(obj)

    def test_wrong_version(self):
        with pytest.raises(TraceSchemaError, match="version"):
            validate_event(self._event(v=99))

    def test_unknown_event_type(self):
        with pytest.raises(TraceSchemaError, match="unknown event"):
            validate_event(self._event(ev="bogus"))

    def test_extra_field_rejected(self):
        with pytest.raises(TraceSchemaError, match="unknown field"):
            validate_event(self._event(surprise=1))

    def test_bool_is_not_a_number(self):
        obj = {
            "v": 1, "seq": 0, "t": 0.0, "ev": "session_start",
            "movie": 0, "length": True,
        }
        with pytest.raises(TraceSchemaError, match="boolean"):
            validate_event(obj)

    def test_line_number_in_message(self):
        obj = self._event()
        del obj["label"]
        with pytest.raises(TraceSchemaError, match="line 7"):
            validate_event(obj, line=7)

    def test_every_declared_type_tuple_is_nonempty(self):
        for event_type, fields in EVENT_SCHEMA.items():
            for name, types in fields.items():
                assert types, f"{event_type}.{name} declares no types"


class TestFileValidation:
    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"v": 1, "seq": 0, "t": 0.0, "ev": "run_start", "label": "x"}\nnot json\n')
        with pytest.raises(TraceSchemaError, match="line 2"):
            validate_trace_file(path)

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(TraceSchemaError, match="object"):
            validate_trace_file(path)

    def test_seq_regression_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        first = {"v": 1, "seq": 5, "t": 0.0, "ev": "run_start", "label": "x"}
        second = {"v": 1, "seq": 4, "t": 1.0, "ev": "run_end", "label": "x"}
        path.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n")
        with pytest.raises(TraceSchemaError, match="seq regressed"):
            validate_trace_file(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        event = {"v": 1, "seq": 0, "t": 0.0, "ev": "run_start", "label": "x"}
        path.write_text("\n" + json.dumps(event) + "\n\n")
        assert validate_trace_file(path) == 1


class TestSchemaV2:
    """The fault/degradation events and the version-pinning rules."""

    def _v2(self, ev, **payload):
        return {"v": 2, "seq": 0, "t": 5.0, "ev": ev, **payload}

    def test_v2_version_is_supported(self):
        assert SUPPORTED_VERSIONS == (1, 2, 3, 4)

    def test_fault_events_validate(self):
        validate_event(
            self._v2("fault_injected", kind="disk_degrade", magnitude=0.5,
                     recovered=False)
        )
        validate_event(
            self._v2("degradation_entered", level=1, policy="shed_vcr")
        )
        validate_event(self._v2("degradation_exited", level=1))
        validate_event(self._v2("worker_retry", shard=3, attempt=2))

    def test_fault_events_are_not_v1(self):
        obj = {
            "v": 1, "seq": 0, "t": 5.0, "ev": "fault_injected",
            "kind": "disk_degrade", "magnitude": 0.5, "recovered": False,
        }
        with pytest.raises(TraceSchemaError, match="schema v1"):
            validate_event(obj)

    def test_v1_table_is_a_strict_subset(self):
        assert set(EVENT_SCHEMAS[1]) < set(EVENT_SCHEMAS[2])
        for name, fields in EVENT_SCHEMAS[1].items():
            assert EVENT_SCHEMAS[2][name] == fields

    def test_v1_traces_still_read(self, tmp_path):
        path = tmp_path / "old.jsonl"
        events = [
            {"v": 1, "seq": 0, "t": 0.0, "ev": "run_start", "label": "x"},
            {"v": 1, "seq": 1, "t": 9.0, "ev": "run_end", "label": "x"},
        ]
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        assert validate_trace_file(path) == 2

    def test_mixed_version_file_rejected(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        events = [
            {"v": 1, "seq": 0, "t": 0.0, "ev": "run_start", "label": "x"},
            {"v": 2, "seq": 1, "t": 5.0, "ev": "degradation_exited", "level": 1},
        ]
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        with pytest.raises(TraceSchemaError, match="mixed-version"):
            validate_trace_file(path)

    def test_mixed_version_pins_to_first_event(self, tmp_path):
        # A v2 file that degrades to v1 mid-stream is just as broken.
        path = tmp_path / "mixed.jsonl"
        events = [
            {"v": 2, "seq": 0, "t": 0.0, "ev": "run_start", "label": "x"},
            {"v": 1, "seq": 1, "t": 5.0, "ev": "run_end", "label": "x"},
        ]
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        with pytest.raises(TraceSchemaError, match="started with v=2"):
            validate_trace_file(path)

    def test_cli_validate_rejects_mixed_version_with_exit_2(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "mixed.jsonl"
        events = [
            {"v": 1, "seq": 0, "t": 0.0, "ev": "run_start", "label": "x"},
            {"v": 2, "seq": 1, "t": 5.0, "ev": "degradation_exited", "level": 1},
        ]
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        assert main(["obs", "validate", str(path)]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert "mixed-version" in err

    def test_cli_validate_accepts_clean_v2(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "ok.jsonl"
        with TraceWriter(path) as writer:
            writer.emit("run_start", 0.0, label="x")
            writer.emit("fault_injected", 3.0, kind="stream_revoke",
                        magnitude=2.0, recovered=False)
            writer.emit("run_end", 9.0, label="x")
        assert main(["obs", "validate", str(path)]) == 0
        assert "schema OK" in capsys.readouterr().out


class TestSchemaV3:
    """The live-service events added for repro.service."""

    def _v3(self, ev, **payload):
        return {"v": 3, "seq": 0, "t": 5.0, "ev": ev, **payload}

    def test_v3_is_a_declared_version(self):
        assert 3 in EVENT_SCHEMAS

    def test_service_events_validate(self):
        validate_event(
            self._v3("request_received", kind="session_start", session=7)
        )
        validate_event(
            self._v3("admission_decision", session=7, movie=0,
                     kind="session_start", decision="batch", reason="planned")
        )
        validate_event(
            self._v3("session_closed", session=7, movie=0, reason="completed")
        )
        validate_event(
            self._v3("backpressure_reject", kind="resume", in_flight=64, limit=64)
        )
        validate_event(
            self._v3("drain_complete", sessions_closed=12, in_flight=0)
        )

    def test_service_events_are_not_v2(self):
        obj = {
            "v": 2, "seq": 0, "t": 5.0, "ev": "drain_complete",
            "sessions_closed": 1, "in_flight": 0,
        }
        with pytest.raises(TraceSchemaError, match="schema v2"):
            validate_event(obj)

    def test_v2_table_is_a_strict_subset_of_v3(self):
        assert set(EVENT_SCHEMAS[2]) < set(EVENT_SCHEMAS[3])
        for name, fields in EVENT_SCHEMAS[2].items():
            assert EVENT_SCHEMAS[3][name] == fields

    def test_v2_traces_still_read(self, tmp_path):
        path = tmp_path / "old.jsonl"
        events = [
            {"v": 2, "seq": 0, "t": 0.0, "ev": "run_start", "label": "x"},
            {"v": 2, "seq": 1, "t": 5.0, "ev": "degradation_exited", "level": 1},
            {"v": 2, "seq": 2, "t": 9.0, "ev": "run_end", "label": "x"},
        ]
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        assert validate_trace_file(path) == 3


class TestSchemaV4:
    """Request-scoped tracing and SLO alerts."""

    def _v4(self, ev, **payload):
        return {"v": 4, "seq": 0, "t": 5.0, "ev": ev, **payload}

    def test_current_version_is_four(self):
        assert SCHEMA_VERSION == 4

    def test_traced_decision_validates(self):
        validate_event(
            self._v4(
                "admission_decision", session=7, movie=0, kind="session_start",
                decision="batch", reason="planned", trace_id="req-000007",
                parent_span="req-000007:gate", queue_wait=0.0, engine_time=0.001,
            )
        )
        validate_event(
            self._v4(
                "request_received", kind="session_start", session=7,
                trace_id="req-000007",
            )
        )
        validate_event(
            self._v4(
                "plan_actuation", applied=2, rejected=0,
                trace_id="req-000007", parent_span="req-000007:actuate",
            )
        )

    def test_actuation_trace_link_is_nullable(self):
        """Ticks outside a request scope carry null trace links."""
        validate_event(
            self._v4(
                "plan_actuation", applied=1, rejected=0,
                trace_id=None, parent_span=None,
            )
        )

    def test_slo_alert_validates(self):
        validate_event(
            self._v4(
                "slo_alert", objective="p99_latency", severity="page",
                breaching=True, burn_fast=3.5, burn_slow=2.1, value=1.2,
                trace_id="req-000123",
            )
        )

    def test_v4_decision_missing_trace_fields_rejected(self):
        with pytest.raises(TraceSchemaError, match="missing field"):
            validate_event(
                self._v4(
                    "admission_decision", session=7, movie=0,
                    kind="session_start", decision="batch", reason="planned",
                )
            )

    def test_slo_alert_is_not_v3(self):
        obj = {
            "v": 3, "seq": 0, "t": 5.0, "ev": "slo_alert",
            "objective": "deny_rate", "severity": "warn", "breaching": True,
            "burn_fast": 1.5, "burn_slow": 1.1, "value": 0.2, "trace_id": None,
        }
        with pytest.raises(TraceSchemaError, match="schema v3"):
            validate_event(obj)

    def test_v3_table_is_a_subset_of_v4_event_names(self):
        assert set(EVENT_SCHEMAS[3]) < set(EVENT_SCHEMAS[4])

    def test_v3_traces_still_read(self, tmp_path):
        """Pre-tracing service traces load without the v4 fields."""
        path = tmp_path / "v3.jsonl"
        events = [
            {"v": 3, "seq": 0, "t": 0.0, "ev": "run_start", "label": "x"},
            {"v": 3, "seq": 1, "t": 1.0, "ev": "request_received",
             "kind": "ping", "session": -1},
            {"v": 3, "seq": 2, "t": 1.0, "ev": "admission_decision",
             "session": -1, "movie": -1, "kind": "ping", "decision": "pong",
             "reason": "alive"},
            {"v": 3, "seq": 3, "t": 9.0, "ev": "run_end", "label": "x"},
        ]
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        assert validate_trace_file(path) == 4
