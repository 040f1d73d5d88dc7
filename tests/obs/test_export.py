"""JSONL trace export/load: round-trips, atomicity contract, strictness."""

import json

import pytest

from repro.obs import tracing
from repro.obs.export import (
    TRACE_FORMAT,
    TRACE_VERSION,
    export_trace,
    load_trace,
    render_trace,
)


def _sample_tracer():
    tracer = tracing.Tracer()
    with tracing.activate(tracer):
        with tracer.span("dramdig") as root:
            root.set("measurements", 10)
            with tracer.span("calibrate") as child:
                child.set("measurements", 10)
            tracing.inc("probe.pair_measurements", 10)
            tracing.observe("partition.pile_size", 8.0)
    return tracer


class TestRoundTrip:
    def test_export_then_load_preserves_everything(self, tmp_path):
        tracer = _sample_tracer()
        path = tmp_path / "trace.jsonl"
        export_trace(path, tracer, meta={"command": "run", "seed": 7})
        trace = load_trace(path)
        assert trace.header["command"] == "run"
        assert trace.header["seed"] == 7
        assert [span.to_json() for span in trace.spans] == [
            span.to_json() for span in tracer.spans
        ]
        assert trace.metrics == tracer.metrics.snapshot()

    def test_render_is_one_json_object_per_line(self):
        text = render_trace(_sample_tracer())
        lines = text.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["type"] == "header"
        assert records[0]["format"] == TRACE_FORMAT
        assert records[0]["version"] == TRACE_VERSION
        assert [r["type"] for r in records[1:-1]] == ["span"] * (len(records) - 2)
        assert records[-1]["type"] == "metrics"

    def test_spans_load_in_id_order(self, tmp_path):
        tracer = _sample_tracer()
        path = tmp_path / "trace.jsonl"
        export_trace(path, tracer)
        ids = [span.span_id for span in load_trace(path).spans]
        assert ids == sorted(ids)


class TestStrictLoading:
    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty trace"):
            load_trace(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "alien.jsonl"
        path.write_text(json.dumps({"format": "other-trace", "version": 1}) + "\n")
        with pytest.raises(ValueError, match="not a dramdig-trace"):
            load_trace(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps({"format": TRACE_FORMAT, "version": TRACE_VERSION + 1}) + "\n"
        )
        with pytest.raises(ValueError, match="unsupported trace version"):
            load_trace(path)

    def test_bad_json_names_the_line(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text(
            json.dumps({"format": TRACE_FORMAT, "version": TRACE_VERSION})
            + "\n{not json\n"
        )
        with pytest.raises(ValueError, match=":2:"):
            load_trace(path)

    @pytest.mark.parametrize(
        "span", [{"type": "span"}, {"type": "span", "id": 1, "attrs": [1]},
                 {"type": "span", "id": "one"}],
    )
    def test_malformed_span_names_the_line(self, tmp_path, span):
        path = tmp_path / "damaged.jsonl"
        path.write_text(
            json.dumps({"format": TRACE_FORMAT, "version": TRACE_VERSION})
            + "\n" + json.dumps(span) + "\n"
        )
        with pytest.raises(ValueError, match=":2: not a span"):
            load_trace(path)

    @pytest.mark.parametrize(
        "metrics", [{"type": "metrics", "counters": [1, 2]},
                    {"type": "metrics", "histograms": [1]},
                    {"type": "metrics", "histograms": {"probe.ns": 5}}],
    )
    def test_malformed_metrics_names_the_line(self, tmp_path, metrics):
        path = tmp_path / "damaged.jsonl"
        path.write_text(
            json.dumps({"format": TRACE_FORMAT, "version": TRACE_VERSION})
            + "\n" + json.dumps(metrics) + "\n"
        )
        with pytest.raises(ValueError, match=":2: metrics .* not an object"):
            load_trace(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_trace(tmp_path / "absent.jsonl")
