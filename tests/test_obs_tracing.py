"""Unit tests for the span/tracer primitives (``repro.obs.tracing``)."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs.tracing import Span, Tracer, trace_span


def test_trace_span_without_tracer_still_times():
    """tracer=None: the block is measured but nothing is recorded."""
    with trace_span(None, "bench") as span:
        sum(range(1000))
    assert span.duration_s >= 0.0
    assert span.name == "bench"
    assert span.span_id == ""  # never assigned — no tracer


def test_nested_spans_parent_implicitly():
    """The thread-local stack wires parent ids without explicit plumbing."""
    tracer = Tracer(trace_id="t")
    with trace_span(tracer, "outer") as outer:
        with trace_span(tracer, "inner") as inner:
            pass
        with trace_span(tracer, "sibling") as sibling:
            pass
    assert outer.parent_id is None
    assert inner.parent_id == outer.span_id
    assert sibling.parent_id == outer.span_id
    assert {s["name"] for s in tracer.export()} == {"outer", "inner", "sibling"}


def test_explicit_parent_id_wins():
    """An explicit parent_id overrides the thread-local stack."""
    tracer = Tracer(trace_id="t")
    with trace_span(tracer, "root") as root:
        with trace_span(tracer, "detached", parent_id="elsewhere") as detached:
            pass
    assert root.parent_id is None
    assert detached.parent_id == "elsewhere"


def test_exception_is_annotated_and_propagates():
    """A raising block records the error class and re-raises."""
    tracer = Tracer(trace_id="t")
    with pytest.raises(RuntimeError):
        with trace_span(tracer, "boom"):
            raise RuntimeError("x")
    (span,) = tracer.export()
    assert span["attrs"]["error"] == "RuntimeError"
    assert span["duration_s"] >= 0.0


def test_record_for_cross_thread_completion():
    """record() archives a pre-measured span with an explicit parent."""
    tracer = Tracer(trace_id="t")
    span = tracer.record("serve/scan", 0.125, parent_id="p1", model="champ")
    assert span.duration_s == 0.125
    assert span.parent_id == "p1"
    (exported,) = tracer.export()
    assert exported["attrs"] == {"model": "champ"}


def test_threads_have_independent_stacks():
    """Spans opened in another thread do not parent onto this thread's."""
    tracer = Tracer(trace_id="t")
    seen = {}

    def worker():
        with trace_span(tracer, "thread-root") as span:
            seen["parent"] = span.parent_id

    with trace_span(tracer, "main-root"):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
    assert seen["parent"] is None


def test_write_jsonl_round_trip(tmp_path):
    """write_jsonl() emits one parseable dict per span."""
    tracer = Tracer(trace_id="t")
    with trace_span(tracer, "a"):
        with trace_span(tracer, "b"):
            pass
    path = tmp_path / "trace.jsonl"
    assert tracer.write_jsonl(path) == 2
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert {line["name"] for line in lines} == {"a", "b"}
    assert all(
        set(line)
        == {
            "trace_id",
            "span_id",
            "parent_id",
            "name",
            "start_unix_s",
            "duration_s",
            "attrs",
        }
        for line in lines
    )


def test_flush_appends_and_drains(tmp_path):
    """flush() appends drained spans to jsonl_path; repeat flush is a no-op."""
    path = tmp_path / "serve.jsonl"
    tracer = Tracer(trace_id="serve", jsonl_path=path)
    with trace_span(tracer, "batch-1"):
        pass
    assert tracer.flush() == 1
    with trace_span(tracer, "batch-2"):
        pass
    assert tracer.flush() == 1
    assert tracer.flush() == 0  # drained — nothing left
    names = [json.loads(line)["name"] for line in path.read_text().splitlines()]
    assert names == ["batch-1", "batch-2"]
    assert tracer.export() == []


def test_flush_without_path_is_noop():
    """A tracer with no jsonl_path keeps its spans on flush()."""
    tracer = Tracer(trace_id="t")
    with trace_span(tracer, "kept"):
        pass
    assert tracer.flush() == 0
    assert len(tracer.export()) == 1


def test_span_as_dict_shape():
    """The JSONL schema is exactly the documented seven keys."""
    span = Span("x", trace_id="t", span_id="0001", attrs={"k": 1})
    payload = span.as_dict()
    assert payload == {
        "trace_id": "t",
        "span_id": "0001",
        "parent_id": None,
        "name": "x",
        "start_unix_s": 0.0,
        "duration_s": 0.0,
        "attrs": {"k": 1},
    }
