"""Trace format hardening (PR 7 satellite).

A trace that is not exactly right — unknown schema version, truncated or
corrupt JSONL, tampered payloads, spliced files — is rejected whole with
a typed :class:`TraceFormatError` before any replay state exists,
mirroring the compile cache's corrupt-pickle quarantine semantics: no
partial replay, ever.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.trace import (
    SCHEMA_VERSION,
    Trace,
    TraceFormatError,
    TraceReplayer,
    decode_array,
    encode_array,
    load_trace,
    loads_trace,
)
from repro.trace.scenarios import record_serve_multitenant


@pytest.fixture(scope="module")
def trace() -> Trace:
    return record_serve_multitenant()


@pytest.fixture(scope="module")
def lines(trace) -> list[str]:
    return trace.dumps().splitlines()


def _mutate_header(lines, **changes) -> str:
    header = json.loads(lines[0])
    header.update(changes)
    return "\n".join([json.dumps(header)] + lines[1:])


# ----------------------------------------------------------------------
# Schema versioning
# ----------------------------------------------------------------------
def test_unknown_schema_version_rejected(lines):
    with pytest.raises(TraceFormatError, match="unsupported schema_version 99"):
        loads_trace(_mutate_header(lines, schema_version=99))


def test_future_minor_version_is_still_rejected(lines):
    """No 'best effort' reading of newer traces: version checks are
    exact, so format evolution is always explicit."""
    with pytest.raises(TraceFormatError, match="unsupported schema_version"):
        loads_trace(_mutate_header(lines, schema_version=SCHEMA_VERSION + 1))


def test_missing_or_non_integer_version_rejected(lines):
    header = json.loads(lines[0])
    del header["schema_version"]
    with pytest.raises(TraceFormatError, match="schema_version missing"):
        loads_trace("\n".join([json.dumps(header)] + lines[1:]))
    with pytest.raises(TraceFormatError, match="schema_version missing"):
        loads_trace(_mutate_header(lines, schema_version="1"))


def test_unknown_kind_rejected(lines):
    with pytest.raises(TraceFormatError, match="kind"):
        loads_trace(_mutate_header(lines, kind="cluster"))


# ----------------------------------------------------------------------
# Truncation and corruption
# ----------------------------------------------------------------------
def test_truncated_trace_rejected(lines):
    # Dropping the footer == an interrupted recording.
    with pytest.raises(TraceFormatError, match="truncated"):
        loads_trace("\n".join(lines[:-1]))


def test_spliced_trace_rejected(lines):
    # Footer present but events missing: the declared count catches it.
    with pytest.raises(TraceFormatError, match="truncated or spliced"):
        loads_trace("\n".join(lines[:3] + [lines[-1]]))


def test_concatenated_traces_rejected(lines):
    with pytest.raises(TraceFormatError, match="truncated|interior"):
        loads_trace("\n".join(lines + lines))


def test_corrupt_jsonl_line_rejected(lines):
    corrupt = lines[:2] + [lines[2][: len(lines[2]) // 2]] + lines[3:]
    with pytest.raises(TraceFormatError, match="corrupt JSONL line"):
        loads_trace("\n".join(corrupt))


def test_blank_line_rejected(lines):
    with pytest.raises(TraceFormatError, match="blank line"):
        loads_trace("\n".join(lines[:2] + [""] + lines[2:]))


def test_non_object_line_rejected(lines):
    with pytest.raises(TraceFormatError, match="expected a JSON object"):
        loads_trace("\n".join(lines[:2] + ["[1,2,3]"] + lines[2:]))


def test_unknown_event_kind_rejected(lines):
    with pytest.raises(TraceFormatError, match="unknown event kind"):
        loads_trace("\n".join(lines[:2] + ['{"event":"telemetry"}'] + lines[2:]))


def test_empty_trace_rejected():
    with pytest.raises(TraceFormatError, match="empty trace"):
        loads_trace("")


def test_headerless_trace_rejected(lines):
    with pytest.raises(TraceFormatError, match="must start with a header"):
        loads_trace("\n".join(lines[1:]))


# ----------------------------------------------------------------------
# Payload integrity
# ----------------------------------------------------------------------
def _tamper_first_submit(lines, mutate) -> str:
    out = []
    tampered = False
    for line in lines:
        event = json.loads(line)
        if not tampered and event["event"] == "submit":
            mutate(event)
            tampered = True
        out.append(json.dumps(event))
    assert tampered
    return "\n".join(out)


def test_tampered_payload_bytes_rejected(lines):
    def flip_bytes(event):
        name = next(iter(event["arrays"]))
        payload = event["arrays"][name]
        fresh = encode_array(np.ones((2, 2), dtype=np.float32))
        payload["data"] = fresh["data"]  # bytes no longer match the hash

    with pytest.raises(TraceFormatError, match="do not match|require"):
        loads_trace(_tamper_first_submit(lines, flip_bytes))


def test_wrong_byte_count_rejected(lines):
    def shrink_shape(event):
        name = next(iter(event["arrays"]))
        event["arrays"][name]["shape"] = [2, 2]

    with pytest.raises(TraceFormatError, match="require"):
        loads_trace(_tamper_first_submit(lines, shrink_shape))


def test_invalid_base64_rejected(lines):
    def garble(event):
        name = next(iter(event["arrays"]))
        event["arrays"][name]["data"] = "!!not-base64!!"

    with pytest.raises(TraceFormatError, match="malformed array payload"):
        loads_trace(_tamper_first_submit(lines, garble))


def test_submit_missing_required_key_rejected(lines):
    def drop_source(event):
        del event["source"]

    with pytest.raises(TraceFormatError, match="missing 'source'"):
        loads_trace(_tamper_first_submit(lines, drop_source))


@pytest.mark.parametrize(
    "arrival_s", [float("nan"), float("inf"), -1.0, "0.0", None, True]
)
def test_submit_with_unreachable_arrival_time_rejected(lines, arrival_s):
    """json accepts NaN/Infinity: such a trace used to load and then hang
    ``repro replay --diff`` (the event loop never reaches the arrival)."""

    def set_arrival(event):
        event["arrival_s"] = arrival_s

    with pytest.raises(TraceFormatError, match=r"line \d+: submit arrival_s"):
        loads_trace(_tamper_first_submit(lines, set_arrival))


def test_array_roundtrip_is_exact():
    rng = np.random.default_rng(5)
    for array in (
        rng.random((7, 3)),
        rng.integers(-100, 100, size=11),
        rng.random(4).astype(np.float32),
        np.zeros(0, dtype=np.float64),
    ):
        decoded = decode_array(encode_array(array))
        assert decoded.dtype == array.dtype
        assert decoded.shape == array.shape
        assert decoded.tobytes() == array.tobytes()


def test_object_arrays_are_rejected_both_ways():
    """An object array's bytes are pointers into one process: encoding
    one, or decoding a payload that claims to be one, is a typed format
    error (``np.frombuffer`` raised a bare ValueError, which killed the
    gateway worker that decoded it)."""
    with pytest.raises(TraceFormatError, match="holds objects"):
        encode_array(np.array([1.5, "x"], dtype=object))
    payload = encode_array(np.zeros(2, dtype=np.int64))
    payload["dtype"] = np.dtype(object).str
    with pytest.raises(TraceFormatError, match="submit array 'x': .* holds objects"):
        decode_array(payload, where="submit array 'x'")


# ----------------------------------------------------------------------
# No partial replay
# ----------------------------------------------------------------------
def test_load_trace_file_errors_are_typed(tmp_path):
    with pytest.raises(TraceFormatError, match="cannot read trace"):
        load_trace(tmp_path / "missing.jsonl")


def test_corrupt_file_never_reaches_the_replayer(tmp_path, trace):
    """The loader is the only gate: a corrupt file raises before a
    server, a clock or any replay state is constructed."""
    path = tmp_path / "t.jsonl"
    text = trace.dumps()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(TraceFormatError):
        load_trace(path)


def test_bad_config_rejected_at_build_server(trace):
    def unknown_field(config):
        config["warp_drive"] = True

    def retired_engine(config):
        config["compile_options"]["engine"] = "vectorized"

    for mutate, match in (
        (unknown_field, "does not rebuild"),
        (retired_engine, "bad compile options .*'vectorized'"),
    ):
        events = [json.loads(line) for line in trace.dumps().splitlines()]
        mutate(events[0]["config"])
        with pytest.raises(TraceFormatError, match=match):
            TraceReplayer(Trace(events=events)).build_server()


# ----------------------------------------------------------------------
# Schema v2: payload deduplication (PR 8 satellite)
# ----------------------------------------------------------------------
def _array_payloads(raw_events):
    for event in raw_events:
        for key in ("arrays", "result"):
            payloads = event.get(key)
            if isinstance(payloads, dict):
                yield from payloads.values()


def test_v2_recording_dedups_repeated_payloads(trace, lines):
    """The canonical serving scenario submits identical arrays many
    times; at schema v2 each distinct content hash is stored in full
    exactly once and every repeat is a byte-free reference."""
    assert trace.schema_version == SCHEMA_VERSION == 2
    raw = [json.loads(line) for line in lines]
    full, refs = {}, 0
    for payload in _array_payloads(raw):
        if "data" in payload:
            full[payload["sha256"]] = full.get(payload["sha256"], 0) + 1
        else:
            refs += 1
    assert refs > 0, "scenario should contain repeated payloads"
    assert full, "first occurrence of each hash keeps its bytes"
    assert all(count == 1 for count in full.values())


def test_v2_semantic_views_rehydrate(trace):
    """submissions()/responses() always hand back full payloads — the
    dedup is invisible above the storage layer."""
    for submit in trace.submissions():
        for payload in submit["arrays"].values():
            assert "data" in payload
            decode_array(payload)  # bytes still match their hash


def test_v2_roundtrip_preserves_dedup_and_content(trace):
    reloaded = loads_trace(trace.dumps())
    assert reloaded.dumps() == trace.dumps()
    originals = {s["request_id"]: s for s in trace.submissions()}
    for submit in reloaded.submissions():
        reference = originals[submit["request_id"]]
        for name, payload in submit["arrays"].items():
            assert (
                decode_array(payload).tobytes()
                == decode_array(reference["arrays"][name]).tobytes()
            )


def test_v2_dangling_reference_rejected(lines):
    """A reference must resolve against an *earlier* full payload."""

    def orphan(event):
        name = next(iter(event["arrays"]))
        payload = event["arrays"][name]
        event["arrays"][name] = {
            "dtype": payload["dtype"],
            "shape": payload["shape"],
            "sha256": "0" * 64,
        }

    with pytest.raises(TraceFormatError, match="unknown sha256"):
        loads_trace(_tamper_first_submit(lines, orphan))


def test_v1_trace_must_carry_full_payloads(lines):
    """Back-compat contract: a v1 trace with a v2-style reference is
    rejected — v1 records every payload in full."""

    def make_ref(event):
        name = next(iter(event["arrays"]))
        del event["arrays"][name]["data"]

    tampered = _tamper_first_submit(lines, make_ref)
    downgraded = _mutate_header(tampered.splitlines(), schema_version=1)
    with pytest.raises(TraceFormatError, match="schema v1 records"):
        loads_trace(downgraded)


def test_recorder_rejects_unsupported_version():
    from repro.trace.recorder import TraceRecorder

    with pytest.raises(TraceFormatError, match="cannot record schema_version"):
        TraceRecorder(schema_version=7)


def test_v2_trace_is_smaller_than_hydrated_equivalent(trace):
    """Dedup is the point: the stored (deduplicated) event stream is
    materially smaller than the same events with every payload in full."""
    stored = json.dumps(trace.events)
    hydrated = json.dumps([trace.events[0], *trace.body(), trace.events[-1]])
    assert len(stored) < 0.75 * len(hydrated)
