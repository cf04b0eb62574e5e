"""Unit tests for the gateway wire schema.

The wire format crosses a process boundary, so the contract under test
is defensive bit-exactness: arrays round-trip byte-for-byte through both
encodings (the base64+sha256 text form and the binary pipe frame),
floats round-trip exactly through JSON, and every malformed message is
rejected whole with a :class:`~repro.gateway.wire.WireFormatError` —
and no other exception — before any state is touched.
"""

from __future__ import annotations

import json
import struct
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.gateway.wire import (
    FAULT_MARKERS,
    GatewayRequest,
    GatewayResponse,
    RESPONSE_STATUSES,
    SAME_PAYLOAD,
    USAGE_FIELDS,
    WireFormatError,
)
from repro.gateway.worker import REQUEST_FRAME, RESPONSE_FRAME
from repro.trace.schema import decode_array, encode_array

SOURCE = "void k(int N, float x[N]) { for (int i = 0; i < N; i++) x[i] += 1.0; }"


def make_request(**overrides) -> GatewayRequest:
    fields = dict(
        request_id=7,
        tenant="acme",
        source=SOURCE,
        params={"N": 4, "scale": 0.1},
        arrays={"x": np.arange(4, dtype=np.float32)},
    )
    fields.update(overrides)
    return GatewayRequest(**fields)


class TestRequestWire:
    def test_roundtrip_is_bit_exact(self):
        rng = np.random.default_rng(3)
        arrays = {
            "A": rng.random((5, 3), dtype=np.float32),
            "x": rng.random(3, dtype=np.float64),
        }
        request = make_request(params={"M": 5, "N": 3, "alpha": 0.1 + 0.2}, arrays=arrays)
        decoded = GatewayRequest.from_json(request.to_json())
        assert decoded.request_id == 7
        assert decoded.tenant == "acme"
        assert decoded.source == SOURCE
        assert decoded.params == request.params  # floats exact via JSON repr
        for name, original in arrays.items():
            copy = decoded.arrays[name]
            assert copy.dtype == original.dtype
            assert copy.shape == original.shape
            assert copy.tobytes() == original.tobytes()

    def test_attempt_and_fault_survive_the_wire(self):
        for marker in FAULT_MARKERS:
            decoded = GatewayRequest.from_json(
                make_request(attempt=3, fault=marker).to_json()
            )
            assert decoded.attempt == 3
            assert decoded.fault == marker

    def test_numpy_scalar_params_become_json_native(self):
        request = make_request(params={"N": np.int64(4), "a": np.float32(0.5)})
        wire = json.loads(request.to_json())
        assert wire["params"] == {"N": 4, "a": 0.5}

    def test_unknown_fault_marker_rejected(self):
        with pytest.raises(WireFormatError, match="fault marker"):
            make_request(fault="die-randomly")

    def test_empty_tenant_and_source_rejected(self):
        with pytest.raises(WireFormatError, match="tenant"):
            make_request(tenant="")
        with pytest.raises(WireFormatError, match="source"):
            make_request(source="   ")

    def test_corrupt_json_rejected(self):
        with pytest.raises(WireFormatError, match="corrupt JSON"):
            GatewayRequest.from_json("{not json")

    def test_missing_field_rejected(self):
        wire = make_request().to_wire()
        del wire["tenant"]
        with pytest.raises(WireFormatError, match="missing field 'tenant'"):
            GatewayRequest.from_wire(wire)

    def test_tampered_payload_hash_rejected(self):
        wire = make_request().to_wire()
        wire["arrays"]["x"]["sha256"] = "0" * 64
        with pytest.raises(WireFormatError, match="sha256"):
            GatewayRequest.from_wire(wire)


def make_response(**overrides) -> GatewayResponse:
    fields = dict(
        request_id=7,
        tenant="acme",
        status="completed",
        worker_id=1,
        result={"y": np.arange(4, dtype=np.float32)},
        usage={name: 1.0 for name in USAGE_FIELDS},
        housekeeping_energy_j=[1e-9, 2e-9],
        physical={"energy_j": 3.5e-8, "macs": 64},
        compile_hits=1,
    )
    fields.update(overrides)
    return GatewayResponse(**fields)


class TestResponseWire:
    def make_response(self, **overrides) -> GatewayResponse:
        return make_response(**overrides)

    def test_roundtrip_is_bit_exact(self):
        response = self.make_response(
            usage={name: 0.1 + 0.2 for name in USAGE_FIELDS}
        )
        decoded = GatewayResponse.from_json(response.to_json())
        assert decoded.status == "completed"
        assert decoded.worker_id == 1
        assert decoded.usage == response.usage  # exact float equality
        assert decoded.housekeeping_energy_j == [1e-9, 2e-9]
        assert decoded.physical == response.physical
        assert decoded.compile_hits == 1
        assert (
            decoded.result["y"].tobytes() == response.result["y"].tobytes()
        )

    def test_every_status_roundtrips(self):
        for status in RESPONSE_STATUSES:
            decoded = GatewayResponse.from_json(
                self.make_response(status=status, result={}).to_json()
            )
            assert decoded.status == status

    def test_unknown_status_rejected(self):
        with pytest.raises(WireFormatError, match="unknown status"):
            self.make_response(status="exploded")

    def test_latency_property_needs_both_milestones(self):
        response = self.make_response()
        assert response.latency_s is None
        response.submitted_s = 1.0
        assert response.latency_s is None
        response.completed_s = 1.25
        assert response.latency_s == pytest.approx(0.25)

    def test_milestones_are_gateway_side_only(self):
        # The worker never ships timestamps; the wire frame has none.
        wire = self.make_response().to_wire()
        assert "submitted_s" not in wire
        assert "completed_s" not in wire


# ----------------------------------------------------------------------
# The pipe frame: kind byte, header length, JSON header, raw array bytes
# ----------------------------------------------------------------------
def split_frame(frame: bytes) -> tuple[dict, bytes]:
    """A frame's JSON header and the array bytes after it."""
    (size,) = struct.unpack_from("!I", frame, 1)
    return json.loads(frame[5 : 5 + size]), frame[5 + size :]


def join_frame(kind: bytes, header, body: bytes) -> bytes:
    text = json.dumps(header).encode()
    return kind + struct.pack("!I", len(text)) + text + body


class TestFrames:
    def test_the_header_carries_references_and_the_body_raw_bytes(self):
        arrays = {"A": np.arange(6, dtype=np.float32).reshape(2, 3), "x": np.ones(3)}
        frame = make_request(arrays=arrays).to_frame(REQUEST_FRAME)
        header, body = split_frame(frame)
        assert frame[:1] == REQUEST_FRAME
        assert body == b"".join(array.tobytes() for array in arrays.values())
        for name, array in arrays.items():
            payload = encode_array(array)
            del payload["data"]
            assert header["arrays"][name] == payload
        assert header == {**make_request(arrays={}).to_wire(), "arrays": header["arrays"]}

    def test_a_response_frame_roundtrips_every_field(self):
        response = make_response(reason=None, compile_misses=2, attempt=3)
        decoded = GatewayResponse.from_frame(response.to_frame(RESPONSE_FRAME))
        assert decoded.to_wire() == response.to_wire()

    def test_a_halved_frame_is_rejected(self):
        # The ``corrupt-frame`` fault ships the first half of a frame.
        frame = make_response().to_frame(RESPONSE_FRAME)
        with pytest.raises(WireFormatError):
            GatewayResponse.from_frame(frame[: len(frame) // 2])

    def test_stray_bytes_after_the_arrays_are_rejected(self):
        frame = make_request().to_frame(REQUEST_FRAME)
        with pytest.raises(WireFormatError, match="frame is"):
            GatewayRequest.from_frame(frame + b"\0")

    def test_a_decoded_array_owns_its_bytes(self):
        # A kept result must not pin the whole frame (header included).
        frame = make_request().to_frame(REQUEST_FRAME)
        array = GatewayRequest.from_frame(memoryview(frame)).arrays["x"]
        assert array.flags.owndata and array.flags.writeable


class TestReferences:
    """A response frame may send a result array that equals the request's
    array of its name as a reference, without its bytes."""

    REQUEST = {"x": np.arange(4, dtype=np.float32), "A": np.eye(4, dtype=np.float32)}

    def test_names_and_order_are_the_ones_sent(self):
        result = {"A": self.REQUEST["A"].copy(), "y": np.ones(4, np.float32),
                  "x": self.REQUEST["x"].copy()}
        frame = make_response(result=result).to_frame(RESPONSE_FRAME, same={"A", "x"})
        header, body = split_frame(frame)
        assert header["result"]["A"] == header["result"]["x"] == SAME_PAYLOAD
        assert body == result["y"].tobytes()
        decoded = GatewayResponse.from_frame(frame, same=self.REQUEST)
        assert list(decoded.result) == ["A", "y", "x"]
        assert _same_arrays(decoded.result, result)
        for name, array in self.REQUEST.items():
            assert not np.shares_memory(decoded.result[name], array)
            assert decoded.result[name].flags.writeable

    def test_a_reference_to_a_name_the_request_lacks_is_rejected(self):
        frame = make_response().to_frame(RESPONSE_FRAME, same={"y"})
        with pytest.raises(WireFormatError, match="does not exist"):
            GatewayResponse.from_frame(frame, same=self.REQUEST)

    def test_a_request_frame_may_not_refer(self):
        frame = make_request().to_frame(REQUEST_FRAME, same={"x"})
        with pytest.raises(WireFormatError, match="only a response frame"):
            GatewayRequest.from_frame(frame)

    @pytest.mark.parametrize("payload", [
        {"same": 1}, {"same": False}, {"same": True, "dtype": "<f4"},
    ])
    def test_a_malformed_reference_is_rejected(self, payload):
        header, body = split_frame(make_response().to_frame(RESPONSE_FRAME, same={"y"}))
        header["result"]["y"] = payload
        with pytest.raises(WireFormatError, match="malformed reference"):
            GatewayResponse.from_frame(join_frame(RESPONSE_FRAME, header, body), same=self.REQUEST)

    def test_the_text_form_never_refers(self):
        wire = json.loads(make_response().to_json())
        assert set(wire["result"]["y"]) == {"dtype", "shape", "sha256", "data"}
        wire["result"]["y"] = dict(SAME_PAYLOAD)
        with pytest.raises(WireFormatError, match="malformed array payload"):
            GatewayResponse.from_json(json.dumps(wire))


def test_a_zero_d_array_keeps_its_shape():
    scalar = np.array(3.5, np.float32)
    payload = encode_array(scalar)
    assert payload["shape"] == []
    assert decode_array(payload).shape == ()
    decoded = GatewayRequest.from_frame(make_request(arrays={"s": scalar}).to_frame(REQUEST_FRAME))
    assert decoded.arrays["s"].shape == () and decoded.arrays["s"][()] == 3.5


# -- malformed header fields: WireFormatError through either codec -------
def _from_json(cls, message, field, value):
    wire = json.loads(message.to_json())
    wire[field] = value
    return cls.from_json(json.dumps(wire))


def _from_frame(cls, message, field, value):
    kind = REQUEST_FRAME if cls is GatewayRequest else RESPONSE_FRAME
    header, body = split_frame(message.to_frame(kind))
    header[field] = value
    return cls.from_frame(join_frame(kind, header, body))


CODECS = pytest.mark.parametrize("decode", [_from_json, _from_frame], ids=["json", "frame"])


@CODECS
@pytest.mark.parametrize("field, value", [
    ("request_id", "seven"),
    ("attempt", "second"),
    ("params", [1, 2]),
    ("params", "N=4"),
    ("deadline_s", "soon"),
    ("tenant", 5),
])
def test_a_malformed_request_field_is_a_wire_format_error(decode, field, value):
    with pytest.raises(WireFormatError, match=field):
        decode(GatewayRequest, make_request(), field, value)


@CODECS
@pytest.mark.parametrize("field, value", [
    ("worker_id", "one"),
    ("compile_hits", "1"),
    ("usage", [1.0]),
    ("housekeeping_energy_j", 3),
    ("tenant", 5),
])
def test_a_malformed_response_field_is_a_wire_format_error(decode, field, value):
    with pytest.raises(WireFormatError, match=field):
        decode(GatewayResponse, make_response(), field, value)


@pytest.mark.parametrize("marker", ["slow:inf", "slow:1e300", "slow:nan", "slow:-1"])
def test_a_slow_delay_time_sleep_cannot_take_is_rejected(marker):
    with pytest.raises(WireFormatError, match="fault marker"):
        make_request(fault=marker)
    with pytest.raises(WireFormatError, match="fault marker"):
        _from_json(GatewayRequest, make_request(), "fault", marker)


def test_the_longest_slow_delay_is_accepted():
    make_request(fault=f"slow:{threading.TIMEOUT_MAX}")


# -- properties ---------------------------------------------------------
DTYPES = st.sampled_from(["bool", "int64", "float16", ">f4", "float32"])


@st.composite
def array_sets(draw) -> dict[str, np.ndarray]:
    """One to three arrays: 0-d, empty or small, in C, transposed or
    Fortran order."""
    arrays = {}
    for index in range(draw(st.integers(1, 3))):
        shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3))
        array = draw(hnp.arrays(np.dtype(draw(DTYPES)), shape))
        layout = draw(st.sampled_from(["C", "T", "F"]))
        arrays[f"a{index}"] = {"C": array, "T": array.T, "F": np.asfortranarray(array)}[layout]
    return arrays


EXAMPLES = [
    {"s": np.array(3.5, np.float32)},
    {"e": np.zeros((0, 3), np.int64), "b": np.array([True, False])},
    {"f": np.asfortranarray(np.arange(6, dtype=">f4").reshape(2, 3)),
     "t": np.arange(6, dtype=np.float16).reshape(2, 3).T},
]


def _same_arrays(decoded: dict, original: dict) -> bool:
    return [(a.dtype, a.shape, a.tobytes()) for a in decoded.values()] == [
        (a.dtype, a.shape, a.tobytes()) for a in original.values()
    ]


@settings(max_examples=20, deadline=None)
@given(arrays=array_sets())
@example(arrays=EXAMPLES[0])
@example(arrays=EXAMPLES[1])
@example(arrays=EXAMPLES[2])
def test_frames_roundtrip_and_reject_every_truncation_and_flipped_body_byte(arrays):
    frame = make_request(arrays=arrays).to_frame(REQUEST_FRAME)
    assert _same_arrays(GatewayRequest.from_frame(frame).arrays, arrays)
    response = make_response(result=arrays).to_frame(RESPONSE_FRAME)
    assert _same_arrays(GatewayResponse.from_frame(response).result, arrays)
    # Every other result array refers to the request's array of its name.
    referring = make_response(result=arrays).to_frame(RESPONSE_FRAME, same=list(arrays)[::2])
    assert _same_arrays(GatewayResponse.from_frame(referring, same=arrays).result, arrays)
    for cut in range(len(frame)):
        with pytest.raises(WireFormatError):
            GatewayRequest.from_frame(frame[:cut])
    for cut in range(len(referring)):
        with pytest.raises(WireFormatError):
            GatewayResponse.from_frame(referring[:cut], same=arrays)
    flipped = bytearray(frame)
    for index in range(len(frame) - sum(a.nbytes for a in arrays.values()), len(frame)):
        flipped[index] ^= 0xFF
        with pytest.raises(WireFormatError, match="sha256"):
            GatewayRequest.from_frame(flipped)
        flipped[index] ^= 0xFF


def _paths(node, prefix=()):
    """Every path into a JSON value (the root excluded), depth first."""
    children = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


VECTOR = {"x": np.arange(4, dtype=np.float32)}


@settings(max_examples=15, deadline=None)
@given(arrays=array_sets(), pick=st.integers(0, 1 << 16), value=JSON_VALUES)
@example(arrays=VECTOR, pick=("arrays", "x", "dtype"), value="<i4")  # decodes: same bytes
@example(arrays=VECTOR, pick=("arrays", "x", "shape"), value=[2, 2])  # decodes: same bytes
@example(arrays=VECTOR, pick=("arrays", "x", "shape"), value=[-1, -4])
@example(arrays=VECTOR, pick=("arrays",), value={})  # stray bytes
@example(arrays={"x": np.zeros(0, np.float32)}, pick=("arrays", "x", "dtype"), value="S0")
def test_a_fuzzed_header_fails_typed_or_keeps_the_array_bytes(arrays, pick, value):
    header, body = split_frame(make_request(arrays=arrays).to_frame(REQUEST_FRAME))
    paths = list(_paths(header))
    path = pick if isinstance(pick, tuple) else paths[pick % len(paths)]
    node = header
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        decoded = GatewayRequest.from_frame(join_frame(REQUEST_FRAME, header, body))
    except WireFormatError:
        return
    assert [a.tobytes() for a in decoded.arrays.values()] == [
        a.tobytes() for a in arrays.values()
    ]
