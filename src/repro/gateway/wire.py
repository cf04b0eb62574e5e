"""Typed request/response schema of the wall-clock gateway.

Requests and responses are dataclasses with one schema (``to_wire``'s
dict) and two encodings.  The text form (``to_json`` / ``from_json``) is
one JSON object with array payloads as base64 bytes plus a sha256
content hash, exactly the trace layer's encoding, so a recorded trace's
``submit`` events *are* valid request bodies (the load generator and the
differential replay them).  The pipe frame (``to_frame`` /
``from_frame``), the only thing that crosses a worker pipe, is a kind
byte, the 4-byte big-endian length of a UTF-8 JSON header, the header,
then each array's raw C-order bytes in header order; the header's array
payloads are the trace's reference form (``dtype``, ``shape``,
``sha256``, no ``data``), so each array byte crosses the pipe once, raw,
and is copied once, out of the frame into its array.  A response frame
may instead *refer* to a result array that equals (dtype, shape, bytes)
the request's array of the same name: its payload is
:data:`SAME_PAYLOAD`, it carries no bytes and no hash, and the gateway
fills it with a copy of its own snapshot of the request's array.  Result
names and their order are the same either way; the text form never
refers, and a request frame never may.

Both encodings check arrays with one function,
:func:`~repro.trace.schema.array_from_bytes` (dtype, no objects, byte
length against the shape, sha256), so every array byte that crosses the
pipe is verified on both sides of it.  Decoding is defensive: any
malformed message — a missing or mistyped field, a truncated frame,
stray bytes, a hash mismatch, a reference without a request array to
fill it — raises :class:`WireFormatError` and nothing else, so a worker
never crashes on a bad frame (it answers with a dead letter).

``GatewayRequest.fault`` is the gateway's deterministic fault-injection
seam (the wall-clock analogue of the fleet's seeded
:class:`~repro.fleet.faults.FaultPlan`): a marker that makes the worker
process die at a precise point of the request's service.  The pool
strips the marker when it retries the request on a surviving worker, so
one marker means exactly one worker death.
"""

from __future__ import annotations

import json
import math
import struct
import threading
from dataclasses import dataclass, field
from typing import Callable, Collection, Mapping, Optional

import numpy as np

from repro.trace.schema import (
    TraceFormatError, array_from_bytes, array_layout, array_reference, decode_array,
    encode_array, plain_scalar,
)

#: Fault markers a request may carry (see module docstring).
#:
#: * ``die-before-dispatch`` — the worker process exits before any work
#:   happens (a kill while the request sat at the head of its queue);
#: * ``die-mid-request`` — the worker performs the full dispatch (the
#:   device physically works) and exits before the response leaves the
#:   process (a kill mid-request: the computed outputs are lost);
#: * ``hang`` — the worker wedges before any work happens and never
#:   answers (the shape the gateway's hang watchdog must catch);
#: * ``slow`` / ``slow:<seconds>`` — the worker stalls for
#:   :data:`SLOW_FAULT_DELAY_S` (or the given delay) and then serves the
#:   request normally (deadline pressure without losing work);
#: * ``corrupt-frame`` — the worker serves the request and then ships the
#:   first half of its response frame, the byzantine shape the gateway's
#:   defensive decode must absorb.
FAULT_MARKERS = (
    "die-before-dispatch",
    "die-mid-request",
    "hang",
    "slow",
    "corrupt-frame",
)

#: Default stall of a plain ``slow`` fault marker (seconds).
SLOW_FAULT_DELAY_S = 0.25


def validate_fault_marker(fault: Optional[str]) -> None:
    """Raise :class:`WireFormatError` for an unknown fault marker
    (``None``, a known marker, or ``slow:<seconds>`` with a delay
    ``time.sleep`` takes — finite, at most ``threading.TIMEOUT_MAX`` —
    are accepted)."""
    if fault is None or fault in FAULT_MARKERS:
        return
    if fault.startswith("slow:"):
        try:
            delay_s = float(fault[len("slow:"):])
        except ValueError:
            delay_s = -1.0
        if 0.0 <= delay_s <= threading.TIMEOUT_MAX:
            return
    raise WireFormatError(
        f"request: unknown fault marker {fault!r} (known: {FAULT_MARKERS}, "
        f"or 'slow:<seconds>' with 0 <= seconds <= {threading.TIMEOUT_MAX})"
    )


def slow_fault_delay_s(fault: Optional[str]) -> Optional[float]:
    """The stall a ``slow`` fault marker requests, or ``None`` for other
    markers."""
    if fault == "slow":
        return SLOW_FAULT_DELAY_S
    if fault is not None and fault.startswith("slow:"):
        return float(fault[len("slow:"):])
    return None

#: Exit code a worker uses for injected deaths (mirrors SIGKILL's 128+9).
FAULT_EXIT_CODE = 137


class WireFormatError(RuntimeError):
    """A gateway wire message violates the schema: a missing or mistyped
    field, a truncated frame or stray bytes, a payload whose bytes do not
    match their recorded sha256, an unknown status or fault marker.  Raised
    by the decoders before any state is touched — a bad frame is rejected whole."""


_MISSING = object()

#: The frame header's length prefix (big-endian, after the kind byte).
_HEADER_LENGTH = struct.Struct("!I")


def _field(wire: Mapping, key: str, types: tuple, where: str, default=_MISSING):
    """``wire[key]`` (or *default*), typed exactly one of *types*: a bool is no int."""
    value = wire.get(key, default)
    if type(value) not in types:
        if value is _MISSING:
            raise WireFormatError(f"{where}: missing field {key!r}")
        names = " or ".join(kind.__name__ for kind in types)
        raise WireFormatError(f"{where}: field {key!r} must be {names}, got {value!r}")
    return value


#: The payload of an array a response frame refers to instead of
#: carrying: the request's array of the same name, unchanged.
SAME_PAYLOAD = {"same": True}


def _text_payloads(arrays: Mapping[str, np.ndarray]) -> dict:
    return {name: encode_array(value) for name, value in arrays.items()}


def _text_arrays(payloads: dict, where: str) -> dict[str, np.ndarray]:
    return {
        name: decode_array(payload, f"{where} array {name!r}")
        for name, payload in payloads.items()
    }


def _decode_payloads(payloads: dict, where: str, decode: Callable) -> dict[str, np.ndarray]:
    try:
        return decode(payloads, where)
    except TraceFormatError as exc:
        raise WireFormatError(str(exc)) from exc


class _Message:
    """Both codecs, over ``to_wire(encode)`` (arrays -> payloads, by name)
    and ``from_wire(wire, decode)`` ((payloads, label) -> arrays)."""

    def to_json(self) -> str:
        return json.dumps(self.to_wire(), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str):
        try:
            wire = json.loads(text)
        except json.JSONDecodeError as exc:
            raise WireFormatError(f"{cls._where}: corrupt JSON frame ({exc.msg})") from exc
        return cls.from_wire(wire)

    def to_frame(self, kind: bytes, same: Collection[str] = ()) -> bytes:
        """The pipe frame of this message (see the module docstring).  The
        arrays named in *same* are sent as :data:`SAME_PAYLOAD` references,
        without their bytes: the caller vouches that each equals the
        request's array of its name (only a response frame may refer)."""
        bodies = []

        def references(arrays: Mapping[str, np.ndarray]) -> dict:
            payloads = {}
            for name, array in arrays.items():
                if name in same:
                    payloads[name] = dict(SAME_PAYLOAD)
                    continue
                payloads[name], raw = array_reference(array)
                bodies.append(raw)
            return payloads

        header = json.dumps(self.to_wire(references), separators=(",", ":")).encode()
        return b"".join([kind, _HEADER_LENGTH.pack(len(header)), header, *bodies])

    @classmethod
    def from_frame(cls, frame, same: Optional[Mapping[str, np.ndarray]] = None):
        """Decode a pipe frame (kind byte first, not checked here) from any
        bytes-like object; each array is copied out of it once.  A
        reference payload is filled with a copy of the array of its name
        in *same*, the request's arrays; without them, or without that
        name, it is a :class:`WireFormatError`."""
        view = memoryview(frame)
        try:  # the header starts after the kind byte and its 4-byte length
            end = 5 + _HEADER_LENGTH.unpack_from(view, 1)[0]
            wire = json.loads(str(view[5:end], "utf-8"))
        except (struct.error, ValueError) as exc:  # UnicodeDecodeError, JSONDecodeError
            raise WireFormatError(f"{cls._where}: corrupt frame header ({exc})") from exc

        def take(payloads: dict, where: str) -> dict[str, np.ndarray]:
            nonlocal end
            arrays = {}
            for name, payload in payloads.items():
                label = f"{where} array {name!r}"
                if isinstance(payload, dict) and "same" in payload:
                    arrays[name] = _referent(payload, same, name, label)
                    continue
                layout = array_layout(payload, label)
                offset, end = end, end + layout[2]
                arrays[name] = array_from_bytes(payload, view[offset:end], label, layout)
            return arrays

        message = cls.from_wire(wire, take)
        if end != len(view):
            raise WireFormatError(f"{cls._where}: frame is {len(view)} bytes, not {end}")
        return message


def _referent(
    payload: dict, same: Optional[Mapping[str, np.ndarray]], name: str, where: str
) -> np.ndarray:
    """A copy of the array a reference payload refers to."""
    if payload != SAME_PAYLOAD or payload["same"] is not True:
        raise WireFormatError(f"{where}: malformed reference payload {payload!r}")
    if same is None:
        raise WireFormatError(f"{where}: only a response frame may refer to the request's arrays")
    if name not in same:
        raise WireFormatError(f"{where}: refers to a request array that does not exist")
    return np.array(same[name], order="C", copy=True)


# ----------------------------------------------------------------------
@dataclass
class GatewayRequest(_Message):
    """One offload request on the wire (gateway → worker)."""

    _where = "request"

    request_id: int
    tenant: str
    source: str                        # mini-C kernel source
    params: dict[str, float] = field(default_factory=dict)
    arrays: dict[str, np.ndarray] = field(default_factory=dict)
    #: Execution attempt (1 = first dispatch; bumped by pool retries).
    attempt: int = 1
    #: Deterministic fault-injection marker (see :data:`FAULT_MARKERS`).
    fault: Optional[str] = None
    #: Absolute gateway-clock deadline (seconds on the gateway's
    #: ``WallClock``; ``None`` = no deadline).  The gateway sheds the
    #: request if the deadline passes before dispatch and fails it with
    #: status ``deadline-exceeded`` if it expires in flight.
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.tenant:
            raise WireFormatError("request: tenant name must be non-empty")
        if not isinstance(self.source, str) or not self.source.strip():
            raise WireFormatError("request: kernel source must be a non-empty string")
        validate_fault_marker(self.fault)
        if self.deadline_s is not None:
            try:
                deadline_s = float(self.deadline_s)
            except (TypeError, ValueError, OverflowError):
                deadline_s = math.nan
            if not math.isfinite(deadline_s):
                raise WireFormatError(
                    f"request: deadline_s must be a finite number, got {self.deadline_s!r}"
                )
            self.deadline_s = deadline_s

    # -- wire codec -----------------------------------------------------
    def to_wire(self, encode: Callable = _text_payloads) -> dict:
        return {
            "request_id": self.request_id,
            "tenant": self.tenant,
            "source": self.source,
            "params": {key: plain_scalar(value) for key, value in self.params.items()},
            "arrays": encode(self.arrays),
            "attempt": self.attempt,
            "fault": self.fault,
            "deadline_s": self.deadline_s,
        }

    @classmethod
    def from_wire(cls, wire: Mapping, decode: Callable = _text_arrays) -> "GatewayRequest":
        if not isinstance(wire, Mapping):
            raise WireFormatError("request: wire frame is not an object")
        return cls(
            request_id=_field(wire, "request_id", (int,), "request"),
            tenant=_field(wire, "tenant", (str,), "request"),
            source=_field(wire, "source", (str,), "request"),
            params=dict(_field(wire, "params", (dict,), "request")),
            arrays=_decode_payloads(_field(wire, "arrays", (dict,), "request"), "request", decode),
            attempt=_field(wire, "attempt", (int,), "request", 1),
            fault=_field(wire, "fault", (str, type(None)), "request", None),
            deadline_s=_field(wire, "deadline_s", (int, float, type(None)), "request", None),
        )


# ----------------------------------------------------------------------
#: Terminal statuses a response may carry: the serving tier's vocabulary
#: plus ``deadline-exceeded`` (the request's deadline passed before
#: dispatch, or expired while it was in flight).
RESPONSE_STATUSES = ("completed", "failed", "rejected", "deadline-exceeded")

#: Per-request measured-usage counters shipped back over the wire.  These
#: are exactly the billing fields of
#: :class:`~repro.serve.accounting.RequestUsage` that are a pure function
#: of the request (independent of clock mode), which is what the
#: wall-clock vs VirtualClock differential compares bit-for-bit.
USAGE_FIELDS = (
    "service_s",
    "host_energy_j",
    "offload_energy_j",
    "accelerator_energy_j",
    "crossbar_cell_writes",
    "crossbar_write_ops",
    "gemv_count",
    "macs",
    "dma_bytes",
)


@dataclass
class GatewayResponse(_Message):
    """One served request on the wire (worker → gateway)."""

    _where = "response"

    request_id: int
    tenant: str
    status: str                        # "completed" | "failed" | "rejected"
    worker_id: int
    attempt: int = 1
    reason: Optional[str] = None       # failure/rejection reason
    #: Full result arrays of a completed request (bit-identity currency).
    result: dict[str, np.ndarray] = field(default_factory=dict)
    #: Measured billing counters of the dispatch (see :data:`USAGE_FIELDS`).
    usage: dict[str, float] = field(default_factory=dict)
    #: Host energy of the lease-buffer releases (ledger housekeeping).
    housekeeping_energy_j: list[float] = field(default_factory=list)
    #: Worker-cumulative physical accelerator totals *after* this request:
    #: ``AcceleratorRunStats.scalars()`` of the worker's lifetime record
    #: (the partition-check currency; survives the worker's death).
    physical: dict[str, float] = field(default_factory=dict)
    #: Shared compile-cache deltas of this request (hits, misses).
    compile_hits: int = 0
    compile_misses: int = 0
    #: Wall-clock milestones, filled in by the gateway (not the worker).
    submitted_s: Optional[float] = None
    dispatched_s: Optional[float] = None
    completed_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.status not in RESPONSE_STATUSES:
            raise WireFormatError(
                f"response: unknown status {self.status!r} "
                f"(known: {RESPONSE_STATUSES})"
            )

    @property
    def latency_s(self) -> Optional[float]:
        """Real (wall-clock) submit-to-completion latency."""
        if self.completed_s is None or self.submitted_s is None:
            return None
        return self.completed_s - self.submitted_s

    # -- wire codec -----------------------------------------------------
    def to_wire(self, encode: Callable = _text_payloads) -> dict:
        return {
            "request_id": self.request_id,
            "tenant": self.tenant,
            "status": self.status,
            "worker_id": self.worker_id,
            "attempt": self.attempt,
            "reason": self.reason,
            "result": encode(self.result),
            "usage": dict(self.usage),
            "housekeeping_energy_j": list(self.housekeeping_energy_j),
            "physical": dict(self.physical),
            "compile_hits": self.compile_hits,
            "compile_misses": self.compile_misses,
        }

    @classmethod
    def from_wire(cls, wire: Mapping, decode: Callable = _text_arrays) -> "GatewayResponse":
        if not isinstance(wire, Mapping):
            raise WireFormatError("response: wire frame is not an object")
        where = "response"
        return cls(
            request_id=_field(wire, "request_id", (int,), where),
            tenant=_field(wire, "tenant", (str,), where),
            status=_field(wire, "status", (str,), where),
            worker_id=_field(wire, "worker_id", (int,), where),
            attempt=_field(wire, "attempt", (int,), where, 1),
            reason=_field(wire, "reason", (str, type(None)), where, None),
            result=_decode_payloads(_field(wire, "result", (dict,), where, {}), where, decode),
            usage=dict(_field(wire, "usage", (dict,), where, {})),
            housekeeping_energy_j=list(_field(wire, "housekeeping_energy_j", (list,), where, [])),
            physical=dict(_field(wire, "physical", (dict,), where, {})),
            compile_hits=_field(wire, "compile_hits", (int,), where, 0),
            compile_misses=_field(wire, "compile_misses", (int,), where, 0),
        )
