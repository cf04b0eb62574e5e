"""Typed request/response schema of the wall-clock gateway.

Requests and responses are dataclasses with a JSON wire format — one
object per message, array payloads carried as base64 bytes with a sha256
content hash, exactly the encoding of the trace layer
(:func:`repro.trace.schema.encode_array` / :func:`~repro.trace.schema.decode_array`).
The shared encoding is deliberate: a recorded trace's ``submit`` events
*are* valid gateway request bodies, which is what lets the load generator
replay recordings and the differential drive the same bytes through both
serving modes.

The wire format crosses a process boundary (gateway process → pool
worker → gateway process), so decoding is defensive: malformed messages
raise :class:`WireFormatError` — a worker never crashes on a bad frame,
it answers with a failed response — and every array payload is verified
against its content hash on both sides of the pipe.

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
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from repro.trace.schema import TraceFormatError, decode_array, encode_array

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
#: * ``corrupt-frame`` — the worker serves the request and then ships a
#:   deliberately mangled response frame (undecodable JSON), the
#:   byzantine shape the gateway's defensive decode must absorb.
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
    (``None``, a known marker, or ``slow:<seconds>`` are accepted)."""
    if fault is None or fault in FAULT_MARKERS:
        return
    if fault.startswith("slow:"):
        try:
            delay_s = float(fault[len("slow:"):])
        except ValueError:
            delay_s = -1.0
        if delay_s >= 0.0:
            return
    raise WireFormatError(
        f"request: unknown fault marker {fault!r} (known: {FAULT_MARKERS}, "
        "or 'slow:<seconds>')"
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
    """A gateway wire message violates the schema: missing fields, a
    payload whose bytes do not match their recorded sha256, an unknown
    status or fault marker.  Raised by the decoders before any state is
    touched — a bad frame is rejected whole."""


def _require(mapping: Mapping, key: str, where: str):
    try:
        return mapping[key]
    except KeyError:
        raise WireFormatError(f"{where}: missing field {key!r}") from None


def _decode_payloads(payloads, where: str) -> dict[str, np.ndarray]:
    if not isinstance(payloads, dict):
        raise WireFormatError(f"{where}: array payloads must be an object")
    try:
        return {
            name: decode_array(payload, where=f"{where} array {name!r}")
            for name, payload in payloads.items()
        }
    except TraceFormatError as exc:
        raise WireFormatError(str(exc)) from exc


# ----------------------------------------------------------------------
@dataclass
class GatewayRequest:
    """One offload request on the wire (gateway → worker)."""

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
            deadline_s = float(self.deadline_s)
            if not math.isfinite(deadline_s):
                raise WireFormatError(
                    f"request: deadline_s must be finite, got {self.deadline_s!r}"
                )
            self.deadline_s = deadline_s

    # -- wire codec -----------------------------------------------------
    def to_wire(self) -> dict:
        return {
            "request_id": self.request_id,
            "tenant": self.tenant,
            "source": self.source,
            "params": {key: _plain(value) for key, value in self.params.items()},
            "arrays": {
                name: encode_array(np.asarray(value))
                for name, value in self.arrays.items()
            },
            "attempt": self.attempt,
            "fault": self.fault,
            "deadline_s": self.deadline_s,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_wire(), separators=(",", ":"))

    @classmethod
    def from_wire(cls, wire: Mapping) -> "GatewayRequest":
        if not isinstance(wire, Mapping):
            raise WireFormatError("request: wire frame is not an object")
        return cls(
            request_id=int(_require(wire, "request_id", "request")),
            tenant=_require(wire, "tenant", "request"),
            source=_require(wire, "source", "request"),
            params=dict(_require(wire, "params", "request")),
            arrays=_decode_payloads(_require(wire, "arrays", "request"), "request"),
            attempt=int(wire.get("attempt", 1)),
            fault=wire.get("fault"),
            deadline_s=wire.get("deadline_s"),
        )

    @classmethod
    def from_json(cls, text: str) -> "GatewayRequest":
        try:
            wire = json.loads(text)
        except json.JSONDecodeError as exc:
            raise WireFormatError(f"request: corrupt JSON frame ({exc.msg})") from exc
        return cls.from_wire(wire)


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
class GatewayResponse:
    """One served request on the wire (worker → gateway)."""

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
    def to_wire(self) -> dict:
        return {
            "request_id": self.request_id,
            "tenant": self.tenant,
            "status": self.status,
            "worker_id": self.worker_id,
            "attempt": self.attempt,
            "reason": self.reason,
            "result": {
                name: encode_array(np.asarray(value))
                for name, value in self.result.items()
            },
            "usage": dict(self.usage),
            "housekeeping_energy_j": list(self.housekeeping_energy_j),
            "physical": dict(self.physical),
            "compile_hits": self.compile_hits,
            "compile_misses": self.compile_misses,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_wire(), separators=(",", ":"))

    @classmethod
    def from_wire(cls, wire: Mapping) -> "GatewayResponse":
        if not isinstance(wire, Mapping):
            raise WireFormatError("response: wire frame is not an object")
        return cls(
            request_id=int(_require(wire, "request_id", "response")),
            tenant=_require(wire, "tenant", "response"),
            status=_require(wire, "status", "response"),
            worker_id=int(_require(wire, "worker_id", "response")),
            attempt=int(wire.get("attempt", 1)),
            reason=wire.get("reason"),
            result=_decode_payloads(wire.get("result", {}), "response"),
            usage=dict(wire.get("usage", {})),
            housekeeping_energy_j=list(wire.get("housekeeping_energy_j", [])),
            physical=dict(wire.get("physical", {})),
            compile_hits=int(wire.get("compile_hits", 0)),
            compile_misses=int(wire.get("compile_misses", 0)),
        )

    @classmethod
    def from_json(cls, text: str) -> "GatewayResponse":
        try:
            wire = json.loads(text)
        except json.JSONDecodeError as exc:
            raise WireFormatError(f"response: corrupt JSON frame ({exc.msg})") from exc
        return cls.from_wire(wire)


def _plain(value):
    """Coerce numpy scalars to JSON-native Python numbers."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value
