"""The versioned record/replay trace format.

A *trace* is everything that crossed the serving boundary during one
:class:`~repro.serve.server.CimServer` or
:class:`~repro.fleet.server.FleetServer` run, serialized as JSON lines —
one event per line, human-greppable, append-only while recording:

* a ``header`` (always the first line) carrying the ``schema_version``,
  the server kind (``"serve"`` or ``"fleet"``) and the full server
  configuration needed to rebuild an identical fresh server (compile
  options, quotas, crossbar geometry, placement, retry policy and the
  seeded :class:`~repro.fleet.faults.FaultPlan`);
* ``quota`` and ``submit`` events in submission order — a submission
  records the tenant, the mini-C kernel source, the runtime parameters
  and every payload array (base64 bytes + dtype/shape + sha256 content
  hash), so replay re-drives byte-identical inputs; since schema v2,
  repeated payloads are stored once and referenced by content hash;
* observational ``attempt`` / ``commit`` / ``fault`` events emitted from
  the :class:`~repro.serve.dispatch.LeaseExecutor` hook seam (device id,
  device-clock timestamp, attempt number, faulted op);
* terminal ``response`` events per request (status, schedule facts —
  batch, device, attempts, migrations, simulated timestamps — and the
  full result arrays of completed requests);
* ``tenant_bill`` / ``device_bill`` ledger roll-ups (integer wear and
  work counters, ``fsum`` energies, compensations, partition verdicts)
  and one ``metrics`` snapshot;
* an ``end`` footer whose event count seals the file — a trace without
  its footer is truncated and is rejected as a whole.

Loading is all-or-nothing: :func:`load_trace` / :func:`loads_trace`
validate every line (JSON well-formedness, known event kinds, header
version, footer count, payload hash integrity) before returning, and any
problem raises a typed :class:`TraceFormatError` — there is no partial
replay of a corrupt trace, mirroring the compile cache's corrupt-pickle
quarantine semantics.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Iterable, Optional, Union

import numpy as np

from repro.compiler.options import CompileOptions
from repro.serve.admission import TenantQuota

#: Version of the on-disk trace format.  Bump on any incompatible change
#: to the event schema; readers reject every version they do not know.
#:
#: * v1 — every array payload carries its bytes in full.
#: * v2 — payloads are deduplicated by content hash: the first occurrence
#:   of a sha256 carries the bytes, later occurrences record only
#:   ``dtype``/``shape``/``sha256`` and resolve against the earlier
#:   payload.  Readers accept both versions; the semantic views of
#:   :class:`Trace` rehydrate references transparently, so consumers are
#:   version-agnostic.
SCHEMA_VERSION = 2

#: Schema versions this reader understands.
SUPPORTED_VERSIONS = frozenset({1, 2})

#: Every event kind a trace may contain (unchanged between v1 and v2).
EVENT_KINDS = frozenset(
    {
        "header",
        "quota",
        "submit",
        "attempt",
        "commit",
        "fault",
        "response",
        "tenant_bill",
        "device_bill",
        "metrics",
        "end",
    }
)

#: Server kinds a header may declare.
TRACE_KINDS = ("serve", "fleet")


class TraceFormatError(RuntimeError):
    """A trace file violates the format: unknown schema version, corrupt
    or truncated JSONL, unknown event kind, or a payload whose bytes do
    not match their recorded content hash.  Raised by the loader before
    any replay state is built — a bad trace is rejected whole."""


# ----------------------------------------------------------------------
# Array payloads
# ----------------------------------------------------------------------
def encode_array(array: np.ndarray) -> dict:
    """One array as a JSON-able payload: dtype + shape + base64 bytes +
    sha256 content hash (the bit-identity currency of the diff)."""
    data = np.ascontiguousarray(array)
    if data.dtype.hasobject:
        # The bytes of an object array are pointers into this process.
        raise TraceFormatError(f"cannot encode an array of dtype {data.dtype}: it holds objects")
    raw = data.tobytes()
    return {
        "dtype": data.dtype.str,
        "shape": list(data.shape),
        "sha256": hashlib.sha256(raw).hexdigest(),
        "data": base64.b64encode(raw).decode("ascii"),
    }


def decode_array(payload: dict, where: str = "payload") -> np.ndarray:
    """Rebuild an array from its payload, verifying the content hash."""
    try:
        dtype = np.dtype(payload["dtype"])
        shape = tuple(int(dim) for dim in payload["shape"])
        raw = base64.b64decode(payload["data"].encode("ascii"), validate=True)
        recorded_hash = payload["sha256"]
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceFormatError(f"{where}: malformed array payload ({exc})") from exc
    if dtype.hasobject:
        raise TraceFormatError(f"{where}: array payload of dtype {dtype} holds objects")
    expected = dtype.itemsize * math.prod(shape)
    if len(raw) != expected:
        raise TraceFormatError(
            f"{where}: array payload has {len(raw)} bytes, "
            f"dtype/shape require {expected}"
        )
    if hashlib.sha256(raw).hexdigest() != recorded_hash:
        raise TraceFormatError(
            f"{where}: array payload bytes do not match their recorded "
            f"sha256 — the trace is corrupt"
        )
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


def decode_submit_arrays(event: dict) -> dict[str, np.ndarray]:
    """The decoded array payloads of one ``submit`` event."""
    return {
        name: decode_array(payload, where=f"submit array {name!r}")
        for name, payload in event["arrays"].items()
    }


def dedupe_payload(payload: dict, seen: set[str]) -> dict:
    """Schema-v2 payload dedup: the first payload with a given content
    hash keeps its bytes; later ones become references (no ``data``)."""
    sha = payload["sha256"]
    if sha in seen:
        return {
            "dtype": payload["dtype"],
            "shape": payload["shape"],
            "sha256": sha,
        }
    seen.add(sha)
    return payload


def resolve_payload(payload: dict, data_index: dict[str, str]) -> dict:
    """Rehydrate a v2 payload reference from *data_index* (sha256 →
    base64 bytes).  Full payloads pass through (and are indexed)."""
    if "data" in payload:
        data_index.setdefault(payload["sha256"], payload["data"])
        return payload
    try:
        data = data_index[payload["sha256"]]
    except KeyError:
        raise TraceFormatError(
            f"deduplicated payload references unknown sha256 "
            f"{payload.get('sha256')!r}"
        ) from None
    return {**payload, "data": data}


def _validate_payload(
    payload: dict,
    where: str,
    data_index: Optional[dict[str, str]] = None,
    allow_refs: bool = False,
) -> None:
    if not isinstance(payload, dict):
        raise TraceFormatError(f"{where}: array payload is not an object")
    if "data" not in payload:
        if not allow_refs:
            raise TraceFormatError(
                f"{where}: array payload missing data (schema v1 records "
                "every payload in full)"
            )
        try:
            payload = resolve_payload(payload, data_index or {})
        except TraceFormatError as exc:
            raise TraceFormatError(f"{where}: {exc}") from None
        decode_array(payload, where=where)
        return
    decode_array(payload, where=where)  # raises TraceFormatError on any problem
    if data_index is not None:
        data_index.setdefault(payload["sha256"], payload["data"])


# ----------------------------------------------------------------------
# Config encoding (enough to rebuild an identical fresh server)
# ----------------------------------------------------------------------
def encode_compile_options(options: CompileOptions) -> dict:
    encoded = asdict(options)
    for key in ("offload_kinds", "dump_ir_after", "pipeline"):
        if isinstance(encoded[key], tuple):
            encoded[key] = list(encoded[key])
    return encoded


def decode_compile_options(encoded: dict) -> CompileOptions:
    known = {field.name for field in fields(CompileOptions)}
    unknown = set(encoded) - known
    if unknown:
        raise TraceFormatError(
            f"header: unknown compile option(s) {sorted(unknown)}"
        )
    kwargs = dict(encoded)
    for key in ("offload_kinds", "dump_ir_after"):
        if key in kwargs and isinstance(kwargs[key], list):
            kwargs[key] = tuple(kwargs[key])
    try:
        return CompileOptions(**kwargs)
    except (TypeError, ValueError) as exc:
        raise TraceFormatError(f"header: bad compile options ({exc})") from exc


def encode_quota(quota: TenantQuota) -> dict:
    return {
        "max_queue_depth": quota.max_queue_depth,
        "weight": quota.weight,
        "wear_budget_bytes": quota.wear_budget_bytes,
        "energy_budget_j": quota.energy_budget_j,
    }


def decode_quota(encoded: dict) -> TenantQuota:
    try:
        return TenantQuota(**encoded)
    except (TypeError, ValueError) as exc:
        raise TraceFormatError(f"bad tenant quota ({exc})") from exc


def encode_fault_plan(plan) -> Optional[dict]:
    if plan is None:
        return None
    return {
        "kills": [
            {"device_id": kill.device_id, "at_s": kill.at_s}
            for kill in plan.kills
        ],
        "degrades": [
            {
                "device_id": degrade.device_id,
                "at_s": degrade.at_s,
                "factor": degrade.factor,
            }
            for degrade in plan.degrades
        ],
        "op_rules": [
            {
                "op": rule.op,
                "probability": rule.probability,
                "device_id": rule.device_id,
                "max_faults": rule.max_faults,
            }
            for rule in plan.op_rules
        ],
        "seed": plan.seed,
    }


def decode_fault_plan(encoded: Optional[dict]):
    if encoded is None:
        return None
    from repro.fleet.faults import CapacityDegrade, DeviceKill, FaultPlan, OpFaultRule

    try:
        return FaultPlan(
            kills=[DeviceKill(**kill) for kill in encoded.get("kills", [])],
            degrades=[
                CapacityDegrade(**degrade)
                for degrade in encoded.get("degrades", [])
            ],
            op_rules=[OpFaultRule(**rule) for rule in encoded.get("op_rules", [])],
            seed=encoded.get("seed", 0),
        )
    except (TypeError, ValueError) as exc:
        raise TraceFormatError(f"header: bad fault plan ({exc})") from exc


# ----------------------------------------------------------------------
# The trace container
# ----------------------------------------------------------------------
@dataclass
class Trace:
    """One fully-validated trace: the parsed event list, header first,
    ``end`` footer last.

    :attr:`events` holds the trace exactly as stored on disk — in a v2
    trace that includes deduplicated payload references.  The semantic
    views (:meth:`body`, :meth:`submissions`, :meth:`responses`, …)
    rehydrate references transparently, so consumers always see full
    payloads regardless of schema version; :meth:`dumps` serializes the
    raw events, preserving the dedup on round-trip."""

    events: list[dict]
    #: Lazily-built rehydrated view of the interior events.
    _body_cache: Optional[list[dict]] = field(
        default=None, init=False, repr=False, compare=False
    )

    # -- structural views ----------------------------------------------
    @property
    def header(self) -> dict:
        return self.events[0]

    @property
    def schema_version(self) -> int:
        return self.header["schema_version"]

    @property
    def kind(self) -> str:
        """``"serve"`` (single device) or ``"fleet"``."""
        return self.header["kind"]

    @property
    def config(self) -> dict:
        return self.header["config"]

    def body(self) -> list[dict]:
        """Every event between the header and the ``end`` footer, with
        deduplicated payload references rehydrated to full payloads."""
        if self._body_cache is None:
            data_index: dict[str, str] = {}
            self._body_cache = [
                _rehydrate_event(event, data_index)
                for event in self.events[1:-1]
            ]
        return self._body_cache

    def of_kind(self, kind: str) -> list[dict]:
        return [event for event in self.body() if event["event"] == kind]

    # -- semantic views -------------------------------------------------
    def submissions(self) -> list[dict]:
        return self.of_kind("submit")

    def responses(self) -> dict[int, dict]:
        return {event["request_id"]: event for event in self.of_kind("response")}

    def tenant_bills(self) -> dict[str, dict]:
        return {event["tenant"]: event for event in self.of_kind("tenant_bill")}

    def device_bills(self) -> dict[int, dict]:
        return {event["device_id"]: event for event in self.of_kind("device_bill")}

    def metrics(self) -> Optional[dict]:
        events = self.of_kind("metrics")
        return events[0] if events else None

    # -- serialization --------------------------------------------------
    def dumps(self) -> str:
        return "".join(
            json.dumps(event, separators=(",", ":")) + "\n"
            for event in self.events
        )

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.dumps())
        return path


def _rehydrate_event(event: dict, data_index: dict[str, str]) -> dict:
    """Return *event* with payload references resolved (copy-on-write:
    events without references are returned as-is)."""
    for key in ("arrays", "result"):
        payloads = event.get(key)
        if not isinstance(payloads, dict):
            continue
        resolved = {
            name: resolve_payload(payload, data_index)
            for name, payload in payloads.items()
        }
        if any(
            resolved[name] is not payloads[name] for name in payloads
        ):
            event = {**event, key: resolved}
    return event


def build_trace(events: Iterable[dict]) -> Trace:
    """Seal a recorded event stream into a :class:`Trace` by appending
    the ``end`` footer, then re-validate the result (a recorder bug must
    fail at build time, not at some future load)."""
    sealed = list(events)
    sealed.append({"event": "end", "events": len(sealed)})
    return _validate_events(sealed)


# ----------------------------------------------------------------------
# Loading (all-or-nothing)
# ----------------------------------------------------------------------
def loads_trace(text: str) -> Trace:
    """Parse and validate a JSONL trace from a string."""
    lines = text.splitlines()
    events: list[dict] = []
    for line_no, line in enumerate(lines, 1):
        if not line.strip():
            raise TraceFormatError(f"line {line_no}: blank line inside a trace")
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(
                f"line {line_no}: corrupt JSONL line ({exc.msg})"
            ) from exc
        if not isinstance(event, dict):
            raise TraceFormatError(
                f"line {line_no}: expected a JSON object, got "
                f"{type(event).__name__}"
            )
        events.append(event)
    return _validate_events(events)


def load_trace(path: Union[str, Path]) -> Trace:
    """Load and validate a JSONL trace file (see :func:`loads_trace`)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace {path}: {exc}") from exc
    return loads_trace(text)


#: Keys a submission event must carry to be replayable.
_SUBMIT_REQUIRED = ("request_id", "tenant", "source", "params", "arrays", "arrival_s")


def _validate_events(events: list[dict]) -> Trace:
    if not events:
        raise TraceFormatError("empty trace (no header)")
    for index, event in enumerate(events, 1):
        kind = event.get("event")
        if kind not in EVENT_KINDS:
            raise TraceFormatError(
                f"line {index}: unknown event kind {kind!r} "
                f"(known: {sorted(EVENT_KINDS)})"
            )
    header = events[0]
    if header["event"] != "header":
        raise TraceFormatError(
            f"line 1: trace must start with a header event, got "
            f"{header['event']!r}"
        )
    version = header.get("schema_version")
    if not isinstance(version, int) or isinstance(version, bool):
        raise TraceFormatError("header: schema_version missing or not an integer")
    if version not in SUPPORTED_VERSIONS:
        raise TraceFormatError(
            f"unsupported schema_version {version} (this reader understands "
            f"versions {sorted(SUPPORTED_VERSIONS)}); re-record the trace "
            "or upgrade"
        )
    if header.get("kind") not in TRACE_KINDS:
        raise TraceFormatError(
            f"header: kind must be one of {TRACE_KINDS}, got "
            f"{header.get('kind')!r}"
        )
    if not isinstance(header.get("config"), dict):
        raise TraceFormatError("header: missing config object")
    footer = events[-1]
    if footer["event"] != "end":
        raise TraceFormatError(
            "trace is truncated: the final line is not the 'end' footer"
        )
    declared = footer.get("events")
    if declared != len(events) - 1:
        raise TraceFormatError(
            f"trace is truncated or spliced: footer declares {declared} "
            f"events, file carries {len(events) - 1}"
        )
    for stray in events[1:-1]:
        if stray["event"] in ("header", "end"):
            raise TraceFormatError(
                f"trace carries an interior {stray['event']!r} event — "
                "two traces concatenated?"
            )
    # Payload integrity: every recorded array must decode and match its
    # content hash *now*, so a corrupt trace can never be partially
    # replayed.  In a v2 trace payloads may be deduplicated references;
    # they must resolve against an *earlier* full payload (the scan runs
    # in event order, mirroring how the recorder deduplicates).
    allow_refs = version >= 2
    data_index: dict[str, str] = {}
    for index, event in enumerate(events, 1):
        if event["event"] == "submit":
            for key in _SUBMIT_REQUIRED:
                if key not in event:
                    raise TraceFormatError(
                        f"line {index}: submit event missing {key!r}"
                    )
            arrival_s = event["arrival_s"]
            if (
                isinstance(arrival_s, bool)
                or not isinstance(arrival_s, (int, float))
                or not math.isfinite(arrival_s)
                or arrival_s < 0
            ):
                # json accepts NaN/Infinity; replaying one would never
                # reach its arrival and the drain would not return.
                raise TraceFormatError(
                    f"line {index}: submit arrival_s must be a finite "
                    f"time >= 0, got {arrival_s!r}"
                )
            arrays = event["arrays"]
            if not isinstance(arrays, dict):
                raise TraceFormatError(f"line {index}: submit arrays not a dict")
            for name, payload in arrays.items():
                _validate_payload(
                    payload,
                    f"line {index}: submit array {name!r}",
                    data_index=data_index,
                    allow_refs=allow_refs,
                )
        elif event["event"] == "response":
            for name, payload in (event.get("result") or {}).items():
                _validate_payload(
                    payload,
                    f"line {index}: result array {name!r}",
                    data_index=data_index,
                    allow_refs=allow_refs,
                )
    return Trace(events=events)
