"""Replay a recorded trace through a fresh server and diff the runs.

:class:`TraceReplayer` rebuilds the recorded server configuration from
the trace header (compile options, quotas, crossbar geometry, placement,
retry policy and the seeded fault plan via
:meth:`~repro.fleet.faults.FaultPlan.fresh`), re-drives every ``quota``
and ``submit`` event in recorded order on a fresh
:class:`~repro.serve.clock.VirtualClock`, drains the run, and records it
with a fresh :class:`~repro.trace.recorder.TraceRecorder`.  Because the
whole stack is a deterministic discrete-event simulation, the replayed
trace must equal the recording event for event.

:func:`diff_traces` is the gate: it compares two traces section by
section — responses (bit-identical result arrays by content hash *and*
bytes), per-tenant bills (integer wear/work counters by ``==``, ``fsum``
energies by exact float equality), per-device physical/billed ledgers,
the attempt/commit/fault streams, and the metrics snapshot — and returns
a :class:`TraceDiff` listing every mismatch.  Exact equality is the
right bar: replay determinism means every float is the same IEEE double,
and JSON round-trips doubles exactly (``repr`` shortest round-trip).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.fleet.server import FleetConfig, FleetServer
from repro.serve.server import CimServer, ServerConfig, ServingLoop
from repro.trace.recorder import TraceRecorder
from repro.trace.schema import (
    Trace,
    TraceFormatError,
    decode_compile_options,
    decode_fault_plan,
    decode_quota,
    decode_submit_arrays,
)

#: Sections :func:`diff_traces` compares, in report order.
DIFF_SECTIONS = (
    "header",
    "submissions",
    "schedule",
    "responses",
    "tenant_bills",
    "device_bills",
    "metrics",
)


@dataclass
class TraceDiff:
    """Every way two traces disagree, grouped by section; empty == pass."""

    #: Sections reported, and the two verdict phrases; the gateway's
    #: differential (:class:`repro.gateway.differential.GatewayDiff`)
    #: overrides all three.
    sections: ClassVar[tuple[str, ...]] = DIFF_SECTIONS
    identical_verdict: ClassVar[str] = "traces are identical (bit-for-bit)"
    differ_verdict: ClassVar[str] = "traces differ"

    mismatches: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for section in self.sections:
            self.mismatches.setdefault(section, [])

    @property
    def identical(self) -> bool:
        return not any(self.mismatches.values())

    def add(self, section: str, message: str) -> None:
        self.mismatches.setdefault(section, []).append(message)

    def count(self) -> int:
        return sum(len(entries) for entries in self.mismatches.values())

    def summary(self) -> str:
        """Human-readable verdict, one line per mismatch."""
        if self.identical:
            return self.identical_verdict
        lines = [f"{self.differ_verdict}: {self.count()} mismatch(es)"]
        for section in self.mismatches:
            for message in self.mismatches[section]:
                lines.append(f"  [{section}] {message}")
        return "\n".join(lines)


@dataclass
class ReplayResult:
    """Outcome of one replay: the fresh run's trace, the server it ran
    on (ledgers and metrics still attached), and the diff vs the
    recording."""

    recorded: Trace
    replayed: Trace
    server: ServingLoop
    diff: TraceDiff

    @property
    def identical(self) -> bool:
        return self.diff.identical


class TraceReplayer:
    """Re-drive a recorded workload through a fresh server."""

    def __init__(self, trace: Trace):
        self.trace = trace

    # ------------------------------------------------------------------
    def build_server(self) -> ServingLoop:
        """A fresh server in the exact configuration of the recording.

        The server builds its own compile cache, private and in-memory:
        replay must never read another run's on-disk cache state.
        """
        fleet = self.trace.kind == "fleet"
        config = dict(self.trace.config)
        try:
            config["default_quota"] = decode_quota(config["default_quota"])
            config["compile_options"] = decode_compile_options(
                config["compile_options"]
            )
            if fleet:
                config["fault_plan"] = decode_fault_plan(config["fault_plan"])
                config["initial_wear_bytes"] = tuple(config["initial_wear_bytes"])
            server_config = (FleetConfig if fleet else ServerConfig)(**config)
        except (KeyError, TypeError) as exc:
            raise TraceFormatError(
                f"header: config does not rebuild a {self.trace.kind} "
                f"server ({exc})"
            ) from exc
        return (FleetServer if fleet else CimServer)(server_config)

    # ------------------------------------------------------------------
    def replay(self) -> ReplayResult:
        """Record a fresh run of the recorded workload and diff it."""
        # Record at the source trace's schema version, so replaying an
        # old fixture produces a byte-comparable trace (a v1 fixture must
        # never be diffed against a v2 re-recording).
        recorder = TraceRecorder(schema_version=self.trace.schema_version)
        server = recorder.attach(self.build_server())
        for event in self.trace.body():
            if event["event"] == "quota":
                server.set_quota(event["tenant"], decode_quota(event["quota"]))
            elif event["event"] == "submit":
                server.submit(
                    event["tenant"],
                    event["source"],
                    params=event["params"],
                    arrays=decode_submit_arrays(event),
                    arrival_s=event["arrival_s"],
                )
        server.drain()
        replayed = recorder.finalize()
        diff = diff_traces(self.trace, replayed)
        return ReplayResult(
            recorded=self.trace, replayed=replayed, server=server, diff=diff
        )


# ----------------------------------------------------------------------
# Diffing
# ----------------------------------------------------------------------
def diff_traces(expected: Trace, actual: Trace) -> TraceDiff:
    """Compare two traces section by section; see :class:`TraceDiff`."""
    diff = TraceDiff()
    _diff_header(diff, expected, actual)
    _diff_events(
        diff,
        "submissions",
        expected.submissions(),
        actual.submissions(),
        lambda event: f"request {event['request_id']}",
    )
    _diff_events(
        diff,
        "schedule",
        [e for e in expected.body() if e["event"] in ("attempt", "commit", "fault")],
        [e for e in actual.body() if e["event"] in ("attempt", "commit", "fault")],
        lambda event: (
            f"{event['event']} of request {event['request_id']} on device "
            f"{event['device_id']}"
        ),
    )
    _diff_keyed(
        diff, "responses", expected.responses(), actual.responses(), "request"
    )
    _diff_keyed(
        diff, "tenant_bills", expected.tenant_bills(), actual.tenant_bills(), "tenant"
    )
    _diff_keyed(
        diff, "device_bills", expected.device_bills(), actual.device_bills(), "device"
    )
    if _normalize(expected.metrics()) != _normalize(actual.metrics()):
        diff.add("metrics", _describe_dict_diff(
            _normalize(expected.metrics()) or {},
            _normalize(actual.metrics()) or {},
            "metrics snapshot",
        ))
    return diff


def _diff_header(diff: TraceDiff, expected: Trace, actual: Trace) -> None:
    if expected.kind != actual.kind:
        diff.add("header", f"kind {expected.kind!r} != {actual.kind!r}")
    if expected.schema_version != actual.schema_version:
        diff.add(
            "header",
            f"schema_version {expected.schema_version} != {actual.schema_version}",
        )
    if _normalize(expected.config) != _normalize(actual.config):
        diff.add(
            "header",
            _describe_dict_diff(
                _normalize(expected.config), _normalize(actual.config), "config"
            ),
        )


def _diff_events(diff, section, expected, actual, describe) -> None:
    if len(expected) != len(actual):
        diff.add(
            section, f"{len(expected)} recorded event(s) vs {len(actual)} replayed"
        )
    for left, right in zip(expected, actual):
        left, right = _normalize(left), _normalize(right)
        if left != right:
            diff.add(
                section, _describe_dict_diff(left, right, describe(left))
            )


def _diff_keyed(diff, section, expected, actual, noun) -> None:
    for key in expected:
        if key not in actual:
            diff.add(section, f"{noun} {key!r} missing from replay")
    for key in actual:
        if key not in expected:
            diff.add(section, f"{noun} {key!r} absent from recording")
    for key in expected:
        if key not in actual:
            continue
        left, right = _normalize(expected[key]), _normalize(actual[key])
        if left != right:
            diff.add(section, _describe_dict_diff(left, right, f"{noun} {key!r}"))


def _normalize(value):
    """JSON-normalize an event so a freshly recorded trace (tuples, int
    keys) compares equal to one parsed back from JSONL (lists, str keys)."""
    import json

    if value is None:
        return None
    return json.loads(json.dumps(value, sort_keys=True))


def _describe_dict_diff(left, right, label: str) -> str:
    if not isinstance(left, dict) or not isinstance(right, dict):
        return f"{label}: {left!r} != {right!r}"
    parts = []
    for key in sorted(set(left) | set(right)):
        lval, rval = left.get(key, "<missing>"), right.get(key, "<missing>")
        if lval != rval:
            parts.append(f"{key}: {_shorten(lval)} != {_shorten(rval)}")
    return f"{label} differs ({'; '.join(parts)})"


def _shorten(value, limit: int = 80) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."
