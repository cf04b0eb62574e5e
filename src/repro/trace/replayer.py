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
section — responses (bit-identical result arrays: dtype, shape, content
hash *and* bytes), per-tenant bills (integer wear/work counters,
``fsum`` energies), per-device physical/billed ledgers, the
attempt/commit/fault streams, and the metrics snapshot — and returns a
:class:`TraceDiff` listing every mismatch.  Every value is compared as
canonical JSON text, so the comparison is type-strict: ``0`` is not
``0.0`` and ``true`` is not ``1``.  Exact equality is the right bar:
replay determinism means every float is the same IEEE double, and JSON
round-trips doubles exactly (``repr`` shortest round-trip).  The
gateway's wall-clock vs VirtualClock differential compares its two runs
through the same :class:`TraceDiff` methods; there is no other diff.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.fleet.server import FleetServer
from repro.serve.server import CimServer, ServingLoop
from repro.trace.recorder import TraceRecorder
from repro.trace.schema import (
    Trace,
    decode_quota,
    decode_server_config,
    decode_submit_arrays,
    encode_array,
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
    """Every way two runs disagree, grouped by section; empty == pass.

    The diff is also the one comparison engine of the package:
    :meth:`keyed` and :meth:`events` compare the two runs' records
    through :meth:`value`, type-strict.  *subject* names the two runs in
    the verdict and *sides* in a mismatch; :func:`diff_traces` compares a
    recording with its replay, the gateway differential
    (:func:`repro.gateway.differential.diff_runs`) two serving modes.
    """

    sections: tuple[str, ...] = DIFF_SECTIONS
    subject: str = "traces"
    sides: tuple[str, str] = ("recording", "replay")
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
            return f"{self.subject} are identical (bit-for-bit)"
        lines = [f"{self.subject} differ: {self.count()} mismatch(es)"]
        for section in self.mismatches:
            for message in self.mismatches[section]:
                lines.append(f"  [{section}] {message}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # The comparison
    # ------------------------------------------------------------------
    def value(self, section: str, left, right, label: str) -> None:
        """Add a mismatch unless *left* and *right* are the same value.

        Both sides are compared as canonical JSON text: a tuple equals a
        list and an int key its string (a fresh recording vs one parsed
        back from JSONL), but ``0`` is not ``0.0`` and ``true`` is not
        ``1``, and an array is its dtype, shape and bytes."""
        left, right = _plain_json(left), _plain_json(right)
        if _canonical(left) != _canonical(right):
            self.add(section, _describe(left, right, label))

    def keyed(self, section: str, expected, actual, noun: str, sides=None) -> None:
        """Compare two mappings entry by entry (*noun* names a key)."""
        sides = sides or self.sides
        for key in expected:
            if key not in actual:
                self.add(section, f"{noun} {key!r} missing from {sides[1]}")
            else:
                self.value(section, expected[key], actual[key], f"{noun} {key!r}")
        for key in actual:
            if key not in expected:
                self.add(section, f"{noun} {key!r} missing from {sides[0]}")

    def events(self, section: str, expected, actual, describe) -> None:
        """Compare two event streams in order (*describe* labels one)."""
        if len(expected) != len(actual):
            self.add(
                section,
                f"{len(expected)} event(s) in the {self.sides[0]} vs "
                f"{len(actual)} in the {self.sides[1]}",
            )
        for left, right in zip(expected, actual):
            self.value(section, left, right, describe(left))


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
        server_class = FleetServer if self.trace.kind == "fleet" else CimServer
        return server_class(decode_server_config(self.trace.kind, self.trace.config))

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
    diff.keyed("header", expected.header, actual.header, "header field")
    diff.events(
        "submissions",
        expected.submissions(),
        actual.submissions(),
        lambda event: f"request {event['request_id']}",
    )
    diff.events(
        "schedule",
        _schedule(expected),
        _schedule(actual),
        lambda event: (
            f"{event['event']} of request {event['request_id']} on device "
            f"{event['device_id']}"
        ),
    )
    diff.keyed("responses", expected.responses(), actual.responses(), "request")
    diff.keyed("tenant_bills", expected.tenant_bills(), actual.tenant_bills(), "tenant")
    diff.keyed("device_bills", expected.device_bills(), actual.device_bills(), "device")
    diff.events(
        "metrics", [expected.metrics()], [actual.metrics()], lambda _: "metrics snapshot"
    )
    return diff


def _schedule(trace: Trace) -> list[dict]:
    return [e for e in trace.body() if e["event"] in ("attempt", "commit", "fault")]


def _plain_json(value):
    """*value* as parsed JSON: lists, string keys, arrays as payloads."""
    return json.loads(json.dumps(value, default=_jsonable))


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return encode_array(value)
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"cannot compare a {type(value).__name__}")


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def _describe(left, right, label: str) -> str:
    if not isinstance(left, dict) or not isinstance(right, dict):
        return f"{label}: {_shorten(left)} != {_shorten(right)}"
    parts = []
    for key in sorted(set(left) | set(right)):
        lval, rval = left.get(key, "<missing>"), right.get(key, "<missing>")
        if _canonical(lval) != _canonical(rval):
            parts.append(f"{key}: {_shorten(lval)} != {_shorten(rval)}")
    return f"{label} differs ({'; '.join(parts)})"


def _shorten(value, limit: int = 80) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."
