"""Record/replay trace layer.

Everything that crosses the serving boundary — submissions, admission
decisions, leases, device/fault events, retries, migrations and final
bills — can be recorded into a versioned JSON-lines trace
(:mod:`repro.trace.schema`), replayed through a fresh server on a
virtual clock (:mod:`repro.trace.replayer`), and diffed bit-for-bit
against the recording.  See ``docs/trace.md`` for the format spec and
the golden-fixture workflow, and :mod:`repro.cli` for the ``repro``
command-line entrypoints.
"""

from repro.trace.arrivals import ArrivalPlan, poisson_plan, trace_plan
from repro.trace.recorder import TraceRecorder
from repro.trace.replayer import (
    DIFF_SECTIONS,
    ReplayResult,
    TraceDiff,
    TraceReplayer,
    diff_traces,
)
from repro.trace.scenarios import SCENARIOS, record_fleet_faultstorm, record_serve_multitenant
from repro.trace.schema import (
    EVENT_KINDS,
    SCHEMA_VERSION,
    TRACE_KINDS,
    Trace,
    TraceFormatError,
    build_trace,
    decode_array,
    encode_array,
    load_trace,
    loads_trace,
)

__all__ = [
    "DIFF_SECTIONS",
    "EVENT_KINDS",
    "SCENARIOS",
    "SCHEMA_VERSION",
    "TRACE_KINDS",
    "ArrivalPlan",
    "ReplayResult",
    "Trace",
    "TraceDiff",
    "TraceFormatError",
    "TraceRecorder",
    "TraceReplayer",
    "build_trace",
    "decode_array",
    "diff_traces",
    "encode_array",
    "load_trace",
    "loads_trace",
    "poisson_plan",
    "record_fleet_faultstorm",
    "record_serve_multitenant",
    "trace_plan",
]
