"""Wall-clock serving gateway: real concurrency over the emulated stack.

The repo's other serving tiers are deterministic discrete-event
simulations on a :class:`~repro.serve.clock.VirtualClock`; this package
is the wall-clock mode — an ``asyncio`` gateway
(:class:`~repro.gateway.server.AsyncGateway`, the driver of the pure
flight logic in :class:`~repro.gateway.core.FlightCore`) dispatching typed
requests (:mod:`repro.gateway.wire`) to a pool of worker *processes*
(:mod:`repro.gateway.worker`), each owning a private emulated CIM device
and sharing one flock-guarded on-disk compile cache.  An open-loop load
generator (:mod:`repro.gateway.loadgen`) replays Poisson or
trace-resampled arrivals (:mod:`repro.trace.arrivals`) and measures real
p50/p99 latency and per-worker utilization; worker crashes are recovered
with exactly-once billing; and the headline correctness gate
(:mod:`repro.gateway.differential`) proves that the same recorded trace
produces **bit-identical responses and accounting** through wall-clock
and ``VirtualClock`` modes.  See ``docs/gateway.md``.
"""

from repro.gateway.chaos import (
    ChaosReport,
    ChaosSpec,
    chaos_schedule,
    chaos_workload,
    run_chaos,
    run_chaos_async,
)
from repro.gateway.differential import (
    DifferentialResult,
    ModeRun,
    diff_runs,
    gateway_config_from_trace,
    gateway_run,
    reference_run,
    run_differential,
)
from repro.gateway.loadgen import (
    LoadReport,
    WorkItem,
    run_open_loop,
    synthetic_gemv_workload,
    trace_workload,
)
from repro.gateway.server import AsyncGateway, GatewayConfig, GatewayError
from repro.gateway.wire import (
    FAULT_MARKERS,
    GatewayRequest,
    GatewayResponse,
    WireFormatError,
)

__all__ = [
    "AsyncGateway",
    "ChaosReport",
    "ChaosSpec",
    "DifferentialResult",
    "FAULT_MARKERS",
    "GatewayConfig",
    "GatewayError",
    "GatewayRequest",
    "GatewayResponse",
    "LoadReport",
    "ModeRun",
    "WireFormatError",
    "WorkItem",
    "chaos_schedule",
    "chaos_workload",
    "diff_runs",
    "gateway_config_from_trace",
    "gateway_run",
    "reference_run",
    "run_chaos",
    "run_chaos_async",
    "run_differential",
    "run_open_loop",
    "synthetic_gemv_workload",
    "trace_workload",
]
