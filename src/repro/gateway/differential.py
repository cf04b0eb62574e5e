"""The gateway's headline correctness gate: wall-clock vs ``VirtualClock``.

The same recorded trace is driven through both serving modes —

* the **reference**: a fresh simulated :class:`~repro.serve.server.CimServer`
  on a ``VirtualClock``, rebuilt from the trace header but with
  ``max_batch_size=1`` (the gateway's pool parallelises across processes
  and never batches inside a device, so the accounting-comparable
  reference is the unbatched one) and admission quotas disabled
  (rejections are load-dependent by design: they depend on *when*
  requests arrive relative to dispatch, which is exactly what wall-clock
  mode changes — so the differential disables them in both modes and
  covers the completed/failed paths);
* the **gateway**: the wall-clock process pool of
  :class:`~repro.gateway.server.AsyncGateway`, fed the same submissions
  in the same order.

and the runs must agree **bit-for-bit**: per-request status, failure
reason and result array bytes; per-request measured usage (every billing
counter — the JSON wire round-trips doubles exactly); per-tenant bills
and the pool's aggregate totals (both the ledger's running
:class:`~repro.serve.accounting.Tally` totals: exact sums, correctly
rounded once and therefore independent of completion order); and the
accounting partition on both sides.  This holds because a request's usage
is a pure function of the request: each request starts on a cold crossbar,
device buffers are released between requests (deterministic CMA address
reuse), and — the keystone — both modes serve
every request through the same :func:`~repro.gateway.worker.serve_one`
path under *measurement isolation* (stats ledgers and buffer-handle
numbering reset per request), so the measured deltas are exact values
rather than differences against a cumulative float ledger.  *Which*
worker serves a request, and *when*, therefore cannot change what it
computes or bills.

The comparison itself is the trace diff's
(:class:`~repro.trace.replayer.TraceDiff`, type-strict: ``0`` is not
``0.0``); this module only chooses the records the two modes are
compared on and names the sides ("VirtualClock", "wall-clock").

As a third leg, completed gateway results are cross-checked against the
recording's own response events (batching never changes values — a
serving-loop invariant), tying the differential back to the original run.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, replace
from typing import Optional

from repro.gateway.server import AsyncGateway, GatewayConfig
from repro.gateway.wire import USAGE_FIELDS, GatewayRequest, GatewayResponse
from repro.hw.stats import AcceleratorRunStats
from repro.serve.accounting import Tally, partition_checks
from repro.serve.admission import TenantQuota
from repro.trace.recorder import BILL_FIELDS, tenant_bills  # noqa: F401 (BILL_FIELDS re-exported)
from repro.trace.replayer import TraceDiff
from repro.trace.schema import (
    Trace,
    TraceFormatError,
    decode_server_config,
    decode_submit_arrays,
)

#: Sections the differential compares, in report order.
DIFF_SECTIONS = (
    "responses",
    "usage",
    "tenant_bills",
    "accounting",
    "recorded_responses",
)


@dataclass
class ModeRun:
    """One serving mode's observable outcome, keyed by request id."""

    responses: dict[int, dict]        # status / reason / result arrays
    usage: dict[int, dict]            # USAGE_FIELDS per billed request
    tenant_bills: dict[str, dict]
    partition: dict[str, bool]        # that mode's own accounting check
    totals: dict[str, float]          # pool/device aggregate accounting
    snapshot: dict


@dataclass
class DifferentialResult:
    """Outcome of one wall-clock vs VirtualClock differential."""

    diff: TraceDiff
    num_requests: int
    reference: ModeRun
    gateway: ModeRun

    @property
    def identical(self) -> bool:
        return self.diff.identical


def _require_serve_trace(trace: Trace) -> None:
    if trace.kind != "serve":
        raise TraceFormatError(
            f"the gateway differential needs a 'serve' trace, got "
            f"{trace.kind!r} (fleet traces have per-device schedules the "
            "pool does not reproduce)"
        )


def _totals(ledger) -> dict[str, float]:
    """The pool's aggregate accounting: device work, all energy (work
    plus housekeeping) and housekeeping alone."""
    work = ledger.usage_tallies() + ledger.compensation_tallies()
    housekeeping = ledger.housekeeping_tallies()
    counters = ("wear_bytes", "crossbar_write_ops", "gemv_count", "macs")
    return {
        **Tally.of(work, *counters, "accelerator_energy_j").read(),
        "energy_j": Tally.of(work + housekeeping, "energy_j").read()["energy_j"],
        "housekeeping_energy_j": Tally.of(housekeeping, "energy_j").read()["energy_j"],
    }


# ----------------------------------------------------------------------
# The two runs
# ----------------------------------------------------------------------
def reference_run(trace: Trace) -> ModeRun:
    """Drive the trace through ``VirtualClock`` mode: one in-process
    unbatched :class:`~repro.serve.server.CimServer` on the simulated
    clock, serving the recorded submissions strictly in order through the
    *same* :func:`~repro.gateway.worker.serve_one` per-request path the
    pool workers run — no processes, no wall clock, fully deterministic.
    The accounting bar is the worker bar too: billed usage must
    reconcile with the device's folded physical totals."""
    from repro.gateway.worker import build_worker_server, serve_one

    _require_serve_trace(trace)
    wire = gateway_config_from_trace(trace, num_workers=1).worker_wire()
    server = build_worker_server(wire)
    physical = AcceleratorRunStats()
    responses: dict[int, dict] = {}
    usage: dict[int, dict] = {}
    try:
        for event in trace.submissions():
            request = GatewayRequest(
                request_id=int(event["request_id"]),
                tenant=event["tenant"],
                source=event["source"],
                params=dict(event["params"]),
                arrays=decode_submit_arrays(event),
            )
            response = serve_one(server, request, worker_id=0)
            physical.add(server.system.accelerator.totals)
            responses[request.request_id] = {
                "status": response.status,
                "reason": response.reason,
                "result": response.result,
            }
            if response.usage:
                usage[request.request_id] = dict(response.usage)
        return ModeRun(
            responses=responses,
            usage=usage,
            tenant_bills=tenant_bills(server.ledger),
            partition=partition_checks(server.ledger, {0: physical}),
            totals=_totals(server.ledger),
            snapshot=server.metrics.snapshot(),
        )
    finally:
        server.shutdown()


def gateway_config_from_trace(
    trace: Trace,
    num_workers: int = 2,
    cache_dir: Optional[str] = None,
) -> GatewayConfig:
    """A pool configuration matching the trace's recorded device."""
    _require_serve_trace(trace)
    worker = replace(
        decode_server_config(trace.kind, trace.config),
        # A worker serves one request per lease; admission is the
        # gateway's, so the worker keeps the default quota.
        max_batch_size=1,
        batch_window_s=0.0,
        default_quota=TenantQuota(),
    )
    return GatewayConfig(
        num_workers=num_workers,
        worker=worker,
        cache_dir=cache_dir,
        max_pending=None,  # quotas/backpressure off, like the reference
        # The resilience layer stays ENABLED under the differential: with
        # no faults injected the watchdog never fires and no slot ever
        # respawns, and the diff proves exactly that — resilience changes
        # nothing when nothing goes wrong.
        hang_timeout_s=30.0,
        max_respawns=2,
    )


async def gateway_run_async(
    trace: Trace,
    num_workers: int = 2,
    cache_dir: Optional[str] = None,
) -> ModeRun:
    """Drive the trace's submissions through a live wall-clock pool."""
    gateway = AsyncGateway(gateway_config_from_trace(trace, num_workers, cache_dir))
    with gateway.ledger.observe() as log:
        async with gateway:
            futures = []
            for event in trace.submissions():
                futures.append(
                    gateway.submit_nowait(
                        event["tenant"],
                        event["source"],
                        params=event["params"],
                        arrays=decode_submit_arrays(event),
                    )
                )
            responses_list: list[GatewayResponse] = await asyncio.gather(*futures)
            await gateway.drain()
    responses = {
        response.request_id: {
            "status": response.status,
            "reason": response.reason,
            "result": response.result,
        }
        for response in responses_list
    }
    usage = {
        record.request_id: {name: getattr(record, name) for name in USAGE_FIELDS}
        for record in log.usages
    }
    return ModeRun(
        responses=responses,
        usage=usage,
        tenant_bills=tenant_bills(gateway.ledger),
        partition=gateway.verify_partition(),
        totals=_totals(gateway.ledger),
        snapshot=gateway.snapshot(),
    )


def gateway_run(
    trace: Trace, num_workers: int = 2, cache_dir: Optional[str] = None
) -> ModeRun:
    return asyncio.run(gateway_run_async(trace, num_workers, cache_dir))


# ----------------------------------------------------------------------
# The diff
# ----------------------------------------------------------------------
def diff_runs(trace: Trace, reference: ModeRun, gateway: ModeRun) -> TraceDiff:
    """The two modes' records through the trace diff, section by section."""
    diff = TraceDiff(
        DIFF_SECTIONS, "wall-clock and VirtualClock modes", ("VirtualClock", "wall-clock")
    )
    diff.keyed("responses", reference.responses, gateway.responses, "request")
    diff.keyed("usage", reference.usage, gateway.usage, "request")
    diff.keyed("tenant_bills", reference.tenant_bills, gateway.tenant_bills, "tenant")
    diff.keyed("accounting", reference.totals, gateway.totals, "aggregate")
    for side, run in zip(diff.sides, (reference, gateway)):
        for name, passed in run.partition.items():
            if not passed:
                diff.add("accounting", f"{side} partition check failed: {name}")
    # Completed results vs the recording's own responses: the original
    # (batched, quota'd) run must agree on every result it completed —
    # batching and admission change scheduling, never values.
    completed = [rid for rid, r in trace.responses().items() if r["status"] == "completed"]

    def outcomes(responses):
        return {
            rid: {"status": responses[rid]["status"], "result": responses[rid]["result"]}
            for rid in completed
            if rid in responses
        }

    diff.keyed(
        "recorded_responses",
        outcomes(trace.responses()),
        outcomes(gateway.responses),
        "request",
        sides=("recording", "wall-clock"),
    )
    return diff


def run_differential(
    trace: Trace,
    num_workers: int = 2,
    cache_dir: Optional[str] = None,
) -> DifferentialResult:
    """The full gate: both runs plus the section-by-section diff."""
    reference = reference_run(trace)
    gateway = gateway_run(trace, num_workers=num_workers, cache_dir=cache_dir)
    diff = diff_runs(trace, reference, gateway)
    return DifferentialResult(
        diff=diff,
        num_requests=len(trace.submissions()),
        reference=reference,
        gateway=gateway,
    )
