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
counter, floats by exact ``==`` — the JSON wire round-trips doubles
exactly); per-tenant bills (``fsum`` energies by exact equality — fsum
is correctly rounded and therefore independent of completion order); and
the aggregate accounting partition on both sides.  This holds because a
request's usage is a pure function of the request: leases are scrubbed,
device buffers are released between requests (deterministic CMA address
reuse), and — the keystone — both modes serve every request through the
same :func:`~repro.gateway.worker.serve_one` path under *measurement
isolation* (stats ledgers and buffer-handle numbering reset per request),
so the measured deltas are exact values rather than differences against
a cumulative float ledger.  *Which* worker serves a request, and *when*,
therefore cannot change what it computes or bills.

As a third leg, completed gateway results are cross-checked against the
recording's own response events (batching never changes values — the PR 4
server invariant), tying the differential back to the original run.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.gateway.server import AsyncGateway, GatewayConfig
from repro.gateway.wire import USAGE_FIELDS, GatewayRequest, GatewayResponse
from repro.hw.stats import AcceleratorRunStats
from repro.serve.accounting import partition_checks
from repro.trace.recorder import BILL_FIELDS, tenant_bills
from repro.trace.replayer import TraceDiff
from repro.trace.schema import (
    Trace,
    TraceFormatError,
    decode_compile_options,
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


class GatewayDiff(TraceDiff):
    """Every way the two modes disagree, by section; empty == pass."""

    sections = DIFF_SECTIONS
    identical_verdict = (
        "wall-clock and VirtualClock modes are identical "
        "(bit-for-bit responses and accounting)"
    )
    differ_verdict = "serving modes differ"


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

    diff: GatewayDiff
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
    return {
        "wear_bytes": int(ledger.device_wear_bytes),
        "write_ops": int(ledger.device_crossbar_write_ops),
        "gemv_count": int(ledger.device_gemv_count),
        "macs": int(ledger.device_macs),
        "accelerator_energy_j": ledger.device_accelerator_energy_j,
        "energy_j": ledger.device_energy_j,
        "housekeeping_energy_j": ledger.housekeeping_energy_j,
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
    config = trace.config
    return GatewayConfig(
        num_workers=num_workers,
        num_tiles=int(config.get("num_tiles", 1)),
        crossbar_rows=config.get("crossbar_rows"),
        crossbar_cols=config.get("crossbar_cols"),
        crossbar_mode=config.get("crossbar_mode", "ideal"),
        compile_options=decode_compile_options(config["compile_options"]),
        cache_dir=cache_dir,
        max_pending=None,  # quotas/backpressure off, like the reference
        # The resilience layer stays ENABLED under the differential: with
        # no faults injected the watchdog never fires and no slot ever
        # respawns, and the diff proves exactly that — resilience changes
        # nothing when nothing goes wrong.
        hang_timeout_s=30.0,
        max_respawns=2,
        scrub_leases=bool(config.get("scrub_leases", True)),
    )


async def gateway_run_async(
    trace: Trace,
    num_workers: int = 2,
    cache_dir: Optional[str] = None,
) -> ModeRun:
    """Drive the trace's submissions through a live wall-clock pool."""
    gateway = AsyncGateway(gateway_config_from_trace(trace, num_workers, cache_dir))
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
        for record in gateway.ledger.all_usages()
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
def diff_runs(trace: Trace, reference: ModeRun, gateway: ModeRun) -> GatewayDiff:
    diff = GatewayDiff()
    _diff_responses(diff, reference, gateway)
    _diff_usage(diff, reference, gateway)
    _diff_bills(diff, reference, gateway)
    _diff_accounting(diff, reference, gateway)
    _diff_recorded(diff, trace, gateway)
    return diff


def _diff_responses(diff, reference: ModeRun, gateway: ModeRun) -> None:
    for rid in sorted(set(reference.responses) | set(gateway.responses)):
        ref = reference.responses.get(rid)
        gwy = gateway.responses.get(rid)
        if ref is None or gwy is None:
            diff.add(
                "responses",
                f"request {rid} present only in "
                f"{'reference' if gwy is None else 'gateway'} mode",
            )
            continue
        if ref["status"] != gwy["status"]:
            diff.add(
                "responses",
                f"request {rid}: status {ref['status']!r} (VirtualClock) "
                f"vs {gwy['status']!r} (wall-clock)",
            )
            continue
        if ref["reason"] != gwy["reason"]:
            diff.add(
                "responses",
                f"request {rid}: reason {ref['reason']!r} vs {gwy['reason']!r}",
            )
        for name in sorted(set(ref["result"]) | set(gwy["result"])):
            left = ref["result"].get(name)
            right = gwy["result"].get(name)
            if left is None or right is None:
                diff.add("responses", f"request {rid}: result array {name!r} missing")
            elif (
                left.dtype != right.dtype
                or left.shape != right.shape
                or np.asarray(left).tobytes() != np.asarray(right).tobytes()
            ):
                diff.add(
                    "responses",
                    f"request {rid}: result array {name!r} bytes differ",
                )


def _diff_usage(diff, reference: ModeRun, gateway: ModeRun) -> None:
    for rid in sorted(set(reference.usage) | set(gateway.usage)):
        ref = reference.usage.get(rid)
        gwy = gateway.usage.get(rid)
        if ref is None or gwy is None:
            diff.add(
                "usage",
                f"request {rid} billed only in "
                f"{'reference' if gwy is None else 'gateway'} mode",
            )
            continue
        for name in USAGE_FIELDS:
            if ref[name] != gwy[name]:
                diff.add(
                    "usage",
                    f"request {rid}: {name} {ref[name]!r} (VirtualClock) "
                    f"vs {gwy[name]!r} (wall-clock)",
                )


def _diff_bills(diff, reference: ModeRun, gateway: ModeRun) -> None:
    for tenant in sorted(set(reference.tenant_bills) | set(gateway.tenant_bills)):
        ref = reference.tenant_bills.get(tenant)
        gwy = gateway.tenant_bills.get(tenant)
        if ref is None or gwy is None:
            diff.add(
                "tenant_bills",
                f"tenant {tenant!r} billed only in "
                f"{'reference' if gwy is None else 'gateway'} mode",
            )
            continue
        for name in BILL_FIELDS:
            if ref[name] != gwy[name]:
                diff.add(
                    "tenant_bills",
                    f"tenant {tenant!r}: {name} {ref[name]!r} vs {gwy[name]!r}",
                )


def _diff_accounting(diff, reference: ModeRun, gateway: ModeRun) -> None:
    for name, passed in reference.partition.items():
        if not passed:
            diff.add("accounting", f"reference partition check failed: {name}")
    for name, passed in gateway.partition.items():
        if not passed:
            diff.add("accounting", f"gateway partition check failed: {name}")
    for name in ("wear_bytes", "write_ops", "gemv_count", "macs"):
        if reference.totals[name] != gateway.totals[name]:
            diff.add(
                "accounting",
                f"aggregate {name}: {reference.totals[name]!r} vs "
                f"{gateway.totals[name]!r}",
            )
    for name in ("accelerator_energy_j", "energy_j", "housekeeping_energy_j"):
        # fsum over the identical per-request record multiset: exact.
        if reference.totals[name] != gateway.totals[name]:
            diff.add(
                "accounting",
                f"aggregate {name}: {reference.totals[name]!r} vs "
                f"{gateway.totals[name]!r}",
            )


def _diff_recorded(diff, trace: Trace, gateway: ModeRun) -> None:
    """Completed gateway results vs the recording's own responses: the
    original (batched, quota'd) run must agree on every result it
    completed — batching and admission change scheduling, never values."""
    import hashlib

    for rid, recorded in sorted(trace.responses().items()):
        if recorded["status"] != "completed":
            continue
        gwy = gateway.responses.get(rid)
        if gwy is None or gwy["status"] != "completed":
            diff.add(
                "recorded_responses",
                f"request {rid}: completed in the recording but "
                f"{gwy['status'] if gwy else 'missing'} at the gateway",
            )
            continue
        for name, payload in recorded["result"].items():
            value = gwy["result"].get(name)
            if value is None:
                diff.add(
                    "recorded_responses",
                    f"request {rid}: result array {name!r} missing at the gateway",
                )
                continue
            digest = hashlib.sha256(
                np.ascontiguousarray(value).tobytes()
            ).hexdigest()
            if digest != payload["sha256"]:
                diff.add(
                    "recorded_responses",
                    f"request {rid}: result array {name!r} bytes differ "
                    "from the recording",
                )


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
