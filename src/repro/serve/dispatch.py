"""Lease dispatch onto one device.

:class:`LeaseExecutor` owns the mechanics of serving one dispatch batch
(a crossbar *lease*) on one emulated device: the fused single-GEMV fast
path, the whole-program fallback, per-request measurement of the device's
physical ledgers, billing, and failure isolation.  Every
:class:`~repro.serve.device.Device` of a serving loop has one.

Fault injection hooks in via ``fault_hook(stage, request)``:

* ``stage == "attempt"`` fires before a request executes — a raised
  :class:`~repro.serve.errors.DeviceFault` here loses no work;
* ``stage == "commit"`` fires after execution but before the response is
  released — a fault here (the device died mid-attempt) discards the
  computed outputs and *compensates* the measured work in the ledger
  (:class:`~repro.serve.accounting.FaultCompensation`), so the tenant is
  never billed for an attempt that produced no response and the device's
  physical ledgers still partition exactly.

A fatal fault (:class:`~repro.serve.errors.LeaseAborted`) stops the lease;
the unserved requests come back in the returned
:class:`FaultedRequest` list (``attempted=False``) for the caller to
migrate.  Transient faults return only the faulted request and the lease
continues.  With no hook installed (a loop without a fault plan) no
request is ever returned as faulted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.codegen.executor import ExecutionReport, OffloadExecutor, WorkMeter
from repro.hw.timeline import Timeline
from repro.serve.accounting import AccountingLedger, FaultCompensation, RequestUsage
from repro.serve.batcher import FusedGemvPlan, extract_fused_gemv_plan, same_bytes
from repro.serve.clock import VirtualClock
from repro.serve.errors import DeviceFault
from repro.serve.metrics import MetricsRegistry
from repro.serve.request import RequestStatus, TenantRequest
from repro.system.system import CimSystem

#: ``fault_hook(stage, request)`` — raises DeviceFault to inject a fault.
FaultHook = Callable[[str, TenantRequest], None]


@dataclass(frozen=True)
class FaultedRequest:
    """One request a lease could not serve because of a device fault."""

    request: TenantRequest
    fault: DeviceFault
    #: Whether the request actually started executing (and therefore
    #: consumed one of its retry attempts) or was merely stranded in an
    #: aborted lease and only needs migration.
    attempted: bool


class LeaseExecutor:
    """Serves dispatch batches on one device's emulated system."""

    def __init__(
        self,
        system: CimSystem,
        executor: OffloadExecutor,
        clock: VirtualClock,
        ledger: AccountingLedger,
        metrics: MetricsRegistry,
        timeline: Timeline,
        charge_service: Optional[Callable[[str, float], None]] = None,
        device_id: int = 0,
        component: str = "serve.device",
    ):
        self.system = system
        self.executor = executor
        self.clock = clock
        self.ledger = ledger
        self.metrics = metrics
        self.timeline = timeline
        self.charge_service = charge_service
        self.device_id = device_id
        self.component = component
        #: Installed after construction, by fault recovery and/or a
        #: trace recorder (which chains to the hook it finds).
        self.fault_hook: Optional[FaultHook] = None

    # ------------------------------------------------------------------
    def dispatch(self, batch: list[TenantRequest], batch_id: int) -> list[FaultedRequest]:
        """Serve *batch* as one crossbar lease; returns the requests a
        device fault prevented from being served (empty without faults).

        The device keeps what its crossbar holds from earlier leases: an
        establishing member whose operand tile is still programmed is
        charged as resident (the store keys tiles by their bytes, so
        tenants share a programmed operand exactly when a lease would)."""
        head = batch[0]
        plan = (
            head.analysis.fused
            if head.analysis is not None
            else extract_fused_gemv_plan(head.program, head.params)
        )
        lease_start_s = self.clock.now_s
        if plan is not None:
            faulted = self._dispatch_fused(batch, plan, batch_id)
        else:
            faulted = self._dispatch_programs(batch, batch_id)
        self.timeline.record(
            self.component,
            f"lease[{batch[0].signature[:8]}]x{len(batch)}",
            lease_start_s,
            self.clock.now_s - lease_start_s,
        )
        self.metrics.observe_batch(len(batch), fused=plan is not None)
        return faulted

    def _dispatch_programs(
        self, batch: list[TenantRequest], batch_id: int
    ) -> list[FaultedRequest]:
        """Generic lease: run each request's whole program back to back.

        The crossbar keeps the operand tiles of earlier requests (of this
        lease or an earlier one), so a request whose tile it still holds
        skips the reprogramming while staying bit-identical to its direct
        execution.
        """
        faulted: list[FaultedRequest] = []
        for index, request in enumerate(batch):
            fault = self._execute_guarded(
                request, batch_id, len(batch), self._run_program
            )
            self._release_lease_buffers()
            if fault is not None:
                faulted.append(FaultedRequest(request, fault, attempted=True))
                if fault.fatal:
                    # The device is gone: strand the rest of the lease for
                    # migration instead of feeding a dead device.
                    faulted.extend(
                        FaultedRequest(rest, fault, attempted=False)
                        for rest in batch[index + 1 :]
                    )
                    break
        return faulted

    def _run_program(self, request: TenantRequest):
        """The whole program: its results are the engine's private copies
        of the request's arrays."""
        return self.executor.run(
            request.program,
            request.params,
            request.arrays,
            reset_stats=False,
        )

    def _dispatch_fused(
        self, batch: list[TenantRequest], plan: FusedGemvPlan, batch_id: int
    ) -> list[FaultedRequest]:
        """Fused GEMV lease: the establishing member uploads the
        stationary matrix and its launch programs the GEMV descriptor;
        every member then uploads its vector, re-triggers the descriptor
        and reads its result back.

        A member's result is its own submit-time snapshot with the fresh
        read-back in place of ``y``, and nothing is copied: a stationary
        operand is the shared read-only snapshot the loop interned, every
        other array is the request's private copy (see
        ``ServingLoop._snapshot``), so no result aliases a caller's input
        or another request's writable array."""
        runtime = self.system.runtime
        blas = self.system.blas
        # The established lease: its stationary matrix, device buffers and
        # (once its first member has launched) the descriptor the context
        # registers hold.  Empty = not established.
        lease: dict[str, object] = {}
        faulted: list[FaultedRequest] = []

        def run_fused(request: TenantRequest):
            if not lease:
                # Lease setup — the request that establishes the lease
                # supplies the operands and pays for the shared upload.
                # (A malformed member must only ever fail itself.)
                matrix = lease["matrix"] = request.arrays[plan.array_a]
                lease["a"] = runtime.cim_malloc(matrix.nbytes)
                lease["x"] = runtime.cim_malloc(request.arrays[plan.array_x].nbytes)
                lease["y"] = runtime.cim_malloc(request.arrays[plan.array_y].nbytes)
                runtime.cim_host_to_dev(lease["a"], matrix)
            x = request.arrays[plan.array_x]
            y = request.arrays[plan.array_y]
            runtime.cim_host_to_dev(lease["x"], x)
            if plan.uploads_y:
                runtime.cim_host_to_dev(lease["y"], y)
            descriptor = lease.get("gemv")
            if descriptor is None:
                descriptor = lease["gemv"] = blas.gemv_descriptor(
                    plan.trans_a, plan.m, plan.n, plan.alpha, lease["a"], plan.n,
                    lease["x"], plan.beta, lease["y"],
                )
                blas.launch(descriptor)
            else:
                blas.launch(descriptor, programmed=True)
            outputs = dict(request.arrays)
            outputs[plan.array_y] = runtime.cim_dev_to_host(lease["y"], y.shape).astype(
                y.dtype, copy=False
            )
            return outputs, None

        def end_lease() -> None:
            self._release_lease_buffers()
            lease.clear()

        try:
            for index, request in enumerate(batch):
                if lease and not same_bytes(
                    request.arrays.get(plan.array_a), lease["matrix"]
                ):
                    # A member is only ever computed with its own matrix:
                    # one whose matrix is not the lease's (its signature
                    # was forged or collided) is served alone.
                    end_lease()
                    alone = self._dispatch_programs([request], batch_id)
                    fault = alone[0].fault if alone else None
                else:
                    fault = self._execute_guarded(
                        request,
                        batch_id,
                        len(batch),
                        run_fused,
                        runtime_calls=["polly_cimBlasSGemv"],
                    )
                if fault is not None:
                    faulted.append(FaultedRequest(request, fault, attempted=True))
                    if fault.fatal:
                        faulted.extend(
                            FaultedRequest(rest, fault, attempted=False)
                            for rest in batch[index + 1 :]
                        )
                        break
                # A failed or faulted request may leave the lease half set
                # up; scrub it so the next request re-establishes cleanly.
                if not _served_ok(request):
                    end_lease()
        finally:
            self._release_lease_buffers()
        return faulted

    # ------------------------------------------------------------------
    def _execute_guarded(
        self,
        request: TenantRequest,
        batch_id: int,
        batch_size: int,
        execute: Callable[[TenantRequest], tuple],
        runtime_calls: Optional[list[str]] = None,
    ) -> Optional[DeviceFault]:
        """Execute one request under full measurement: ``execute(request)``
        returns its outputs and report (``None`` = measure the ledgers).

        Outcomes:

        * success — the handle resolves ``COMPLETED`` and the measured
          work is billed to the tenant;
        * ordinary failure (bad payload, execution error) — the handle
          resolves ``FAILED`` and the tenant is billed for the work the
          device actually performed, so one bad request never kills the
          event loop or strands the rest of the queue;
        * injected :class:`DeviceFault` — the attempt's measured work is
          *compensated* (reconciled in the ledger against the fault, not
          billed) and the fault is returned for the caller to retry or
          migrate the request.  The handle stays unresolved.
        """
        request.handle.dispatched_s = self.clock.now_s
        request.handle.attempts += 1
        failure: Optional[str] = None
        device_fault: Optional[DeviceFault] = None
        outputs: Optional[dict[str, np.ndarray]] = None
        report: Optional[ExecutionReport] = None
        with WorkMeter(self.system) as measure:
            try:
                if self.fault_hook is not None:
                    self.fault_hook("attempt", request)
                outputs, report = execute(request)
            except DeviceFault as fault:
                # Kept without its traceback, whose frames hold the fault,
                # the request and its arrays in a cycle.
                device_fault = fault.with_traceback(None)
                report = None  # bill nothing; measure the lost work below
            except Exception as exc:
                failure = f"{type(exc).__name__}: {exc}"
            if report is None:
                # Fused path (returns no report), the failure path and the
                # faulted path all account from the measured ledger deltas.
                report = ExecutionReport(program_name=request.program.name)
                if runtime_calls is not None and failure is None and device_fault is None:
                    report.runtime_calls = list(runtime_calls)
                measure(report)
        service_s = report.total_time_s
        self.clock.advance(service_s)
        if device_fault is None and failure is None and self.fault_hook is not None:
            # Commit stage: the attempt ran and the clock has absorbed its
            # service time — a fault here is the device dying mid-attempt.
            # The computed outputs are discarded and the measured work is
            # compensated below, exactly like an attempt-stage fault.
            try:
                self.fault_hook("commit", request)
            except DeviceFault as fault:
                device_fault = fault.with_traceback(None)
        if device_fault is not None:
            self._compensate(request, batch_id, report, device_fault)
            return device_fault
        if failure is not None:
            self._fail(request, batch_id, batch_size, report, service_s, failure)
            return None
        self._complete(request, batch_id, batch_size, outputs, report, service_s)
        return None

    def _release_lease_buffers(self) -> None:
        """Free every device buffer of the lease; the host cost of the
        releases lands in the ledger's housekeeping bucket (it belongs to
        the lease, not to any single request)."""
        overhead = self.system.host_overhead
        energy0 = overhead.energy_j
        time0 = overhead.time_s
        self.system.runtime.free_all()
        self.ledger.record_housekeeping(
            overhead.energy_j - energy0, device_id=self.device_id
        )
        self.clock.advance(overhead.time_s - time0)

    def _compensate(
        self,
        request: TenantRequest,
        batch_id: int,
        report: ExecutionReport,
        fault: DeviceFault,
    ) -> None:
        """Reconcile the faulted attempt's physical work: the device's
        ledgers moved, so the partition must carry the delta — on the
        fault's account, never the tenant's."""
        if (
            report.offload_energy_j == 0.0
            and report.accelerator_energy_j == 0.0
            and report.crossbar_cell_writes == 0
            and report.accelerator_macs == 0
            and report.dma_bytes == 0
        ):
            return  # the fault fired before any work happened
        self.ledger.record_compensation(
            FaultCompensation.from_report(
                report,
                request_id=request.seq,
                tenant=request.tenant,
                device_id=self.device_id,
                batch_id=batch_id,
                at_s=self.clock.now_s,
                reason=f"{type(fault).__name__}: {fault}",
                op=fault.op,
            )
        )

    def _fail(
        self,
        request: TenantRequest,
        batch_id: int,
        batch_size: int,
        report: ExecutionReport,
        service_s: float,
        reason: str,
    ) -> None:
        request.handle.mark_failed(
            completed_s=self.clock.now_s,
            reason=reason,
            batch_id=batch_id,
            batch_size=batch_size,
            report=report,
            device_id=self.device_id,
        )
        self._record_usage(request, batch_id, report, service_s)
        self.metrics.observe_failure()

    def _complete(
        self,
        request: TenantRequest,
        batch_id: int,
        batch_size: int,
        outputs: dict[str, np.ndarray],
        report: ExecutionReport,
        service_s: float,
    ) -> None:
        handle = request.handle
        handle.mark_completed(
            completed_s=self.clock.now_s,
            batch_id=batch_id,
            batch_size=batch_size,
            report=report,
            result=outputs,
            device_id=self.device_id,
        )
        self._record_usage(request, batch_id, report, service_s)
        self.metrics.observe_completion(
            request.tenant, handle.latency_s, handle.queueing_delay_s
        )

    def _record_usage(
        self,
        request: TenantRequest,
        batch_id: int,
        report: ExecutionReport,
        service_s: float,
    ) -> None:
        handle = request.handle
        usage = RequestUsage.from_report(
            report,
            request_id=request.seq,
            tenant=request.tenant,
            batch_id=batch_id,
            arrival_s=request.arrival_s,
            completed_s=handle.completed_s,
            service_s=service_s,
            latency_s=handle.latency_s,
            host_energy_j=report.host_estimate.energy_j,
            device_id=self.device_id,
        )
        self.ledger.record(usage)
        if self.charge_service is not None:
            self.charge_service(request.tenant, service_s)


def _served_ok(request: TenantRequest) -> bool:
    """Whether the request just completed successfully (lease still clean)."""
    return request.handle.status is RequestStatus.COMPLETED
