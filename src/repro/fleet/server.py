"""Fault-tolerant multi-device fleet serving tier.

:class:`FleetServer` is the fleet configuration of the one serving loop
(:class:`~repro.serve.server.ServingLoop`): N emulated CIM devices behind
one submission front door, a placement policy and — when the config
carries a fault plan — :class:`FaultRecovery`:

* **Parallel devices, one trace.**  Arrivals, admission and batching
  windows run on one global :class:`~repro.serve.clock.VirtualClock`;
  each :class:`~repro.serve.device.Device` serves its leases on its
  *own* clock, so devices work in parallel simulated time and a lease
  queues behind the previous lease of its device only.
* **Wear-aware placement.**  Each formed batch is routed by a pluggable
  :mod:`~repro.fleet.placement` policy; the default levels accumulated
  crossbar wear (the Eq. 1 lifetime currency) across the fleet, because
  fleet lifetime is the lifetime of its most-worn device.
* **Deterministic fault injection.**  A seeded
  :class:`~repro.fleet.faults.FaultPlan` kills devices at scripted
  simulated times (mid-lease or idle), injects transient DMA / compile /
  dispatch faults, and degrades lease capacity.  Same trace + same plan
  → byte-identical run.
* **Recovery.**  Transient faults retry with capped exponential backoff
  in simulated time; a dead device is quarantined, its in-flight lease
  migrates to healthy devices, and admission tightens per-tenant queue
  bounds in proportion to surviving capacity (graceful degradation).
  Requests that fault on every allowed attempt fail with a
  :class:`~repro.serve.errors.RetryExhausted` reason.
* **Exactly-once accounting.**  Work a device performed for an attempt
  that died before its response was released is *compensated*
  (:class:`~repro.serve.accounting.FaultCompensation`): the device's
  physical ledgers still partition exactly across tenants + faults +
  housekeeping (:meth:`verify_fleet_partition`), no tenant is billed for
  wear or energy that produced no response, and the responses themselves
  are bit-identical to a fault-free run of the same trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Union

from repro.compiler.cache import KernelCompileCache
from repro.fleet.faults import FaultPlan
from repro.fleet.placement import PlacementPolicy, make_placement

# Not called here: benchmarks/suite/workloads.py::instrument wraps
# ``repro.fleet.server.batch_signature`` by name (Tracer.wrap reads the
# module attribute), so the name must stay bound on this module.
from repro.serve.batcher import batch_signature  # noqa: F401
from repro.serve.clock import capped_backoff_s
from repro.serve.device import Device, DeviceState
from repro.serve.errors import DeviceFault, LeaseAborted, RetryExhausted
from repro.serve.request import RequestStatus, TenantRequest
from repro.serve.server import ServerConfig, ServingLoop


@dataclass
class FleetConfig(ServerConfig):
    """Tuning knobs of one :class:`FleetServer`: the loop's own
    (:class:`~repro.serve.server.ServerConfig`, homogeneous across
    devices) plus the fleet's."""

    #: Fleet size (emulated devices).
    num_devices: int = 2
    #: Lease routing policy: "wear-aware" (default), "round-robin",
    #: "least-loaded", or a PlacementPolicy instance.
    placement: Union[str, PlacementPolicy] = "wear-aware"
    #: Per-device pre-fleet wear (bytes), device id order; shorter tuples
    #: pad with 0 — models a heterogeneous-age fleet.
    initial_wear_bytes: tuple = ()
    #: Retry policy for transient faults: at most ``max_attempts``
    #: executions per request, backoff = min(base * 2^(attempt-1), max).
    max_attempts: int = 5
    retry_backoff_base_s: float = 50e-6
    retry_backoff_max_s: float = 800e-6
    #: Scripted fault scenario (consumed via ``fresh()``; None = fault-free).
    fault_plan: Optional[FaultPlan] = None
    #: Graceful degradation: shrink per-tenant queue bounds to the
    #: surviving fraction of the fleet as devices die.
    tighten_admission: bool = True

    def __post_init__(self) -> None:
        if self.num_devices < 1:
            raise ValueError("fleet needs at least one device")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.retry_backoff_base_s < 0 or self.retry_backoff_max_s < 0:
            raise ValueError("retry backoff times cannot be negative")
        if len(self.initial_wear_bytes) > self.num_devices:
            raise ValueError(
                f"initial_wear_bytes has {len(self.initial_wear_bytes)} "
                f"entries for {self.num_devices} devices"
            )


class FleetServer(ServingLoop):
    """Serve offload requests from many tenants on a fleet of devices:
    the loop with N devices on their own clocks, a placement policy and
    the config's seeded fault plan."""

    # Bound on this class itself for the benchmark's span tracer, which
    # keeps ``fleet.step_self_us`` apart from ``serve.step_self_us``; the
    # full reason is at the same spot in CimServer.
    submit = ServingLoop.submit
    step = ServingLoop.step
    drain = ServingLoop.drain

    def __init__(
        self,
        config: Optional[FleetConfig] = None,
        compile_cache: Optional[KernelCompileCache] = None,
    ):
        config = config or FleetConfig()
        super().__init__(config, compile_cache, config.system_config())
        self.placement = make_placement(config.placement)
        wear = config.initial_wear_bytes
        for device_id in range(config.num_devices):
            device = self._add_device(
                f"fleet.device{device_id}",
                initial_wear_bytes=wear[device_id] if device_id < len(wear) else 0,
            )
            self.metrics.observe_device_state(device_id, device.state.value)
        if config.fault_plan is not None:
            self.recovery = FaultRecovery(self, config.fault_plan.fresh())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def verify_fleet_partition(self) -> dict[str, bool]:
        """Exactly-once check across the whole fleet (see
        :meth:`~repro.serve.accounting.AccountingLedger.verify_fleet_partition`)."""
        return self.ledger.verify_fleet_partition(
            {device.device_id: device.system.accelerator for device in self.devices}
        )

    def device_states(self) -> dict[int, str]:
        return {device.device_id: device.state.value for device in self.devices}


class FaultRecovery:
    """Fault injection and recovery for one loop, driven by its plan.

    Installs itself as every device's
    :class:`~repro.serve.dispatch.LeaseExecutor` fault hook, fires the
    plan's scripted device events as the loop clock passes them
    (:meth:`apply_device_events`) and resolves the aftermath of each
    lease (:meth:`after_lease`).
    """

    def __init__(self, server: FleetServer, plan: FaultPlan):
        self.plan = plan
        self.config = server.config
        self.retry_at = server.retry_at
        self.devices = server.devices
        self.admission = server.admission
        self.metrics = server.metrics
        #: Programs already compiled/seen per device ("compile" faults
        #: only threaten a program's first landing on a device).
        self._programs_seen: dict[int, set] = {
            device.device_id: set() for device in self.devices
        }
        self._degrade_index = 0
        for device in self.devices:
            device.lease_executor.fault_hook = partial(self._inject_faults, device)

    def _inject_faults(
        self, device: Device, stage: str, request: TenantRequest
    ) -> None:
        """LeaseExecutor fault hook: consult the plan on the device's own
        clock.  ``attempt`` faults lose no work; a kill surfacing at
        ``commit`` is the mid-attempt death — the work is measured, then
        compensated, and the response is discarded."""
        plan = self.plan
        kill_at_s = plan.kill_time(device.device_id)
        if kill_at_s is not None and device.clock.now_s >= kill_at_s:
            if device.state is DeviceState.UP:
                self._mark_device_dead(device)
            raise LeaseAborted(
                f"device {device.device_id} died at t={kill_at_s:.6g}s",
                device_id=device.device_id,
            )
        if stage != "attempt":
            return
        ops = ["dma", "dispatch"]
        if request.signature not in self._programs_seen[device.device_id]:
            ops.insert(0, "compile")
        for op in ops:
            rule = plan.draw_op_fault(device.device_id, op)
            if rule is not None:
                self.metrics.observe_fault(op)
                raise DeviceFault(
                    f"transient {op} fault on device {device.device_id} "
                    f"(attempt {request.handle.attempts} of request "
                    f"{request.seq})",
                    device_id=device.device_id,
                    op=op,
                )
        self._programs_seen[device.device_id].add(request.signature)

    def _mark_device_dead(self, device: Device) -> None:
        """Quarantine a dying device and tighten fleet-wide admission."""
        device.quarantine()
        self.metrics.observe_fault("device")
        self.metrics.observe_device_state(device.device_id, device.state.value)
        if self.config.tighten_admission:
            healthy = sum(1 for member in self.devices if member.healthy)
            self.admission.depth_scale = healthy / len(self.devices)

    def apply_device_events(self, now_s: float) -> None:
        """Fire scripted kills (idle deaths) and capacity degradations
        whose simulated time has come."""
        for device in self.devices:
            if device.state is not DeviceState.UP:
                continue
            kill_at_s = self.plan.kill_time(device.device_id)
            if kill_at_s is not None and kill_at_s <= now_s:
                self._mark_device_dead(device)
                device.drain()  # idle: nothing in flight to migrate
                self.metrics.observe_device_state(
                    device.device_id, device.state.value
                )
        degrades = self.plan.degrades
        while self._degrade_index < len(degrades):
            event = degrades[self._degrade_index]
            if event.at_s > now_s:
                break
            self._degrade_index += 1
            if not 0 <= event.device_id < len(self.devices):
                continue
            device = self.devices[event.device_id]
            if device.state is DeviceState.UP:
                device.degrade(event.factor)
                self.metrics.observe_fault("degrade")

    def after_lease(
        self,
        batch: list[TenantRequest],
        faulted: list,
        device: Device,
    ) -> None:
        """Resolve the aftermath of a lease: retry transient faults with
        backoff, migrate requests stranded by a device death, fail
        requests that spent all their attempts, and finish draining a
        quarantined device."""
        for item in faulted:
            request, fault = item.request, item.fault
            handle = request.handle
            if fault.fatal:
                handle.migrations += 1
                self.metrics.observe_migration()
            if item.attempted and handle.attempts >= self.config.max_attempts:
                error = RetryExhausted(
                    f"request {request.seq} of tenant {request.tenant!r} "
                    f"faulted on all {handle.attempts} attempts "
                    f"(last fault: {fault})",
                    attempts=handle.attempts,
                    last_fault=fault,
                )
                handle.mark_failed(
                    completed_s=device.clock.now_s,
                    reason=f"RetryExhausted: {error}",
                    device_id=device.device_id,
                )
                self.metrics.observe_failure()
                self.metrics.observe_unrecovered()
                continue
            if item.attempted and not fault.fatal:
                backoff_s = capped_backoff_s(
                    self.config.retry_backoff_base_s,
                    self.config.retry_backoff_max_s,
                    handle.attempts,
                )
                self.retry_at(device.clock.now_s + backoff_s, request)
                self.metrics.observe_retry()
            else:
                # Device death: migrate now — stranded members retry on a
                # healthy device without consuming an attempt, the member
                # the death interrupted consumes one.
                if item.attempted:
                    self.metrics.observe_retry()
                self.admission.requeue(request)
        if device.state is DeviceState.QUARANTINED:
            device.drain()  # in-flight lease fully migrated above
            self.metrics.observe_device_state(
                device.device_id, device.state.value
            )
        for request in batch:
            handle = request.handle
            if handle.status is RequestStatus.COMPLETED and (
                handle.attempts > 1 or handle.migrations > 0
            ):
                self.metrics.observe_recovery()
