"""The multi-tenant CIM serving layer: one event loop, two configurations.

The paper's runtime (Listing 1) assumes one host program driving one
device; :class:`ServingLoop` turns that stack into a shared service over
a *device set* under a single simulated clock:

* ``submit(tenant, kernel, params, arrays)`` compiles the kernel through
  one shared, thread-safe :class:`~repro.compiler.cache.KernelCompileCache`
  and returns a future-style :class:`~repro.serve.request.RequestHandle`;
* the **admission controller** applies per-tenant bounded queues,
  backpressure and lifetime-denominated wear/energy quotas
  (:mod:`repro.serve.admission`);
* the **dynamic batcher** coalesces compatible requests inside a
  configurable simulated batching window into one crossbar *lease*
  (:mod:`repro.serve.batcher`): the stationary operand is programmed
  once, the batch streams against the resident operand;
* the **event loop** (:meth:`~ServingLoop.step` /
  :meth:`~ServingLoop.drain`) advances the simulated clock
  deterministically through arrivals, retries, windows and dispatches,
  leasing one healthy :class:`~repro.serve.device.Device` (and its
  ``num_tiles`` hardware lanes — each dispatch shards across them, see
  :mod:`repro.hw.scheduler`) to one batch at a time and recording lease
  spans on a serving :class:`~repro.hw.timeline.Timeline`;
* **per-tenant accounting** (:mod:`repro.serve.accounting`) partitions
  every joule, second and programmed crossbar cell over the requests that
  caused them, so tenant bills reconcile exactly with the device ledgers
  and quotas can be expressed in Eq. 1 device-lifetime terms;
* the **metrics registry** (:mod:`repro.serve.metrics`) snapshots queue
  depths, batch occupancy, latency percentiles and cache hit rates.

:class:`CimServer` is the loop with one device on the loop's own clock (a
lease advances the server's time) and no fault plan;
:class:`~repro.fleet.server.FleetServer` is the loop with N devices on
their own clocks, a placement policy and a seeded fault plan.

Functional results are bit-identical per request to a direct
:class:`~repro.codegen.executor.OffloadExecutor` execution of the same
program — batching changes scheduling, latency and wear accounting, never
values.  Every run is reproducible: same submissions, same schedule.

The loop owns its devices' runtime sessions and releases all device
buffers between requests (crossbar leases never leak CMA memory);
:meth:`~ServingLoop.shutdown` — or leaving the server's context — tears
the sessions down via :meth:`~repro.runtime.api.CimRuntime.cim_shutdown`.
"""

from __future__ import annotations

import heapq
import math
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

import numpy as np

from repro.codegen.executor import OffloadExecutor
from repro.compiler.cache import KernelCompileCache, compile_fingerprint
from repro.compiler.driver import TdoCimCompiler
from repro.compiler.options import CompileOptions
from repro.hw.timeline import Timeline
from repro.ir.program import Program
from repro.serve.accounting import AccountingLedger
from repro.serve.admission import AdmissionController, TenantQuota
from repro.serve.batcher import (
    DynamicBatcher,
    batch_signature,
    same_bytes,
    stationary_operand_arrays,
)
from repro.serve.clock import VirtualClock
from repro.serve.device import Device
from repro.serve.dispatch import LeaseExecutor
from repro.serve.errors import ServeError
from repro.serve.metrics import MetricsRegistry
from repro.serve.request import RequestHandle, TenantRequest
from repro.system.config import SystemConfig
from repro.system.system import CimSystem

#: Stationary-operand sets a serving loop keeps interned.  A hit costs one
#: bytewise comparison per operand; a miss, the sha256 of
#: :func:`batch_signature` as before.
STATIONARY_INTERN_CAPACITY = 16


class _StationaryInterner:
    """Read-only snapshots of recently submitted stationary operands and
    their batch signatures, least recently used out first.

    A key is the compile fingerprint, the parameters and, per stationary
    operand, its name, dtype, shape and a strided sample of its bytes.  A
    set that differs from the interned one only outside the sample has
    the same key and replaces it.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._sets: OrderedDict[tuple, tuple[tuple[np.ndarray, ...], str]] = OrderedDict()

    def __len__(self) -> int:
        return len(self._sets)

    def find(
        self, key: tuple, operands: tuple[np.ndarray, ...]
    ) -> Optional[tuple[tuple[np.ndarray, ...], str]]:
        """The interned ``(snapshots, signature)`` bytewise equal to
        *operands*, or ``None``."""
        entry = self._sets.get(key)
        if entry is None or not all(map(same_bytes, operands, entry[0])):
            return None
        self._sets.move_to_end(key)
        return entry

    def add(self, key: tuple, snapshots: tuple[np.ndarray, ...], signature: str) -> None:
        """Intern *snapshots*, made read-only, under *key*."""
        for snapshot in snapshots:
            snapshot.setflags(write=False)
        self._sets[key] = (snapshots, signature)
        self._sets.move_to_end(key)
        if len(self._sets) > self.capacity:
            self._sets.popitem(last=False)


@dataclass
class ServerConfig:
    """Tuning knobs of one serving loop (:class:`CimServer` uses them as
    they are; :class:`~repro.fleet.server.FleetConfig` extends them)."""

    #: CIM tiles the device shards each dispatch over (PR 2 lanes).
    num_tiles: int = 1
    #: Simulated batching window: a batch seeded at time t dispatches at
    #: t + window, collecting compatible arrivals in between.
    batch_window_s: float = 100e-6
    #: Hard cap on requests per dispatch batch.
    max_batch_size: int = 16
    #: Admission defaults for tenants without an explicit quota.
    default_quota: TenantQuota = field(default_factory=TenantQuota)
    #: Scrub crossbar residency between leases (tenant isolation: one
    #: batch never inherits another's programmed operand).
    scrub_leases: bool = True
    #: Compiler options for ``submit`` calls that pass mini-C source.
    compile_options: CompileOptions = field(default_factory=CompileOptions)
    #: Optional crossbar geometry overrides for the private system(s).
    crossbar_rows: Optional[int] = None
    crossbar_cols: Optional[int] = None
    crossbar_mode: str = "ideal"

    def system_config(self) -> SystemConfig:
        """The emulated system every loop-built device gets."""
        return SystemConfig(
            num_tiles=self.num_tiles,
            crossbar_rows=self.crossbar_rows,
            crossbar_cols=self.crossbar_cols,
            crossbar_mode=self.crossbar_mode,
        )


class ServingLoop:
    """The one serving event loop, over a device set.

    Owns everything the two public servers share: the tenant API
    (:meth:`submit`, :meth:`set_quota`), admission, batching, the global
    :class:`~repro.serve.clock.VirtualClock`, the event loop
    (:meth:`step` / :meth:`drain`) and the open/closed lifecycle.  A
    configuration adds devices (:meth:`_add_device`) and, for more than
    one device, a ``placement`` policy; ``recovery`` (see
    :class:`repro.fleet.server.FaultRecovery`) is present only when a
    fault plan is, and everything the loop does for faults is skipped
    without one.
    """

    def __init__(
        self,
        config: ServerConfig,
        compile_cache: Optional[KernelCompileCache],
        system_config: SystemConfig,
    ):
        self.config = config
        self._system_config = system_config
        # ``is None``, not truthiness: an empty cache has ``len() == 0``.
        self.compile_cache = (
            KernelCompileCache() if compile_cache is None else compile_cache
        )
        self.compiler = TdoCimCompiler(
            self.config.compile_options, cache=self.compile_cache
        )
        self.clock = VirtualClock()
        crossbar = system_config.crossbar_config()
        # One byte per programmed 8-bit cell, the lifetime-model currency.
        self.ledger = AccountingLedger(
            crossbar_size_bytes=crossbar.rows * crossbar.cols
        )
        self.admission = AdmissionController(
            self.ledger, self.config.default_quota
        )
        self.batcher = DynamicBatcher(
            window_s=self.config.batch_window_s,
            max_batch_size=self.config.max_batch_size,
        )
        self.metrics = MetricsRegistry()
        self._interned = _StationaryInterner(STATIONARY_INTERN_CAPACITY)
        #: Serving-level lease/occupancy timeline (one event per lease).
        self.timeline = Timeline()
        self.devices: list[Device] = []
        #: Lease routing policy; consulted only with >1 healthy device.
        self.placement = None
        #: Fault injection + recovery; ``None`` = fault-free.
        self.recovery = None
        # Submissions are enforced non-decreasing in arrival time, so the
        # arrival queue is consumed strictly from the left.
        self._arrivals: deque[TenantRequest] = deque()
        #: Backoff queue: (ready_s, seq, request), promoted into the
        #: tenant queues once the global clock reaches ready_s.
        self._retry_heap: list[tuple[float, int, TenantRequest]] = []
        self._seq = 0
        self._batch_counter = 0
        self._last_arrival_s = 0.0
        self._closed = False

    def _add_device(
        self,
        component: str,
        system: Optional[CimSystem] = None,
        clock: Optional[VirtualClock] = None,
        initial_wear_bytes: int = 0,
    ) -> Device:
        """Append one device wired to the loop's ledger/metrics/timeline;
        it gets a private system and clock unless given the caller's."""
        owns_system = system is None
        if owns_system:
            system = CimSystem(self._system_config)
        lease_executor = LeaseExecutor(
            system=system,
            executor=OffloadExecutor(system),
            clock=clock if clock is not None else VirtualClock(),
            ledger=self.ledger,
            metrics=self.metrics,
            timeline=self.timeline,
            scrub_leases=self.config.scrub_leases,
            charge_service=self.admission.charge_service,
            device_id=len(self.devices),
            component=component,
        )
        device = Device(lease_executor, owns_system, initial_wear_bytes)
        self.devices.append(device)
        return device

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def shutdown(self) -> None:
        """Resolve nothing further; release every device session.

        Pending (undispatched) requests stay pending — the simulated
        service simply stops.  Idempotent.  A runtime session is torn
        down only when the loop built the system; a caller-provided
        :class:`CimSystem` stays usable (its leased buffers are released,
        its runtime is not shut down).
        """
        if self._closed:
            return
        self._closed = True
        for device in self.devices:
            device.shutdown()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def _require_open(self) -> None:
        if self._closed:
            raise ServeError("server has been shut down")

    # ------------------------------------------------------------------
    # Tenant API
    # ------------------------------------------------------------------
    def set_quota(self, tenant: str, quota: TenantQuota) -> None:
        self.admission.set_quota(tenant, quota)

    def submit(
        self,
        tenant: str,
        kernel: Union[str, Program, object],
        params: Optional[Mapping[str, Union[int, float]]] = None,
        arrays: Optional[Mapping[str, np.ndarray]] = None,
        arrival_s: Optional[float] = None,
    ) -> RequestHandle:
        """Queue one offload request; returns its handle immediately.

        ``kernel`` is mini-C source, an IR program, or a prior
        :class:`~repro.compiler.driver.CompilationResult`.  ``arrival_s``
        is the simulated arrival time; it defaults to "now" and must be
        finite and non-decreasing across submissions (the event loop
        replays arrivals in order).  The tenant's ``arrays`` are
        snapshotted at submission, so the caller may reuse or mutate them
        afterwards.
        """
        self._require_open()
        if not tenant:
            raise ServeError("tenant name must be non-empty")
        params = {key: value for key, value in (params or {}).items()}
        earliest = max(self.clock.now_s, self._last_arrival_s)
        if arrival_s is None:
            arrival_s = earliest
        elif not math.isfinite(arrival_s):
            # NaN compares false with everything: it would pass the check
            # below and then never be reached by the event loop.
            raise ServeError(f"arrival_s={arrival_s} is not a finite time")
        elif arrival_s < earliest:
            raise ServeError(
                f"arrival_s={arrival_s} is in the simulated past "
                f"(clock={self.clock.now_s}, last arrival={self._last_arrival_s})"
            )
        program, fingerprint, engine = self._resolve_kernel(kernel, params)
        snapshot, signature = self._snapshot(fingerprint, program, params, arrays or {})
        self._seq += 1
        handle = RequestHandle(
            request_id=self._seq, tenant=tenant, arrival_s=arrival_s
        )
        request = TenantRequest(
            seq=self._seq,
            tenant=tenant,
            signature=signature,
            program=program,
            params=params,
            arrays=snapshot,
            arrival_s=arrival_s,
            engine=engine,
            handle=handle,
        )
        self._arrivals.append(request)
        self._last_arrival_s = arrival_s
        self.metrics.observe_submit()
        return handle

    def _resolve_kernel(
        self, kernel: Union[str, Program, object], params: Mapping[str, float]
    ) -> tuple[Program, str, Optional[str]]:
        """Compile (through the shared cache) or unwrap the kernel.

        Returns ``(program, fingerprint, engine)``.  The fingerprint
        reuses the compile-cache key when one is available (no second
        hash on the submission hot path); the engine is the one the
        kernel was compiled for, so dispatch honours it exactly like a
        direct ``OffloadExecutor.run`` of the compilation result would.
        """
        if hasattr(kernel, "program") and hasattr(kernel, "report"):
            program = kernel.program  # pre-compiled CompilationResult
            fingerprint = getattr(kernel, "cache_key", None) or compile_fingerprint(
                program, self.config.compile_options, params
            )
            options = getattr(kernel, "options", None)
            engine = options.engine if options is not None else None
            return program, fingerprint, engine
        hits0 = self.compile_cache.hits
        misses0 = self.compile_cache.misses
        result = self.compiler.compile(kernel, size_hint=params)
        self.metrics.observe_compile(
            self.compile_cache.hits - hits0, self.compile_cache.misses - misses0
        )
        fingerprint = result.cache_key or compile_fingerprint(
            kernel, self.config.compile_options, params
        )
        return result.program, fingerprint, self.config.compile_options.engine

    def _snapshot(
        self,
        fingerprint: str,
        program: Program,
        params: Mapping[str, float],
        arrays: Mapping[str, np.ndarray],
    ) -> tuple[dict[str, np.ndarray], str]:
        """The request's private copy of *arrays* and its batch signature.

        Stationary operands already interned (:class:`_StationaryInterner`)
        are not copied or hashed again: the request shares the interned
        read-only snapshots and their signature string, which is the one
        :func:`batch_signature` returns for these bytes.  Anything else is
        copied and hashed, and its stationary operands are interned.
        """
        names = stationary_operand_arrays(program)
        operands = tuple(arrays.get(name) for name in names)
        key = None
        if names and all(
            isinstance(operand, np.ndarray) and not operand.dtype.hasobject
            for operand in operands
        ):
            key = (
                fingerprint,
                tuple(f"{name}={float(params[name])!r}" for name in sorted(params)),
                tuple(
                    (name, op.dtype.str, op.shape, op.flat[:: op.size // 8 or 1].tobytes())
                    for name, op in zip(names, operands)
                ),
            )
            interned = self._interned.find(key, operands)
            if interned is not None:
                snapshots, signature = interned
                shared = dict(zip(names, snapshots))
                return {
                    name: shared[name] if name in shared else np.array(value, copy=True)
                    for name, value in arrays.items()
                }, signature
        snapshot = {name: np.array(value, copy=True) for name, value in arrays.items()}
        signature = batch_signature(fingerprint, program, params, snapshot)
        if key is not None:
            self._interned.add(key, tuple(snapshot[name] for name in names), signature)
        return snapshot, signature

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Advance the simulated service by one event (one dispatched
        lease, or one clock hop to the next arrival / retry).  Returns
        ``False`` when every submitted request is resolved."""
        self._require_open()
        self._catch_up(self.clock.now_s)
        if self.admission.total_queued == 0:
            wakeups = []
            if self._arrivals:
                wakeups.append(self._arrivals[0].arrival_s)
            if self._retry_heap:
                wakeups.append(self._retry_heap[0][0])
            if not wakeups:
                return False
            target_s = min(wakeups)
            self.clock.advance_to(target_s)
            self._catch_up(target_s)
            if self.admission.total_queued == 0:
                return True  # everything at this instant was rejected
        healthy = [device for device in self.devices if device.healthy]
        if not healthy:
            self._fail_stranded("no healthy devices left in the fleet")
            return True
        seed = self.admission.pick_seed()
        window_close_s = self.clock.now_s + self.batcher.window_s
        self._pump_arrivals(window_close_s)
        batch = self.batcher.form_batch(seed, self.admission.queued_requests())
        device = (
            healthy[0]
            if len(healthy) == 1
            else self.placement.choose(healthy, self.clock.now_s)
        )
        # A degraded device leases fewer crossbar columns: shrink the
        # batch; the overflow stays queued for the next window.
        capacity = max(
            1, int(self.batcher.max_batch_size * device.capacity_factor)
        )
        if len(batch) > capacity:
            if seed in batch[:capacity]:
                batch = batch[:capacity]
            else:
                batch = batch[: capacity - 1] + [seed]
        self.admission.remove(batch)
        self.clock.advance_to(window_close_s)
        # A device on its own clock queues the lease behind its previous
        # one; a device on the loop clock starts it now.
        lease_start_s = max(self.clock.now_s, device.clock.now_s)
        device.clock.advance_to(lease_start_s)
        self._batch_counter += 1
        faulted = device.lease_executor.dispatch(batch, self._batch_counter)
        device.busy_s += device.clock.now_s - lease_start_s
        device.leases += 1
        if self.recovery is not None:
            self.recovery.after_lease(batch, faulted, device)
        return True

    def drain(self) -> dict:
        """Run the event loop until every submitted request is resolved;
        returns a metrics snapshot."""
        while self.step():
            pass
        return self.metrics.snapshot(self.admission.queue_depths())

    def _catch_up(self, now_s: float) -> None:
        """Everything that is due at *now_s*: scripted device events,
        backed-off retries, arrivals — in that order."""
        if self.recovery is not None:
            self.recovery.apply_device_events(now_s)
        # Promoted retries are quota-exempt: admission was already granted.
        while self._retry_heap and self._retry_heap[0][0] <= now_s:
            self.admission.requeue(heapq.heappop(self._retry_heap)[2])
        self._pump_arrivals(now_s)

    def _pump_arrivals(self, until_s: float) -> None:
        """Admit (or reject) every submission with arrival <= *until_s*."""
        while self._arrivals and self._arrivals[0].arrival_s <= until_s:
            request = self._arrivals.popleft()
            admitted = self.admission.admit(request, now_s=request.arrival_s)
            self.metrics.observe_admission(admitted)
            if admitted:
                self.metrics.observe_queue_depths(self.admission.queue_depths())

    def retry_at(self, ready_s: float, request: TenantRequest) -> None:
        """Re-queue an admitted request once the loop clock reaches
        *ready_s* (transient-fault backoff)."""
        heapq.heappush(self._retry_heap, (ready_s, request.seq, request))

    def _fail_stranded(self, reason: str) -> None:
        """Every device is dead: resolve everything still in flight
        (queued, backed off, or yet to arrive) as FAILED."""
        stranded = self.admission.queued_requests()
        for tenant in self.admission.queues:
            self.admission.queues[tenant] = []
        while self._retry_heap:
            stranded.append(heapq.heappop(self._retry_heap)[2])
        while self._arrivals:
            stranded.append(self._arrivals.popleft())
        for request in stranded:
            handle = request.handle
            handle.mark_failed(
                completed_s=max(self.clock.now_s, request.arrival_s),
                reason=f"DeviceFault: {reason}",
            )
            self.metrics.observe_failure()
            if handle.attempts > 0 or handle.migrations > 0:
                self.metrics.observe_unrecovered()


class CimServer(ServingLoop):
    """Serve offload requests from many tenants on one emulated device:
    the loop with a single device that serves its leases on the server's
    own clock, and no fault plan."""

    # benchmarks/suite/spans.py::Tracer.wrap saves ``vars(owner)[attr]``,
    # so the names the benchmark wraps (workloads.py::instrument) must be
    # bound on this class itself, not only inherited; the separate
    # bindings also keep ``serve.step_self_us`` apart from the fleet's.
    submit = ServingLoop.submit
    step = ServingLoop.step
    drain = ServingLoop.drain

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        system: Optional[CimSystem] = None,
        compile_cache: Optional[KernelCompileCache] = None,
    ):
        config = config or ServerConfig()
        if system is not None and system.config.num_tiles != config.num_tiles:
            raise ServeError(
                f"config.num_tiles={config.num_tiles} conflicts with "
                f"the given system (num_tiles={system.config.num_tiles})"
            )
        super().__init__(
            config,
            compile_cache,
            system.config if system is not None else config.system_config(),
        )
        device = self._add_device("serve.device", system=system, clock=self.clock)
        self.system = device.system
        self.executor = device.executor
        self.lease_executor = device.lease_executor
