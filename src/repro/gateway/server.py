"""The wall-clock serving gateway: asyncio front-end, process-pool back-end.

:class:`AsyncGateway` is the repo's first *real-concurrency* serving mode.
The simulated tiers (:class:`~repro.serve.server.CimServer`,
:class:`~repro.fleet.server.FleetServer`) advance a ``VirtualClock``
through a deterministic event loop; the gateway instead accepts typed
requests on an ``asyncio`` loop under a :class:`~repro.serve.clock.WallClock`
and dispatches them to a pool of worker *processes*
(:mod:`repro.gateway.worker`), each owning a private emulated device and
sharing one flock-guarded on-disk
:class:`~repro.compiler.cache.KernelCompileCache`.

Pool architecture (deliberately not ``concurrent.futures`` — a
``ProcessPoolExecutor`` declares the whole pool broken when one worker
dies, and surviving a worker death is this subsystem's headline fault
model):

* one duplex pipe per worker and nothing shared between workers, so a
  worker killed at any instant — even half-way through a frame — can
  strand only its own request;
* the gateway's end of every pipe is a non-blocking descriptor
  registered with the asyncio loop (:class:`_Pipe`): frames are
  reassembled and written from loop callbacks, so there are no threads,
  all gateway state is mutated from the loop thread only, and a partial
  frame in either direction never blocks the loop;
* a loop timer runs one synchronous monitor step,
  :meth:`AsyncGateway._tick`, every 50 ms: worker liveness (never the
  pipe's end-of-file — forked siblings inherit descriptors, so EOF proves
  nothing about one process), the hang watchdog, deadlines and due
  respawns;
* at most one request is in flight per worker, so a dead worker strands
  at most one request and its pipe is empty by construction.

Every request is a *flight* in one state machine (:data:`_EDGES`)::

    new -> queued | rejected          queued -> sent | shed | failed
    sent -> answered | expired | orphaned       orphaned -> queued | failed

The transition methods are the only code that writes a flight's
bookkeeping — the queue and its per-tenant count, the binding to a
worker, the bill or the compensation, and the future, resolved exactly
once.  The docs' "Flight states" table (``docs/gateway.md``) lists each
edge with its billing effect.  The resilience layer is a set of edges:

* **Deadlines** — a ``queued`` flight whose ``deadline_s`` passes is
  ``shed``; a ``sent`` one is ``expired``: the caller hears
  ``deadline-exceeded`` at once, and the worker's late work is absorbed
  as a measured :class:`~repro.serve.accounting.FaultCompensation`, never
  billed.
* **Worker loss** — a crash, a hang past ``hang_timeout_s`` (SIGKILLed
  by the watchdog), a corrupt response frame or a drain that never
  finishes is one event, :meth:`AsyncGateway._lose`: the process is
  killed, its flight's attempt gets a zero-work compensation, and the
  flight is ``orphaned`` and retried on a survivor with its fault marker
  stripped — exactly-once billing, at-least-once execution — except
  after a corrupt frame, which fails only its own request.
* **Dead letters** — a request frame the worker cannot decode fails
  only its own request (no work ran; no retry), and the worker stays.
* **Self-healing pool** — dead or killed workers are respawned (each
  respawn is a *new* worker id, so every incarnation keeps its own
  partition-checked ledger) up to a per-slot budget with capped
  exponential backoff; a crash-looping slot is quarantined (the fleet
  tier's vocabulary); optional hot spares pre-spawn so capacity recovery
  is immediate.  With a respawn pending, "no surviving workers" is a
  transient state, not a reason to fail traffic.  Once the drain frames
  are out, nothing spawns.
* **Wall-clock admission** — per-tenant
  :class:`~repro.serve.admission.TenantQuota` (queue depth, wear and
  energy budgets against the gateway ledger) plus the global
  ``max_pending`` queue-depth shed.
* **Unencodable requests** — a request that cannot be framed (an
  object array, a parameter JSON cannot carry) fails before any worker
  is bound to it.

Accounting mirrors the simulated tiers: every response carries the
measured per-request usage, which the gateway records into an
:class:`~repro.serve.accounting.AccountingLedger` keyed by worker id
(= device id), and :meth:`AsyncGateway.verify_partition` reconciles the
bills against each worker's cumulative work record
(:class:`~repro.hw.stats.AcceleratorRunStats`, shipped on every response
and on the drain frame) with the one check every tier uses,
:func:`~repro.serve.accounting.partition_checks`.  A worker that died
counts with the last record it shipped: its doomed attempt shipped
neither usage nor record, so the partition stays exact.
"""

from __future__ import annotations

import asyncio
import json
import os
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Mapping, Optional

import numpy as np

from repro.blas_threads import pinned_blas_threads
from repro.gateway.wire import GatewayRequest, GatewayResponse, WireFormatError
from repro.gateway.worker import (
    DRAIN_FRAME, DRAINED_FRAME, FRAME_HEADER, REQUEST_FRAME, RESPONSE_FRAME, worker_main,
)
from repro.hw.stats import AcceleratorRunStats
from repro.serve.accounting import (
    AccountingLedger, FaultCompensation, RequestUsage, partition_checks,
)
from repro.serve.admission import TenantQuota, budget_exhausted_reason
from repro.serve.clock import WallClock, capped_backoff_s
from repro.serve.metrics import MetricsRegistry
from repro.serve.server import ServerConfig
from repro.trace.schema import TraceFormatError, encode_server_config

#: How long drain() waits for a worker's final work record (and for
#: stuck in-flight work) before escalating to a kill.
_DRAIN_TIMEOUT_S = 30.0

#: Most bytes taken from a pipe per readiness callback.
_READ_BYTES = 1 << 18

#: The flight state machine: the states each state may move to.  A flight
#: in ``queued``, ``sent`` or ``orphaned`` is still owed an answer; the
#: others are terminal.  An ``expired`` flight stays bound to its worker
#: until the worker's late frame, or its loss, releases it.
_EDGES = {
    "new": ("queued", "rejected"),
    "queued": ("sent", "shed", "failed"),
    "sent": ("answered", "expired", "orphaned"),
    "orphaned": ("queued", "failed"),
}

#: Pool phases in which a lost worker is replaced.  Later phases are
#: ``closing`` (the drain frames are out: nothing spawns) and ``closed``.
_HEALING = ("open", "draining")


class GatewayError(RuntimeError):
    """Misuse of the gateway lifecycle (submit before start, after drain,
    or with an invalid configuration)."""


@dataclass
class GatewayConfig:
    """Tuning knobs of one :class:`AsyncGateway`."""

    #: Worker processes (each one private emulated device).
    num_workers: int = 2
    #: Each worker's serving stack: its device, compiler options and lease
    #: shape.  A worker serves one request per lease (``serve_alone``): the
    #: pool parallelises across processes, never inside one device.
    worker: ServerConfig = field(
        default_factory=lambda: ServerConfig(max_batch_size=1, batch_window_s=0.0)
    )
    #: Shared on-disk compile-cache directory (None = per-worker memory
    #: caches only; with a directory, workers share compilations).
    cache_dir: Optional[str] = None
    #: Admission backpressure: reject submissions once this many requests
    #: are queued (None = unbounded, the differential's configuration —
    #: rejections are load-dependent, so the diff runs without them).
    max_pending: Optional[int] = None
    #: Per-tenant admission quota for tenants without an explicit
    #: :meth:`AsyncGateway.set_quota` (None = per-tenant admission off).
    default_quota: Optional[TenantQuota] = None
    #: Execution attempts per request across worker deaths.
    max_attempts: int = 3
    #: Hang watchdog: a worker that spends longer than this on one
    #: request is declared wedged, SIGKILLed, compensated and its request
    #: retried on a survivor (None = watchdog off).
    hang_timeout_s: Optional[float] = None
    #: Self-healing: respawns allowed per worker slot (0 = off; a dead
    #: worker then shrinks the pool permanently, the pre-resilience
    #: behavior).  A slot that exhausts its budget is quarantined.
    max_respawns: int = 0
    #: Capped exponential respawn backoff: min(base * 2**(n-1), max).
    respawn_backoff_base_s: float = 0.05
    respawn_backoff_max_s: float = 1.0
    #: Hot spares: extra workers pre-spawned at start that idle outside
    #: the dispatch rotation and are promoted the moment an active
    #: worker dies — capacity recovery without waiting out a backoff.
    hot_spares: int = 0
    #: ``multiprocessing`` start method (None = fork where available).
    start_method: Optional[str] = None

    def worker_wire(self) -> dict:
        """The worker-process config as a plain picklable dict."""
        return {"server": encode_server_config(self.worker), "cache_dir": self.cache_dir}


@dataclass(eq=False)  # compared by identity: a request carries arrays
class _Flight:
    """One submitted request and its place in the flight state machine."""

    request: GatewayRequest
    future: asyncio.Future
    submitted_s: float
    state: str = "new"
    dispatched_s: Optional[float] = None
    #: Worker of the latest attempt (the binding itself is ``_Worker.flight``).
    worker_id: Optional[int] = None

    def deadline_passed(self, now_s: float) -> bool:
        deadline_s = self.request.deadline_s
        return deadline_s is not None and now_s >= deadline_s


@dataclass
class _Slot:
    """Self-healing state of one position in the active pool.

    A slot outlives the worker processes that occupy it: every death of
    its current worker burns respawn budget, and a slot that crash-loops
    through its whole budget is quarantined — the fleet tier's
    backoff/quarantine vocabulary, applied to pool positions."""

    respawns: int = 0
    pending_respawn_s: Optional[float] = None
    quarantined: bool = False


class _Pipe:
    """The gateway's end of one worker's duplex pipe, on the event loop.

    The worker talks ``Connection.send_bytes`` / ``recv_bytes``; this end
    speaks the same length-prefixed stream through a non-blocking
    descriptor: readiness callbacks gather bytes into ``_inbox`` and hand
    every complete frame to *on_frame*, and ``send`` writes what the
    socket takes now and leaves the rest of ``_outbox`` to a writability
    callback — a frame larger than the socket buffer, or one that stops
    half-way, costs the loop nothing but the bytes that did arrive.
    """

    def __init__(self, loop, connection, on_frame):
        self._loop = loop
        self._connection = connection
        self._on_frame = on_frame
        self._inbox = bytearray()
        self._outbox = bytearray()
        os.set_blocking(connection.fileno(), False)
        loop.add_reader(connection.fileno(), self._on_readable)

    def send(self, frame: bytes) -> None:
        if not self._connection.closed:  # closed = the worker hung up
            self._outbox += FRAME_HEADER.pack(len(frame)) + frame
            self._on_writable()

    def _on_writable(self) -> None:
        fd = self._connection.fileno()
        try:
            sent = os.write(fd, self._outbox)
        except BlockingIOError:
            sent = 0
        except OSError:
            sent = len(self._outbox)  # nobody left to read it
        del self._outbox[:sent]
        if self._outbox:
            self._loop.add_writer(fd, self._on_writable)
        else:
            self._loop.remove_writer(fd)

    def _on_readable(self) -> None:
        try:
            data = os.read(self._connection.fileno(), _READ_BYTES)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            # End of file: every copy of the far end is closed.  Stop
            # listening; whether the worker is dead is the monitor's call.
            self.close()
            return
        inbox = self._inbox
        inbox += data
        while len(inbox) >= FRAME_HEADER.size:
            end = FRAME_HEADER.size + FRAME_HEADER.unpack_from(inbox)[0]
            if end < FRAME_HEADER.size:
                # A negative length, which this protocol never sends: the
                # stream cannot be framed further, the worker went silent.
                self.close()
                return
            if len(inbox) < end:
                return
            # The decoder reads the frame in place: the buffer it sits in
            # is handed over whole, and a new one keeps what follows it.
            frame, self._inbox = inbox, inbox[end:]
            self._on_frame(memoryview(frame)[FRAME_HEADER.size:end])
            inbox = self._inbox

    def close(self) -> None:
        if not self._connection.closed:
            self._loop.remove_reader(self._connection.fileno())
            self._loop.remove_writer(self._connection.fileno())
            self._connection.close()
            del self._inbox[:], self._outbox[:]  # maybe megabytes of half a frame


@dataclass(eq=False)
class _Worker:
    """Gateway-side bookkeeping of one pool worker (one incarnation —
    a respawned slot gets a fresh ``_Worker`` with a fresh id)."""

    worker_id: int
    #: Active-pool slot this worker occupies (None while a hot spare).
    slot_id: Optional[int] = None
    process: Any = None
    pipe: Optional[_Pipe] = None
    #: The one flight bound to this worker (``sent`` or ``expired``).
    flight: Optional[_Flight] = None
    dead: bool = False
    served: int = 0
    busy_s: float = 0.0
    #: The worker's cumulative work record as of the last frame it
    #: shipped (the accounting currency that survives its death).
    physical: AcceleratorRunStats = field(default_factory=AcceleratorRunStats)
    #: Set by the worker's answer to the drain frame, or by its loss.
    drained: asyncio.Event = field(default_factory=asyncio.Event)

    @property
    def spare(self) -> bool:
        return self.slot_id is None


class AsyncGateway:
    """Wall-clock serving gateway over a self-healing pool of device
    workers."""

    def __init__(self, config: Optional[GatewayConfig] = None):
        self.config = config or GatewayConfig()
        if self.config.num_workers < 1:
            raise GatewayError("gateway needs at least one worker")
        if self.config.max_attempts < 1:
            raise GatewayError("max_attempts must be >= 1")
        if self.config.hang_timeout_s is not None and self.config.hang_timeout_s <= 0:
            raise GatewayError("hang_timeout_s must be positive (or None)")
        if self.config.max_respawns < 0 or self.config.hot_spares < 0:
            raise GatewayError("max_respawns and hot_spares cannot be negative")
        if self.config.respawn_backoff_base_s < 0 or self.config.respawn_backoff_max_s < 0:
            raise GatewayError("respawn backoff times cannot be negative")
        self.clock = WallClock()
        self.metrics = MetricsRegistry()
        self.ledger = AccountingLedger(crossbar_size_bytes=0.0)
        self.dead_letters: list[str] = []
        self._workers: list[_Worker] = []
        self._slots: list[_Slot] = []
        self._quotas: dict[str, TenantQuota] = {}
        #: Live active workers without a flight, longest-idle first.
        self._idle: deque[_Worker] = deque()
        #: The ``queued`` flights in dispatch order, and their count per
        #: tenant (queue-depth admission must not scan the backlog).
        self._pending: deque[_Flight] = deque()
        self._tenant_pending: Counter[str] = Counter()
        self._seq = 0
        self._bill_counter = 0
        self._ctx = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: The monitor's next step (a loop timer, cancelled by drain).
        self._timer: Optional[asyncio.TimerHandle] = None
        #: new -> open -> draining -> closing -> closed.
        self._phase = "new"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "AsyncGateway":
        """Spawn the worker pool (actives + hot spares) and the monitor."""
        if self._phase != "new":
            raise GatewayError("gateway already started")
        import multiprocessing

        self._ctx = multiprocessing.get_context(
            self.config.start_method
            or ("fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn")
        )
        self._loop = asyncio.get_running_loop()
        self._phase = "open"
        for slot_id in range(self.config.num_workers):
            self._slots.append(_Slot())
            self._release(self._spawn_worker(slot_id))
        for _ in range(self.config.hot_spares):
            self._spawn_worker(None)
        self._monitor()
        return self

    def _spawn_worker(self, slot_id: Optional[int]) -> _Worker:
        """Start one worker on a fresh worker/device id (a hot spare when
        *slot_id* is None) and register its bookkeeping."""
        worker = _Worker(len(self._workers), slot_id)
        worker.process, worker.pipe = self._launch(worker)
        self._workers.append(worker)
        self.metrics.observe_device_state(worker.worker_id, "spare" if worker.spare else "up")
        return worker

    def _launch(self, worker: _Worker) -> tuple[Any, _Pipe]:
        """Start *worker*'s process on its own duplex pipe; returns the
        process and the gateway's end of the pipe."""
        near_end, far_end = self._ctx.Pipe(duplex=True)
        args = (worker.worker_id, self.config.worker_wire(), far_end)
        name = f"gateway-worker-{worker.worker_id}"
        process = self._ctx.Process(target=worker_main, args=args, daemon=True, name=name)
        with pinned_blas_threads():  # a spawned interpreter reads it as NumPy loads
            process.start()
        far_end.close()  # the child holds its own copy now
        return process, _Pipe(self._loop, near_end, partial(self._on_frame, worker))

    async def __aenter__(self) -> "AsyncGateway":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.drain()

    @property
    def alive_workers(self) -> list[int]:
        return [w.worker_id for w in self._workers if not w.dead]

    def _spares(self) -> list[_Worker]:
        return [w for w in self._workers if w.spare and not w.dead]

    def _flights(self) -> list[_Flight]:
        """The flights still in the pool's hands: the queued ones, and
        those bound to a worker (``sent`` or ``expired``)."""
        return list(self._pending) + [w.flight for w in self._workers if w.flight]

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def set_quota(self, tenant: str, quota: TenantQuota) -> None:
        """Per-tenant wall-clock admission quota (same
        :class:`~repro.serve.admission.TenantQuota` vocabulary as the
        ``VirtualClock`` tiers)."""
        self._quotas[tenant] = quota

    def quota(self, tenant: str) -> Optional[TenantQuota]:
        return self._quotas.get(tenant, self.config.default_quota)

    def _admission_reason(self, tenant: str) -> Optional[str]:
        """Why this submission must be rejected, or None to admit it."""
        if (
            self.config.max_pending is not None
            and len(self._pending) >= self.config.max_pending
        ):
            return (
                f"gateway backpressure: {len(self._pending)} requests "
                f"pending (max_pending={self.config.max_pending})"
            )
        quota = self.quota(tenant)
        if quota is None:
            return None
        depth = self._tenant_pending[tenant]
        if depth >= quota.max_queue_depth:
            return (
                f"tenant queue full ({depth}/{quota.max_queue_depth} "
                "requests pending)"
            )
        return budget_exhausted_reason(quota, self.ledger.account(tenant))

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit_nowait(
        self,
        tenant: str,
        source: str,
        params: Optional[Mapping[str, float]] = None,
        arrays: Optional[Mapping[str, np.ndarray]] = None,
        fault: Optional[str] = None,
        deadline_s: Optional[float] = None,
    ) -> "asyncio.Future[GatewayResponse]":
        """Queue one request; returns a future resolving to its
        :class:`~repro.gateway.wire.GatewayResponse`.  The *arrays* are
        copied here, so the caller may change its own at once.  Never
        raises for per-request problems — backpressure and quota breaches
        resolve the future with a ``rejected`` response, execution
        problems with a ``failed`` one, a missed ``deadline_s`` (absolute
        gateway-clock seconds) with a ``deadline-exceeded`` one."""
        if self._phase == "new":
            raise GatewayError("gateway not started")
        if self._phase != "open":
            raise GatewayError("gateway is draining; admission is closed")
        self._seq += 1
        # The request's own copy, taken now: the caller may reuse its
        # arrays at once, a retry re-sends these bytes, and the arrays a
        # response refers to are filled from them.
        arrays = {name: np.array(value, copy=True) for name, value in (arrays or {}).items()}
        request = GatewayRequest(
            self._seq, tenant, source, dict(params or {}), arrays,
            fault=fault, deadline_s=deadline_s,
        )
        flight = _Flight(request, self._loop.create_future(), self.clock.now_s)
        self.metrics.observe_submit()
        reason = self._admission_reason(tenant)
        self.metrics.observe_admission(reason is None)
        if reason is not None:
            self.ledger.record_rejection(tenant)
            self._finish(flight, "rejected", reason)
        else:
            self._move(flight, "queued")
            self._dispatch()
        return flight.future

    async def submit(self, *args, **kwargs) -> GatewayResponse:
        return await self.submit_nowait(*args, **kwargs)

    # ------------------------------------------------------------------
    # Flight transitions (loop thread only)
    # ------------------------------------------------------------------
    def _move(self, flight: _Flight, state: str) -> None:
        """Take one edge of :data:`_EDGES`, keeping the queue and the
        per-tenant pending count in step with the ``queued`` state."""
        old, tenant = flight.state, flight.request.tenant
        if state not in _EDGES.get(old, ()):
            raise GatewayError(f"request {flight.request.request_id}: no edge {old} -> {state}")
        if old == "queued":
            self._pending.remove(flight)
            self._tenant_pending[tenant] -= 1
        elif state == "queued":  # a retry goes back in at the head
            (self._pending.appendleft if old == "orphaned" else self._pending.append)(flight)
            self._tenant_pending[tenant] += 1
        flight.state = state

    def _resolve(self, flight: _Flight, response: GatewayResponse, now_s: float) -> None:
        response.submitted_s = flight.submitted_s
        response.dispatched_s = flight.dispatched_s
        response.completed_s = now_s
        if not flight.future.cancelled():  # the caller may stop waiting
            flight.future.set_result(response)

    def _finish(self, flight: _Flight, state: str, reason: Optional[str] = None) -> None:
        """Answer *flight* without a worker's response: ``rejected``,
        ``shed``, ``expired`` (its worker stays bound) or ``failed``."""
        self._move(flight, state)
        request, deadline_s = flight.request, flight.request.deadline_s
        if state == "failed":
            self.metrics.observe_failure()
        elif state == "shed":
            self.metrics.observe_deadline_shed()
            reason = f"deadline {deadline_s:.3f}s passed before dispatch; request shed"
        elif state == "expired":
            self.metrics.observe_deadline_expired()
            reason = f"deadline {deadline_s:.3f}s expired in flight; result discarded"
        response = GatewayResponse(
            request.request_id, request.tenant,
            status=state if state in ("rejected", "failed") else "deadline-exceeded",
            worker_id=-1 if flight.worker_id is None else flight.worker_id,
            attempt=request.attempt, reason=reason,
        )
        self._resolve(flight, response, self.clock.now_s)

    def _dispatch(self) -> None:
        """``queued -> sent`` for as long as a worker is idle, and
        ``queued -> failed`` once the pool is gone for good (no worker
        left, no respawn on its way)."""
        now_s = self.clock.now_s
        while self._pending and (self._idle or not self._pool_alive()):
            flight = self._pending[0]
            if not self._idle:
                self._finish(flight, "failed", "no surviving gateway workers")
                continue
            if flight.deadline_passed(now_s):
                self._finish(flight, "shed")  # running it would only waste a worker
                continue
            try:
                frame = flight.request.to_frame(REQUEST_FRAME)
            except (TypeError, ValueError, TraceFormatError) as exc:
                # No worker is bound yet: the request fails alone.
                self._finish(flight, "failed", f"request cannot be encoded for the wire: {exc}")
                continue
            worker = self._idle.popleft()
            self._move(flight, "sent")
            flight.worker_id, flight.dispatched_s = worker.worker_id, now_s
            worker.flight = flight
            worker.pipe.send(frame)

    def _pool_alive(self) -> bool:
        """A worker lives, or a respawn is on its way."""
        return bool(self.alive_workers) or any(
            slot.pending_respawn_s is not None for slot in self._slots
        )

    def _release(self, worker: _Worker) -> None:
        """A live worker without a flight rejoins the rotation."""
        self._idle.append(worker)
        self._dispatch()

    def _unbind(
        self, worker: _Worker, op: str, reason: str, usage: Optional[dict] = None, retry=True
    ) -> None:
        """The attempt on *worker* ends without an answer to deliver.  It
        is compensated — with the measured *usage* of a late answer, with
        zero work otherwise (its work, if any, is in no record the worker
        shipped) — and a ``sent`` flight is orphaned: queued again at the
        head with its fault marker stripped (one marker means exactly one
        fault; the caller dispatches it) or, without *retry* or once
        ``max_attempts`` are spent, failed with *reason*."""
        flight, worker.flight = worker.flight, None
        request = flight.request
        self._bill_counter += 1
        identity = dict(
            request_id=request.request_id, tenant=request.tenant, device_id=worker.worker_id,
            batch_id=self._bill_counter, at_s=self.clock.now_s, reason=reason, op=op,
        )
        compensation = FaultCompensation.from_wire(usage, **identity) if usage else None
        self.ledger.record_compensation(compensation or FaultCompensation(**identity))
        if flight.state != "sent":
            return  # expired: the caller already has its answer
        self._move(flight, "orphaned")
        if retry and request.attempt >= self.config.max_attempts:
            self.metrics.observe_unrecovered()
            retry, reason = False, (f"request {request.request_id}: {request.attempt} "
                                    "attempts exhausted across worker deaths")
        if not retry:
            self._finish(flight, "failed", reason)
            return
        request.attempt += 1
        request.fault = None
        self.metrics.observe_retry()
        self._move(flight, "queued")

    def _on_frame(self, worker: _Worker, frame: memoryview) -> None:
        kind = frame[:1]
        if worker.dead or (worker.flight is None and kind != DRAINED_FRAME):
            # Monitor/pipe race: the worker wrote this frame and then died
            # (or was killed) before we read it.  Its loss already settled
            # its flight, and its accounting currency is the last record
            # it shipped before — absorbing this one would count twice.
            # A live worker holding no flight has nothing to answer either.
            self.metrics.observe_late_frame()
        elif kind == DRAINED_FRAME:
            worker.physical = AcceleratorRunStats(**json.loads(bytes(frame[1:])))
            worker.drained.set()
        elif kind == RESPONSE_FRAME:
            self._on_response(worker, frame)
        else:
            # Dead letter: the worker could not read the request it was
            # sent.  No work ran, so the flight fails without a retry.
            payload = str(frame[1:], "utf-8", "replace")
            self.dead_letters.append(payload)
            reason = f"worker {worker.worker_id} could not decode the request: {payload}"
            self._unbind(worker, "dead-letter", reason, retry=False)
            self._release(worker)

    def _on_response(self, worker: _Worker, frame: memoryview) -> None:
        """The worker answered: ``sent -> answered``, billed; or the late
        answer to an ``expired`` flight, compensated as measured."""
        try:
            response = GatewayResponse.from_frame(frame, same=worker.flight.request.arrays)
            worker.physical = AcceleratorRunStats(**response.physical)
        except (WireFormatError, TypeError) as exc:
            # Byzantine worker: its in-process ledgers hold work no
            # decodable record will ever account for, so it is killed and
            # its currency stays the last good record it shipped.
            self.metrics.observe_corrupt_frame()
            reason = f"corrupt response frame from worker {worker.worker_id}: {exc}"
            self._lose(worker, "corrupt-frame", reason, retry=False)
            return
        flight, now_s = worker.flight, self.clock.now_s
        request = flight.request
        worker.served += 1
        worker.busy_s += now_s - flight.dispatched_s
        self.metrics.observe_compile(response.compile_hits, response.compile_misses)
        for energy_j in response.housekeeping_energy_j:
            self.ledger.record_housekeeping(energy_j, device_id=worker.worker_id)
        if flight.state == "expired":
            reason = (f"request {request.request_id} exceeded its deadline in flight; "
                      "the late result was discarded")
            self._unbind(worker, "deadline-exceeded", reason, response.usage)
            self._release(worker)
            return
        worker.flight = None
        self._move(flight, "answered")
        if response.status != "completed":
            self.metrics.observe_failure()
        else:
            latency_s = now_s - flight.submitted_s
            queueing_s = flight.dispatched_s - flight.submitted_s
            self.metrics.observe_completion(request.tenant, latency_s, queueing_s)
            if request.attempt > 1:
                self.metrics.observe_recovery()
        if response.usage:
            self._bill_counter += 1
            self.ledger.record(RequestUsage.from_wire(
                response.usage, request_id=request.request_id, tenant=request.tenant,
                batch_id=self._bill_counter, arrival_s=flight.submitted_s, completed_s=now_s,
                latency_s=now_s - flight.submitted_s, device_id=worker.worker_id,
            ))
        self._resolve(flight, response, now_s)
        self._release(worker)

    def _lose(
        self, worker: _Worker, cause: str, reason: Optional[str] = None, retry: bool = True
    ) -> None:
        """The one "worker lost" event, whoever noticed it: a crash (the
        monitor), a hang (the watchdog), a corrupt frame, a drain that
        never finished.  The process is killed (a no-op once it exited),
        its attempt is compensated and its flight orphaned (see
        :meth:`_unbind`), and the slot heals."""
        worker.process.kill()
        worker.dead = True
        worker.drained.set()  # nothing left to wait for at drain
        if worker in self._idle:
            self._idle.remove(worker)
        self.metrics.observe_device_state(worker.worker_id, "down")
        self.metrics.observe_fault(cause)
        if worker.flight is not None:
            reason = reason or (f"worker {worker.worker_id} died serving request "
                                f"{worker.flight.request.request_id} "
                                f"(exitcode={worker.process.exitcode})")
            self._unbind(worker, cause, reason, retry=retry)
        if self._phase in _HEALING:
            self._recover_capacity(worker)
        # The retry, once capacity is settled: with no worker left and no
        # respawn on its way, the queue fails instead.
        self._dispatch()

    def _recover_capacity(self, worker: _Worker) -> None:
        """Self-healing: promote a hot spare into the dead worker's slot
        immediately, schedule a backed-off respawn within the slot's
        budget, or quarantine a crash-looping slot."""
        if worker.slot_id is None:
            return  # a spare died; nothing occupied its capacity
        slot = self._slots[worker.slot_id]
        spares = self._spares()
        if spares:
            spares[0].slot_id = worker.slot_id
            self.metrics.observe_spare_promoted()
            self.metrics.observe_device_state(spares[0].worker_id, "up")
            self._release(spares[0])
        if slot.respawns < self.config.max_respawns:
            slot.respawns += 1
            slot.pending_respawn_s = self.clock.now_s + capped_backoff_s(
                self.config.respawn_backoff_base_s, self.config.respawn_backoff_max_s, slot.respawns
            )
        elif self.config.max_respawns and not spares and not slot.quarantined:
            slot.quarantined = True
            self.metrics.observe_slot_quarantined()
            self.metrics.observe_device_state(worker.worker_id, "quarantined")

    # ------------------------------------------------------------------
    # Monitor: liveness, watchdog, deadlines, respawns
    # ------------------------------------------------------------------
    def _monitor(self) -> None:
        """Run :meth:`_tick` now and every 50 ms until drain stops it."""
        self._timer = self._loop.call_later(0.05, self._monitor)
        self._tick(self.clock.now_s)

    def _tick(self, now_s: float) -> None:
        """One monitor step at gateway-clock time *now_s*: lose dead and
        wedged workers, shed and expire flights past their deadline, and
        run the respawns that are due."""
        timeout_s = self.config.hang_timeout_s
        for worker in list(self._workers):
            flight = worker.flight
            if worker.dead or worker.drained.is_set():
                continue
            if not worker.process.is_alive():
                if self._phase == "closing":
                    worker.pipe._on_readable()  # it may have answered the drain, then exited
                if not worker.drained.is_set():
                    self._lose(worker, "worker-crash")
            elif flight and timeout_s is not None and now_s - flight.dispatched_s > timeout_s:
                # Alive, but sat on one request longer than any legitimate
                # dispatch can take.
                self.metrics.observe_hang_detected()
                reason = (f"exceeded hang_timeout_s={timeout_s:g} on request "
                          f"{flight.request.request_id}; SIGKILLed by the watchdog")
                self._lose(worker, "worker-hang", reason)
        for flight in self._flights():
            if flight.state in ("queued", "sent") and flight.deadline_passed(now_s):
                self._finish(flight, "shed" if flight.state == "queued" else "expired")
        if self._phase not in _HEALING:
            return
        for slot_id, slot in enumerate(self._slots):
            if slot.pending_respawn_s is None or slot.pending_respawn_s > now_s:
                continue
            slot.pending_respawn_s = None
            self.metrics.observe_respawn()
            # The replacement joins the spares if a promoted spare holds the slot.
            if any(w.slot_id == slot_id and not w.dead for w in self._workers):
                self._spawn_worker(None)
            else:
                self._release(self._spawn_worker(slot_id))

    # ------------------------------------------------------------------
    # Drain / teardown
    # ------------------------------------------------------------------
    async def drain(self) -> dict:
        """Graceful shutdown: stop admission, answer every flight, collect
        each worker's final work record, tear the pool down.  A worker
        still busy with an expired flight answers it before it reads the
        drain frame; one that has not drained within 30 s is killed —
        close never hangs on a worker and never leaves zombies.  Returns
        the final metrics snapshot.  Idempotent."""
        if self._phase == "closed":
            return self.snapshot()
        self._phase = "draining"
        while owed := [f for f in self._flights() if f.state != "expired"]:
            futures = [f.future for f in owed if not f.future.done()]
            if futures:
                await asyncio.gather(*futures, return_exceptions=True)
            else:  # only futures their callers cancelled: nothing to await
                await asyncio.sleep(0.05)
        self._phase = "closing"
        live = [w for w in self._workers if not w.dead]
        for worker in live:
            worker.pipe.send(DRAIN_FRAME)
        for worker in live:
            try:
                await asyncio.wait_for(worker.drained.wait(), timeout=_DRAIN_TIMEOUT_S)
            except asyncio.TimeoutError:  # its currency stays its last record
                reason = (f"worker {worker.worker_id} failed to drain within "
                          f"{_DRAIN_TIMEOUT_S:.0f}s and was killed")
                self._lose(worker, "worker-hang", reason)
        self._phase = "closed"
        if self._timer is not None:
            self._timer.cancel()
        for worker in self._workers:
            worker.pipe.close()
            worker.process.join(timeout=5.0)
            worker.process.kill()  # a no-op unless it is wedged past its drain
            worker.process.join(timeout=5.0)
            if not worker.dead:
                self.metrics.observe_device_state(worker.worker_id, "drained")
        return self.snapshot()

    # ------------------------------------------------------------------
    # Accounting / metrics
    # ------------------------------------------------------------------
    def verify_partition(self) -> dict[str, bool]:
        """:func:`~repro.serve.accounting.partition_checks` across the
        pool: every worker incarnation (a respawned slot contributes one
        worker per life) is a device, and its totals are the last work
        record it shipped — the drain frame's for survivors, the last
        response's for the dead (whose doomed attempt shipped no usage)."""
        return partition_checks(
            self.ledger,
            {worker.worker_id: worker.physical for worker in self._workers},
        )

    def snapshot(self) -> dict:
        """MetricsRegistry-style snapshot plus the gateway's own section:
        per-worker utilization (busy wall time over elapsed wall time),
        served counts, liveness, and pool-wide throughput."""
        elapsed_s = self.clock.now_s
        inflight = sum(1 for w in self._workers if w.flight)
        snap = self.metrics.snapshot({"pending": len(self._pending), "inflight": inflight})
        workers = {
            str(w.worker_id): {
                "alive": not w.dead, "spare": w.spare, "served": w.served, "busy_s": w.busy_s,
                "utilization": w.busy_s / elapsed_s if elapsed_s > 0 else 0.0,
            }
            for w in self._workers
        }
        completed = self.metrics.completed
        snap["gateway"] = {
            "elapsed_s": elapsed_s,
            "num_workers": self.config.num_workers,
            "alive_workers": len(self.alive_workers),
            "hot_spares": len(self._spares()),
            "quarantined_slots": sum(1 for s in self._slots if s.quarantined),
            "throughput_rps": completed / elapsed_s if elapsed_s > 0 else 0.0,
            "workers": workers,
            "dead_letters": len(self.dead_letters),
        }
        return snap
