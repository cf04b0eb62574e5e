"""The gateway's flight logic, without I/O: :class:`FlightCore`.

Every decision of the wall-clock pool is made here: admission, dispatch,
retries, deadlines, the hang watchdog, respawns and hot spares, billing,
compensation, metrics and the drain.  The core runs no event loop, starts
no process, touches no pipe and reads no clock.  Each input takes the
time ``now_s`` and returns the actions its driver,
:class:`~repro.gateway.server.AsyncGateway`, carries out in order:
:class:`Send`, :class:`Kill`, :class:`Spawn` and :class:`Resolve`.  So a
test can drive any interleaving of arrivals, frames, deaths and monitor
steps as an input sequence.  A request is a *flight* in one state
machine, :data:`_EDGES`, whose transition methods alone write its
bookkeeping; ``docs/gateway.md`` lists each edge with its billing effect.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

from repro.gateway.wire import GatewayRequest, GatewayResponse, WireFormatError
from repro.gateway.worker import DRAIN_FRAME, DRAINED_FRAME, REQUEST_FRAME, RESPONSE_FRAME
from repro.hw.stats import AcceleratorRunStats
from repro.serve.accounting import (
    AccountingLedger, FaultCompensation, RequestUsage, partition_checks,
)
from repro.serve.admission import TenantQuota, budget_exhausted_reason
from repro.serve.clock import capped_backoff_s
from repro.serve.metrics import MetricsRegistry
from repro.serve.server import ServerConfig
from repro.trace.schema import TraceFormatError, encode_server_config

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
    """Misuse of the gateway: submit outside its open phase, a bad config."""


@dataclass
class GatewayConfig:
    """Tuning knobs of one :class:`~repro.gateway.server.AsyncGateway`."""

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
    #: :meth:`~repro.gateway.server.AsyncGateway.set_quota` (None =
    #: per-tenant admission off).
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


class Send(NamedTuple):
    """Write *frame* to worker *worker_id*'s pipe."""

    worker_id: int
    frame: bytes


class Kill(NamedTuple):
    """Kill worker *worker_id*'s process."""

    worker_id: int


class Spawn(NamedTuple):
    """Start the process of the new worker *worker_id*."""

    worker_id: int


class Resolve(NamedTuple):
    """Answer *flight*'s request with *response*: its one resolution."""

    flight: "Flight"
    response: GatewayResponse


Action = Union[Send, Kill, Spawn, Resolve]


@dataclass(eq=False)  # compared by identity: a request carries arrays
class Flight:
    """One submitted request and its place in the flight state machine."""

    request: GatewayRequest
    submitted_s: float
    state: str = "new"
    dispatched_s: Optional[float] = None
    #: Worker of the latest attempt (the binding itself is ``Worker.flight``).
    worker_id: Optional[int] = None

    def deadline_passed(self, now_s: float) -> bool:
        deadline_s = self.request.deadline_s
        return deadline_s is not None and now_s >= deadline_s


@dataclass
class Slot:
    """One position in the active pool, with the respawn budget it keeps."""

    respawns: int = 0
    pending_respawn_s: Optional[float] = None
    quarantined: bool = False


@dataclass(eq=False)
class Worker:
    """One worker incarnation: a respawned slot gets a fresh id."""

    worker_id: int
    #: Active-pool slot this worker occupies (None while a hot spare).
    slot_id: Optional[int] = None
    #: The one flight bound to this worker (``sent`` or ``expired``).
    flight: Optional[Flight] = None
    dead: bool = False
    #: Set by the worker's answer to the drain frame, or by its loss:
    #: nothing more is owed or awaited from it.
    drained: bool = False
    served: int = 0
    busy_s: float = 0.0
    #: The worker's cumulative work record as of the last frame it
    #: shipped (the accounting currency that survives its death).
    physical: AcceleratorRunStats = field(default_factory=AcceleratorRunStats)

    @property
    def spare(self) -> bool:
        return self.slot_id is None


class FlightCore:
    """The flights, queue, slots, ledger and metrics of one gateway pool."""

    def __init__(self, config: GatewayConfig):
        if config.num_workers < 1:
            raise GatewayError("gateway needs at least one worker")
        if config.max_attempts < 1:
            raise GatewayError("max_attempts must be >= 1")
        if config.hang_timeout_s is not None and config.hang_timeout_s <= 0:
            raise GatewayError("hang_timeout_s must be positive (or None)")
        if config.max_respawns < 0 or config.hot_spares < 0:
            raise GatewayError("max_respawns and hot_spares cannot be negative")
        if config.respawn_backoff_base_s < 0 or config.respawn_backoff_max_s < 0:
            raise GatewayError("respawn backoff times cannot be negative")
        self.config = config
        self.metrics = MetricsRegistry()
        self.ledger = AccountingLedger(crossbar_size_bytes=0.0)
        self.dead_letters: list[str] = []
        #: Every worker incarnation, indexed by its worker id.
        self.workers: list[Worker] = []
        self.slots: list[Slot] = []
        self.quotas: dict[str, TenantQuota] = {}
        #: Live active workers without a flight, longest-idle first.
        self.idle: deque[Worker] = deque()
        #: The ``queued`` flights in dispatch order, and their count per
        #: tenant (queue-depth admission must not scan the backlog).
        self.pending: deque[Flight] = deque()
        self.tenant_pending: Counter[str] = Counter()
        #: new -> open -> draining -> closing -> closed.
        self.phase = "new"
        self._bill_counter = 0
        self._actions: list[Action] = []

    def _take(self) -> list[Action]:
        actions, self._actions = self._actions, []
        return actions

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def alive_workers(self) -> list[int]:
        return [w.worker_id for w in self.workers if not w.dead]

    def watched(self) -> list[Worker]:
        """The workers the driver polls: neither drained nor lost."""
        return [w for w in self.workers if not w.drained]

    def spares(self) -> list[Worker]:
        return [w for w in self.workers if w.spare and not w.dead]

    def flights(self) -> list[Flight]:
        """The queued flights, and those bound to a worker."""
        return list(self.pending) + [w.flight for w in self.workers if w.flight]

    def owed(self) -> list[Flight]:
        """The flights whose callers still wait for an answer."""
        return [f for f in self.flights() if f.state != "expired"]

    def quota(self, tenant: str) -> Optional[TenantQuota]:
        return self.quotas.get(tenant, self.config.default_quota)

    def verify_partition(self) -> dict[str, bool]:
        """:func:`~repro.serve.accounting.partition_checks`: each worker
        incarnation is a device, its totals the last record it shipped."""
        return partition_checks(self.ledger, {w.worker_id: w.physical for w in self.workers})

    def snapshot(self, now_s: float) -> dict:
        """The metrics snapshot plus per-worker utilization (busy time over
        *now_s*), served counts, liveness, and throughput."""
        inflight = sum(1 for w in self.workers if w.flight)
        snap = self.metrics.snapshot({"pending": len(self.pending), "inflight": inflight})
        workers = {
            str(w.worker_id): {
                "alive": not w.dead, "spare": w.spare, "served": w.served, "busy_s": w.busy_s,
                "utilization": w.busy_s / now_s if now_s > 0 else 0.0,
            }
            for w in self.workers
        }
        snap["gateway"] = {
            "elapsed_s": now_s,
            "num_workers": self.config.num_workers,
            "alive_workers": len(self.alive_workers),
            "hot_spares": len(self.spares()),
            "quarantined_slots": sum(1 for s in self.slots if s.quarantined),
            "throughput_rps": self.metrics.completed / now_s if now_s > 0 else 0.0,
            "workers": workers,
            "dead_letters": len(self.dead_letters),
        }
        return snap

    # ------------------------------------------------------------------
    # Inputs
    # ------------------------------------------------------------------
    def start(self) -> list[Action]:
        """Open the pool: spawn the active workers, then the hot spares."""
        if self.phase != "new":
            raise GatewayError("gateway already started")
        self.phase = "open"
        for slot_id in range(self.config.num_workers):
            self.slots.append(Slot())
            self.idle.append(self._spawn(slot_id))
        for _ in range(self.config.hot_spares):
            self._spawn(None)
        return self._take()

    def submit(self, request: GatewayRequest, now_s: float) -> list[Action]:
        """Admit *request* and dispatch it, or reject it."""
        if self.phase != "open":
            raise GatewayError("gateway not started" if self.phase == "new"
                               else "gateway is draining; admission is closed")
        flight = Flight(request, now_s)
        self.metrics.observe_submit()
        reason = self._admission_reason(request.tenant)
        self.metrics.observe_admission(reason is None)
        if reason is not None:
            self.ledger.record_rejection(request.tenant)
            self._finish(flight, "rejected", now_s, reason)
        else:
            self._move(flight, "queued")
            self._dispatch(now_s)
        return self._take()

    def frame(self, worker_id: int, frame: memoryview, now_s: float) -> list[Action]:
        """One complete frame read from worker *worker_id*'s pipe."""
        worker, kind = self.workers[worker_id], frame[:1]
        if worker.dead or (worker.flight is None and kind != DRAINED_FRAME):
            # Monitor/pipe race: the worker wrote this frame and then died
            # (or was killed) before it was read.  Its loss already settled
            # its flight, and its accounting currency is the last record
            # it shipped before — absorbing this one would count twice.
            # A live worker holding no flight has nothing to answer either.
            self.metrics.observe_late_frame()
        elif kind == DRAINED_FRAME:
            worker.physical = AcceleratorRunStats(**json.loads(bytes(frame[1:])))
            worker.drained = True
        elif kind == RESPONSE_FRAME:
            self._on_response(worker, frame, now_s)
        else:
            # Dead letter: the worker could not read the request it was
            # sent.  No work ran, so the flight fails without a retry.
            payload = str(frame[1:], "utf-8", "replace")
            self.dead_letters.append(payload)
            reason = f"worker {worker_id} could not decode the request: {payload}"
            self._unbind(worker, "dead-letter", reason, now_s, retry=False)
            self._release(worker, now_s)
        return self._take()

    def died(self, worker_id: int, exitcode: Optional[int], now_s: float) -> list[Action]:
        """Worker *worker_id*'s process is gone: no fault once it drained."""
        worker = self.workers[worker_id]
        if not worker.drained:
            flight = worker.flight
            reason = flight and (f"worker {worker_id} died serving request "
                                 f"{flight.request.request_id} (exitcode={exitcode})")
            self._lose(worker, "worker-crash", now_s, reason)
        return self._take()

    def tick(self, now_s: float) -> list[Action]:
        """One monitor step: lose wedged workers, shed and expire flights
        past their deadline, and run the respawns that are due."""
        timeout_s = self.config.hang_timeout_s
        for worker in self.watched():
            flight = worker.flight
            if flight and timeout_s is not None and now_s - flight.dispatched_s > timeout_s:
                # Alive, but sat on one request longer than any legitimate
                # dispatch can take.
                self.metrics.observe_hang_detected()
                reason = (f"exceeded hang_timeout_s={timeout_s:g} on request "
                          f"{flight.request.request_id}; SIGKILLed by the watchdog")
                self._lose(worker, "worker-hang", now_s, reason)
        for flight in self.flights():
            if flight.state in ("queued", "sent") and flight.deadline_passed(now_s):
                self._finish(flight, "shed" if flight.state == "queued" else "expired", now_s)
        if self.phase in _HEALING:
            for slot_id, slot in enumerate(self.slots):
                if slot.pending_respawn_s is None or slot.pending_respawn_s > now_s:
                    continue
                slot.pending_respawn_s = None
                self.metrics.observe_respawn()
                # The replacement joins the spares if a promoted spare holds the slot.
                if any(w.slot_id == slot_id and not w.dead for w in self.workers):
                    self._spawn(None)
                else:
                    self._release(self._spawn(slot_id), now_s)
        return self._take()

    def begin_drain(self) -> list[Action]:
        """Close admission; the pool heals on until nothing is :meth:`owed`."""
        self.phase = "draining"
        return self._take()

    def send_drain(self) -> list[Action]:
        """Order each live worker to drain; from here on nothing spawns."""
        self.phase = "closing"
        self._actions += [Send(w.worker_id, DRAIN_FRAME) for w in self.workers if not w.dead]
        return self._take()

    def end_drain(self, now_s: float, waited_s: float) -> list[Action]:
        """Close the pool; a worker not drained after *waited_s* is lost."""
        for worker in self.watched():
            reason = (f"worker {worker.worker_id} failed to drain within "
                      f"{waited_s:.0f}s and was killed")
            self._lose(worker, "worker-hang", now_s, reason)
        self.phase = "closed"
        for worker in self.workers:
            if not worker.dead:
                self.metrics.observe_device_state(worker.worker_id, "drained")
        return self._take()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _admission_reason(self, tenant: str) -> Optional[str]:
        """Why this submission must be rejected, or None to admit it."""
        max_pending = self.config.max_pending
        if max_pending is not None and len(self.pending) >= max_pending:
            return (f"gateway backpressure: {len(self.pending)} requests "
                    f"pending (max_pending={max_pending})")
        quota = self.quota(tenant)
        if quota is None:
            return None
        depth = self.tenant_pending[tenant]
        if depth >= quota.max_queue_depth:
            return f"tenant queue full ({depth}/{quota.max_queue_depth} requests pending)"
        return budget_exhausted_reason(quota, self.ledger.account(tenant))

    # ------------------------------------------------------------------
    # Flight transitions
    # ------------------------------------------------------------------
    def _move(self, flight: Flight, state: str) -> None:
        """Take one edge of :data:`_EDGES`, keeping the queue and the
        per-tenant pending count in step with the ``queued`` state."""
        old, tenant = flight.state, flight.request.tenant
        if state not in _EDGES.get(old, ()):
            raise GatewayError(f"request {flight.request.request_id}: no edge {old} -> {state}")
        if old == "queued":
            self.pending.remove(flight)
            self.tenant_pending[tenant] -= 1
        elif state == "queued":  # a retry goes back in at the head
            (self.pending.appendleft if old == "orphaned" else self.pending.append)(flight)
            self.tenant_pending[tenant] += 1
        flight.state = state

    def _resolve(self, flight: Flight, response: GatewayResponse, now_s: float) -> None:
        response.submitted_s = flight.submitted_s
        response.dispatched_s = flight.dispatched_s
        response.completed_s = now_s
        self._actions.append(Resolve(flight, response))

    def _finish(self, flight: Flight, state: str, now_s: float,
                reason: Optional[str] = None) -> None:
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
        self._resolve(flight, response, now_s)

    def _dispatch(self, now_s: float) -> None:
        """``queued -> sent`` while a worker is idle; ``queued -> failed``
        once no worker is left and no respawn on its way."""
        while self.pending and (self.idle or not self._pool_alive()):
            flight = self.pending[0]
            if not self.idle:
                self._finish(flight, "failed", now_s, "no surviving gateway workers")
                continue
            if flight.deadline_passed(now_s):
                self._finish(flight, "shed", now_s)  # running it would only waste a worker
                continue
            try:
                frame = flight.request.to_frame(REQUEST_FRAME)
            except (TypeError, ValueError, TraceFormatError) as exc:
                # No worker is bound yet: the request fails alone.
                reason = f"request cannot be encoded for the wire: {exc}"
                self._finish(flight, "failed", now_s, reason)
                continue
            worker = self.idle.popleft()
            self._move(flight, "sent")
            flight.worker_id, flight.dispatched_s = worker.worker_id, now_s
            worker.flight = flight
            self._actions.append(Send(worker.worker_id, frame))

    def _pool_alive(self) -> bool:
        """A worker lives, or a respawn is on its way."""
        return bool(self.alive_workers) or any(
            slot.pending_respawn_s is not None for slot in self.slots
        )

    def _spawn(self, slot_id: Optional[int]) -> Worker:
        """A new worker on a fresh id (a hot spare when *slot_id* is None)."""
        worker = Worker(len(self.workers), slot_id)
        self.workers.append(worker)
        self._actions.append(Spawn(worker.worker_id))
        self.metrics.observe_device_state(worker.worker_id, "spare" if worker.spare else "up")
        return worker

    def _release(self, worker: Worker, now_s: float) -> None:
        """A live worker without a flight rejoins the rotation."""
        self.idle.append(worker)
        self._dispatch(now_s)

    def _unbind(self, worker: Worker, op: str, reason: str, now_s: float,
                usage: Optional[dict] = None, retry: bool = True) -> None:
        """End *worker*'s attempt without an answer: compensate it (the
        *usage* of a late answer, else zero work: no shipped record has
        it) and orphan a ``sent`` flight, to be queued again at the head,
        fault marker stripped, or failed without *retry* or attempts."""
        flight, worker.flight = worker.flight, None
        request = flight.request
        self._bill_counter += 1
        identity = dict(
            request_id=request.request_id, tenant=request.tenant, device_id=worker.worker_id,
            batch_id=self._bill_counter, at_s=now_s, reason=reason, op=op,
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
            self._finish(flight, "failed", now_s, reason)
            return
        request.attempt += 1
        request.fault = None
        self.metrics.observe_retry()
        self._move(flight, "queued")

    def _on_response(self, worker: Worker, frame: memoryview, now_s: float) -> None:
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
            self._lose(worker, "corrupt-frame", now_s, reason, retry=False)
            return
        flight = worker.flight
        request = flight.request
        worker.served += 1
        worker.busy_s += now_s - flight.dispatched_s
        self.metrics.observe_compile(response.compile_hits, response.compile_misses)
        for energy_j in response.housekeeping_energy_j:
            self.ledger.record_housekeeping(energy_j, device_id=worker.worker_id)
        if flight.state == "expired":
            reason = (f"request {request.request_id} exceeded its deadline in flight; "
                      "the late result was discarded")
            self._unbind(worker, "deadline-exceeded", reason, now_s, response.usage)
            self._release(worker, now_s)
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
        self._release(worker, now_s)

    def _lose(self, worker: Worker, cause: str, now_s: float, reason: Optional[str],
              retry: bool = True) -> None:
        """The one "worker lost" event (a crash, a hang, a corrupt frame,
        a drain never answered): kill, :meth:`_unbind`, heal the slot."""
        self._actions.append(Kill(worker.worker_id))
        worker.dead = worker.drained = True  # nothing left to wait for at drain
        if worker in self.idle:
            self.idle.remove(worker)
        self.metrics.observe_device_state(worker.worker_id, "down")
        self.metrics.observe_fault(cause)
        if worker.flight is not None:
            self._unbind(worker, cause, reason, now_s, retry=retry)
        if self.phase in _HEALING:
            self._recover_capacity(worker, now_s)
        # The retry, once capacity is settled: with no worker left and no
        # respawn on its way, the queue fails instead.
        self._dispatch(now_s)

    def _recover_capacity(self, worker: Worker, now_s: float) -> None:
        """Promote a hot spare into the dead worker's slot, schedule a
        backed-off respawn within budget, or quarantine a crash loop."""
        if worker.slot_id is None:
            return  # a spare died; nothing occupied its capacity
        slot = self.slots[worker.slot_id]
        spares = self.spares()
        if spares:
            spares[0].slot_id = worker.slot_id
            self.metrics.observe_spare_promoted()
            self.metrics.observe_device_state(spares[0].worker_id, "up")
            self._release(spares[0], now_s)
        if slot.respawns < self.config.max_respawns:
            slot.respawns += 1
            slot.pending_respawn_s = now_s + capped_backoff_s(
                self.config.respawn_backoff_base_s, self.config.respawn_backoff_max_s, slot.respawns
            )
        elif self.config.max_respawns and not spares and not slot.quarantined:
            slot.quarantined = True
            self.metrics.observe_slot_quarantined()
            self.metrics.observe_device_state(worker.worker_id, "quarantined")
