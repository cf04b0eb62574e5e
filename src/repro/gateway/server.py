"""The wall-clock serving gateway: asyncio front-end, process-pool back-end.

:class:`AsyncGateway` serves typed requests on an ``asyncio`` loop under
a :class:`~repro.serve.clock.WallClock` with a pool of worker processes
(:mod:`repro.gateway.worker`).  Every decision is
:class:`~repro.gateway.core.FlightCore`'s; this module is its driver and
owns only what the core may not touch: one duplex pipe per worker, its
end a non-blocking descriptor on the loop (:class:`_Pipe`: no threads,
and a partial frame never blocks the loop), the processes, the monitor,
the callers' futures and the drain wait.  Every 50 ms the monitor polls
each worker's liveness (never a pipe's end-of-file: forked siblings hold
inherited descriptors) and runs the core's monitor step; a closing
worker's pipe is read before its death is reported, as it may have
answered the drain frame and then exited, as told.
"""

from __future__ import annotations

import asyncio
import os
from functools import partial
from typing import Mapping, Optional

import numpy as np

from repro.blas_threads import pinned_blas_threads
from repro.gateway.core import FlightCore, GatewayConfig, GatewayError, Kill, Resolve, Send
from repro.gateway.wire import GatewayRequest, GatewayResponse
from repro.gateway.worker import FRAME_HEADER, worker_main
from repro.serve.admission import TenantQuota
from repro.serve.clock import WallClock

__all__ = ["AsyncGateway", "GatewayConfig", "GatewayError"]

#: How long drain() waits for the workers' final work records (and for
#: stuck in-flight work) before escalating to a kill.
_DRAIN_TIMEOUT_S = 30.0

#: Most bytes taken from a pipe per readiness callback.
_READ_BYTES = 1 << 18


class _Pipe:
    """The gateway's end of one worker's duplex pipe, on the event loop:
    the length-prefixed stream of ``Connection.send_bytes``, through a
    non-blocking descriptor.  Readiness callbacks gather bytes into
    ``_inbox`` and hand every complete frame to *on_frame*; ``send``
    leaves what the socket does not take now to a writability callback.
    """

    def __init__(self, loop, connection, on_frame):
        self._loop = loop
        self._connection = connection
        self._on_frame = on_frame
        self._inbox = bytearray()
        self._outbox = bytearray()
        os.set_blocking(connection.fileno(), False)
        loop.add_reader(connection.fileno(), self.read)

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

    def read(self) -> None:
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


class AsyncGateway:
    """Wall-clock gateway: the driver of one :class:`~repro.gateway.core.FlightCore`."""

    def __init__(self, config: Optional[GatewayConfig] = None):
        self.config = config or GatewayConfig()
        self.core = FlightCore(self.config)
        self.clock = WallClock()
        self.metrics = self.core.metrics
        self.ledger = self.core.ledger
        self.dead_letters = self.core.dead_letters
        #: Worker id -> (process, the gateway's end of its pipe).
        self._links: dict[int, tuple] = {}
        #: Request id -> the future its caller holds, until it resolves.
        self._futures: dict[int, asyncio.Future] = {}
        self._seq = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: The monitor's next step (a loop timer, cancelled by drain).
        self._timer: Optional[asyncio.TimerHandle] = None
        #: What the drain waits for: a condition on the core, re-checked
        #: after every input, and the event that ends the wait.
        self._wait: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "AsyncGateway":
        """Spawn the worker pool (actives + hot spares) and the monitor."""
        self._loop = asyncio.get_running_loop()
        self._act(self.core.start())
        self._monitor()
        return self

    def launch(self, worker_id: int) -> tuple:
        """Start worker *worker_id* on its own pipe; returns the process and
        the gateway's end of the pipe.  The one place a process is made."""
        import multiprocessing

        ctx = multiprocessing.get_context(
            self.config.start_method
            or ("fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn")
        )
        near_end, far_end = ctx.Pipe(duplex=True)
        args = (worker_id, self.config.worker_wire(), far_end)
        name = f"gateway-worker-{worker_id}"
        process = ctx.Process(target=worker_main, args=args, daemon=True, name=name)
        with pinned_blas_threads():  # a spawned interpreter reads it as NumPy loads
            process.start()
        far_end.close()  # the child holds its own copy now
        on_frame = partial(self._on_frame, worker_id)
        return process, _Pipe(asyncio.get_running_loop(), near_end, on_frame)

    async def __aenter__(self) -> "AsyncGateway":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.drain()

    @property
    def alive_workers(self) -> list[int]:
        return self.core.alive_workers

    def set_quota(self, tenant: str, quota: TenantQuota) -> None:
        """Per-tenant wall-clock admission quota."""
        self.core.quotas[tenant] = quota

    def quota(self, tenant: str) -> Optional[TenantQuota]:
        return self.core.quota(tenant)

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
        self._seq += 1
        # The request's own copy, taken now: the caller may reuse its
        # arrays at once, a retry re-sends these bytes, and the arrays a
        # response refers to are filled from them.
        arrays = {name: np.array(value, copy=True) for name, value in (arrays or {}).items()}
        request = GatewayRequest(
            self._seq, tenant, source, dict(params or {}), arrays,
            fault=fault, deadline_s=deadline_s,
        )
        actions = self.core.submit(request, self.clock.now_s)
        future = self._futures[self._seq] = self._loop.create_future()
        self._act(actions)
        return future

    async def submit(self, *args, **kwargs) -> GatewayResponse:
        return await self.submit_nowait(*args, **kwargs)

    # ------------------------------------------------------------------
    # Driving the core (loop thread only)
    # ------------------------------------------------------------------
    def _act(self, actions: list) -> None:
        """Carry out the core's actions, in order."""
        for action in actions:
            kind = type(action)
            if kind is Send:
                self._links[action.worker_id][1].send(action.frame)
            elif kind is Resolve:
                future = self._futures.pop(action.response.request_id)
                if not future.cancelled():  # the caller may stop waiting
                    future.set_result(action.response)
            elif kind is Kill:
                self._links[action.worker_id][0].kill()
            else:
                self._links[action.worker_id] = self.launch(action.worker_id)
        if self._wait is not None and self._wait[0]():
            self._wait[1].set()

    def _on_frame(self, worker_id: int, frame: memoryview) -> None:
        self._act(self.core.frame(worker_id, frame, self.clock.now_s))

    def _monitor(self) -> None:
        """Poll liveness, run the core's monitor step; again in 50 ms."""
        self._timer = self._loop.call_later(0.05, self._monitor)
        now_s = self.clock.now_s
        for worker in self.core.watched():
            process, pipe = self._links[worker.worker_id]
            if not process.is_alive():
                if self.core.phase == "closing":
                    pipe.read()  # it may have answered the drain, then exited
                self._act(self.core.died(worker.worker_id, process.exitcode, now_s))
        self._act(self.core.tick(now_s))

    # ------------------------------------------------------------------
    # Drain / teardown
    # ------------------------------------------------------------------
    async def drain(self) -> dict:
        """Graceful shutdown: stop admission, answer every flight, collect
        each worker's final work record (a worker that has not drained in
        30 s is killed) and tear the pool down, leaving no zombie.
        Returns the final metrics snapshot.  Idempotent."""
        if self.core.phase == "closed":
            return self.snapshot()
        self._act(self.core.begin_drain())
        await self._until(lambda: not self.core.owed())
        self._act(self.core.send_drain())
        # Whoever has not drained in time, end_drain kills.
        await self._until(lambda: not self.core.watched(), _DRAIN_TIMEOUT_S)
        self._act(self.core.end_drain(self.clock.now_s, _DRAIN_TIMEOUT_S))
        if self._timer is not None:
            self._timer.cancel()
        for process, pipe in self._links.values():
            pipe.close()
            process.join(timeout=5.0)
            process.kill()  # a no-op unless it is wedged past its drain
            process.join(timeout=5.0)
        return self.snapshot()

    async def _until(self, condition, timeout_s: Optional[float] = None) -> None:
        """Wait until *condition* holds, or for at most *timeout_s*."""
        self._wait = (condition, asyncio.Event())
        if not condition():
            try:
                await asyncio.wait_for(self._wait[1].wait(), timeout_s)
            except asyncio.TimeoutError:
                pass
        self._wait = None

    def verify_partition(self) -> dict[str, bool]:
        return self.core.verify_partition()

    def snapshot(self) -> dict:
        return self.core.snapshot(self.clock.now_s)
