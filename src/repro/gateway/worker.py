"""The gateway's pool worker: one process, one private emulated device.

Each worker owns a complete private serving stack — a
:class:`~repro.system.system.CimSystem`, an
:class:`~repro.codegen.executor.OffloadExecutor`, a compiler bound to the
**shared on-disk** :class:`~repro.compiler.cache.KernelCompileCache`
(flock-guarded, so concurrent workers race safely), and the
:class:`~repro.serve.server.CimServer` that ``GatewayConfig.worker``
describes (``max_batch_size=1`` by default) — and serves each request as
one lease of its own
(:meth:`~repro.serve.server.ServingLoop.serve_alone`): no batch
signature, no admission queue, no batcher.  The lease runs through
:meth:`~repro.serve.dispatch.LeaseExecutor.dispatch`, the lease
executor's path for a batch of one, which is what makes the wall-clock
gateway's responses bit-identical to the ``VirtualClock`` mode: the only
thing the process pool changes is *when* requests run, never *what* they
compute or bill.

Physical accounting: the worker folds each request's accelerator totals
into one worker-lifetime :class:`~repro.hw.stats.AcceleratorRunStats`
(the same record and the same ``add`` every tier uses) and ships its
scalars on every response and on the drain frame — the currency the
gateway's partition check reconciles bills against.

Determinism inside one worker comes from the same invariants the serving
tests lean on: every request starts on a cold crossbar (:func:`serve_one`
resets the device's statistics, which empties its region store, so no
crossbar residency crosses requests), the runtime releases every device
buffer between requests (identical programs re-allocate at identical CMA
addresses), and usage is measured as per-request ledger deltas — so a
request's usage record is a pure function of the request, independent of
which worker serves it or what ran before.

The worker speaks :mod:`repro.gateway.wire` pipe frames (a JSON header,
then raw array bytes) over its own duplex pipe to the gateway — blocking
``recv_bytes`` / ``send_bytes`` in the main thread, one frame per
message, no helper thread and nothing shared with its siblings, so dying
at any instruction (even half-way through a frame) can strand only its
own request.  A result array the run left bitwise equal to the request's
array of its name goes back as a reference, without its bytes.  The
worker honours the fault-injection markers of
:data:`~repro.gateway.wire.FAULT_MARKERS`; crash recovery and
compensation are the gateway's job (:mod:`repro.gateway.core`).
"""

from __future__ import annotations

import json
import os
import struct
import time
from typing import Optional

from repro.gateway.wire import (
    FAULT_EXIT_CODE,
    GatewayRequest,
    GatewayResponse,
    USAGE_FIELDS,
    WireFormatError,
    slow_fault_delay_s,
)
from repro.hw.stats import AcceleratorRunStats
from repro.serve.batcher import same_bytes

#: A pipe frame is one kind byte followed by its body, sent as one
#: ``Connection.send_bytes`` message.  Gateway -> worker: a request frame
#: (``GatewayRequest.to_frame``), or the (empty) order to drain.
REQUEST_FRAME = b"q"
DRAIN_FRAME = b"d"

#: Worker -> gateway: a response frame (``GatewayResponse.to_frame``),
#: the final work record (``AcceleratorRunStats.scalars()`` as JSON)
#: answering a drain, or the error text of an undecodable request frame.
RESPONSE_FRAME = b"r"
DRAINED_FRAME = b"f"
DEAD_LETTER_FRAME = b"x"

#: ``send_bytes`` puts this length header before every message (a signed
#: big-endian int; frames stay far below its 2 GiB range).  The gateway
#: end reads and writes the same stream from its event loop without
#: blocking, so it frames by hand.
FRAME_HEADER = struct.Struct("!i")


def build_worker_server(wire: dict):
    """Build one worker's private serving stack from the gateway's wire
    config (:meth:`~repro.gateway.server.GatewayConfig.worker_wire`, a
    plain dict, so it pickles identically under ``fork`` and ``spawn``).
    Shared between real pool workers and the in-process differential
    reference."""
    from repro.compiler.cache import KernelCompileCache
    from repro.serve.server import CimServer
    from repro.trace.schema import decode_server_config

    return CimServer(
        decode_server_config("serve", wire["server"]),
        compile_cache=KernelCompileCache(disk_dir=wire["cache_dir"]),
    )


def serve_one(server, request: GatewayRequest, worker_id: int) -> GatewayResponse:
    """Serve one wire request on *server* as a lease of its own
    (:meth:`~repro.serve.server.ServingLoop.serve_alone`).

    Never raises: compile errors, bad payloads and execution errors all
    resolve to a ``failed`` response (one bad request must not kill the
    worker).  Usage, lease housekeeping and compile-cache deltas are
    measured around the call so the gateway can rebuild the exact
    accounting the reference server would have produced.

    Measurement isolation: the system's stats ledgers and the runtime's
    buffer-handle numbering are reset before every request, so the
    measured deltas (and any handle quoted in an error message) are exact
    values — a pure function of the request, bit-identical no matter
    which worker serves it, in what order, or under which clock.  Without
    the reset, deltas are differences against a cumulative float ledger
    and round differently depending on how much the server served before.
    The caller must fold ``accelerator.totals`` into its own lifetime
    record *before* the next call — the reset zeroes them.
    """
    from repro.serve.request import RequestStatus

    server.system.reset_stats()
    server.system.runtime.reset_handle_counter()
    hits0 = server.compile_cache.hits
    misses0 = server.compile_cache.misses

    status = "failed"
    reason: Optional[str] = None
    result = {}
    with server.ledger.observe() as log:
        try:
            handle = server.serve_alone(
                request.tenant, request.source, request.params, request.arrays
            )
            if handle.status is RequestStatus.COMPLETED:
                status = "completed"
                result = handle.result()
            elif handle.status is RequestStatus.REJECTED:
                status = "rejected"
                reason = handle.reject_reason
            else:
                reason = handle.reject_reason
        except Exception as exc:  # compile error, malformed request, ...
            reason = f"{type(exc).__name__}: {exc}"

    usage: dict[str, float] = {}
    if log.usages:
        record = log.usages[-1]
        usage = {name: getattr(record, name) for name in USAGE_FIELDS}
    return GatewayResponse(
        request_id=request.request_id,
        tenant=request.tenant,
        status=status,
        worker_id=worker_id,
        attempt=request.attempt,
        reason=reason,
        result=result,
        usage=usage,
        housekeeping_energy_j=[record.energy_j for record in log.housekeeping],
        compile_hits=server.compile_cache.hits - hits0,
        compile_misses=server.compile_cache.misses - misses0,
    )


def _send_frame(pipe, frame: bytes) -> None:
    pipe.send_bytes(frame)


def worker_main(worker_id: int, config: dict, pipe) -> None:
    """Pool worker entry point (top-level so it spawns on any platform).

    Loops on its end of the pipe until a drain frame arrives (or the
    gateway's end closes), serving one request at a time and shipping
    each response together with the worker-cumulative physical snapshot
    (the accounting currency that survives the worker's death — see
    :mod:`repro.gateway.core`).  The drain frame is answered with that
    same record, then the worker exits cleanly.
    """
    server = build_worker_server(config)
    # Worker-lifetime work record (``serve_one`` resets the accelerator's
    # own totals before every request, so they cannot live there).
    physical = AcceleratorRunStats()
    try:
        while True:
            try:
                frame = pipe.recv_bytes()
            except EOFError:
                break  # the gateway is gone
            if frame[:1] == DRAIN_FRAME:
                _send_frame(pipe, DRAINED_FRAME + json.dumps(physical.scalars()).encode())
                break
            try:
                request = GatewayRequest.from_frame(frame)
            except WireFormatError as exc:
                # A frame that decodes this badly has no request id to
                # answer for; report it as a dead letter and move on.
                _send_frame(pipe, DEAD_LETTER_FRAME + str(exc).encode())
                continue
            if request.fault == "die-before-dispatch":
                os._exit(FAULT_EXIT_CODE)
            if request.fault == "hang":
                # Wedge forever without doing any work: the process stays
                # alive but never answers, which is exactly the shape the
                # gateway's hang watchdog must detect and SIGKILL.  No
                # work happened, so the zero-work crash compensation the
                # gateway records is physically exact.
                while True:
                    time.sleep(3600.0)
            slow_s = slow_fault_delay_s(request.fault)
            if slow_s is not None:
                # Stall, then serve normally: the request loses wall time
                # (deadline pressure) but no physical work.
                time.sleep(slow_s)
            response = serve_one(server, request, worker_id)
            physical.add(server.system.accelerator.totals)
            if request.fault == "die-mid-request":
                # The device physically worked (ledgers and outputs exist
                # in this process) and then the process dies before the
                # response escapes: the work is genuinely lost, which is
                # exactly the window the gateway's crash recovery and
                # FaultCompensation accounting must cover.
                os._exit(FAULT_EXIT_CODE)
            response.physical = physical.scalars()
            # A result array the run left as the request sent it goes back
            # as a reference; the gateway holds those bytes already.  (The
            # server ran on its own copy, so ``request.arrays`` are still
            # the bytes the gateway sent.)
            frame = response.to_frame(RESPONSE_FRAME, [
                name for name, array in response.result.items()
                if same_bytes(array, request.arrays.get(name))
            ])
            if request.fault == "corrupt-frame":
                # Byzantine worker: the device worked, but the frame that
                # leaves the process is garbage (its first half).  The
                # gateway must fail only this request with a typed reason
                # and kill this process — its in-process ledgers now hold
                # work no decodable snapshot will ever account for, so
                # letting it live would break the partition.
                frame = frame[: len(frame) // 2]
            _send_frame(pipe, frame)
    finally:
        server.shutdown()
