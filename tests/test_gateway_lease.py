"""A pool worker's lone lease bills exactly what the serving loop billed.

A gateway worker serves each request with
:meth:`~repro.serve.server.ServingLoop.serve_alone`: one lease, no batch
signature, no queues, no batcher.  Against a second, identically built
batch-of-one server that takes the loop's way (``submit`` then
``drain``), every outcome must agree bit for bit: status and reason,
result dtype, shape and bytes, every billed usage field, the lease's
housekeeping records and the device's accelerator totals.  Both servers
are measured the way :func:`~repro.gateway.worker.serve_one` measures
(stats ledgers and buffer handles reset before each request).

A worker's response frame then sends a result array the run left as the
request sent it as a reference, and the gateway fills it from its own
copy of the request (``tests/test_gateway_wire.py`` covers the codec).
"""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from repro.gateway.loadgen import synthetic_gemv_workload
from repro.gateway.server import GatewayConfig
from repro.gateway.wire import SAME_PAYLOAD, USAGE_FIELDS, GatewayRequest, GatewayResponse
from repro.gateway.worker import (
    DRAIN_FRAME, REQUEST_FRAME, RESPONSE_FRAME, build_worker_server, worker_main,
)
from repro.serve.admission import TenantQuota
from repro.serve.errors import ServeError
from repro.workloads import KERNELS, PAPER_KERNELS

GEMV = synthetic_gemv_workload(num_tenants=1, seed=7)(0)


def _cases() -> list[tuple[str, str, str, dict, dict]]:
    """(label, tenant, source, params, arrays) of every case, in order."""
    cases = [
        (name, f"tenant{index % 2}", KERNELS[name].source, KERNELS[name].params("SMALL"),
         KERNELS[name].arrays("SMALL", index))
        for index, name in enumerate(PAPER_KERNELS)
    ]
    cases.append(("gemv-16x16", GEMV.tenant, GEMV.source, dict(GEMV.params), dict(GEMV.arrays)))
    missing_x = {name: value for name, value in GEMV.arrays.items() if name != "x"}
    cases.append(("bad-payload", GEMV.tenant, GEMV.source, dict(GEMV.params), missing_x))
    gemm = KERNELS["gemm"]
    short = {**gemm.arrays("SMALL", 0), "B": np.zeros((3, 3), np.float32)}
    cases.append(("bad-shape", "tenant0", gemm.source, gemm.params("SMALL"), short))
    cases.append(("no-compile", "tenant1", "void k(int N, float x[N]) { x[0] = ; }", {"N": 4},
                  {"x": np.zeros(4, np.float32)}))
    cases.append(("over-budget", "broke", GEMV.source, dict(GEMV.params), dict(GEMV.arrays)))
    return cases


def _outcome(server, tenant: str, serve) -> tuple:
    """Everything a request leaves behind that a bill or a response
    carries, each value as its exact text (``repr`` keeps ``0`` apart
    from ``0.0`` and every float bit)."""
    server.system.reset_stats()
    server.system.runtime.reset_handle_counter()
    try:
        with server.ledger.observe() as log:
            handle = serve()
    except Exception as exc:  # the outcome is the error text
        return ("raised", f"{type(exc).__name__}: {exc}")
    result = handle.result() if handle.status.value == "completed" else {}
    return (
        handle.status.value,
        handle.reject_reason,
        [(name, array.dtype.str, array.shape, array.tobytes()) for name, array in result.items()],
        [repr([getattr(usage, name) for name in USAGE_FIELDS])
         for usage in log.usages if usage.tenant == tenant],
        repr([record.energy_j for record in log.housekeeping]),
        repr(sorted(server.system.accelerator.totals.scalars().items())),
    )


def test_a_lone_lease_bills_exactly_what_the_loop_billed():
    wire = GatewayConfig().worker_wire()
    alone, looped = build_worker_server(wire), build_worker_server(wire)
    try:
        for server in (alone, looped):
            server.set_quota("broke", TenantQuota(energy_budget_j=0.0))
        seen = set()
        for label, tenant, source, params, arrays in _cases():
            want = _outcome(looped, tenant,
                            lambda: _submit_and_drain(looped, tenant, source, params, arrays))
            got = _outcome(alone, tenant,
                           lambda: alone.serve_alone(tenant, source, params, arrays))
            assert got == want, label
            seen.add(want[0])
        assert seen == {"completed", "failed", "rejected", "raised"}
    finally:
        alone.shutdown()
        looped.shutdown()


def _submit_and_drain(server, tenant, source, params, arrays):
    handle = server.submit(tenant, source, params, arrays)
    server.drain()
    return handle


def test_a_lone_lease_keeps_its_own_copy_and_needs_an_idle_loop():
    server = build_worker_server(GatewayConfig().worker_wire())
    try:
        arrays = {name: value.copy() for name, value in GEMV.arrays.items()}
        handle = server.serve_alone(GEMV.tenant, GEMV.source, GEMV.params, arrays)
        result = handle.result()
        assert all(not np.shares_memory(result[name], arrays[name]) for name in arrays)
        assert handle.batch_size == 1 and handle.attempts == 1
        server.submit(GEMV.tenant, GEMV.source, GEMV.params, arrays)
        with pytest.raises(ServeError, match="idle loop"):
            server.serve_alone(GEMV.tenant, GEMV.source, GEMV.params, arrays)
    finally:
        server.shutdown()


class _Pipe:
    """The worker's end of its pipe, in this process: hands over the given
    frames, then the drain order, and keeps what the worker sends."""

    def __init__(self, frames):
        self._frames = list(frames) + [DRAIN_FRAME]
        self.sent: list[bytes] = []

    def recv_bytes(self) -> bytes:
        return self._frames.pop(0)

    def send_bytes(self, frame: bytes) -> None:
        self.sent.append(bytes(frame))


def test_a_response_frame_refers_to_the_arrays_the_run_left_unchanged():
    request = GatewayRequest(1, GEMV.tenant, GEMV.source, dict(GEMV.params), dict(GEMV.arrays))
    pipe = _Pipe([request.to_frame(REQUEST_FRAME)])
    worker_main(0, GatewayConfig().worker_wire(), pipe)
    frame = pipe.sent[0]
    assert frame[:1] == RESPONSE_FRAME
    (size,) = struct.unpack_from("!I", frame, 1)
    payloads = json.loads(frame[5 : 5 + size])["result"]
    # A and x come back as references; y, which the run wrote, as bytes.
    assert payloads["A"] == payloads["x"] == SAME_PAYLOAD
    assert "sha256" in payloads["y"] and len(frame) == 5 + size + GEMV.arrays["y"].nbytes
    response = GatewayResponse.from_frame(frame, same=request.arrays)
    assert list(response.result) == list(GEMV.arrays)
    expected = GEMV.arrays["A"] @ GEMV.arrays["x"]
    assert np.array_equal(response.result["y"], expected)
    for name in ("A", "x"):
        assert response.result[name].tobytes() == GEMV.arrays[name].tobytes()
        assert not np.shares_memory(response.result[name], request.arrays[name])
