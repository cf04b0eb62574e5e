"""PolyBench-sized requests through a real pool equal in-process serving.

The paper's seven kernels at SMALL — 8-51 KiB of operands each, the
sizes ``gw_open_mix`` sends — cross a one-worker pool's pipe as binary
frames both ways (a JSON header, then the raw array bytes).  Results,
usage and tenant bills must equal :func:`~repro.gateway.worker.serve_one`
run in this process on an identically configured server, bit for bit,
and no request frame may carry more than its raw array bytes plus a
small header.  Result arrays the run did not change come back as
references to the request's arrays and are filled from the gateway's
own copy of them.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.gateway.server import AsyncGateway, GatewayConfig
from repro.gateway.wire import GatewayRequest
from repro.gateway.worker import REQUEST_FRAME, build_worker_server, serve_one
from repro.trace.recorder import tenant_bills
from repro.trace.replayer import TraceDiff
from repro.workloads import KERNELS, PAPER_KERNELS

#: The most bytes a request frame may add to its arrays' raw bytes.
HEADER_BOUND = 2048


def _requests() -> list[GatewayRequest]:
    return [
        GatewayRequest(
            index, f"tenant{index % 2}", KERNELS[name].source,
            KERNELS[name].params("SMALL"), KERNELS[name].arrays("SMALL", index),
        )
        for index, name in enumerate(PAPER_KERNELS)
    ]


def test_polybench_requests_through_a_pool_equal_in_process_serving(tmp_path):
    config = GatewayConfig(num_workers=1, cache_dir=str(tmp_path))
    requests = _requests()

    async def through_the_pool():
        async with AsyncGateway(config) as gateway:
            responses = [
                await gateway.submit(r.tenant, r.source, r.params, r.arrays) for r in requests
            ]
        return gateway, responses

    gateway, responses = asyncio.run(through_the_pool())
    server = build_worker_server(config.worker_wire())
    try:
        expected = [serve_one(server, request, worker_id=0) for request in requests]
        diff = TraceDiff(("responses", "usage", "tenant_bills"), "pool and in-process serving",
                         ("in-process", "pool"))
        for name, request, want, got in zip(PAPER_KERNELS, requests, expected, responses):
            assert want.status == "completed" and want.result, (name, want.reason)
            # Unchanged arrays come back as references, filled from the
            # gateway's copy: never the caller's own array.
            assert not any(np.shares_memory(result, array) for result in got.result.values()
                           for array in request.arrays.values()), name
            diff.value("responses", (want.status, want.result), (got.status, got.result), name)
            diff.value("usage", want.usage, got.usage, name)
        diff.keyed("tenant_bills", tenant_bills(server.ledger), tenant_bills(gateway.ledger),
                   "tenant")
    finally:
        server.shutdown()
    assert diff.identical, diff.summary()
    assert all(gateway.verify_partition().values())


def test_a_request_frame_is_its_raw_array_bytes_plus_a_small_header():
    for request in _requests():
        raw = sum(array.nbytes for array in request.arrays.values())
        frame = request.to_frame(REQUEST_FRAME)
        assert raw < len(frame) <= raw + HEADER_BOUND
        assert b'"data"' not in frame[: len(frame) - raw]  # no base64 anywhere
