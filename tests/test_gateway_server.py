"""Tests for the wall-clock process-pool gateway (PR 9 tentpole).

These spawn real worker processes and measure real time, so counts are
kept small.  The contract under test:

* end-to-end serving through the pool with exact accounting,
* lifecycle discipline (start/submit/drain ordering, idempotent drain),
* admission backpressure,
* and the headline fault model — a worker killed mid-request loses its
  process and its in-flight work, the gateway compensates and retries
  on a survivor, the tenant is billed exactly once, the accounting
  partition stays exact, and the response is bit-identical to an
  uninterrupted run.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.gateway import AsyncGateway, GatewayConfig
from repro.gateway.loadgen import GEMV_SOURCE, synthetic_gemv_workload
from repro.gateway.server import GatewayError
from repro.gateway.wire import FAULT_EXIT_CODE


def run(coroutine):
    return asyncio.run(coroutine)


def submit_item(gateway, item, fault=None):
    return gateway.submit_nowait(
        item.tenant, item.source, item.params, item.arrays, fault=fault
    )


class TestLifecycle:
    def test_submit_before_start_raises(self):
        gateway = AsyncGateway(GatewayConfig(num_workers=1))
        with pytest.raises(GatewayError, match="not started"):
            gateway.submit_nowait("acme", GEMV_SOURCE)

    def test_submit_after_drain_raises(self):
        async def scenario():
            async with AsyncGateway(GatewayConfig(num_workers=1)) as gateway:
                await gateway.drain()
                with pytest.raises(GatewayError, match="draining"):
                    gateway.submit_nowait("acme", GEMV_SOURCE)
                # Drain is idempotent.
                await gateway.drain()

        run(scenario())

    def test_config_validation(self):
        with pytest.raises(GatewayError, match="at least one worker"):
            AsyncGateway(GatewayConfig(num_workers=0))
        with pytest.raises(GatewayError, match="max_attempts"):
            AsyncGateway(GatewayConfig(max_attempts=0))


class TestServing:
    def test_end_to_end_pool_serving(self):
        workload = synthetic_gemv_workload(num_tenants=3, seed=1)

        async def scenario():
            async with AsyncGateway(GatewayConfig(num_workers=2)) as gateway:
                futures = [
                    submit_item(gateway, workload(index)) for index in range(9)
                ]
                responses = await asyncio.gather(*futures)
                await gateway.drain()
                return responses, gateway.verify_partition(), gateway.snapshot()

        responses, checks, snapshot = run(scenario())
        assert [r.status for r in responses] == ["completed"] * 9
        assert sorted(r.request_id for r in responses) == list(range(1, 10))
        # Every request's GEMV is exact: integer-valued operands.
        for index, response in enumerate(responses):
            item = workload(index)
            expected = item.arrays["A"] @ item.arrays["x"]
            assert np.array_equal(response.result["y"], expected)
        assert all(checks.values()), checks
        gw = snapshot["gateway"]
        assert gw["alive_workers"] == 2
        assert sum(row["served"] for row in gw["workers"].values()) == 9
        assert snapshot["requests"]["completed"] == 9

    def test_backpressure_rejects_over_limit(self):
        workload = synthetic_gemv_workload(num_tenants=1, seed=2)

        async def scenario():
            config = GatewayConfig(num_workers=1, max_pending=2)
            async with AsyncGateway(config) as gateway:
                # A burst without yielding: 1 dispatches, 2 queue, the
                # rest must be rejected synchronously.
                futures = [
                    submit_item(gateway, workload(index)) for index in range(6)
                ]
                responses = await asyncio.gather(*futures)
                await gateway.drain()
                return responses, gateway.ledger

        responses, ledger = run(scenario())
        statuses = [r.status for r in responses]
        assert statuses.count("rejected") == 3
        assert statuses.count("completed") == 3
        rejected = next(r for r in responses if r.status == "rejected")
        assert "backpressure" in rejected.reason
        assert ledger.account("tenant-0").rejected == 3


class TestCrashRecovery:
    def test_worker_death_mid_request_recovers_exactly_once(self):
        """The satellite gate: kill a worker mid-request; the request
        completes on a survivor with exactly-once billing and a
        bit-identical result."""
        workload = synthetic_gemv_workload(num_tenants=2, seed=3)
        faulted_index = 3

        async def scenario(inject: bool):
            async with AsyncGateway(GatewayConfig(num_workers=2)) as gateway:
                futures = []
                for index in range(8):
                    fault = (
                        "die-mid-request"
                        if inject and index == faulted_index
                        else None
                    )
                    futures.append(submit_item(gateway, workload(index), fault))
                responses = await asyncio.gather(*futures)
                await gateway.drain()
                return (
                    responses,
                    gateway.verify_partition(),
                    gateway.snapshot(),
                    gateway.ledger,
                    {w.worker_id: w.process.exitcode for w in gateway._workers},
                )

        clean_responses, *_ = run(scenario(inject=False))
        responses, checks, snapshot, ledger, exitcodes = run(scenario(inject=True))

        assert [r.status for r in responses] == ["completed"] * 8
        faulted = responses[faulted_index]
        # Served on the second attempt, by the surviving worker.
        assert faulted.attempt == 2
        dead = [wid for wid, code in exitcodes.items() if code == FAULT_EXIT_CODE]
        assert len(dead) == 1
        assert faulted.worker_id not in dead
        assert snapshot["gateway"]["alive_workers"] == 1

        # Bit-identical to the uninterrupted run, request by request.
        for clean, recovered in zip(clean_responses, responses):
            assert clean.result.keys() == recovered.result.keys()
            for name in clean.result:
                assert (
                    clean.result[name].tobytes()
                    == recovered.result[name].tobytes()
                )

        # Exactly-once billing: one usage record for the killed request,
        # plus the zero-work compensation as the audit trail.
        usages = [
            u for u in ledger.all_usages()
            if u.request_id == faulted.request_id
        ]
        assert len(usages) == 1
        compensations = [
            c for c in ledger.compensations
            if c.request_id == faulted.request_id
        ]
        assert len(compensations) == 1
        assert compensations[0].op == "worker-crash"
        assert compensations[0].accelerator_energy_j == 0.0
        assert compensations[0].device_id == dead[0]

        # The partition reconciles on the survivor *and* the dead worker.
        assert all(checks.values()), checks

        fleet = snapshot["fleet"]
        assert fleet["faults_injected"] == 1
        assert fleet["faults_recovered"] == 1
        assert fleet["retries"] == 1

    def test_death_before_dispatch_recovers_too(self):
        workload = synthetic_gemv_workload(num_tenants=1, seed=4)

        async def scenario():
            async with AsyncGateway(GatewayConfig(num_workers=2)) as gateway:
                futures = [
                    submit_item(
                        gateway,
                        workload(index),
                        fault="die-before-dispatch" if index == 0 else None,
                    )
                    for index in range(4)
                ]
                responses = await asyncio.gather(*futures)
                await gateway.drain()
                return responses, gateway.verify_partition()

        responses, checks = run(scenario())
        assert [r.status for r in responses] == ["completed"] * 4
        assert responses[0].attempt == 2
        assert all(checks.values()), checks

    def test_unencodable_requests_fail_alone(self):
        """An object array used to kill the worker that decoded it (and,
        retried, every worker after it); a 0-d array parameter raised out
        of the dispatch with the worker already bound, stranding it.  Both
        now fail before any worker is bound: the pool and the next
        request are untouched."""
        item = synthetic_gemv_workload(num_tenants=1, seed=6)(0)

        async def scenario():
            async with AsyncGateway(GatewayConfig(num_workers=2)) as gateway:
                alive = gateway.alive_workers
                bad_array = await gateway.submit(
                    item.tenant, item.source, item.params,
                    {**item.arrays, "x": np.array([1.5, "x"], dtype=object)},
                )
                bad_param = await gateway.submit(
                    item.tenant, item.source, {**item.params, "alpha": np.array(1.5)},
                    item.arrays,
                )
                good = await submit_item(gateway, item)
                after = gateway.alive_workers
                await gateway.drain()
                return alive, after, bad_array, bad_param, good, gateway

        alive, after, bad_array, bad_param, good, gateway = run(scenario())
        assert after == alive
        assert bad_array.status == bad_param.status == "failed"
        assert "holds objects" in bad_array.reason
        assert "not JSON serializable" in bad_param.reason
        assert bad_array.attempt == bad_param.attempt == 1
        assert good.status == "completed"
        assert not gateway.ledger.compensations
        assert [u.request_id for u in gateway.ledger.all_usages()] == [good.request_id]
        assert all(gateway.verify_partition().values())

    def test_total_pool_loss_fails_pending_requests(self):
        workload = synthetic_gemv_workload(num_tenants=1, seed=5)

        async def scenario():
            async with AsyncGateway(GatewayConfig(num_workers=1)) as gateway:
                future = submit_item(
                    gateway, workload(0), fault="die-mid-request"
                )
                response = await future
                await gateway.drain()
                return response, gateway.alive_workers

        response, alive = run(scenario())
        assert response.status == "failed"
        assert "no surviving gateway workers" in response.reason
        assert alive == []
