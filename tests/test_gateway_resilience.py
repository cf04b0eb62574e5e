"""Tests for the gateway's resilience layer (PR 10 tentpole).

Deadlines, the hang watchdog, self-healing respawn/quarantine/hot-spare
recovery, wall-clock per-tenant admission, the defensive collector, and
the monitor/retry late-frame race.  These spawn real worker processes
and measure real time, so counts and timeouts are kept small.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.gateway import AsyncGateway, GatewayConfig
from repro.gateway.loadgen import synthetic_gemv_workload
from repro.gateway.wire import WireFormatError
from repro.serve.admission import TenantQuota


def run(coroutine):
    return asyncio.run(coroutine)


def submit_item(gateway, item, fault=None, deadline_s=None):
    return gateway.submit_nowait(
        item.tenant,
        item.source,
        item.params,
        item.arrays,
        fault=fault,
        deadline_s=deadline_s,
    )


def busy_workers(gateway):
    """The core's records of the workers a flight is bound to."""
    return [worker for worker in gateway.core.workers if worker.flight is not None]


class LinkedGateway(AsyncGateway):
    """A gateway that keeps every worker's process and pipe end, taken
    from the driver's launch seam."""

    def __init__(self, config=None):
        super().__init__(config)
        self.links = {}

    def launch(self, worker_id):
        self.links[worker_id] = super().launch(worker_id)
        return self.links[worker_id]


async def wait_for(predicate, timeout_s=5.0, interval_s=0.02):
    """Poll *predicate* on the loop until true or the timeout expires."""
    waited = 0.0
    while not predicate():
        if waited >= timeout_s:
            raise AssertionError("condition not reached within timeout")
        await asyncio.sleep(interval_s)
        waited += interval_s


class TestDeadlines:
    def test_deadline_already_passed_is_shed(self):
        workload = synthetic_gemv_workload(num_tenants=1, seed=11)

        async def scenario():
            async with AsyncGateway(GatewayConfig(num_workers=1)) as gateway:
                response = await submit_item(
                    gateway, workload(0), deadline_s=gateway.clock.now_s - 1.0
                )
                await gateway.drain()
                return response, gateway.metrics, gateway.ledger

        response, metrics, ledger = run(scenario())
        assert response.status == "deadline-exceeded"
        assert "shed" in response.reason
        assert metrics.deadline_shed == 1
        # Never dispatched: no usage, no compensation, nothing billed.
        assert not ledger.usage_tallies()
        assert not ledger.compensation_tallies()

    def test_deadline_expires_in_flight_and_work_is_compensated(self):
        """A slow worker blows through the request's deadline: the caller
        gets deadline-exceeded promptly, and the worker's late result is
        absorbed as a measured compensation — real physical work, never
        billed to the tenant."""
        workload = synthetic_gemv_workload(num_tenants=1, seed=12)

        async def scenario():
            async with AsyncGateway(GatewayConfig(num_workers=1)) as gateway:
                with gateway.ledger.observe() as log:
                    response = await submit_item(
                        gateway,
                        workload(0),
                        fault="slow:0.5",
                        deadline_s=gateway.clock.now_s + 0.15,
                    )
                    resolved_s = gateway.clock.now_s
                    await gateway.drain()
                return response, resolved_s, gateway, log

        response, resolved_s, gateway, log = run(scenario())
        assert response.status == "deadline-exceeded"
        assert "expired in flight" in response.reason
        # Resolved at expiry, not after the 0.5 s stall finished.
        assert resolved_s < 0.45
        assert gateway.metrics.deadline_expired == 1
        # The tenant was never billed; the measured work landed as a
        # deadline-exceeded compensation and the partition stays exact.
        assert not log.usages
        comps = [c for c in log.compensations if c.op == "deadline-exceeded"]
        assert len(comps) == 1
        assert comps[0].accelerator_energy_j > 0.0
        assert comps[0].batch_id > 0
        assert all(gateway.verify_partition().values())


class TestHangWatchdog:
    def test_wedged_worker_is_killed_and_request_retried(self):
        workload = synthetic_gemv_workload(num_tenants=1, seed=13)

        async def scenario():
            config = GatewayConfig(num_workers=2, hang_timeout_s=0.3)
            async with AsyncGateway(config) as gateway:
                with gateway.ledger.observe() as log:
                    response = await submit_item(gateway, workload(0), fault="hang")
                    await gateway.drain()
                return response, gateway, log

        response, gateway, log = run(scenario())
        assert response.status == "completed"
        assert response.attempt == 2
        assert gateway.metrics.hangs_detected == 1
        comps = [c for c in log.compensations if c.op == "worker-hang"]
        assert len(comps) == 1
        assert comps[0].accelerator_energy_j == 0.0
        assert "hang_timeout_s" in comps[0].reason
        # Exactly-once billing despite the kill + retry.
        usages = [u for u in log.usages if u.request_id == response.request_id]
        assert len(usages) == 1
        assert all(gateway.verify_partition().values())

    def test_watchdog_off_by_default(self):
        assert GatewayConfig().hang_timeout_s is None


class TestSelfHealing:
    def test_dead_worker_respawns_and_pool_recovers(self):
        """With a respawn budget, losing the only worker is transient:
        the killed request retries on the respawned incarnation."""
        workload = synthetic_gemv_workload(num_tenants=1, seed=14)

        async def scenario():
            config = GatewayConfig(
                num_workers=1,
                max_respawns=2,
                respawn_backoff_base_s=0.05,
            )
            async with AsyncGateway(config) as gateway:
                first = await submit_item(
                    gateway, workload(0), fault="die-mid-request"
                )
                second = await submit_item(gateway, workload(1))
                await gateway.drain()
                return first, second, gateway

        first, second, gateway = run(scenario())
        assert first.status == "completed"
        assert first.attempt == 2
        assert second.status == "completed"
        assert gateway.metrics.respawns == 1
        assert len(gateway.alive_workers) == 1
        # Both incarnations reconcile in the partition.
        assert len(gateway.core.workers) == 2
        assert all(gateway.verify_partition().values())

    def test_respawn_backoff_is_capped_exponential(self):
        config = GatewayConfig(
            max_respawns=10,
            respawn_backoff_base_s=0.1,
            respawn_backoff_max_s=0.4,
        )
        backoffs = [
            min(
                config.respawn_backoff_base_s * 2 ** (n - 1),
                config.respawn_backoff_max_s,
            )
            for n in range(1, 6)
        ]
        assert backoffs == [0.1, 0.2, 0.4, 0.4, 0.4]

    def test_crash_looping_slot_is_quarantined(self):
        workload = synthetic_gemv_workload(num_tenants=1, seed=15)

        async def scenario():
            config = GatewayConfig(
                num_workers=1,
                max_respawns=1,
                respawn_backoff_base_s=0.05,
            )
            async with AsyncGateway(config) as gateway:
                first = await submit_item(
                    gateway, workload(0), fault="die-mid-request"
                )
                # The respawned worker dies too: budget exhausted, the
                # slot quarantines, and with no recovery path left the
                # retry fails out.
                second = await submit_item(
                    gateway, workload(1), fault="die-mid-request"
                )
                snapshot = gateway.snapshot()
                await gateway.drain()
                return first, second, snapshot, gateway

        first, second, snapshot, gateway = run(scenario())
        assert first.status == "completed"
        assert second.status == "failed"
        assert "no surviving gateway workers" in second.reason
        assert gateway.metrics.slots_quarantined == 1
        assert snapshot["gateway"]["quarantined_slots"] == 1
        assert all(gateway.verify_partition().values())

    def test_hot_spare_promotion_is_immediate(self):
        workload = synthetic_gemv_workload(num_tenants=1, seed=16)

        async def scenario():
            config = GatewayConfig(num_workers=1, hot_spares=1)
            async with AsyncGateway(config) as gateway:
                spares_before = gateway.snapshot()["gateway"]["hot_spares"]
                response = await submit_item(
                    gateway, workload(0), fault="die-mid-request"
                )
                await gateway.drain()
                return spares_before, response, gateway

        spares_before, response, gateway = run(scenario())
        assert spares_before == 1
        # No respawn budget, yet the pool recovered: the spare took over.
        assert response.status == "completed"
        assert response.attempt == 2
        assert gateway.metrics.spares_promoted == 1
        assert gateway.metrics.respawns == 0
        assert len(gateway.alive_workers) == 1
        assert all(gateway.verify_partition().values())


class TestWallClockAdmission:
    def test_per_tenant_queue_depth_shedding(self):
        workload = synthetic_gemv_workload(num_tenants=1, seed=17)

        async def scenario():
            config = GatewayConfig(
                num_workers=1,
                default_quota=TenantQuota(max_queue_depth=1),
            )
            async with AsyncGateway(config) as gateway:
                # Burst without yielding: 1 dispatches, 1 queues, the
                # rest shed against the tenant's depth quota.
                futures = [
                    submit_item(gateway, workload(index)) for index in range(5)
                ]
                responses = await asyncio.gather(*futures)
                await gateway.drain()
                return responses, gateway.ledger

        responses, ledger = run(scenario())
        statuses = [r.status for r in responses]
        assert statuses.count("completed") == 2
        assert statuses.count("rejected") == 3
        rejected = next(r for r in responses if r.status == "rejected")
        assert "tenant queue full" in rejected.reason
        assert ledger.account("tenant-0").rejected == 3

    def test_tenant_depth_count_follows_every_queue_edit(self):
        """The per-tenant depth the quota reads is a running count; it
        must equal a recount of the queue after a submit, a deadline
        purge, a retry put back at the head and a dispatch, and a leaked
        count would shed (or admit) at the wrong depth."""
        from collections import Counter

        workload = synthetic_gemv_workload(num_tenants=2, seed=20)

        def recount(gateway):
            return Counter(f.request.tenant for f in gateway.core.pending)

        async def scenario():
            config = GatewayConfig(
                num_workers=1,
                max_respawns=1,
                respawn_backoff_base_s=0.3,
                default_quota=TenantQuota(max_queue_depth=2),
            )
            async with AsyncGateway(config) as gateway:
                # In flight (not queued); its worker will die, so it
                # comes back through the retry path while the slot waits
                # out its respawn backoff.
                futures = [submit_item(gateway, workload(0), fault="die-mid-request")]
                futures.append(submit_item(
                    gateway, workload(0), deadline_s=gateway.clock.now_s + 0.1
                ))
                futures.append(submit_item(gateway, workload(0)))
                futures.append(submit_item(gateway, workload(1)))
                assert +gateway.core.tenant_pending == recount(gateway) == Counter(
                    {"tenant-0": 2, "tenant-1": 1}
                )
                full = await submit_item(gateway, workload(0))
                # The deadline purge frees one tenant-0 place, the retry
                # takes it (at the head of the queue): full again.
                await wait_for(lambda: gateway.metrics.deadline_shed == 1)
                await wait_for(lambda: gateway.metrics.retries == 1)
                assert +gateway.core.tenant_pending == recount(gateway) == Counter(
                    {"tenant-0": 2, "tenant-1": 1}
                )
                full_again = await submit_item(gateway, workload(0))
                responses = await asyncio.gather(*futures)
                assert not +gateway.core.tenant_pending and not gateway.core.pending
                await gateway.drain()
                return full, full_again, responses

        full, full_again, responses = run(scenario())
        assert full.status == full_again.status == "rejected"
        assert "tenant queue full (2/2" in full.reason
        assert "tenant queue full (2/2" in full_again.reason
        assert [r.status for r in responses] == [
            "completed", "deadline-exceeded", "completed", "completed"
        ]
        assert responses[0].attempt == 2

    def test_energy_quota_exhaustion(self):
        workload = synthetic_gemv_workload(num_tenants=1, seed=18)

        async def scenario():
            gateway = AsyncGateway(GatewayConfig(num_workers=1))
            async with gateway:
                gateway.set_quota(
                    "tenant-0", TenantQuota(energy_budget_j=1e-30)
                )
                first = await submit_item(gateway, workload(0))
                second = await submit_item(gateway, workload(1))
                await gateway.drain()
                return first, second

        first, second = run(scenario())
        # The first request is admitted (nothing spent yet) and bills
        # energy past the tiny budget; the second is shed.
        assert first.status == "completed"
        assert second.status == "rejected"
        assert "energy quota exhausted" in second.reason

    def test_unknown_fault_marker_rejected_at_submit(self):
        workload = synthetic_gemv_workload(num_tenants=1, seed=19)

        async def scenario():
            async with AsyncGateway(GatewayConfig(num_workers=1)) as gateway:
                with pytest.raises(WireFormatError, match="unknown fault"):
                    submit_item(gateway, workload(0), fault="explode")
                await gateway.drain()

        run(scenario())


class TestDefensiveCollector:
    def test_corrupt_frame_fails_only_that_request(self):
        """Saboteur worker: an undecodable response frame fails its own
        request with a typed reason, kills the byzantine worker, and
        leaves the collector, the other requests and the accounting
        partition intact."""
        workload = synthetic_gemv_workload(num_tenants=2, seed=20)

        async def scenario():
            config = GatewayConfig(num_workers=2)
            async with AsyncGateway(config) as gateway:
                with gateway.ledger.observe() as log:
                    futures = [
                        submit_item(
                            gateway,
                            workload(index),
                            fault="corrupt-frame" if index == 1 else None,
                        )
                        for index in range(6)
                    ]
                    responses = await asyncio.gather(*futures)
                    await gateway.drain()
                return responses, gateway, log

        responses, gateway, log = run(scenario())
        statuses = [r.status for r in responses]
        assert statuses[1] == "failed"
        assert "corrupt response frame" in responses[1].reason
        assert statuses.count("completed") == 5
        assert gateway.metrics.corrupt_frames == 1
        comps = [c for c in log.compensations if c.op == "corrupt-frame"]
        assert len(comps) == 1
        # The saboteur was killed (its unaccountable work died with it)
        # and the partition reconciles on its last good snapshot.
        assert len(gateway.alive_workers) == 1
        assert not [u for u in log.usages if u.request_id == 2]
        assert all(gateway.verify_partition().values())


class TestLateFrameRace:
    def test_late_frame_from_dead_worker_is_ignored(self):
        """The monitor/retry race: a worker is declared dead while its
        response frame is already in its pipe.  The late frame must be
        ignored — absorbing its usage or physical snapshot would bill
        twice and corrupt the partition."""
        workload = synthetic_gemv_workload(num_tenants=1, seed=21)

        async def scenario():
            async with LinkedGateway(GatewayConfig(num_workers=2)) as gateway:
                with gateway.ledger.observe() as log:
                    future = submit_item(gateway, workload(0), fault="slow:0.3")
                    await wait_for(lambda: busy_workers(gateway))
                    (worker,) = busy_workers(gateway)
                    worker_id = worker.worker_id
                    process = gateway.links[worker_id][0]
                    # The monitor finds the worker dead while it is still
                    # serving: its response frame will land *after* the death
                    # handling — exactly the race the monitor can lose.  The
                    # process is spared the kill that goes with a real loss.
                    process.is_alive = lambda: False
                    process.kill = lambda: None
                    await wait_for(lambda: worker.dead)
                    del process.is_alive, process.kill
                    response = await future
                    await wait_for(
                        lambda: gateway.metrics.late_frames_ignored == 1
                    )
                    # The zombie process is still alive (the death was a
                    # simulation); reap it so drain doesn't wait on it.
                    process.kill()
                    await gateway.drain()
                return worker_id, response, gateway, log

        worker_id, response, gateway, log = run(scenario())
        assert response.status == "completed"
        assert response.attempt == 2
        assert response.worker_id != worker_id
        assert gateway.metrics.late_frames_ignored == 1
        # Billed exactly once — by the retry, never by the late frame.
        usages = [u for u in log.usages if u.request_id == response.request_id]
        assert len(usages) == 1
        assert usages[0].device_id != worker_id
        assert all(gateway.verify_partition().values())


class TestDrainEscalation:
    def test_drain_kills_worker_that_never_acknowledges(self, monkeypatch):
        """A worker wedged at drain time: the drain wait times
        out, the worker is killed, and close() returns instead of
        hanging — no zombie processes survive."""
        import repro.gateway.server as server_mod
        from repro.gateway.wire import GatewayRequest
        from repro.gateway.worker import REQUEST_FRAME

        monkeypatch.setattr(server_mod, "_DRAIN_TIMEOUT_S", 0.5)
        workload = synthetic_gemv_workload(num_tenants=1, seed=22)

        async def scenario():
            async with LinkedGateway(GatewayConfig(num_workers=1)) as gateway:
                response = await submit_item(gateway, workload(0))
                # Wedge the worker behind the gateway's back: a raw hang
                # frame with no flight registered, so the gateway believes
                # the worker is idle and drain must discover the wedge.
                item = workload(0)
                rogue = GatewayRequest(
                    request_id=999,
                    tenant=item.tenant,
                    source=item.source,
                    params=dict(item.params),
                    arrays=dict(item.arrays),
                    fault="hang",
                )
                process, pipe = gateway.links[0]
                pipe.send(rogue.to_frame(REQUEST_FRAME))
                await asyncio.sleep(0.2)
                await gateway.drain()
                return response, gateway.core.workers[0], process

        response, worker, process = run(scenario())
        assert response.status == "completed"
        assert worker.dead
        assert not process.is_alive()


# A host-only kernel whose one operand (and so its request frame and its
# response frame) is far larger than a socket buffer.
SCALE_SOURCE = """
void scale(int P, double big[P]) {
  for (int i = 0; i < P; i++)
    big[i] = big[i] * 2.0;
}
"""
BIG_OPERAND = np.arange(1 << 20, dtype=np.float64)  # 8 MiB


def submit_big(gateway):
    return gateway.submit_nowait(
        "bulk", SCALE_SOURCE, {"P": BIG_OPERAND.size}, {"big": BIG_OPERAND}
    )


class TestPipeTransport:
    """The hazards of one non-blocking duplex pipe per worker: frames
    larger than the socket buffer, frames that stop half-way, and kills
    that land in the middle of a frame."""

    @pytest.mark.parametrize("num_workers", [1, 2])
    def test_frames_larger_than_the_socket_buffer_round_trip(self, num_workers):
        small_item = synthetic_gemv_workload(num_tenants=1, seed=31)(0)

        async def scenario():
            config = GatewayConfig(num_workers=num_workers)
            async with AsyncGateway(config) as gateway:
                big_future = submit_big(gateway)
                small = await submit_item(gateway, small_item)
                big_pending = not big_future.done()
                big = await big_future
                await gateway.drain()
                return big, small, big_pending, gateway

        big, small, big_pending, gateway = run(scenario())
        assert big.status == "completed", big.reason
        assert np.array_equal(big.result["big"], BIG_OPERAND * 2.0)
        assert small.status == "completed", small.reason
        if num_workers == 2:
            # The other worker answered while the big frames were still
            # crossing their own pipe.
            assert small.worker_id != big.worker_id
            assert big_pending
        assert all(gateway.verify_partition().values())

    def test_half_written_frame_is_a_hang_not_a_stuck_loop(
        self, monkeypatch, tmp_path
    ):
        """A worker writes half a response frame and wedges.  The bytes
        that did arrive wait in that worker's buffer; the loop keeps
        serving the other worker, and the watchdog kills the silent one
        and retries its request."""
        import multiprocessing
        import os
        import time

        import repro.gateway.worker as worker_mod

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("the worker-side send is patched through fork")
        claim = tmp_path / "wedged"
        send_frame = worker_mod._send_frame

        def send_half_once(pipe, frame):
            if frame[:1] == worker_mod.RESPONSE_FRAME:
                try:
                    os.close(os.open(claim, os.O_CREAT | os.O_EXCL))
                except FileExistsError:
                    pass  # some worker already wedged: behave
                else:
                    header = worker_mod.FRAME_HEADER.pack(len(frame))
                    os.write(pipe.fileno(), header + frame[: len(frame) // 2])
                    while True:
                        time.sleep(3600.0)
            send_frame(pipe, frame)

        # Patched before start(): forked workers inherit the module.
        monkeypatch.setattr(worker_mod, "_send_frame", send_half_once)
        workload = synthetic_gemv_workload(num_tenants=2, seed=32)

        async def scenario():
            config = GatewayConfig(
                num_workers=2, hang_timeout_s=1.0, start_method="fork"
            )
            async with LinkedGateway(config) as gateway:
                wedged_future = submit_item(gateway, workload(0))
                await wait_for(
                    lambda: any(pipe._inbox for _, pipe in gateway.links.values())
                )
                (wedged,) = [
                    gateway.core.workers[worker_id]
                    for worker_id, (_, pipe) in gateway.links.items() if pipe._inbox
                ]
                process = gateway.links[wedged.worker_id][0]
                # Half a frame is sitting in the buffer; everyone else is
                # served as if nothing happened, well before the watchdog
                # fires.
                others = [
                    await submit_item(gateway, workload(1)) for _ in range(5)
                ]
                hangs_meanwhile = gateway.metrics.hangs_detected
                retried = await wedged_future
                await gateway.drain()
                return wedged, process, others, hangs_meanwhile, retried, gateway

        wedged, process, others, hangs_meanwhile, retried, gateway = run(scenario())
        assert [r.status for r in others] == ["completed"] * 5
        assert all(r.worker_id != wedged.worker_id for r in others)
        assert hangs_meanwhile == 0
        assert retried.status == "completed"
        assert retried.attempt == 2
        assert retried.worker_id != wedged.worker_id
        assert gateway.metrics.hangs_detected == 1
        assert wedged.dead and not process.is_alive()
        assert all(gateway.verify_partition().values())

    def test_kill_in_the_middle_of_a_frame_strands_only_its_own_request(self):
        """SIGKILL a worker while it is blocked writing a response larger
        than the socket buffer.  With a response channel shared between
        workers this left the channel's write lock held forever and
        wedged every survivor (hence the old kill fence); with one pipe
        per worker the survivor's next response arrives, the cut-off
        request is retried, and the partition holds."""
        import time

        small_item = synthetic_gemv_workload(num_tenants=1, seed=33)(0)

        async def scenario():
            async with LinkedGateway(GatewayConfig(num_workers=2)) as gateway:
                big_future = submit_big(gateway)
                (victim,) = busy_workers(gateway)
                process, pipe = gateway.links[victim.worker_id]
                give_up = time.monotonic() + 30.0
                while not pipe._inbox:
                    # The first bytes of the response are in: the rest
                    # (megabytes) cannot fit in the socket buffer, so the
                    # worker is blocked in its write right now.
                    assert time.monotonic() < give_up
                    await asyncio.sleep(0)
                assert not big_future.done()
                process.kill()
                small = await submit_item(gateway, small_item)
                big = await big_future
                await gateway.drain()
                return victim, small, big, gateway

        victim, small, big, gateway = run(scenario())
        assert small.status == "completed", small.reason
        assert small.worker_id != victim.worker_id
        assert big.status == "completed", big.reason
        assert big.attempt == 2
        assert big.worker_id != victim.worker_id
        assert np.array_equal(big.result["big"], BIG_OPERAND * 2.0)
        assert victim.dead
        assert gateway.metrics.faults_by_op == {"worker-crash": 1}
        assert all(gateway.verify_partition().values())

    def test_spawned_workers_serve_and_drain(self):
        """The pipe's far end reaches a worker started with ``spawn``
        (nothing inherited but what is passed) as well as a forked one."""
        workload = synthetic_gemv_workload(num_tenants=2, seed=34)

        async def scenario():
            config = GatewayConfig(num_workers=1, start_method="spawn")
            async with AsyncGateway(config) as gateway:
                responses = [
                    await submit_item(gateway, workload(i)) for i in range(3)
                ]
                snapshot = await gateway.drain()
                return responses, snapshot, gateway

        responses, snapshot, gateway = run(scenario())
        assert [r.status for r in responses] == ["completed"] * 3
        assert snapshot["requests"]["completed"] == 3
        assert snapshot["fleet"]["drained"] == 1
        assert all(gateway.verify_partition().values())
