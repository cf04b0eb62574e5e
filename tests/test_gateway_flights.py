"""The gateway's flight state machine, driven in-process.

A ``hypothesis.stateful`` machine runs an :class:`AsyncGateway` whose
worker processes are in-process fakes and whose clock is a
``VirtualClock``: the fakes answer, dead-letter, corrupt, crash (before
or after their work, or after writing their answer) or hang only when a
rule says so, and time moves only when a rule advances it and runs one
monitor step (``_tick``).  No process is spawned and nothing sleeps, so
the chaos events run in tier-1.  After every step it checks:

* every future resolves exactly once, and exactly when its flight is
  terminal;
* a tenant is billed only for an answered flight, at most once per
  request;
* every attempt that ended without a bill has exactly one compensation;
* ``verify_partition`` is all true;
* the per-tenant pending count equals a recount of the ``queued`` flights;
* each live worker holds at most one flight;

and after the drain that no flight is left non-terminal and no worker
was spawned once the drain frames were out.  The deterministic tests at
the end pin the three ways the pool used to lose or strand a request.
"""

from __future__ import annotations

import asyncio
import json
from collections import Counter

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.gateway.server import AsyncGateway, GatewayConfig
from repro.gateway.wire import FAULT_EXIT_CODE, USAGE_FIELDS, GatewayRequest, GatewayResponse
from repro.gateway.worker import DEAD_LETTER_FRAME, DRAIN_FRAME, DRAINED_FRAME, RESPONSE_FRAME
from repro.hw.stats import AcceleratorRunStats
from repro.serve.clock import VirtualClock

SOURCE = "void f(int N, double x[N]) { }"
HANG_TIMEOUT_S = 1.0
TERMINAL = {"answered", "expired", "failed", "rejected", "shed"}
#: What can befall the pool instead of a busy worker answering.
MISHAPS = (
    "dead-letter", "corrupt-frame", "die-before-work", "die-after-work",
    "die-after-answer", "an-idle-worker-dies",
)


class FakeProcess:
    def __init__(self):
        self.exitcode = None

    def is_alive(self):
        return self.exitcode is None

    def kill(self):
        if self.exitcode is None:
            self.exitcode = -9

    def join(self, timeout=None):
        pass


class FakeWorker:
    """One worker process and its end of the pipe: it keeps the request
    frames it was sent and its own work record, and acts only when told."""

    def __init__(self, gateway, worker):
        self.gateway, self.worker = gateway, worker
        self.process = FakeProcess()
        self.spawned_in = gateway._phase
        self.inbox: list[GatewayRequest] = []
        #: (request id, attempt) of every request frame it was sent.
        self.attempts: list[tuple[int, int]] = []
        self.physical = AcceleratorRunStats()
        self.dies_at_drain = False

    # -- the gateway's side of the pipe ---------------------------------
    def send(self, frame: bytes) -> None:
        if frame[:1] != DRAIN_FRAME:
            request = GatewayRequest.from_frame(frame)
            self.inbox.append(request)
            self.attempts.append((request.request_id, request.attempt))
        elif self.dies_at_drain:
            self.process.exitcode = FAULT_EXIT_CODE
            # The monitor notices; a respawn would be due a while later.
            self.gateway._loop.call_soon(self._monitor_steps)
        else:
            # The pipe is in order: a request still held is answered first.
            while self.inbox:
                self.answer()
            self.deliver(DRAINED_FRAME + json.dumps(self.physical.scalars()).encode())
            self.process.exitcode = 0

    def close(self) -> None:
        pass

    def _on_readable(self) -> None:
        pass  # every frame is delivered as it is written

    # -- the worker's behaviour -----------------------------------------
    def deliver(self, frame: bytes) -> None:
        self.gateway._on_frame(self.worker, frame)

    def work(self, request: GatewayRequest) -> dict:
        """Serve *request* on the device: the work record grows by what
        the returned usage bills."""
        n = request.request_id
        self.physical.add(AcceleratorRunStats(
            latency_s=1e-6, energy_j=n * 1e-9, gemv_count=1,
            crossbar_cell_writes=n, crossbar_write_ops=1, macs=16 * n, dma_bytes=64,
        ))
        usage = dict.fromkeys(USAGE_FIELDS, 0)
        usage.update(
            service_s=1e-6, accelerator_energy_j=n * 1e-9, gemv_count=1,
            crossbar_cell_writes=n, crossbar_write_ops=1, macs=16 * n, dma_bytes=64,
        )
        return usage

    def response(self, request: GatewayRequest) -> bytes:
        return GatewayResponse(
            request.request_id, request.tenant, "completed", self.worker.worker_id,
            attempt=request.attempt, result=dict(request.arrays),
            usage=self.work(request), physical=self.physical.scalars(),
        ).to_frame(RESPONSE_FRAME)

    def answer(self) -> None:
        self.deliver(self.response(self.inbox.pop(0)))

    def _monitor_steps(self) -> None:
        self.gateway._tick(self.gateway.clock.now_s)
        self.gateway.clock.advance(10.0)
        self.gateway._tick(self.gateway.clock.now_s)


class FakePool(AsyncGateway):
    """A gateway whose workers are :class:`FakeWorker`s."""

    def __init__(self, config):
        super().__init__(config)
        self.clock = VirtualClock()
        self.fakes: dict[int, FakeWorker] = {}
        #: Every flight, by request id (recorded on its first edge).
        self.flights = {}

    def _launch(self, worker):
        fake = self.fakes[worker.worker_id] = FakeWorker(self, worker)
        return fake.process, fake

    def _move(self, flight, state):
        self.flights.setdefault(flight.request.request_id, flight)
        super()._move(flight, state)


def start_pool(loop, **config) -> FakePool:
    gateway = FakePool(GatewayConfig(hang_timeout_s=HANG_TIMEOUT_S, **config))
    loop.run_until_complete(gateway.start())
    gateway._timer.cancel()  # the test moves time, not the wall clock
    return gateway


def tick(gateway, advance_s: float = 0.0) -> None:
    gateway.clock.advance(advance_s)
    gateway._tick(gateway.clock.now_s)


def busy_fakes(gateway) -> list[FakeWorker]:
    return [f for f in gateway.fakes.values() if f.inbox and not f.worker.dead]


def submit(gateway, kind="ok", tenant="t0", deadline_in_s=None):
    params, arrays = {"N": 4}, {"x": np.arange(4.0)}
    if kind == "object-array":
        arrays["x"] = np.array([1.5, "x"], dtype=object)
    elif kind == "0-d-param":
        params["alpha"] = np.array(1.5)
    deadline_s = None if deadline_in_s is None else gateway.clock.now_s + deadline_in_s
    return gateway.submit_nowait(tenant, SOURCE, params, arrays, deadline_s=deadline_s)


def settle(gateway) -> None:
    """Let the pool finish its work: busy workers answer the flights
    their callers still wait for, and time runs past every hang timeout
    and respawn backoff.  A worker holding an expired flight keeps it."""
    for _ in range(100):
        if all(f.state in TERMINAL for f in gateway.flights.values()):
            return
        for fake in busy_fakes(gateway):
            if fake.worker.flight.state == "sent":
                fake.answer()
        tick(gateway, HANG_TIMEOUT_S / 2)
    raise AssertionError("the pool never settled")


class FlightMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.loop = asyncio.new_event_loop()
        self.gateway = None
        self.drained = False

    @initialize(
        num_workers=st.integers(1, 2),
        hot_spares=st.integers(0, 1),
        max_respawns=st.integers(0, 3),
        max_attempts=st.integers(1, 3),
    )
    def start(self, num_workers, hot_spares, max_respawns, max_attempts):
        self.gateway = start_pool(
            self.loop, num_workers=num_workers, hot_spares=hot_spares,
            max_respawns=max_respawns, max_attempts=max_attempts, max_pending=6,
            respawn_backoff_base_s=0.2, respawn_backoff_max_s=0.4,
        )

    def teardown(self):
        try:
            if self.gateway is not None and not self.drained:
                self.drain(dies_at_drain=False)
        finally:
            self.loop.close()

    # -- events -----------------------------------------------------------
    @precondition(lambda self: not self.drained)
    @rule(
        kind=st.sampled_from(["ok", "ok", "ok", "object-array", "0-d-param"]),
        tenant=st.sampled_from(["t0", "t1"]),
        deadline_in_s=st.sampled_from([None, 0.2, 0.2, 1.0]),
    )
    def submit(self, kind, tenant, deadline_in_s):
        submit(self.gateway, kind, tenant, deadline_in_s)

    @precondition(lambda self: not self.drained and busy_fakes(self.gateway))
    @rule(pick=st.integers(0, 3))
    def busy_worker_answers(self, pick):
        fakes = busy_fakes(self.gateway)
        fakes[pick % len(fakes)].answer()

    @precondition(lambda self: not self.drained and busy_fakes(self.gateway))
    @rule(pick=st.integers(0, 3), outcome=st.sampled_from(MISHAPS))
    def something_goes_wrong(self, pick, outcome):
        fakes = busy_fakes(self.gateway)
        fake = fakes[pick % len(fakes)]
        if outcome == "an-idle-worker-dies":
            idle = [f for f in self.gateway.fakes.values() if not f.inbox and not f.worker.dead]
            if idle:
                idle[pick % len(idle)].process.exitcode = FAULT_EXIT_CODE
                tick(self.gateway)
        elif outcome in ("dead-letter", "corrupt-frame"):
            flight, request = fake.worker.flight, fake.inbox.pop(0)
            if outcome == "dead-letter":  # the worker could not read it: no work
                fake.deliver(DEAD_LETTER_FRAME + b"request: corrupt JSON frame (seeded)")
            else:
                frame = fake.response(request)
                fake.deliver(frame[: len(frame) // 2])
            # No retry: the request fails alone (unless it had expired).
            assert flight.state in ("failed", "expired")
        elif outcome == "die-after-answer":
            # The answer is in the pipe, but the monitor sees the death first.
            frame = fake.response(fake.inbox.pop(0))
            fake.process.exitcode = FAULT_EXIT_CODE
            tick(self.gateway)
            fake.deliver(frame)
        else:
            if outcome == "die-after-work":
                fake.work(fake.inbox[0])
            fake.process.exitcode = FAULT_EXIT_CODE
            tick(self.gateway)

    @rule(advance_s=st.sampled_from([0.05, 0.3, 0.3, 1.5]))
    def time_passes(self, advance_s):
        """Deadlines expire (queued: shed; sent: expired), the watchdog
        kills silent workers (a hang), and respawns come due; after the
        drain, nothing moves."""
        tick(self.gateway, advance_s)

    @precondition(lambda self: not self.drained and len(self.gateway.flights) >= 3)
    @rule(dies_at_drain=st.booleans())
    def drain(self, dies_at_drain):
        gateway = self.gateway
        settle(gateway)
        if dies_at_drain:
            live = [f for f in gateway.fakes.values() if not f.worker.dead]
            if live:
                live[0].dies_at_drain = True
        self.loop.run_until_complete(gateway.drain())
        self.drained = True
        assert gateway._phase == "closed"
        assert all(f.state in TERMINAL for f in gateway.flights.values())
        assert not any(w.flight for w in gateway._workers)
        assert all(f.spawned_in in ("new", "open", "draining") for f in gateway.fakes.values())
        self.flights_hold_the_invariants()

    # -- invariants -------------------------------------------------------
    @invariant()
    def flights_hold_the_invariants(self):
        gateway = self.gateway
        if gateway is None:
            return
        flights = gateway.flights.values()
        for flight in flights:
            assert flight.future.done() == (flight.state in TERMINAL), flight.state

        billed = Counter(u.request_id for u in gateway.ledger.all_usages())
        assert all(count == 1 for count in billed.values())
        assert set(billed) == {
            rid for rid, f in gateway.flights.items() if f.state == "answered"
        }

        held = Counter(
            r.request_id for f in gateway.fakes.values() if not f.worker.dead for r in f.inbox
        )
        ended = Counter(rid for f in gateway.fakes.values() for rid, _ in f.attempts)
        ended.subtract(held)
        compensated = Counter(c.request_id for c in gateway.ledger.compensations)
        for rid in set(ended) | set(compensated):
            assert compensated[rid] == ended[rid] - billed[rid], rid

        assert all(gateway.verify_partition().values())

        queued = [f for f in flights if f.state == "queued"]
        assert sorted(map(id, queued)) == sorted(map(id, gateway._pending))
        assert +gateway._tenant_pending == Counter(f.request.tenant for f in queued)

        now_s = gateway.clock.now_s
        assert not any(
            f.state in ("queued", "sent") and f.deadline_passed(now_s) for f in flights
        ), "a monitor step left a flight past its deadline"

        for worker in gateway._workers:
            if not worker.dead and not worker.spare:
                # Either waiting for work or holding one flight: never stranded.
                assert (worker in gateway._idle) != (worker.flight is not None)
        bound = [w.flight for w in gateway._workers if w.flight is not None]
        assert len(set(map(id, bound))) == len(bound)
        assert all(f.state in ("sent", "expired") for f in bound)
        assert sum(f.state == "sent" for f in flights) == sum(f.state == "sent" for f in bound)
        for fake in gateway.fakes.values():
            if not fake.worker.dead:
                assert len(fake.inbox) <= 1
                assert [r.request_id for r in fake.inbox] == (
                    [fake.worker.flight.request.request_id] if fake.worker.flight else []
                )


FlightMachine.TestCase.settings = settings(
    max_examples=80,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestFlightMachine = FlightMachine.TestCase


# ----------------------------------------------------------------------
# Three ways the pool lost or stranded a request, pinned
# ----------------------------------------------------------------------
def test_an_unencodable_request_fails_alone_and_leaves_its_worker_idle():
    loop = asyncio.new_event_loop()
    try:
        gateway = start_pool(loop, num_workers=1)
        bad = submit(gateway, "0-d-param")
        good = submit(gateway)
        assert bad.result().status == "failed"
        assert "not JSON serializable" in bad.result().reason
        (fake,) = gateway.fakes.values()
        assert [r.request_id for r in fake.inbox] == [2]
        fake.answer()
        assert good.result().status == "completed"
        loop.run_until_complete(asyncio.wait_for(gateway.drain(), timeout=5.0))
        assert not gateway.ledger.compensations
    finally:
        loop.close()


def test_a_dead_letter_fails_its_flight_and_the_next_one_is_answered():
    loop = asyncio.new_event_loop()
    try:
        gateway = start_pool(loop, num_workers=1)
        first, second = submit(gateway), submit(gateway)
        (fake,) = gateway.fakes.values()
        fake.inbox.pop(0)
        fake.deliver(DEAD_LETTER_FRAME + b"request: corrupt JSON frame (seeded)")
        assert first.result().status == "failed"
        assert first.result().attempt == 1
        assert "corrupt JSON frame" in first.result().reason
        assert [r.request_id for r in fake.inbox] == [2]  # one flight at a time
        fake.answer()
        assert second.result().status == "completed"
        assert [c.op for c in gateway.ledger.compensations] == ["dead-letter"]
        assert [u.request_id for u in gateway.ledger.all_usages()] == [2]
        loop.run_until_complete(gateway.drain())
        assert gateway.dead_letters == ["request: corrupt JSON frame (seeded)"]
    finally:
        loop.close()


def test_no_worker_spawns_after_the_drain_frames_go_out():
    """A respawn due once the drain frames are out, and a death after
    them, must not bring in a worker that never gets a drain frame (the
    drain used to wait 30 s for it, then kill it as a hang)."""
    loop = asyncio.new_event_loop()
    try:
        gateway = start_pool(loop, num_workers=2, hot_spares=2, max_respawns=4)
        gateway.fakes[1].process.exitcode = FAULT_EXIT_CODE
        tick(gateway)  # spare 2 takes slot 1; a respawn is due in 50 ms
        assert gateway.metrics.spares_promoted == 1
        gateway.fakes[0].dies_at_drain = True  # noticed, then 10 s pass
        loop.run_until_complete(asyncio.wait_for(gateway.drain(), timeout=5.0))
        assert sorted(gateway.fakes) == [0, 1, 2, 3]
        assert gateway.metrics.respawns == 0
        assert gateway.metrics.spares_promoted == 1
        assert gateway.metrics.faults_by_op == {"worker-crash": 2}
        assert gateway.snapshot()["fleet"]["drained"] == 2
    finally:
        loop.close()
