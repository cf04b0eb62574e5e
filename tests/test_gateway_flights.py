"""The gateway's flight core, driven directly.

A ``hypothesis.stateful`` machine runs a :class:`FlightCore` — every
decision of the pool, with no event loop, process, pipe or clock —
against in-process fake workers.  The test plays the driver: it carries
out the actions the core returns, polls the fakes' liveness, and feeds
the core its inputs at times it chooses.  The fakes answer,
dead-letter, corrupt, crash (before or after their work, or after
writing their answer) or hang only when a rule says so, and time moves
only when a rule advances it and runs one monitor step.  Nothing is
spawned and nothing sleeps, so the chaos events run in tier-1.  After
every step it checks:

* every request is resolved exactly once, and exactly when its flight
  is terminal;
* a tenant is billed only for an answered flight, at most once per
  request;
* every attempt that ended without a bill has exactly one compensation;
* ``verify_partition`` is all true;
* the per-tenant pending count equals a recount of the ``queued`` flights;
* each live worker holds at most one flight;

and after each drain that no flight is left non-terminal, no worker
was spawned once the drain frames were out, and the closed pool admits
nothing and does not move as time passes (the machine then goes on with
a fresh pool).  The deterministic tests at
the end pin, as input sequences, the ways the pool used to lose, strand
or misorder a request.
"""

from __future__ import annotations

import ast
import json
from collections import Counter
from contextlib import ExitStack
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

import repro.gateway.core as core_module
from repro.gateway.core import FlightCore, GatewayConfig, GatewayError, Kill, Send, Spawn
from repro.gateway.wire import FAULT_EXIT_CODE, USAGE_FIELDS, GatewayRequest, GatewayResponse
from repro.gateway.worker import DEAD_LETTER_FRAME, DRAIN_FRAME, DRAINED_FRAME, RESPONSE_FRAME
from repro.hw.stats import AcceleratorRunStats

SOURCE = "void f(int N, double x[N]) { }"
HANG_TIMEOUT_S = 1.0
TERMINAL = {"answered", "expired", "failed", "rejected", "shed"}
#: What can befall the pool instead of a busy worker answering.
MISHAPS = (
    "dead-letter", "corrupt-frame", "die-before-work", "die-after-work",
    "die-after-answer", "an-idle-worker-dies",
)


class FakeWorker:
    """One worker process and its end of the pipe: it keeps the request
    frames it was sent and its own work record, and acts only when told."""

    def __init__(self, pool, worker_id):
        self.pool, self.worker_id = pool, worker_id
        self.exitcode = None
        self.spawned_in = pool.core.phase
        self.inbox: list[GatewayRequest] = []
        #: (request id, attempt) of every request frame it was sent.
        self.attempts: list[tuple[int, int]] = []
        self.physical = AcceleratorRunStats()
        self.dies_at_drain = False

    @property
    def worker(self):
        """The core's record of this worker."""
        return self.pool.core.workers[self.worker_id]

    # -- the gateway's side of the pipe ---------------------------------
    def receive(self, frame: bytes) -> None:
        if frame[:1] != DRAIN_FRAME:
            request = GatewayRequest.from_frame(frame)
            self.inbox.append(request)
            self.attempts.append((request.request_id, request.attempt))
        elif self.dies_at_drain:
            self.exitcode = FAULT_EXIT_CODE
        else:
            # The pipe is in order: a request still held is answered first.
            while self.inbox:
                self.answer()
            self.deliver(DRAINED_FRAME + json.dumps(self.physical.scalars()).encode())
            self.exitcode = 0

    def kill(self) -> None:
        if self.exitcode is None:
            self.exitcode = -9

    # -- the worker's behaviour -----------------------------------------
    def deliver(self, frame: bytes) -> None:
        self.pool.act(self.pool.core.frame(self.worker_id, memoryview(frame), self.pool.now_s))

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
            request.request_id, request.tenant, "completed", self.worker_id,
            attempt=request.attempt, result=dict(request.arrays),
            usage=self.work(request), physical=self.physical.scalars(),
        ).to_frame(RESPONSE_FRAME)

    def answer(self) -> None:
        self.deliver(self.response(self.inbox.pop(0)))


class Pool:
    """The test's driver of one :class:`FlightCore`: it carries out the
    core's actions on :class:`FakeWorker`s and moves time by hand."""

    def __init__(self, **config):
        self.core = FlightCore(GatewayConfig(hang_timeout_s=HANG_TIMEOUT_S, **config))
        #: Every bill and compensation the core commits, for the checks
        #: (observed for as long as the pool lives).
        self._observing = ExitStack()
        self.log = self._observing.enter_context(self.core.ledger.observe())
        self.now_s = 0.0
        self.fakes: dict[int, FakeWorker] = {}
        #: Every flight, by request id, and every resolution the core made.
        self.flights = {}
        self.resolved: dict[int, GatewayResponse] = {}
        self.act(self.core.start())

    def act(self, actions) -> None:
        for action in actions:
            if isinstance(action, Send):
                self.fakes[action.worker_id].receive(action.frame)
            elif isinstance(action, Kill):
                self.fakes[action.worker_id].kill()
            elif isinstance(action, Spawn):
                self.fakes[action.worker_id] = FakeWorker(self, action.worker_id)
            else:
                request_id = action.response.request_id
                assert request_id not in self.resolved, "resolved twice"
                self.resolved[request_id] = action.response
                self.flights[request_id] = action.flight

    def submit(self, kind="ok", tenant="t0", deadline_in_s=None) -> int:
        request_id = len(self.flights) + 1
        params, arrays = {"N": 4}, {"x": np.arange(4.0)}
        if kind == "object-array":
            arrays["x"] = np.array([1.5, "x"], dtype=object)
        elif kind == "0-d-param":
            params["alpha"] = np.array(1.5)
        deadline_s = None if deadline_in_s is None else self.now_s + deadline_in_s
        request = GatewayRequest(request_id, tenant, SOURCE, params, arrays, deadline_s=deadline_s)
        self.act(self.core.submit(request, self.now_s))
        if request_id not in self.flights:  # not resolved at once
            (flight,) = [f for f in self.core.flights() if f.request is request]
            self.flights[request_id] = flight
        return request_id

    def tick(self, advance_s: float = 0.0) -> None:
        """One pass of the driver's monitor: the liveness poll, then the
        core's monitor step."""
        self.now_s += advance_s
        for worker in self.core.watched():
            exitcode = self.fakes[worker.worker_id].exitcode
            if exitcode is not None:
                self.act(self.core.died(worker.worker_id, exitcode, self.now_s))
        self.act(self.core.tick(self.now_s))

    def drain(self) -> None:
        """The driver's drain, once every flight is answered.  A worker
        that dies at its drain frame is noticed by the monitor; a respawn
        would be due a while later."""
        self.act(self.core.begin_drain())
        assert not self.core.owed()
        self.act(self.core.send_drain())
        if self.core.watched():
            self.tick()
            self.tick(10.0)
        assert not self.core.watched()
        self.act(self.core.end_drain(self.now_s, 30.0))

    def busy_fakes(self) -> list[FakeWorker]:
        return [f for f in self.fakes.values() if f.inbox and not f.worker.dead]

    def settle(self) -> None:
        """Let the pool finish its work: busy workers answer the flights
        their callers still wait for, and time runs past every hang
        timeout and respawn backoff.  A worker holding an expired flight
        keeps it."""
        for _ in range(100):
            if all(f.state in TERMINAL for f in self.flights.values()):
                return
            for fake in self.busy_fakes():
                if fake.worker.flight.state == "sent":
                    fake.answer()
            self.tick(HANG_TIMEOUT_S / 2)
        raise AssertionError("the pool never settled")


class FlightMachine(RuleBasedStateMachine):
    """Every rule can act in every state (no preconditions), so swarm
    testing never leaves an example with no enabled rule to draw: a rule
    with nothing to act on does nothing, and a drain ends one pool's life
    and starts the next on the same configuration."""

    def __init__(self):
        super().__init__()
        self.pool = None
        self.config = None

    @initialize(
        num_workers=st.integers(1, 2),
        hot_spares=st.integers(0, 1),
        max_respawns=st.integers(0, 3),
        max_attempts=st.integers(1, 3),
    )
    def start(self, num_workers, hot_spares, max_respawns, max_attempts):
        self.config = dict(
            num_workers=num_workers, hot_spares=hot_spares,
            max_respawns=max_respawns, max_attempts=max_attempts, max_pending=6,
            respawn_backoff_base_s=0.2, respawn_backoff_max_s=0.4,
        )
        self.pool = Pool(**self.config)

    def teardown(self):
        if self.pool is not None:
            self.drain(dies_at_drain=False)

    # -- events -----------------------------------------------------------
    @rule(
        kind=st.sampled_from(["ok", "ok", "ok", "object-array", "0-d-param"]),
        tenant=st.sampled_from(["t0", "t1"]),
        deadline_in_s=st.sampled_from([None, 0.2, 0.2, 1.0]),
    )
    def submit(self, kind, tenant, deadline_in_s):
        self.pool.submit(kind, tenant, deadline_in_s)

    @rule(pick=st.integers(0, 3))
    def busy_worker_answers(self, pick):
        fakes = self.pool.busy_fakes()
        if fakes:
            fakes[pick % len(fakes)].answer()

    @rule(pick=st.integers(0, 3), outcome=st.sampled_from(MISHAPS))
    def something_goes_wrong(self, pick, outcome):
        pool = self.pool
        if outcome == "an-idle-worker-dies":
            idle = [f for f in pool.fakes.values() if not f.inbox and not f.worker.dead]
            if idle:
                idle[pick % len(idle)].exitcode = FAULT_EXIT_CODE
                pool.tick()
            return
        fakes = pool.busy_fakes()
        if not fakes:
            return
        fake = fakes[pick % len(fakes)]
        if outcome in ("dead-letter", "corrupt-frame"):
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
            fake.exitcode = FAULT_EXIT_CODE
            pool.tick()
            fake.deliver(frame)
        else:
            if outcome == "die-after-work":
                fake.work(fake.inbox[0])
            fake.exitcode = FAULT_EXIT_CODE
            pool.tick()

    @rule(advance_s=st.sampled_from([0.05, 0.3, 0.3, 1.5]))
    def time_passes(self, advance_s):
        """Deadlines expire (queued: shed; sent: expired), the watchdog
        kills silent workers (a hang), and respawns come due."""
        self.pool.tick(advance_s)

    @rule(dies_at_drain=st.booleans())
    def drain(self, dies_at_drain):
        """Drain the pool and check it is closed for good: no flight left
        non-terminal, no spawn once the drain frames were out, admission
        refused and nothing moving as time passes.  The next rule meets a
        fresh pool."""
        pool = self.pool
        pool.settle()
        if dies_at_drain:
            live = [f for f in pool.fakes.values() if not f.worker.dead]
            if live:
                live[0].dies_at_drain = True
        pool.drain()
        assert pool.core.phase == "closed"
        assert all(f.state in TERMINAL for f in pool.flights.values())
        assert not any(w.flight for w in pool.core.workers)
        assert all(f.spawned_in in ("new", "open", "draining") for f in pool.fakes.values())
        self.flights_hold_the_invariants()
        states = {rid: f.state for rid, f in pool.flights.items()}
        resolved, fakes = dict(pool.resolved), dict(pool.fakes)
        with pytest.raises(GatewayError, match="draining"):
            pool.submit()
        for advance_s in (0.05, 1.5, 10.0):
            pool.tick(advance_s)
        assert {rid: f.state for rid, f in pool.flights.items()} == states
        assert pool.resolved == resolved and pool.fakes == fakes
        self.flights_hold_the_invariants()
        self.pool = Pool(**self.config)

    # -- invariants -------------------------------------------------------
    @invariant()
    def flights_hold_the_invariants(self):
        pool = self.pool
        if pool is None:
            return
        core, flights = pool.core, pool.flights.values()
        for request_id, flight in pool.flights.items():
            assert (request_id in pool.resolved) == (flight.state in TERMINAL), flight.state

        billed = Counter(u.request_id for u in pool.log.usages)
        assert all(count == 1 for count in billed.values())
        assert set(billed) == {
            rid for rid, f in pool.flights.items() if f.state == "answered"
        }

        held = Counter(
            r.request_id for f in pool.fakes.values() if not f.worker.dead for r in f.inbox
        )
        ended = Counter(rid for f in pool.fakes.values() for rid, _ in f.attempts)
        ended.subtract(held)
        compensated = Counter(c.request_id for c in pool.log.compensations)
        for rid in set(ended) | set(compensated):
            assert compensated[rid] == ended[rid] - billed[rid], rid

        assert all(core.verify_partition().values())

        queued = [f for f in flights if f.state == "queued"]
        assert sorted(map(id, queued)) == sorted(map(id, core.pending))
        assert +core.tenant_pending == Counter(f.request.tenant for f in queued)

        assert not any(
            f.state in ("queued", "sent") and f.deadline_passed(pool.now_s) for f in flights
        ), "a monitor step left a flight past its deadline"

        for worker in core.workers:
            if not worker.dead and not worker.spare:
                # Either waiting for work or holding one flight: never stranded.
                assert (worker in core.idle) != (worker.flight is not None)
        bound = [w.flight for w in core.workers if w.flight is not None]
        assert len(set(map(id, bound))) == len(bound)
        assert all(f.state in ("sent", "expired") for f in bound)
        assert sum(f.state == "sent" for f in flights) == sum(f.state == "sent" for f in bound)
        for fake in pool.fakes.values():
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


def test_the_core_does_no_io_and_reads_no_clock():
    """The core imports nothing that reaches a loop, a process, the OS or
    a clock, and reads time only from the ``now_s`` its inputs take."""
    tree = ast.parse(Path(core_module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            assert not any("Clock" in alias.name for alias in node.names), node.module
        elif isinstance(node, ast.Attribute):
            assert node.attr not in ("now_s", "monotonic", "perf_counter", "clock"), node.attr
    assert not imported & {"asyncio", "multiprocessing", "os", "time", "threading", "selectors"}


# ----------------------------------------------------------------------
# The ways the pool lost, stranded or misordered a request, pinned
# ----------------------------------------------------------------------
def test_an_unencodable_request_fails_alone_and_leaves_its_worker_idle():
    pool = Pool(num_workers=1)
    bad, good = pool.submit("0-d-param"), pool.submit()
    assert pool.resolved[bad].status == "failed"
    assert "not JSON serializable" in pool.resolved[bad].reason
    (fake,) = pool.fakes.values()
    assert [r.request_id for r in fake.inbox] == [good]
    fake.answer()
    assert pool.resolved[good].status == "completed"
    pool.drain()
    assert not pool.log.compensations


def test_a_dead_letter_fails_its_flight_and_the_next_one_is_answered():
    pool = Pool(num_workers=1)
    first, second = pool.submit(), pool.submit()
    (fake,) = pool.fakes.values()
    fake.inbox.pop(0)
    fake.deliver(DEAD_LETTER_FRAME + b"request: corrupt JSON frame (seeded)")
    assert pool.resolved[first].status == "failed"
    assert pool.resolved[first].attempt == 1
    assert "corrupt JSON frame" in pool.resolved[first].reason
    assert [r.request_id for r in fake.inbox] == [second]  # one flight at a time
    fake.answer()
    assert pool.resolved[second].status == "completed"
    assert [c.op for c in pool.log.compensations] == ["dead-letter"]
    assert [u.request_id for u in pool.log.usages] == [second]
    pool.drain()
    assert pool.core.dead_letters == ["request: corrupt JSON frame (seeded)"]


def test_no_worker_spawns_after_the_drain_frames_go_out():
    """A respawn due once the drain frames are out, and a death after
    them, must not bring in a worker that never gets a drain frame (the
    drain used to wait 30 s for it, then kill it as a hang)."""
    pool = Pool(num_workers=2, hot_spares=2, max_respawns=4)
    pool.fakes[1].exitcode = FAULT_EXIT_CODE
    pool.tick()  # spare 2 takes slot 1; a respawn is due in 50 ms
    assert pool.core.metrics.spares_promoted == 1
    pool.fakes[0].dies_at_drain = True  # noticed, then 10 s pass
    pool.drain()
    assert sorted(pool.fakes) == [0, 1, 2, 3]
    assert pool.core.metrics.respawns == 0
    assert pool.core.metrics.spares_promoted == 1
    assert pool.core.metrics.faults_by_op == {"worker-crash": 2}
    assert pool.core.snapshot(pool.now_s)["fleet"]["drained"] == 2


def test_a_retry_is_dispatched_before_the_requests_queued_behind_it():
    """A retried request goes back in at the head of the queue: it was
    admitted first, so it is sent before the ones that queued while it
    was in flight."""
    pool = Pool(num_workers=1, max_respawns=1)
    first, second = pool.submit(), pool.submit()
    assert pool.fakes[0].attempts == [(first, 1)]
    pool.fakes[0].exitcode = FAULT_EXIT_CODE
    pool.tick()  # lost; its slot respawns after the 50 ms backoff
    assert [f.request.request_id for f in pool.core.pending] == [first, second]
    pool.tick(0.05)
    assert pool.fakes[1].attempts == [(first, 2)]
    pool.fakes[1].answer()
    assert pool.fakes[1].attempts == [(first, 2), (second, 1)]
    pool.fakes[1].answer()
    assert [pool.resolved[rid].attempt for rid in (first, second)] == [2, 1]


def test_a_worker_that_answers_the_drain_and_then_exits_is_no_crash():
    """The drain-answer race.  A worker answers its drain frame and exits,
    as told.  The driver reads a closing worker's pipe before it reports
    the death, so the core hears the answer first and the death is no
    fault; heard the other way round, the exit is a crash and the answer
    a late frame."""
    record = AcceleratorRunStats(energy_j=1e-9, gemv_count=1, macs=16)
    drained = DRAINED_FRAME + json.dumps(record.scalars()).encode()
    for order in ("frame-first", "death-first"):
        core = FlightCore(GatewayConfig(num_workers=1, max_respawns=1))
        assert core.start() == [Spawn(0)]
        assert core.begin_drain() == []
        assert core.send_drain() == [Send(0, DRAIN_FRAME)]
        if order == "frame-first":
            assert core.frame(0, memoryview(drained), 0.1) == []
            assert core.died(0, 0, 0.2) == []
        else:
            assert core.died(0, 0, 0.1) == [Kill(0)]
            assert core.frame(0, memoryview(drained), 0.2) == []
        assert core.tick(0.3) == [] and not core.watched()
        assert core.end_drain(0.4, 30.0) == []
        assert core.phase == "closed"
        if order == "frame-first":
            assert core.metrics.faults_by_op == {}
            assert core.workers[0].physical == AcceleratorRunStats(**record.scalars())
            assert core.snapshot(0.4)["fleet"]["drained"] == 1
        else:
            assert core.metrics.faults_by_op == {"worker-crash": 1}
            assert core.metrics.late_frames_ignored == 1
            assert core.workers[0].physical == AcceleratorRunStats()
