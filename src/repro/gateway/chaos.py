"""Seeded chaos harness for the wall-clock gateway.

Drives a reproducible fault storm through a live
:class:`~repro.gateway.server.AsyncGateway` and then *proves* the
resilience layer held, rather than merely observing that nothing crashed.
The storm is a Poisson-paced open-loop run (the honest load shape — see
:mod:`repro.gateway.loadgen`) in which a seeded schedule assigns each
request a deterministic fault marker (``hang``, ``die-before-dispatch``,
``die-mid-request``, ``corrupt-frame``, ``slow:<s>`` — see
:data:`repro.gateway.wire.FAULT_MARKERS`) and, independently, a deadline
budget.  Hot spares, budgeted respawns and the hang watchdog are all
enabled, so the pool is expected to keep healing itself for the whole
storm.

The invariant suite asserted after the drain is the subsystem's whole
contract at once:

* **zero lost requests** — every offered request resolved to a terminal
  typed response (completed, failed, rejected or deadline-exceeded);
  nothing hung, nothing vanished;
* **exact partition** — :meth:`~repro.gateway.server.AsyncGateway.verify_partition`
  passes every check: across every worker incarnation the storm spawned,
  billed usage plus fault compensations equals the physical accelerator
  totals (integer counters by ``==``, energies to fsum exactness);
* **exactly-once billing** — the multiset of billed request ids equals
  the set of completed request ids: every served request billed exactly
  once, no doomed attempt or discarded late result billed at all;
* **bit-identical results** — every completed response's result arrays
  match, byte for byte, a fault-free in-process reference run of the
  same workload item (chaos may change *whether* and *when* a request
  completes, never *what* it computes).

``repro gateway chaos`` runs this from the command line; the CI
``gateway-chaos`` job runs it at ≥1k requests.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from repro.gateway.loadgen import (
    LoadReport,
    Workload,
    run_open_loop,
    synthetic_gemv_workload,
)
from repro.gateway.server import AsyncGateway, GatewayConfig
from repro.gateway.wire import GatewayRequest, RESPONSE_STATUSES
from repro.serve.batcher import same_bytes
from repro.trace.arrivals import poisson_plan

#: The invariant names, in report order.
INVARIANTS = (
    "zero_lost",
    "partition_exact",
    "exactly_once_billing",
    "bit_identical_results",
)


@dataclass(frozen=True)
class ChaosSpec:
    """One seeded storm: load shape, fault mix, resilience tuning.

    Fault rates are per-request probabilities drawn from one seeded
    stream, so the same spec always injects the same faults at the same
    request indices — a failing storm is replayable by its seed alone.
    """

    num_requests: int = 1000
    seed: int = 0
    #: Pool shape: active workers, pre-spawned hot spares, per-slot
    #: respawn budget (the storm kills workers on purpose, so the budget
    #: is generous — quarantine is for crash *loops*, not crash storms).
    num_workers: int = 3
    hot_spares: int = 1
    max_respawns: int = 16
    respawn_backoff_base_s: float = 0.02
    respawn_backoff_max_s: float = 0.25
    #: Watchdog: ``hang`` faults wedge forever, so this bounds how long
    #: each one holds a worker hostage.
    hang_timeout_s: float = 0.5
    #: Offered load (Poisson, open loop).
    rate_rps: float = 250.0
    num_tenants: int = 4
    #: Per-request fault probabilities (disjoint: one marker at most).
    hang_rate: float = 0.004
    crash_rate: float = 0.008
    corrupt_rate: float = 0.004
    slow_rate: float = 0.01
    slow_delay_s: float = 0.05
    #: Deadline pressure, independent of the fault draw: this fraction of
    #: requests carries a deadline of ``deadline_budget_s`` from submit.
    deadline_rate: float = 0.05
    deadline_budget_s: float = 0.2
    max_attempts: int = 4

    def __post_init__(self) -> None:
        if self.num_requests < 1:
            raise ValueError("num_requests must be >= 1")
        rates = (self.hang_rate, self.crash_rate, self.corrupt_rate,
                 self.slow_rate, self.deadline_rate)
        if any(rate < 0.0 for rate in rates) or sum(rates[:4]) > 1.0:
            raise ValueError(
                "fault rates must be non-negative and the marker rates "
                "must sum to at most 1.0"
            )

    def gateway_config(self) -> GatewayConfig:
        return GatewayConfig(
            num_workers=self.num_workers,
            hot_spares=self.hot_spares,
            max_respawns=self.max_respawns,
            respawn_backoff_base_s=self.respawn_backoff_base_s,
            respawn_backoff_max_s=self.respawn_backoff_max_s,
            hang_timeout_s=self.hang_timeout_s,
            max_attempts=self.max_attempts,
        )


def chaos_schedule(
    spec: ChaosSpec,
) -> list[tuple[Optional[str], Optional[float]]]:
    """The storm's seeded per-request plan: ``(fault marker, deadline
    budget)`` for each request index.  Pure function of the spec."""
    rng = random.Random(spec.seed)
    schedule: list[tuple[Optional[str], Optional[float]]] = []
    for _ in range(spec.num_requests):
        draw = rng.random()
        fault: Optional[str] = None
        edge = spec.hang_rate
        if draw < edge:
            fault = "hang"
        elif draw < (edge := edge + spec.crash_rate):
            # Split crashes between the two kill points so both the
            # nothing-happened and the work-was-lost windows are hit.
            fault = (
                "die-before-dispatch"
                if rng.random() < 0.5
                else "die-mid-request"
            )
        elif draw < (edge := edge + spec.corrupt_rate):
            fault = "corrupt-frame"
        elif draw < edge + spec.slow_rate:
            fault = f"slow:{spec.slow_delay_s:g}"
        deadline_budget_s = (
            spec.deadline_budget_s
            if rng.random() < spec.deadline_rate
            else None
        )
        schedule.append((fault, deadline_budget_s))
    return schedule


def chaos_workload(spec: ChaosSpec) -> Workload:
    """The synthetic GEMV workload with the storm's seeded fault and
    deadline decorations applied per request index."""
    base = synthetic_gemv_workload(spec.num_tenants, seed=spec.seed)
    schedule = chaos_schedule(spec)
    def decorated(index: int):
        fault, deadline_budget_s = schedule[index % len(schedule)]
        return replace(
            base(index), fault=fault, deadline_budget_s=deadline_budget_s
        )
    return decorated


def _reference_results(spec: ChaosSpec) -> dict[str, dict[str, np.ndarray]]:
    """Fault-free reference result arrays per tenant, served in-process
    through the exact :func:`~repro.gateway.worker.serve_one` path the
    pool workers run — the bit-identity bar for every completed chaos
    response."""
    from repro.gateway.worker import build_worker_server, serve_one

    base = synthetic_gemv_workload(spec.num_tenants, seed=spec.seed)
    server = build_worker_server(spec.gateway_config().worker_wire())
    references: dict[str, dict[str, np.ndarray]] = {}
    try:
        for index in range(spec.num_tenants):
            item = base(index)
            response = serve_one(
                server,
                GatewayRequest(
                    request_id=index + 1,
                    tenant=item.tenant,
                    source=item.source,
                    params=dict(item.params),
                    arrays=dict(item.arrays),
                ),
                worker_id=0,
            )
            if response.status != "completed":
                raise RuntimeError(
                    f"chaos reference run failed for {item.tenant}: "
                    f"{response.reason}"
                )
            references[item.tenant] = dict(response.result)
    finally:
        server.shutdown()
    return references


@dataclass
class ChaosReport:
    """Outcome of one seeded storm: what was injected, what the pool did
    about it, and whether every invariant held."""

    spec: ChaosSpec
    planned_faults: dict[str, int]
    planned_deadlines: int
    load: LoadReport
    invariants: dict[str, bool]
    #: Human-readable evidence for every invariant that failed.
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(self.invariants.values())

    def to_dict(self) -> dict:
        return {
            "spec": asdict(self.spec),
            "planned_faults": dict(self.planned_faults),
            "planned_deadlines": self.planned_deadlines,
            "load": self.load.to_dict(),
            "invariants": dict(self.invariants),
            "violations": list(self.violations),
            "ok": self.ok,
        }


def _check_invariants(
    spec: ChaosSpec,
    gateway: AsyncGateway,
    report: LoadReport,
) -> tuple[dict[str, bool], list[str]]:
    violations: list[str] = []
    responses = report.responses or []

    # 1. Zero lost requests: every offered request reached a terminal
    #    typed response.
    lost = report.offered - len(responses)
    bad_status = [
        r.request_id for r in responses if r.status not in RESPONSE_STATUSES
    ]
    zero_lost = lost == 0 and not bad_status
    if lost:
        violations.append(f"{lost} offered request(s) never resolved")
    for rid in bad_status:
        violations.append(f"request {rid}: unknown terminal status")

    # 2. Exact partition across every worker incarnation.
    partition = gateway.verify_partition()
    partition_exact = all(partition.values())
    for name, passed in sorted(partition.items()):
        if not passed:
            violations.append(f"partition check failed: {name}")

    # 3. Exactly-once billing: billed ids == completed ids, one each.
    completed_ids = sorted(
        r.request_id for r in responses if r.status == "completed"
    )
    billed_ids = sorted(u.request_id for u in gateway.ledger.all_usages())
    exactly_once = billed_ids == completed_ids
    if not exactly_once:
        billed_set, completed_set = set(billed_ids), set(completed_ids)
        for rid in sorted(billed_set - completed_set):
            violations.append(f"request {rid} billed but never completed")
        for rid in sorted(completed_set - billed_set):
            violations.append(f"request {rid} completed but never billed")
        if len(billed_ids) != len(billed_set):
            violations.append("a request was billed more than once")

    # 4. Bit-identical results: chaos must not change what anything
    #    computed.
    references = _reference_results(spec)
    bit_identical = True
    for response in responses:
        if response.status != "completed":
            continue
        expected = references[response.tenant]
        for name in sorted(set(expected) | set(response.result)):
            if not same_bytes(expected.get(name), response.result.get(name)):
                bit_identical = False
                violations.append(
                    f"request {response.request_id}: result array "
                    f"{name!r} differs from the fault-free reference"
                )
    invariants = {
        "zero_lost": zero_lost,
        "partition_exact": partition_exact,
        "exactly_once_billing": exactly_once,
        "bit_identical_results": bit_identical,
    }
    return invariants, violations


async def run_chaos_async(spec: Optional[ChaosSpec] = None) -> ChaosReport:
    """Run one seeded storm end to end: spawn the pool, fire the plan,
    drain, verify every invariant."""
    spec = spec or ChaosSpec()
    schedule = chaos_schedule(spec)
    planned_faults: dict[str, int] = {}
    for fault, _ in schedule:
        if fault is not None:
            planned_faults[fault] = planned_faults.get(fault, 0) + 1
    planned_deadlines = sum(
        1 for _, deadline in schedule if deadline is not None
    )
    gateway = AsyncGateway(spec.gateway_config())
    async with gateway:
        report = await run_open_loop(
            gateway,
            poisson_plan(spec.num_requests, spec.rate_rps, seed=spec.seed),
            chaos_workload(spec),
            return_responses=True,
        )
        # Drain before verifying: the partition's authoritative totals
        # and the final resilience counters only exist post-drain.
        report.snapshot = await gateway.drain()
    invariants, violations = _check_invariants(spec, gateway, report)
    return ChaosReport(
        spec=spec,
        planned_faults=planned_faults,
        planned_deadlines=planned_deadlines,
        load=report,
        invariants=invariants,
        violations=violations,
    )


def run_chaos(spec: Optional[ChaosSpec] = None) -> ChaosReport:
    return asyncio.run(run_chaos_async(spec))
