"""Open-loop load generator for the wall-clock gateway.

Drives an :class:`~repro.gateway.server.AsyncGateway` with an
:class:`~repro.trace.arrivals.ArrivalPlan` (Poisson or trace-resampled —
see :mod:`repro.trace.arrivals`): requests fire at their scheduled wall
times whether or not earlier ones completed, which is what makes the
measured p50/p99 honest — a closed-loop generator would let a slow pool
throttle its own offered load.  When the generator falls behind its
schedule (offered rate above pool capacity) it fires immediately and the
backlog shows up where it should: in the latency distribution.

Workloads supply the request *bodies* paired with the plan's fire
*times*: :func:`synthetic_gemv_workload` cycles a small bank of
per-tenant GEMV operand sets (the paper's kernel, compile-cache friendly
by design), :func:`trace_workload` cycles a recorded trace's actual
submissions — source, params and array payloads byte-for-byte.

The :class:`LoadReport` is the benchmark currency: offered/served
counts, real wall-clock latency percentiles, achieved throughput and the
gateway's final snapshot (per-worker utilization included).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from repro.gateway.server import AsyncGateway
from repro.gateway.wire import GatewayResponse
from repro.serve.metrics import percentile
from repro.trace.arrivals import ArrivalPlan
from repro.trace.schema import Trace, TraceFormatError

#: A workload maps a request index to its body.
Workload = Callable[[int], "WorkItem"]

#: The paper's offload kernel (16x16 GEMV), the synthetic workload body.
GEMV_SOURCE = """
void gemv(int M, int N, float A[M][N], float x[N], float y[M]) {
  for (int i = 0; i < M; i++)
    for (int j = 0; j < N; j++)
      y[i] += A[i][j] * x[j];
}
"""


@dataclass(frozen=True)
class WorkItem:
    """One request body the load generator submits."""

    tenant: str
    source: str
    params: Mapping[str, float]
    arrays: Mapping[str, np.ndarray]
    #: Deterministic fault marker to inject with this request (see
    #: :data:`repro.gateway.wire.FAULT_MARKERS`; the chaos harness's seam).
    fault: Optional[str] = None
    #: Deadline budget in seconds *from submission* (the generator turns
    #: it into an absolute gateway-clock ``deadline_s`` at fire time).
    deadline_budget_s: Optional[float] = None


def synthetic_gemv_workload(
    num_tenants: int = 4, m: int = 16, n: int = 16, seed: int = 0
) -> Workload:
    """Per-tenant GEMV operand banks, cycled round-robin by index.

    Operands are integer-valued float32 (exact across machines) and
    fixed per tenant, so every request is deterministic and the compile
    cache sees one kernel — the workload stresses the serving path, not
    the compiler.
    """
    if num_tenants < 1:
        raise ValueError("num_tenants must be >= 1")
    rng = np.random.default_rng(seed)
    banks = []
    for index in range(num_tenants):
        banks.append(
            WorkItem(
                tenant=f"tenant-{index}",
                source=GEMV_SOURCE,
                params={"M": m, "N": n},
                arrays={
                    "A": rng.integers(0, 8, size=(m, n)).astype(np.float32),
                    "x": rng.integers(0, 8, size=(n,)).astype(np.float32),
                    "y": np.zeros(m, dtype=np.float32),
                },
            )
        )
    return lambda index: banks[index % num_tenants]


def trace_workload(trace: Trace) -> Workload:
    """A recorded trace's submissions, cycled by index (source, params
    and arrays byte-for-byte — the replay-driven workload)."""
    from repro.trace.schema import decode_submit_arrays

    submissions = trace.submissions()
    if not submissions:
        raise TraceFormatError("trace records no submissions to replay")
    items = [
        WorkItem(
            tenant=event["tenant"],
            source=event["source"],
            params=dict(event["params"]),
            arrays=decode_submit_arrays(event),
        )
        for event in submissions
    ]
    return lambda index: items[index % len(items)]


@dataclass
class LoadReport:
    """Measured outcome of one open-loop run."""

    plan_kind: str
    offered: int
    completed: int
    failed: int
    rejected: int
    deadline_exceeded: int
    duration_s: float
    offered_rate_rps: float
    throughput_rps: float
    latency_p50_s: float
    latency_p99_s: float
    latency_mean_s: float
    latency_max_s: float
    #: How far behind schedule the generator fell at its worst (0.0 when
    #: the pool kept up with the offered rate).
    max_schedule_lag_s: float
    snapshot: dict = field(default_factory=dict)
    #: Full per-request responses, captured only when the caller asked
    #: for them (``return_responses=True``) — the chaos harness's
    #: bit-identity currency.  Never serialized (see :meth:`to_dict`).
    responses: Optional[list] = field(default=None, repr=False)

    @property
    def served_fraction(self) -> float:
        """Requests that produced a terminal response (any status)."""
        total = (
            self.completed + self.failed + self.rejected
            + self.deadline_exceeded
        )
        return total / self.offered if self.offered else 0.0

    def to_dict(self) -> dict:
        return {
            "plan_kind": self.plan_kind,
            "offered": self.offered,
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "deadline_exceeded": self.deadline_exceeded,
            "duration_s": self.duration_s,
            "offered_rate_rps": self.offered_rate_rps,
            "throughput_rps": self.throughput_rps,
            "latency_p50_s": self.latency_p50_s,
            "latency_p99_s": self.latency_p99_s,
            "latency_mean_s": self.latency_mean_s,
            "latency_max_s": self.latency_max_s,
            "max_schedule_lag_s": self.max_schedule_lag_s,
            "served_fraction": self.served_fraction,
            "snapshot": self.snapshot,
        }


async def run_open_loop(
    gateway: AsyncGateway,
    plan: ArrivalPlan,
    workload: Workload,
    progress: Optional[Callable[[int, int], None]] = None,
    stop: Optional[asyncio.Event] = None,
    return_responses: bool = False,
) -> LoadReport:
    """Fire *plan* through *gateway*, await every response, measure.

    The gateway must be started; it is left running (the caller decides
    when to drain — a benchmark typically runs several plans through one
    pool before draining it for the authoritative accounting check).

    *stop* closes admission early: once set, no further requests fire,
    but every request already offered is still awaited — the graceful
    half of a SIGINT drain (the caller drains the gateway for the other
    half, flushing the bills).
    """
    clock = gateway.clock
    start_s = clock.now_s
    futures: list[asyncio.Future] = []
    max_lag_s = 0.0
    for index, offset_s in enumerate(plan.times_s):
        if stop is not None and stop.is_set():
            break
        target_s = start_s + offset_s
        delay_s = target_s - clock.now_s
        if delay_s > 0:
            if stop is None:
                await asyncio.sleep(delay_s)
            else:
                # Sleep interruptibly so a stop request closes admission
                # now, not after the next scheduled arrival.
                try:
                    await asyncio.wait_for(stop.wait(), timeout=delay_s)
                    break
                except asyncio.TimeoutError:
                    pass
        else:
            max_lag_s = max(max_lag_s, -delay_s)
            if index % 64 == 0:
                # Behind schedule: still yield periodically so pipe
                # callbacks (responses, retries) keep flowing.
                await asyncio.sleep(0)
        item = workload(index)
        deadline_s = (
            clock.now_s + item.deadline_budget_s
            if item.deadline_budget_s is not None
            else None
        )
        futures.append(
            gateway.submit_nowait(
                item.tenant,
                item.source,
                item.params,
                item.arrays,
                fault=item.fault,
                deadline_s=deadline_s,
            )
        )
        if progress is not None and (index + 1) % 1000 == 0:
            progress(index + 1, len(plan))
    responses: list[GatewayResponse] = await asyncio.gather(*futures)
    duration_s = clock.now_s - start_s
    completed = [r for r in responses if r.status == "completed"]
    failed = sum(1 for r in responses if r.status == "failed")
    rejected = sum(1 for r in responses if r.status == "rejected")
    deadline_exceeded = sum(
        1 for r in responses if r.status == "deadline-exceeded"
    )
    latencies = [r.latency_s for r in completed if r.latency_s is not None]
    return LoadReport(
        plan_kind=plan.kind,
        offered=len(futures),
        completed=len(completed),
        failed=failed,
        rejected=rejected,
        deadline_exceeded=deadline_exceeded,
        duration_s=duration_s,
        offered_rate_rps=plan.mean_rate_rps,
        throughput_rps=len(completed) / duration_s if duration_s > 0 else 0.0,
        latency_p50_s=percentile(latencies, 50) if latencies else 0.0,
        latency_p99_s=percentile(latencies, 99) if latencies else 0.0,
        latency_mean_s=sum(latencies) / len(latencies) if latencies else 0.0,
        latency_max_s=max(latencies) if latencies else 0.0,
        max_schedule_lag_s=max_lag_s,
        snapshot=gateway.snapshot(),
        responses=responses if return_responses else None,
    )
