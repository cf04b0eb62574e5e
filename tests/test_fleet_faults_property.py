"""Property-based fault-injection tests for the fleet tier (PR 6
satellite).

Hypothesis generates arbitrary fault scenarios — device deaths and
transient op faults at random simulated times, random fleet shapes and
placement policies — and the fleet must always uphold the exactly-once
invariants:

* no request is ever billed twice (one usage record per completed
  request, none for unresolved ones);
* every device's physical ledger reconciles exactly with billed usages
  plus fault compensations (fleet-wide partition);
* every handle reaches a terminal state (no request is lost);
* completed responses are bit-identical to a fault-free run of the same
  trace.

The GEMV trace is deterministic (fixed numpy seed) so any failure
shrinks to a minimal fault scenario, not a data artefact.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fleet import (
    DeviceKill,
    FaultPlan,
    FleetConfig,
    FleetServer,
    OpFaultRule,
)
from repro.serve import RequestStatus

GEMV_SOURCE = """
void gemv(int M, int N, float A[M][N], float x[N], float y[M]) {
  for (int i = 0; i < M; i++) {
    y[i] = 0.0;
    for (int j = 0; j < N; j++)
      y[i] += A[i][j] * x[j];
  }
}
"""

PARAMS = {"M": 16, "N": 16}
NUM_REQUESTS = 10
NUM_DEVICES = 3


def _run_trace(fault_plan):
    """Serve one fixed 10-request GEMV trace; returns (handles, fleet, the
    ledger's log of the run)."""
    config = FleetConfig(
        num_devices=NUM_DEVICES,
        batch_window_s=1e-4,
        max_batch_size=4,
        placement="wear-aware",
        fault_plan=fault_plan,
        max_attempts=4,
    )
    rng = np.random.default_rng(1234)
    matrix = rng.random((16, 16), dtype=np.float32)
    with FleetServer(config) as fleet, fleet.ledger.observe() as log:
        handles = [
            fleet.submit(
                f"tenant{index % 2}",
                GEMV_SOURCE,
                PARAMS,
                {
                    "A": matrix,
                    "x": rng.random(16, dtype=np.float32),
                    "y": np.zeros(16, dtype=np.float32),
                },
                arrival_s=index * 3e-5,
            )
            for index in range(NUM_REQUESTS)
        ]
        fleet.drain()
        return handles, fleet, log


#: Completed payloads of the fault-free reference run, computed once —
#: every generated fault scenario is differentially checked against it.
_REFERENCE: dict = {}


def _reference_results():
    if not _REFERENCE:
        handles, _, _ = _run_trace(None)
        assert all(h.status is RequestStatus.COMPLETED for h in handles)
        _REFERENCE["results"] = [h.result() for h in handles]
    return _REFERENCE["results"]


kills = st.lists(
    st.builds(
        DeviceKill,
        device_id=st.integers(0, NUM_DEVICES - 1),
        at_s=st.floats(0.0, 2e-3, allow_nan=False, allow_infinity=False),
    ),
    max_size=NUM_DEVICES,
    unique_by=lambda kill: kill.device_id,
)

op_rules = st.lists(
    st.builds(
        OpFaultRule,
        op=st.sampled_from(["dma", "compile", "dispatch"]),
        probability=st.floats(0.0, 0.6),
        device_id=st.one_of(st.none(), st.integers(0, NUM_DEVICES - 1)),
        max_faults=st.one_of(st.none(), st.integers(1, 6)),
    ),
    max_size=3,
)

fault_plans = st.builds(
    FaultPlan,
    kills=kills,
    op_rules=op_rules,
    seed=st.integers(0, 2**16),
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(plan=fault_plans)
def test_random_fault_storms_preserve_exactly_once_accounting(plan):
    handles, fleet, log = _run_trace(plan)

    # 1. Every request reaches a terminal state — none is lost in a
    #    retry heap, a dead device's lease, or an abandoned queue.
    assert all(h.done for h in handles)

    # 2. No double billing: exactly one usage record per completed
    #    request and none for requests that never completed (failed
    #    requests of a dead fleet carry no usage; failed executions on a
    #    live device do — both resolve FAILED, so compare against the
    #    billed set itself for uniqueness).
    billed_ids = [usage.request_id for usage in log.usages]
    assert len(billed_ids) == len(set(billed_ids))
    completed_ids = {
        h.request_id for h in handles if h.status is RequestStatus.COMPLETED
    }
    assert completed_ids <= set(billed_ids)

    # 3. Fleet-wide partition: every device's physical wear/energy/work
    #    ledger reconciles exactly with billed usages + compensations.
    partition = fleet.verify_fleet_partition()
    assert all(partition.values()), {
        name: ok for name, ok in partition.items() if not ok
    }

    # 4. Integer wear bookkeeping: billed + compensated equals physical,
    #    device by device, by exact integer comparison.
    for device in fleet.devices:
        billed = sum(
            u.wear_bytes for u in log.usages if u.device_id == device.device_id
        )
        compensated = sum(
            c.wear_bytes for c in log.compensations if c.device_id == device.device_id
        )
        assert (
            billed + compensated
            == device.system.accelerator.total_cell_writes()
        )

    # 5. Differential check: whatever the storm did, completed responses
    #    are bit-identical to the fault-free run of the same trace.
    for handle, reference in zip(handles, _reference_results()):
        if handle.status is not RequestStatus.COMPLETED:
            continue
        result = handle.result()
        assert result.keys() == reference.keys()
        for name, value in reference.items():
            np.testing.assert_array_equal(result[name], value)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    probability=st.floats(0.05, 0.5),
)
def test_transient_storms_without_deaths_always_complete(seed, probability):
    """With healthy devices and bounded transient fault rules, retries
    always converge: every request completes (max_faults caps the storm
    below the retry budget) and recovery is reflected in the metrics."""
    plan = FaultPlan(
        op_rules=[OpFaultRule("dma", probability, max_faults=3)], seed=seed
    )
    handles, fleet, _ = _run_trace(plan)
    assert all(h.status is RequestStatus.COMPLETED for h in handles)
    snapshot = fleet.metrics.snapshot()
    stats = snapshot["fleet"]
    assert stats["faults_unrecovered"] == 0
    if stats["faults_injected"]:
        assert stats["retries"] >= 1
        assert stats["faults_recovered"] >= 1
    assert all(fleet.verify_fleet_partition().values())
