"""The work record (``AcceleratorRunStats``) and its one reconciliation.

Three things no other test checks:

* the accelerator's running ``totals`` (what the ``total_*()`` helpers,
  placement and the partition check read in O(1)) equal the
  left-to-right sum of ``completed_runs`` after every lease;
* :func:`repro.serve.accounting.fold` gives the same totals for any
  order of the same ledger records;
* :func:`repro.serve.accounting.partition_checks` can *fail*: every
  other use in the suite is ``assert all(checks.values())``, so a check
  that always said yes would pass them all.  One defect at a time is
  seeded behind each of the three public entry points.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fleet import DeviceKill, FaultPlan, FleetConfig, FleetServer
from repro.gateway.server import AsyncGateway, GatewayConfig
from repro.gateway.wire import GatewayRequest, GatewayResponse
from repro.gateway.worker import RESPONSE_FRAME, build_worker_server, serve_one
from repro.hw.stats import WORK_COUNTERS, AcceleratorRunStats
from repro.serve import CimServer, ServerConfig
from repro.serve.accounting import AccountingLedger, FaultCompensation, RequestUsage, fold
from repro.serve.errors import DeviceFault

GEMV_SOURCE = """
void gemv(int M, int N, float A[M][N], float x[N], float y[M]) {
  for (int i = 0; i < M; i++) {
    y[i] = 0.0;
    for (int j = 0; j < N; j++)
      y[i] += A[i][j] * x[j];
  }
}
"""
PARAMS = {"M": 24, "N": 24}


def _arrays(rng) -> dict[str, np.ndarray]:
    return {
        "A": rng.random((24, 24), dtype=np.float32),
        "x": rng.random(24, dtype=np.float32),
        "y": np.zeros(24, dtype=np.float32),
    }


# ----------------------------------------------------------------------
# Running totals
# ----------------------------------------------------------------------
def _assert_totals_are_the_fold(accelerator) -> None:
    """Every scalar of ``totals`` is the left-to-right sum of its field
    over ``completed_runs`` (from int 0, as builtin ``sum`` started)."""
    expected = dict.fromkeys(accelerator.totals.scalars(), 0)
    for run in accelerator.completed_runs:
        for name in expected:
            expected[name] += getattr(run, name)
    assert accelerator.totals.scalars() == expected
    assert accelerator.total_energy_j() == expected["energy_j"]
    assert accelerator.total_latency_s() == expected["latency_s"]
    assert accelerator.total_cell_writes() == expected["crossbar_cell_writes"]
    assert accelerator.total_macs() == expected["macs"]


def test_running_totals_equal_the_sum_of_completed_runs_after_every_lease():
    rng = np.random.default_rng(0)
    config = FleetConfig(num_devices=3, batch_window_s=1e-6, max_batch_size=1)
    with FleetServer(config) as fleet:
        for index in range(40):
            fleet.submit(
                f"tenant{index % 3}", GEMV_SOURCE, PARAMS, _arrays(rng),
                arrival_s=index * 1e-5,
            )
        leases = 0
        while fleet.step():
            leases = sum(device.leases for device in fleet.devices)
            for device in fleet.devices:
                _assert_totals_are_the_fold(device.system.accelerator)
        assert leases == 40
        accelerator = fleet.devices[0].system.accelerator
        assert accelerator.completed_runs and accelerator.total_cell_writes() > 0
        accelerator.reset_stats()
        assert accelerator.totals == AcceleratorRunStats()
        _assert_totals_are_the_fold(accelerator)


def test_scalars_is_the_wire_form_of_the_record():
    record = AcceleratorRunStats(
        latency_s=1e-6, energy_j=2e-9, energy_breakdown={"cim.adc": 2e-9},
        gemv_count=1, crossbar_cell_writes=2, crossbar_write_ops=3, macs=4, dma_bytes=5,
    )
    scalars = record.scalars()
    assert set(scalars) == {"latency_s", "energy_j", *WORK_COUNTERS}
    assert AcceleratorRunStats(**scalars) == dataclasses.replace(
        record, energy_breakdown={}
    )


# ----------------------------------------------------------------------
# The fold is order-independent
# ----------------------------------------------------------------------
def _record(index, compensated, host_j, offload_j, accelerator_j, counters):
    work = dict(
        offload_energy_j=offload_j,
        accelerator_energy_j=accelerator_j,
        **dict(zip(WORK_COUNTERS, counters)),
    )
    if compensated:
        return FaultCompensation(
            request_id=index, tenant="t", device_id=0, batch_id=index,
            at_s=0.0, reason="injected", op="commit", **work,
        )
    return RequestUsage(
        request_id=index, tenant="t", batch_id=index, arrival_s=0.0,
        completed_s=host_j, service_s=host_j, latency_s=host_j,
        host_energy_j=host_j, **work,
    )


_ENERGY = st.floats(min_value=0.0, max_value=1.0)
_RECORD = st.tuples(
    st.booleans(), _ENERGY, _ENERGY, _ENERGY,
    st.lists(st.integers(0, 2**40), min_size=len(WORK_COUNTERS), max_size=len(WORK_COUNTERS)),
)
_FOLDED = (*WORK_COUNTERS, "wear_bytes", "energy_j", "accelerator_energy_j", "offload_energy_j")


@settings(max_examples=30, deadline=None)
@example(
    # Left to right, 1.0 + 1e-16 + 1e-16 rounds back to 1.0 twice; in
    # the shuffled order (seed 0) the two small terms add up first.
    specs=[
        (False, 1.0, 0.0, 1.0, [1, 2, 3, 4, 5]),
        (True, 0.0, 1e-16, 1e-16, [0, 0, 0, 0, 0]),
        (False, 1e-16, 1e-16, 1e-16, [5, 4, 3, 2, 1]),
    ],
    seed=0,
)
@given(specs=st.lists(_RECORD, max_size=12), seed=st.integers(0, 2**32))
def test_fold_is_independent_of_record_order(specs, seed):
    """What lets the differential compare bills across worker completion
    orders: folding the records in any order gives the same totals —
    integers by ``==``, floats to the last bit."""
    records = [_record(index, *spec) for index, spec in enumerate(specs)]
    shuffled = random.Random(seed).sample(records, len(records))
    expected, actual = fold(records, *_FOLDED), fold(shuffled, *_FOLDED)
    for name in _FOLDED:
        assert type(actual[name]) is type(expected[name]), name
        assert actual[name] == expected[name], name


# ----------------------------------------------------------------------
# The partition check can fail
# ----------------------------------------------------------------------
class _Scenario(NamedTuple):
    """A finished run behind one public entry point."""

    ledger: AccountingLedger
    #: The live per-device work records the entry point's check reads.
    totals: dict[int, AcceleratorRunStats]
    verify: Callable[[], dict[str, bool]]
    close: Callable[[], None]


def _cim_server() -> _Scenario:
    """A drained ``CimServer``; request 2 faults at commit (its measured
    work is compensated, as under a fleet's fault plan)."""
    rng = np.random.default_rng(1)
    server = CimServer(ServerConfig(max_batch_size=2, batch_window_s=1e-6))

    def hook(stage, request):
        if stage == "commit" and request.seq == 2:
            raise DeviceFault("injected", device_id=0)

    server.devices[0].lease_executor.fault_hook = hook
    for index in range(6):
        server.submit(f"tenant{index % 2}", GEMV_SOURCE, PARAMS, _arrays(rng))
    server.drain()
    accelerator = server.system.accelerator
    return _Scenario(
        server.ledger,
        {0: accelerator.totals},
        lambda: server.ledger.verify_partition(accelerator),
        server.shutdown,
    )


def _fleet_server() -> _Scenario:
    """A ``FleetServer`` after a fault plan: device 0 dies mid-attempt."""
    rng = np.random.default_rng(2)
    config = FleetConfig(
        num_devices=2, batch_window_s=1e-4, max_batch_size=8,
        placement="round-robin",
        fault_plan=FaultPlan(kills=[DeviceKill(0, 1.000001e-4)]),
    )
    fleet = FleetServer(config)
    matrix = rng.random((24, 24), dtype=np.float32)
    for index in range(8):
        fleet.submit(
            "tenant0", GEMV_SOURCE, PARAMS, {**_arrays(rng), "A": matrix},
            arrival_s=index * 1e-5,
        )
    fleet.drain()
    return _Scenario(
        fleet.ledger,
        {d.device_id: d.system.accelerator.totals for d in fleet.devices},
        fleet.verify_fleet_partition,
        fleet.shutdown,
    )


def _gateway() -> _Scenario:
    """The gateway's billing path without the processes: the gateway's
    flight core sends each request to one of two in-process worker
    stacks, which serve it through ``serve_one``, and the response frame
    goes back to the core as the pipe would hand it over.  Request 3
    expires in flight first, so its answer is a compensation; the other
    answers are bills."""
    rng = np.random.default_rng(3)
    gateway = AsyncGateway(GatewayConfig(num_workers=2))
    core = gateway.core
    servers = [build_worker_server(gateway.config.worker_wire()) for _ in range(2)]
    lifetime = [AcceleratorRunStats() for _ in servers]
    core.start()
    for request_id in range(1, 7):
        now_s = float(request_id)
        request = GatewayRequest(
            request_id, f"tenant{request_id % 2}", GEMV_SOURCE, dict(PARAMS), _arrays(rng),
            deadline_s=now_s + 0.5 if request_id == 3 else None,
        )
        (send,) = core.submit(request, now_s)
        worker_id = send.worker_id
        if request_id == 3:
            now_s += 1.0
            (expired,) = core.tick(now_s)
            assert expired.flight.state == "expired"
        response = serve_one(servers[worker_id], request, worker_id)
        lifetime[worker_id].add(servers[worker_id].system.accelerator.totals)
        response.physical = lifetime[worker_id].scalars()
        response = GatewayResponse.from_json(response.to_json())
        assert response.status == "completed"
        core.frame(worker_id, response.to_frame(RESPONSE_FRAME), now_s)
        assert core.workers[worker_id].flight is None

    def close():
        for server in servers:
            server.shutdown()

    return _Scenario(
        gateway.ledger,
        {worker.worker_id: worker.physical for worker in core.workers},
        gateway.verify_partition,
        close,
    )


ENTRY_POINTS = {
    "CimServer.ledger.verify_partition": _cim_server,
    "FleetServer.verify_fleet_partition": _fleet_server,
    "AsyncGateway.verify_partition": _gateway,
}


def _worked(records):
    """The first record that carries real device work."""
    return next(r for r in records if r.crossbar_cell_writes > 0 and r.macs > 0)


def _usage_recorded_twice(s: _Scenario) -> None:
    s.ledger.record(_worked(s.ledger.all_usages()))


def _compensation_dropped(s: _Scenario) -> None:
    s.ledger.compensations.remove(_worked(s.ledger.compensations))


def _unknown_device(s: _Scenario) -> None:
    usage = _worked(s.ledger.all_usages())
    account = s.ledger.account(usage.tenant)
    account.usages[account.usages.index(usage)] = dataclasses.replace(
        usage, device_id=max(s.totals) + 1
    )


def _one_cell_write_added(s: _Scenario) -> None:
    s.totals[min(s.totals)].crossbar_cell_writes += 1


def _energy_off_by_1e6_relative(s: _Scenario) -> None:
    s.totals[max(s.totals)].energy_j *= 1.0 + 1e-6


DEFECTS = {
    "usage-recorded-twice": _usage_recorded_twice,
    "compensation-dropped": _compensation_dropped,
    "unknown-device-id": _unknown_device,
    "one-cell-write-added": _one_cell_write_added,
    "energy-off-1e-6-relative": _energy_off_by_1e6_relative,
}


@pytest.mark.parametrize("entry_point", sorted(ENTRY_POINTS))
def test_untouched_ledger_reconciles(entry_point):
    scenario = ENTRY_POINTS[entry_point]()
    try:
        checks = scenario.verify()
        assert checks and all(checks.values()), checks
        assert isinstance(_worked(scenario.ledger.compensations), FaultCompensation)
        assert isinstance(_worked(scenario.ledger.all_usages()), RequestUsage)
    finally:
        scenario.close()


@pytest.mark.parametrize("defect", sorted(DEFECTS))
@pytest.mark.parametrize("entry_point", sorted(ENTRY_POINTS))
def test_partition_check_reports_a_seeded_defect(entry_point, defect):
    scenario = ENTRY_POINTS[entry_point]()
    try:
        DEFECTS[defect](scenario)
        checks = scenario.verify()
        failed = sorted(name for name, ok in checks.items() if not ok)
        assert failed, f"{entry_point} did not notice {defect}"
        if defect == "unknown-device-id":
            assert "no_orphan_records" in failed
        if defect == "energy-off-1e-6-relative":
            assert all("energy" in name for name in failed), failed
    finally:
        scenario.close()
