"""The work record (``AcceleratorRunStats``) and its one reconciliation.

Two things no other test checks:

* the accelerator's running ``totals`` (what the ``total_*()`` helpers,
  placement and the partition check read in O(1)) equal the
  left-to-right sum of ``completed_runs`` after every lease;
* :func:`repro.serve.accounting.partition_checks` can *fail*: every
  other use in the suite is ``assert all(checks.values())``, so a check
  that always said yes would pass them all.  One defect at a time is
  seeded behind each of the three public entry points.
"""

from __future__ import annotations

import asyncio
import dataclasses
from typing import Callable, NamedTuple

import numpy as np
import pytest

from repro.fleet import DeviceKill, FaultPlan, FleetConfig, FleetServer
from repro.gateway.server import AsyncGateway, GatewayConfig, _Flight, _Worker
from repro.gateway.wire import GatewayRequest, GatewayResponse
from repro.gateway.worker import RESPONSE_FRAME, build_worker_server, serve_one
from repro.hw.stats import WORK_COUNTERS, AcceleratorRunStats
from repro.serve import CimServer, ServerConfig
from repro.serve.accounting import AccountingLedger, FaultCompensation, RequestUsage
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
    """The gateway's billing path without the processes: two in-process
    worker stacks serve through ``serve_one``, and every response frame
    reaches the gateway's frame handler as the pipe would hand it over,
    answering a ``sent`` flight (a bill) or, for request 3, an
    ``expired`` one (a compensation)."""
    rng = np.random.default_rng(3)
    loop = asyncio.new_event_loop()
    gateway = AsyncGateway(GatewayConfig(num_workers=2))
    servers = [build_worker_server(gateway.config.worker_wire()) for _ in range(2)]
    lifetime = [AcceleratorRunStats() for _ in servers]
    for worker_id in range(2):
        gateway._workers.append(_Worker(worker_id, slot_id=worker_id))
    for request_id in range(1, 7):
        worker_id = request_id % 2
        request = GatewayRequest(
            request_id, f"tenant{request_id % 2}", GEMV_SOURCE, dict(PARAMS), _arrays(rng)
        )
        response = serve_one(servers[worker_id], request, worker_id)
        lifetime[worker_id].add(servers[worker_id].system.accelerator.totals)
        response.physical = lifetime[worker_id].scalars()
        response = GatewayResponse.from_json(response.to_json())
        assert response.status == "completed"
        worker = gateway._workers[worker_id]
        state = "expired" if request_id == 3 else "sent"
        worker.flight = _Flight(request, loop.create_future(), 0.0, state, dispatched_s=0.0)
        gateway._on_frame(worker, RESPONSE_FRAME + response.to_json().encode())
        assert worker.flight is None

    def close():
        for server in servers:
            server.shutdown()
        loop.close()

    return _Scenario(
        gateway.ledger,
        {worker.worker_id: worker.physical for worker in gateway._workers},
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
