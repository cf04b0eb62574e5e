"""Unit tests for the fault-tolerant multi-device fleet tier (PR 6
tentpole).

Covers placement policies, the deterministic fault plan, retry with
backoff, lease migration after device deaths, quarantine/drain,
graceful admission degradation, exactly-once accounting under faults
(the differential fault test: same trace with and without faults gives
bit-identical payloads and an exact fleet-wide ledger partition), fleet
health metrics and the idempotent-guarded handle transitions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.codegen.executor import ExecutionReport
from repro.eval import (
    fleet_device_rows,
    fleet_implied_lifetime_years,
    format_fleet_table,
    tenant_usage_rows,
)
from repro.fleet import (
    CapacityDegrade,
    DeviceKill,
    DeviceState,
    FaultPlan,
    FleetConfig,
    FleetServer,
    LeastLoadedPlacement,
    OpFaultRule,
    RoundRobinPlacement,
    WearAwarePlacement,
    make_placement,
)
from repro.serve import CimServer, RequestStatus, ServerConfig, ServeError
from repro.serve.accounting import fold
from repro.serve.errors import HandleStateError
from repro.serve.request import RequestHandle

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


def _gemv_arrays(rng, matrix=None):
    return {
        "A": matrix if matrix is not None else rng.random((24, 24), dtype=np.float32),
        "x": rng.random(24, dtype=np.float32),
        "y": np.zeros(24, dtype=np.float32),
    }


def _fleet_config(**overrides):
    defaults = dict(
        num_devices=3, batch_window_s=1e-4, max_batch_size=8
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


def _submit_trace(fleet, count=18, tenants=3, spacing_s=5e-5, seed=0):
    """One deterministic shared-matrix GEMV trace; returns the handles."""
    rng = np.random.default_rng(seed)
    matrix = rng.random((24, 24), dtype=np.float32)
    handles = []
    for index in range(count):
        handles.append(
            fleet.submit(
                f"tenant{index % tenants}",
                GEMV_SOURCE,
                PARAMS,
                _gemv_arrays(rng, matrix),
                arrival_s=index * spacing_s,
            )
        )
    return handles


# ---------------------------------------------------------------------------
# Fault plan
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceKill(0, -1.0)
        with pytest.raises(ValueError):
            CapacityDegrade(0, 1.0, 0.0)
        with pytest.raises(ValueError):
            CapacityDegrade(0, 1.0, 1.5)
        with pytest.raises(ValueError):
            OpFaultRule("reboot", 0.5)
        with pytest.raises(ValueError):
            OpFaultRule("dma", 1.5)
        with pytest.raises(ValueError):  # one kill per device
            FaultPlan(kills=[DeviceKill(0, 1.0), DeviceKill(0, 2.0)])

    def test_draws_are_deterministic_and_replayable(self):
        plan = FaultPlan(
            op_rules=[OpFaultRule("dma", 0.3), OpFaultRule("dispatch", 0.1)],
            seed=7,
        )
        trace = [
            (plan.draw_op_fault(0, "dma") is not None,
             plan.draw_op_fault(1, "dispatch") is not None)
            for _ in range(50)
        ]
        replay = plan.fresh()
        trace2 = [
            (replay.draw_op_fault(0, "dma") is not None,
             replay.draw_op_fault(1, "dispatch") is not None)
            for _ in range(50)
        ]
        assert trace == trace2
        assert any(flag for pair in trace for flag in pair)

    def test_max_faults_caps_a_rule(self):
        plan = FaultPlan(op_rules=[OpFaultRule("dma", 1.0, max_faults=3)])
        fired = sum(
            plan.draw_op_fault(0, "dma") is not None for _ in range(10)
        )
        assert fired == 3
        assert plan.op_faults_drawn == 3

    def test_device_scoped_rule(self):
        plan = FaultPlan(op_rules=[OpFaultRule("dma", 1.0, device_id=1)])
        assert plan.draw_op_fault(0, "dma") is None
        assert plan.draw_op_fault(1, "dma") is not None

    def test_kill_time_lookup(self):
        plan = FaultPlan(kills=[DeviceKill(2, 0.5)])
        assert plan.kill_time(2) == 0.5
        assert plan.kill_time(0) is None


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------
class TestPlacement:
    def test_make_placement(self):
        assert isinstance(make_placement("round-robin"), RoundRobinPlacement)
        assert isinstance(make_placement("least-loaded"), LeastLoadedPlacement)
        assert isinstance(make_placement("wear-aware"), WearAwarePlacement)
        policy = WearAwarePlacement()
        assert make_placement(policy) is policy
        with pytest.raises(ValueError, match="unknown placement"):
            make_placement("psychic")

    def test_round_robin_rotates_across_devices(self):
        with FleetServer(_fleet_config(placement="round-robin")) as fleet:
            handles = _submit_trace(fleet, count=12)
            fleet.drain()
            devices_used = {handle.device_id for handle in handles}
            assert devices_used == {0, 1, 2}

    def test_wear_aware_avoids_pre_aged_device(self):
        # Device 0 joins the fleet with massive pre-existing wear; the
        # wear-aware policy must steer leases to the younger devices.
        config = _fleet_config(
            placement="wear-aware",
            initial_wear_bytes=(10**9, 0, 0),
        )
        with FleetServer(config) as fleet:
            handles = _submit_trace(fleet, count=12)
            fleet.drain()
            devices_used = {handle.device_id for handle in handles}
            assert 0 not in devices_used
        # Round-robin happily keeps aging it.
        config = _fleet_config(
            placement="round-robin",
            initial_wear_bytes=(10**9, 0, 0),
        )
        with FleetServer(config) as fleet:
            handles = _submit_trace(fleet, count=12)
            fleet.drain()
            assert 0 in {handle.device_id for handle in handles}

    def test_wear_aware_levels_wear(self):
        with FleetServer(_fleet_config(placement="wear-aware")) as fleet:
            _submit_trace(fleet, count=18)
            fleet.drain()
            wear = [device.total_wear_bytes for device in fleet.devices]
            assert all(w > 0 for w in wear)
            assert max(wear) <= 2 * min(wear)


# ---------------------------------------------------------------------------
# Fault-free fleet behaviour
# ---------------------------------------------------------------------------
class TestFleetFaultFree:
    def test_single_device_fleet_matches_cim_server(self):
        """A 1-device fleet serves the same trace with bit-identical
        responses to the single-device CimServer (same dispatch engine)."""
        with FleetServer(
            FleetConfig(num_devices=1, batch_window_s=1e-4, max_batch_size=8)
        ) as fleet:
            fleet_handles = _submit_trace(fleet, count=10)
            fleet.drain()
        with CimServer(ServerConfig(batch_window_s=1e-4, max_batch_size=8)) as server:
            rng = np.random.default_rng(0)
            matrix = rng.random((24, 24), dtype=np.float32)
            server_handles = [
                server.submit(
                    f"tenant{index % 3}",
                    GEMV_SOURCE,
                    PARAMS,
                    _gemv_arrays(rng, matrix),
                    arrival_s=index * 5e-5,
                )
                for index in range(10)
            ]
            server.drain()
        for fh, sh in zip(fleet_handles, server_handles):
            assert fh.status is RequestStatus.COMPLETED
            assert sh.status is RequestStatus.COMPLETED
            for name, value in sh.result().items():
                np.testing.assert_array_equal(fh.result()[name], value)

    def test_devices_serve_in_parallel_simulated_time(self):
        """N devices overlap leases: the makespan is shorter than the
        same trace on one device."""
        def makespan(num_devices):
            config = FleetConfig(
                num_devices=num_devices,
                batch_window_s=1e-6,
                max_batch_size=1,    # one lease per request
                placement="least-loaded",
            )
            with FleetServer(config) as fleet:
                handles = _submit_trace(fleet, count=12, spacing_s=0.0)
                fleet.drain()
                return max(handle.completed_s for handle in handles)

        assert makespan(3) < makespan(1)

    def test_partition_and_tenant_rows(self):
        with FleetServer(_fleet_config()) as fleet:
            _submit_trace(fleet, count=12)
            fleet.drain()
            assert all(fleet.verify_fleet_partition().values())
            rows = tenant_usage_rows(fleet)
            assert {row.tenant for row in rows} == {
                "tenant0", "tenant1", "tenant2"
            }
            device_rows = fleet_device_rows(fleet)
            assert len(device_rows) == 3
            assert sum(row.served for row in device_rows) == 12
            table = format_fleet_table(device_rows)
            assert "device" in table and "lifetime" in table
            assert fleet_implied_lifetime_years(device_rows) > 0

    def test_shutdown_is_idempotent_and_blocks_submit(self):
        fleet = FleetServer(_fleet_config())
        fleet.shutdown()
        fleet.shutdown()
        with pytest.raises(ServeError, match="shut down"):
            fleet.submit("t", GEMV_SOURCE, PARAMS, {})

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(num_devices=0)
        with pytest.raises(ValueError):
            FleetConfig(max_attempts=0)
        with pytest.raises(ValueError):
            FleetConfig(num_devices=1, initial_wear_bytes=(1, 2))


# ---------------------------------------------------------------------------
# Faults, retry, migration, quarantine
# ---------------------------------------------------------------------------
class TestFleetFaults:
    def test_transient_faults_retry_to_success(self):
        plan = FaultPlan(
            op_rules=[OpFaultRule("dma", 1.0, max_faults=4)], seed=3
        )
        with FleetServer(_fleet_config(fault_plan=plan)) as fleet:
            handles = _submit_trace(fleet, count=10)
            snap = fleet.drain()
            assert all(h.status is RequestStatus.COMPLETED for h in handles)
            fleet_stats = snap["fleet"]
            assert fleet_stats["faults_injected"] >= 4
            assert fleet_stats["retries"] >= 4
            assert fleet_stats["faults_recovered"] >= 1
            assert fleet_stats["faults_unrecovered"] == 0
            retried = [h for h in handles if h.retries > 0]
            assert retried
            assert all(fleet.verify_fleet_partition().values())

    def test_retry_exhaustion_fails_the_request(self):
        # Every dma op faults, forever: requests burn all attempts.
        plan = FaultPlan(op_rules=[OpFaultRule("dma", 1.0)], seed=0)
        config = _fleet_config(fault_plan=plan, max_attempts=3)
        with FleetServer(config) as fleet:
            handles = _submit_trace(fleet, count=4, tenants=1)
            snap = fleet.drain()
            assert all(h.status is RequestStatus.FAILED for h in handles)
            assert all(h.attempts == 3 for h in handles)
            assert all(
                "RetryExhausted" in h.reject_reason for h in handles
            )
            assert snap["fleet"]["faults_unrecovered"] == len(handles)
            assert all(fleet.verify_fleet_partition().values())

    def test_device_death_migrates_lease_to_healthy_device(self):
        # Device 0 dies right after its first lease starts: the stranded
        # members migrate and complete elsewhere.
        plan = FaultPlan(kills=[DeviceKill(0, 1.05e-4)])
        config = _fleet_config(
            num_devices=2, placement="round-robin", fault_plan=plan
        )
        with FleetServer(config) as fleet:
            handles = _submit_trace(fleet, count=12, spacing_s=1e-5)
            snap = fleet.drain()
            assert all(h.status is RequestStatus.COMPLETED for h in handles)
            assert fleet.devices[0].state is DeviceState.DRAINED
            assert fleet.devices[1].state is DeviceState.UP
            migrated = [h for h in handles if h.migrations > 0]
            assert migrated
            assert all(h.device_id == 1 for h in migrated)
            stats = snap["fleet"]
            assert stats["devices"] == {"0": "drained", "1": "up"}
            assert stats["migrations"] == len(migrated)
            assert stats["faults_by_op"].get("device") == 1
            assert all(fleet.verify_fleet_partition().values())

    def test_mid_attempt_death_compensates_billed_work(self):
        """The 'work billed on a dead device' case: the attempt ran (the
        crossbar was physically programmed) but the device died before
        the response was released — the work must land in compensations,
        never on a tenant, and the partition must stay exact."""
        plan = FaultPlan(kills=[DeviceKill(0, 1.000001e-4)])
        config = _fleet_config(
            num_devices=2, placement="round-robin", fault_plan=plan
        )
        with FleetServer(config) as fleet, fleet.ledger.observe() as log:
            handles = _submit_trace(fleet, count=8, tenants=1, spacing_s=1e-5)
            fleet.drain()
            assert all(h.status is RequestStatus.COMPLETED for h in handles)
            comps = [c for c in log.compensations if c.device_id == 0]
            assert comps, "the interrupted attempt's work must be compensated"
            assert fold(log.compensations, "wear_bytes")["wear_bytes"] > 0
            # The dead device's physical ledger still reconciles exactly.
            assert all(fleet.verify_fleet_partition().values())
            # No tenant was billed for the lost attempt: tenant wear on
            # device 0 + compensation == device 0 physical writes.
            billed = sum(u.wear_bytes for u in log.usages if u.device_id == 0)
            physical = fleet.devices[0].system.accelerator.total_cell_writes()
            assert billed + fold(log.compensations, "wear_bytes")["wear_bytes"] == physical

    def test_whole_fleet_death_fails_remaining_requests(self):
        plan = FaultPlan(kills=[DeviceKill(0, 1.5e-4)])
        config = FleetConfig(
            num_devices=1, batch_window_s=1e-4, max_batch_size=4,
            fault_plan=plan,
        )
        with FleetServer(config) as fleet:
            handles = _submit_trace(fleet, count=8, tenants=1, spacing_s=1e-5)
            fleet.drain()
            statuses = {h.status for h in handles}
            assert RequestStatus.FAILED in statuses
            failed = [h for h in handles if h.status is RequestStatus.FAILED]
            assert all(
                "no healthy devices" in h.reject_reason for h in failed
            )
            assert all(fleet.verify_fleet_partition().values())

    def test_degradation_tightens_admission(self):
        """Device deaths shrink every tenant's effective queue bound."""
        plan = FaultPlan(kills=[DeviceKill(0, 1e-6), DeviceKill(1, 1e-6)])
        with FleetServer(_fleet_config(fault_plan=plan)) as fleet:
            _submit_trace(fleet, count=3)
            fleet.drain()
            assert fleet.admission.depth_scale == pytest.approx(1 / 3)
            quota = fleet.config.default_quota
            tightened = fleet.admission.effective_queue_depth(quota)
            assert tightened < quota.max_queue_depth
            assert tightened >= 1

    def test_tighten_admission_can_be_disabled(self):
        plan = FaultPlan(kills=[DeviceKill(0, 1e-6)])
        config = _fleet_config(fault_plan=plan, tighten_admission=False)
        with FleetServer(config) as fleet:
            _submit_trace(fleet, count=3)
            fleet.drain()
            assert fleet.admission.depth_scale == 1.0

    def test_capacity_degrade_shrinks_leases(self):
        plan = FaultPlan(degrades=[CapacityDegrade(0, 0.0, 0.25)])
        config = FleetConfig(
            num_devices=1, batch_window_s=1e-3, max_batch_size=8,
            fault_plan=plan,
        )
        with FleetServer(config) as fleet:
            _submit_trace(fleet, count=8, tenants=1, spacing_s=1e-5)
            snap = fleet.drain()
            assert fleet.devices[0].capacity_factor == 0.25
            assert snap["batching"]["max_size"] <= 2  # floor(8 * 0.25)
            assert snap["fleet"]["faults_by_op"].get("degrade") == 1

    def test_fault_plan_is_not_consumed_across_servers(self):
        """The same FaultPlan object can configure many runs (the server
        takes a fresh copy); both runs see identical faults."""
        plan = FaultPlan(op_rules=[OpFaultRule("dma", 0.4)], seed=11)

        def run():
            with FleetServer(_fleet_config(fault_plan=plan)) as fleet:
                handles = _submit_trace(fleet, count=10)
                snap = fleet.drain()
                return (
                    snap["fleet"]["faults_injected"],
                    [h.attempts for h in handles],
                )

        assert run() == run()


# ---------------------------------------------------------------------------
# Differential fault test (the PR's acceptance criterion)
# ---------------------------------------------------------------------------
class TestDifferentialFaults:
    def test_faulted_run_is_bit_identical_to_fault_free_run(self):
        """Same trace, with and without a fault storm: every completed
        response is bit-identical, and both runs' ledgers partition
        exactly across tenants and devices."""
        plan = FaultPlan(
            kills=[DeviceKill(1, 4e-4)],
            degrades=[CapacityDegrade(2, 2e-4, 0.5)],
            op_rules=[
                OpFaultRule("dma", 0.2, max_faults=6),
                OpFaultRule("compile", 0.3, max_faults=2),
                OpFaultRule("dispatch", 0.1, max_faults=3),
            ],
            seed=99,
        )

        def run(fault_plan):
            with FleetServer(_fleet_config(fault_plan=fault_plan)) as fleet:
                handles = _submit_trace(fleet, count=24, spacing_s=2e-5)
                fleet.drain()
                partition = fleet.verify_fleet_partition()
                return handles, partition

        clean_handles, clean_partition = run(None)
        faulted_handles, faulted_partition = run(plan)

        assert all(clean_partition.values()), clean_partition
        assert all(faulted_partition.values()), faulted_partition
        assert all(
            h.status is RequestStatus.COMPLETED for h in clean_handles
        )
        assert all(
            h.status is RequestStatus.COMPLETED for h in faulted_handles
        )
        # The storm actually did something.
        assert any(
            h.retries > 0 or h.migrations > 0 for h in faulted_handles
        )
        for clean, faulted in zip(clean_handles, faulted_handles):
            clean_result = clean.result()
            faulted_result = faulted.result()
            assert clean_result.keys() == faulted_result.keys()
            for name, value in clean_result.items():
                np.testing.assert_array_equal(faulted_result[name], value)

    def test_each_request_is_billed_exactly_once_under_faults(self):
        """Exactly-once: no matter how many attempts, retries and
        migrations a request suffers, it produces exactly one usage
        record (one bill) — lost attempts land in compensations, which
        reference only requests that genuinely left work on a device."""
        plan = FaultPlan(
            kills=[DeviceKill(0, 3e-4)],
            op_rules=[OpFaultRule("dma", 0.25, max_faults=5)],
            seed=5,
        )
        with FleetServer(_fleet_config(fault_plan=plan)) as fleet, fleet.ledger.observe() as log:
            handles = _submit_trace(fleet, count=18, spacing_s=2e-5)
            fleet.drain()
            assert any(h.retries > 0 or h.migrations > 0 for h in handles)
            billed_ids = [usage.request_id for usage in log.usages]
            # One bill per resolved request — never two, never zero.
            assert len(billed_ids) == len(set(billed_ids))
            completed_ids = {
                h.request_id
                for h in handles
                if h.status is RequestStatus.COMPLETED
            }
            assert set(billed_ids) == completed_ids
            # Compensations reference real requests and real lost work.
            for comp in log.compensations:
                assert comp.request_id in {h.request_id for h in handles}
                assert comp.wear_bytes > 0 or comp.energy_j > 0
            assert all(fleet.verify_fleet_partition().values())


# ---------------------------------------------------------------------------
# Handle idempotency (PR 6 satellite)
# ---------------------------------------------------------------------------
class TestHandleIdempotency:
    def _completed_handle(self):
        handle = RequestHandle(request_id=1, tenant="t", arrival_s=0.0)
        handle.mark_queued(0.0)
        handle.mark_completed(
            completed_s=1.0,
            batch_id=1,
            batch_size=1,
            report=ExecutionReport(program_name="k"),
            result={"y": np.zeros(4, dtype=np.float32)},
            device_id=0,
        )
        return handle

    def test_terminal_handle_rejects_every_transition(self):
        handle = self._completed_handle()
        before = (handle.status, handle.completed_s, handle.batch_id)
        with pytest.raises(HandleStateError, match="already completed"):
            handle.mark_completed(
                completed_s=9.0, batch_id=9, batch_size=9,
                report=ExecutionReport(program_name="k"), result={},
            )
        with pytest.raises(HandleStateError):
            handle.mark_failed(completed_s=9.0, reason="late fault")
        with pytest.raises(HandleStateError):
            handle.mark_rejected("late rejection")
        with pytest.raises(HandleStateError):
            handle.mark_queued(9.0)
        # Nothing was overwritten.
        assert (handle.status, handle.completed_s, handle.batch_id) == before

    def test_failed_and_rejected_are_terminal_too(self):
        failed = RequestHandle(request_id=2, tenant="t", arrival_s=0.0)
        failed.mark_failed(completed_s=1.0, reason="boom")
        with pytest.raises(HandleStateError, match="already failed"):
            failed.mark_completed(
                completed_s=2.0, batch_id=1, batch_size=1,
                report=ExecutionReport(program_name="k"), result={},
            )
        rejected = RequestHandle(request_id=3, tenant="t", arrival_s=0.0)
        rejected.mark_rejected("queue full")
        with pytest.raises(HandleStateError, match="already rejected"):
            rejected.mark_queued(1.0)

    def test_handle_state_error_is_a_serve_error(self):
        assert issubclass(HandleStateError, ServeError)
