"""Exact pins for four simulated-time magnitudes.

Every value here is simulated time or Eq. 1 lifetime — deterministic, so
compared with ``==``.  Wall-clock numbers live in ``BENCHMARK.json`` +
``benchmarks/suite/`` and nowhere else.  A pin that moves is a behaviour
change of the cost model, the batcher, the tile scheduler or placement;
re-record one only with the reason in CHANGES.md.
"""

from __future__ import annotations

import numpy as np

from repro import (
    CimServer,
    CimSystem,
    FleetConfig,
    FleetServer,
    OffloadExecutor,
    ServerConfig,
    SystemConfig,
    TenantQuota,
    compile_source,
)
from repro.eval import fleet_device_rows, fleet_implied_lifetime_years
from repro.eval.tenants import DEFAULT_CELL_ENDURANCE_WRITES
from repro.fleet import DeviceKill, FaultPlan, OpFaultRule
from repro.serve import RequestStatus
from repro.workloads import PAPER_KERNELS, get_kernel

TENANTS = ("alpha", "beta", "gamma", "delta")


def gemv_requests(side: int, count: int) -> list[tuple[str, dict]]:
    """Four tenants round-robin on one shared model matrix."""
    rng = np.random.default_rng(2020)
    model = rng.random((side, side), dtype=np.float32)
    return [
        (
            TENANTS[index % len(TENANTS)],
            {
                "A": model,
                "x": rng.random(side, dtype=np.float32),
                "y": np.zeros(side, dtype=np.float32),
            },
        )
        for index in range(count)
    ]


def serve_all(server, source, side, requests, spacing_s):
    """Submit *requests* *spacing_s* apart and drain; returns the handles
    and the simulated request rate over the makespan."""
    params = {"M": side, "N": side}
    handles = [
        server.submit(tenant, source, params, arrays, arrival_s=index * spacing_s)
        for index, (tenant, arrays) in enumerate(requests)
    ]
    server.drain()
    makespan_s = server.clock.now_s - handles[0].arrival_s
    return handles, len(handles) / makespan_s


# ----------------------------------------------------------------------
# Tile scheduler
# ----------------------------------------------------------------------
def test_accelerator_latency_speedup_at_4_tiles_on_paper_kernels():
    """MEDIUM operands on a 64x64 crossbar decompose into enough shard
    blocks to feed 8 tiles: latency falls with the tile count, energy
    does not depend on it."""
    speedups = []
    for name in PAPER_KERNELS:
        kernel = get_kernel(name)
        params = kernel.params("MEDIUM")
        arrays = kernel.arrays("MEDIUM", seed=11)
        compiled = compile_source(kernel.source, size_hint=params)
        reports = []
        for tiles in (1, 2, 4, 8):
            system = CimSystem(
                SystemConfig(num_tiles=tiles, crossbar_rows=64, crossbar_cols=64)
            )
            reports.append(OffloadExecutor(system).run(compiled.program, params, arrays)[1])
        assert len({report.accelerator_energy_j for report in reports}) == 1, name
        latencies = [report.accelerator_time_s for report in reports]
        assert latencies == sorted(latencies, reverse=True), name
        speedups.append(round(latencies[0] / latencies[2], 3))
    assert speedups == [3.676, 3.532, 3.632, 3.218, 3.79, 3.694, 3.79]


# ----------------------------------------------------------------------
# Dynamic batching
# ----------------------------------------------------------------------
def test_batching_speedup_over_cold_serialized_runs_is_the_same_at_1_2_4_tiles(
    gemv_source,
):
    """48 requests against one 128x128 model, offered at 8x the
    serialized rate.  The baseline programs the crossbar once per request
    (a cold ``OffloadExecutor.run`` each), the batcher once per lease.
    The matrix fits one crossbar block, so tiles add nothing: this
    measures batching, not tile scaling."""
    side, count = 128, 48
    requests = gemv_requests(side, count)
    params = {"M": side, "N": side}
    compiled = compile_source(gemv_source, size_hint=params)
    speedups = {}
    for tiles in (1, 2, 4):
        serialized_s = sum(
            OffloadExecutor(CimSystem(SystemConfig(num_tiles=tiles)))
            .run(compiled.program, params, arrays)[1]
            .total_time_s
            for _tenant, arrays in requests
        )
        serialized_rps = count / serialized_s
        config = ServerConfig(
            num_tiles=tiles, batch_window_s=250e-6, max_batch_size=16
        )
        with CimServer(config) as server:
            _handles, batched_rps = serve_all(
                server, gemv_source, side, requests, 1.0 / (8.0 * serialized_rps)
            )
        speedups[tiles] = round(batched_rps / serialized_rps, 2)
    assert speedups == {1: 6.51, 2: 6.51, 4: 6.51}


# ----------------------------------------------------------------------
# Fleet placement and failover
# ----------------------------------------------------------------------
FLEET_SIDE, FLEET_COUNT, FLEET_SPACING_S = 96, 64, 4e-5


def fleet_config(**overrides) -> FleetConfig:
    return FleetConfig(
        num_devices=4,
        batch_window_s=250e-6,
        max_batch_size=16,
        default_quota=TenantQuota(max_queue_depth=256),
        **overrides,
    )


def test_wear_aware_placement_lifetime_extension_over_round_robin(gemv_source):
    """Device 0 joins at 99 % of its Eq. 1 endurance budget; fleet
    lifetime is that of the most-worn device."""
    requests = gemv_requests(FLEET_SIDE, FLEET_COUNT)
    with FleetServer(FleetConfig(num_devices=1)) as probe:
        budget = DEFAULT_CELL_ENDURANCE_WRITES * probe.ledger.crossbar_size_bytes
    pre_aged = (int(budget * 0.99), 0, 0, 0)
    lifetime_years = {}
    for placement in ("round-robin", "wear-aware"):
        config = fleet_config(placement=placement, initial_wear_bytes=pre_aged)
        with FleetServer(config) as fleet:
            serve_all(fleet, gemv_source, FLEET_SIDE, requests, FLEET_SPACING_S)
            assert all(fleet.verify_fleet_partition().values())
            lifetime_years[placement] = fleet_implied_lifetime_years(
                fleet_device_rows(fleet, DEFAULT_CELL_ENDURANCE_WRITES)
            )
    extension = lifetime_years["wear-aware"] / lifetime_years["round-robin"]
    assert extension == 75.00012487521073


def test_throughput_fraction_with_half_the_fleet_killed(gemv_source):
    """Two of four devices die mid-run under transient DMA faults: every
    request is still served, bit-identically to the fault-free run."""
    requests = gemv_requests(FLEET_SIDE, FLEET_COUNT)
    storm_end_s = FLEET_COUNT * FLEET_SPACING_S
    plan = FaultPlan(
        kills=[DeviceKill(0, storm_end_s * 0.3), DeviceKill(1, storm_end_s * 0.6)],
        op_rules=[OpFaultRule("dma", 0.1, max_faults=8)],
        seed=2020,
    )
    runs = {}
    for name, fault_plan in (("clean", None), ("storm", plan)):
        config = fleet_config(placement="wear-aware", fault_plan=fault_plan)
        with FleetServer(config) as fleet:
            handles, rps = serve_all(
                fleet, gemv_source, FLEET_SIDE, requests, FLEET_SPACING_S
            )
            assert all(fleet.verify_fleet_partition().values()), name
            assert all(h.status is RequestStatus.COMPLETED for h in handles), name
            runs[name] = (rps, [handle.result() for handle in handles])
    (clean_rps, clean_results), (storm_rps, storm_results) = runs["clean"], runs["storm"]
    assert len(storm_results) == FLEET_COUNT
    for clean, storm in zip(clean_results, storm_results):
        for array_name in clean:
            np.testing.assert_array_equal(clean[array_name], storm[array_name])
    assert storm_rps / clean_rps == 0.879365079365079
