"""The fused GEMV lease, pinned bit for bit.

A fused lease (``LeaseExecutor._dispatch_fused``) serves k compatible
GEMV requests against one programmed matrix.  How it gets there is free;
what it reports is not.  Each case below serves one or more leases and
records, per member, the result bytes and every field of its bill
(:class:`~repro.serve.accounting.RequestUsage`) or of its fault
compensation, and per device the energy ledgers in insertion order, the
counters, the host overhead, DMA and shared-memory traffic, the run
records, both timelines and the exact-partition verdict.

Operands are non-integer float32, so a change in summation order would
show in the result bytes.  ``tests/golden/serve/fused_leases.json`` holds
what the tree *before* the descriptor-once lease produced; the comparison
is ``==``.

Recording (only from a tree whose fused lease is the reference)::

    PYTHONPATH=<reference tree>/src python tests/test_fused_lease_golden.py
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from repro import CimServer, FleetServer, ServerConfig
from repro.fleet.faults import DeviceKill, FaultPlan, OpFaultRule
from repro.fleet.server import FleetConfig

GOLDEN = Path(__file__).resolve().parent / "golden" / "serve" / "fused_leases.json"

PLAIN = """
void gemv(int M, int N, float A[M][N], float x[N], float y[M]) {
  for (int i = 0; i < M; i++) {
    y[i] = 0.0;
    for (int j = 0; j < N; j++)
      y[i] += A[i][j] * x[j];
  }
}
"""

ALPHA = """
void gemv(int M, int N, float alpha, float A[M][N], float x[N], float y[M]) {
  for (int i = 0; i < M; i++) {
    y[i] = 0.0;
    for (int j = 0; j < N; j++)
      y[i] += alpha * A[i][j] * x[j];
  }
}
"""

BETA = """
void gemv(int M, int N, float alpha, float beta, float A[M][N], float x[N], float y[M]) {
  for (int i = 0; i < M; i++) {
    y[i] = beta * y[i];
    for (int j = 0; j < N; j++)
      y[i] += alpha * A[i][j] * x[j];
  }
}
"""

TRANS = """
void gemvt(int M, int N, float A[N][M], float x[N], float y[M]) {
  for (int i = 0; i < M; i++) {
    y[i] = 0.0;
    for (int j = 0; j < N; j++)
      y[i] += A[j][i] * x[j];
  }
}
"""

M, N = 24, 20


def _case(source=PLAIN, members=3, mode="ideal", tiles=1, xbar=None,
          params=None, malformed=None, fleet=False):
    return dict(source=source, members=members, mode=mode, tiles=tiles, xbar=xbar,
                params={"M": M, "N": N, **(params or {})}, malformed=malformed or {},
                fleet=fleet)


CASES = {
    "lease1-ideal": _case(members=1),
    "lease3-ideal": _case(),
    "lease16-ideal": _case(members=16),
    "lease16-quantized-tiles4-xbar16": _case(members=16, mode="quantized", tiles=4, xbar=16),
    "lease3-ideal-tiles4-xbar16": _case(tiles=4, xbar=16),
    "lease3-quantized": _case(mode="quantized"),
    "alpha-lease3-ideal": _case(ALPHA, params={"alpha": 1.375}),
    "alpha-lease3-quantized-tiles4-xbar16": _case(
        ALPHA, mode="quantized", tiles=4, xbar=16, params={"alpha": -0.625}),
    "beta-lease3-ideal": _case(BETA, params={"alpha": 1.5, "beta": 0.75}),
    "beta-lease3-quantized-tiles4-xbar16": _case(
        BETA, mode="quantized", tiles=4, xbar=16, params={"alpha": 0.5, "beta": -1.25}),
    "trans-lease3-ideal": _case(TRANS),
    "trans-lease3-quantized-tiles4-xbar16": _case(TRANS, mode="quantized", tiles=4, xbar=16),
    # Member 2 has no x and member 4 no y: each fails alone and the lease
    # re-establishes for the members after it.  Member 3's x is too long
    # but fits its CMA block: it is served against its first N entries.
    "malformed-mid-lease6": _case(
        members=6, malformed={2: "missing_x", 3: "long_x", 4: "missing_y"}),
    "malformed-establisher-lease3": _case(malformed={0: "missing_x"}),
    # Transient attempt-stage faults and a device death that surfaces at
    # a member's commit stage, both in mid-lease.
    "fleet-faults-lease12": _case(members=12, fleet=True),
    "fleet-faults-lease12-beta-quantized": _case(
        BETA, members=12, mode="quantized", fleet=True,
        params={"alpha": 1.5, "beta": 0.75}),
}


def _floats(mapping) -> list[list[str]]:
    return [[key, repr(float(value))] for key, value in mapping.items()]


def _digest(array) -> str:
    data = np.ascontiguousarray(array)
    return f"{data.dtype.str}{data.shape}:" + hashlib.sha256(data.tobytes()).hexdigest()


def _record_fields(record) -> dict:
    return {f.name: repr(getattr(record, f.name)) for f in fields(record)}


def _timeline(events) -> str:
    text = "\n".join(
        f"{e.component}|{e.action}|{e.start_s!r}|{e.duration_s!r}" for e in events
    )
    return f"{len(events)}:" + hashlib.sha256(text.encode()).hexdigest()


def _device(system) -> dict:
    acc = system.accelerator
    memory = system.memory
    return {
        "ledgers": {
            "accelerator": _floats(acc.energy.as_dict()),
            "tile": _floats(acc.tile.energy.as_dict()),
        },
        "counters": {
            "accelerator": dict(sorted(acc.counters.as_dict().items())),
            "tile": dict(sorted(acc.tile.counters.as_dict().items())),
        },
        "host_overhead": [repr(system.host_overhead.instructions),
                          repr(system.host_overhead.energy_j),
                          repr(system.host_overhead.time_s)],
        "dma": [acc.dma.total_bytes, repr(acc.dma.total_energy_j),
                repr(acc.dma.total_time_s)],
        "memory": [memory.reads, memory.writes, memory.bytes_read, memory.bytes_written],
        "runs": [_record_fields(run) for run in acc.completed_runs],
        "totals": _record_fields(acc.totals),
        "timeline": _timeline(acc.timeline.events),
    }


def _arrays(rng, matrix, shape_a, kind=None) -> dict:
    arrays = {
        "A": matrix,
        "x": rng.standard_normal(N).astype(np.float32),
        "y": rng.standard_normal(M).astype(np.float32),
    }
    if kind == "missing_x":
        del arrays["x"]
    elif kind == "missing_y":
        del arrays["y"]
    elif kind == "long_x":
        arrays["x"] = rng.standard_normal(N + 7).astype(np.float32)
    return arrays


def run_case(name: str) -> dict:
    case = CASES[name]
    rng = np.random.default_rng(sum(name.encode()))
    shape_a = (N, M) if case["source"] is TRANS else (M, N)
    matrix = rng.standard_normal(shape_a).astype(np.float32)
    common = dict(num_tiles=case["tiles"], crossbar_mode=case["mode"],
                  crossbar_rows=case["xbar"], crossbar_cols=case["xbar"],
                  batch_window_s=1e-4, max_batch_size=16)
    if case["fleet"]:
        server = FleetServer(FleetConfig(
            num_devices=2, placement="round-robin",
            fault_plan=FaultPlan(
                kills=[DeviceKill(0, 1.9e-4)],
                op_rules=[OpFaultRule("dispatch", 0.2)],
                seed=11,
            ),
            **common,
        ))
    else:
        server = CimServer(ServerConfig(**common))
    with server:
        handles = [
            server.submit(f"tenant{index % 3}", case["source"], case["params"],
                          _arrays(rng, matrix, shape_a, case["malformed"].get(index)),
                          arrival_s=index * 1e-6)
            for index in range(case["members"])
        ]
        snapshot = server.drain()
        systems = [device.system for device in server.devices]
        record = {
            "members": [
                {
                    "status": handle.status.value,
                    "reason": handle.reject_reason,
                    "batch": [handle.batch_id, handle.batch_size, handle.device_id],
                    "attempts": [handle.attempts, handle.migrations],
                    "result": (
                        {key: _digest(value) for key, value in sorted(handle.result().items())}
                        if handle.status.value == "completed" else None
                    ),
                }
                for handle in handles
            ],
            "usages": [_record_fields(usage) for usage in server.ledger.all_usages()],
            "compensations": [_record_fields(c) for c in server.ledger.compensations],
            "housekeeping": [repr(value) for value in
                             server.ledger.housekeeping_energy_j_records],
            "devices": [_device(system) for system in systems],
            "serve_timeline": _timeline(server.timeline.events),
            "partition_checks": server.ledger.verify_fleet_partition(
                {d.device_id: d.system.accelerator for d in server.devices}),
            "metrics": snapshot,
        }
    return json.loads(json.dumps(record))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(CASES)


def test_cases_exercise_what_they_claim(golden):
    """The fault cases really fault mid-lease, the malformed ones really
    fail one member, and the fleet partition stays exact."""
    for name in ("fleet-faults-lease12", "fleet-faults-lease12-beta-quantized"):
        members = golden[name]["members"]
        # All twelve form the first lease: six are served, then a
        # transient fault (retried) and a death (migrated) in mid-lease.
        assert [m["batch"][0] for m in members[:6]] == [1] * 6, name
        assert [m["attempts"] for m in members[:8]] == [[1, 0]] * 6 + [[2, 0], [2, 1]]
        reasons = [c["reason"] for c in golden[name]["compensations"]]
        assert len(reasons) == 1 and "LeaseAborted: device 0" in reasons[0], name
        assert all(m["status"] == "completed" for m in members), name
    statuses = [m["status"] for m in golden["malformed-mid-lease6"]["members"]]
    assert statuses == ["completed"] * 2 + ["failed", "completed"] * 2
    assert golden["malformed-establisher-lease3"]["members"][0]["status"] == "failed"
    assert all(all(record["partition_checks"].values()) for record in golden.values())


@pytest.mark.parametrize("name", sorted(CASES))
def test_fused_lease_equals_golden(name, golden):
    record = run_case(name)
    expected = golden[name]
    for key in expected:
        assert record[key] == expected[key], f"{name}: {key} moved"
    assert record == expected


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(
        json.dumps({name: run_case(name) for name in CASES}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"recorded {len(CASES)} cases to {GOLDEN}")
