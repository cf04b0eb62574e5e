"""Serving loops keep totals, not history.

A serving tier folds each request's records at commit: an accelerator
run into the device's running totals, a bill, compensation or
housekeeping charge into the ledger's :class:`~repro.serve.accounting.
Tally` totals, a timeline event into a fixed ring.  What a loop retains
therefore stops growing with the requests it has served; only the
metrics registry's exact-percentile lists keep a few floats per
completed request (by design: the golden ``metrics`` events pin exact
percentiles).

The first tests drive each tier for some hundreds of requests after a
warm-up and bound tracemalloc's retained growth per request.  The
timeline rings are shrunk for them, so that they turn over during the
warm-up: a full ring replacing its untraced events would otherwise read
as growth.  The rest pin what the folding must not change: the exact
accumulator reads out what :func:`math.fsum` returns over any split of
the same records, and an admission budget reads running totals, never a
record.
"""

from __future__ import annotations

import gc
import itertools
import math
import random
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hw.timeline as timeline_module
from repro.fleet import DeviceKill, FaultPlan, FleetConfig, FleetServer, OpFaultRule
from repro.gateway.loadgen import synthetic_gemv_workload
from repro.gateway.server import GatewayConfig
from repro.gateway.wire import GatewayRequest
from repro.gateway.worker import build_worker_server, serve_one
from repro.serve import CimServer
from repro.serve.accounting import (
    AccountingLedger,
    ExactSum,
    FaultCompensation,
    Housekeeping,
    RequestUsage,
    Tally,
    fold,
)
from repro.serve.admission import TenantQuota, budget_exhausted_reason
from repro.workloads import KERNELS

#: Bytes a served request may leave behind.  The metrics registry's three
#: exact-percentile lists take ~100 of them (a latency and a queueing
#: delay per completed request, plus list growth); the rest is headroom.
#: Before the records were folded at commit a request left ~1.5 KB
#: (``CimServer``) to ~3.3 KB (``FleetServer``).
BYTES_PER_REQUEST = 320

#: Timeline ring size while measuring (see the module docstring).
SMALL_RING = 16


def _retained_per_request(serve, requests: int) -> float:
    """Bytes ``serve(n)`` leaves allocated per request: the smaller of two
    consecutive windows of *requests* requests, after a short traced
    turnover.  A bounded cache or free list that fills up lands in one
    window; growth with every request shows in both."""
    def mark() -> int:
        gc.collect()  # served requests' cyclic garbage is not retained
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        serve(32)
        marks = [mark()]
        for _ in range(2):
            serve(requests)
            marks.append(mark())
    finally:
        tracemalloc.stop()
    return min(after - before for before, after in zip(marks, marks[1:])) / requests


@pytest.fixture
def small_rings(monkeypatch):
    monkeypatch.setattr(timeline_module, "TIMELINE_EVENTS", SMALL_RING)


def _gemv_arrays(rng, matrix) -> dict:
    return {
        "A": matrix,
        "x": rng.integers(0, 8, matrix.shape[1]).astype(np.float32),
        "y": np.zeros(matrix.shape[0], dtype=np.float32),
    }


def test_a_cim_server_retains_nothing_per_fused_gemv(small_rings):
    rng = np.random.default_rng(0)
    models = [rng.integers(0, 8, (16, 16)).astype(np.float32) for _ in range(2)]
    source = synthetic_gemv_workload(num_tenants=1, seed=0)(0).source
    params = {"M": 16, "N": 16}

    with CimServer() as server:
        def serve(count: int) -> None:
            for burst in range(count // 16):
                matrix = models[burst % len(models)]
                for slot in range(16):
                    server.submit(f"t{slot % 4}", source, params, _gemv_arrays(rng, matrix))
                server.drain()

        serve(128)
        assert server.metrics.fused_batches > 0
        per_request = _retained_per_request(serve, 192)
        assert all(server.ledger.verify_partition(server.system.accelerator).values())
    assert per_request < BYTES_PER_REQUEST, per_request


def test_a_fleet_under_faults_retains_nothing_per_request(small_rings):
    names = ("atax", "bicg", "mvt", "gesummv")
    inputs = [
        (KERNELS[name].source, KERNELS[name].params("SMALL"), KERNELS[name].arrays("SMALL", index))
        for index, name in enumerate(names)
    ]
    # Device 0 dies mid-attempt during the warm-up (a compensation);
    # transient faults keep retrying requests on the other two.
    plan = FaultPlan(
        kills=[DeviceKill(0, 1e-3)],
        op_rules=[OpFaultRule("dma", 0.05), OpFaultRule("dispatch", 0.05)],
        seed=3,
    )
    with FleetServer(FleetConfig(num_devices=3, fault_plan=plan)) as fleet:
        def serve(count: int) -> None:
            for index in range(count):
                source, params, arrays = inputs[index % len(inputs)]
                fleet.submit(f"t{index % 4}", source, params, arrays)
                if index % 8 == 7:
                    fleet.drain()
            fleet.drain()

        serve(64)
        per_request = _retained_per_request(serve, 64)
        assert fleet.metrics.snapshot()["fleet"]["faults_injected"] > 0
        assert fleet.ledger.compensation_tallies()
        assert all(fleet.verify_fleet_partition().values())
    assert per_request < BYTES_PER_REQUEST, per_request


def test_a_gateway_worker_retains_nothing_per_request(small_rings):
    item = synthetic_gemv_workload(num_tenants=1, seed=5)(0)
    server = build_worker_server(GatewayConfig().worker_wire())
    serial = itertools.count(1)

    def serve(count: int) -> None:
        for _ in range(count):
            request = GatewayRequest(
                next(serial), item.tenant, item.source, dict(item.params), dict(item.arrays)
            )
            response = serve_one(server, request, worker_id=0)
            assert response.status == "completed" and response.usage

    try:
        serve(64)
        per_request = _retained_per_request(serve, 96)
    finally:
        server.shutdown()
    assert per_request < BYTES_PER_REQUEST, per_request


# ----------------------------------------------------------------------
# The exact accumulator is fsum
# ----------------------------------------------------------------------
_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-16, 1.0]),
    st.floats(min_value=0.0, max_value=1e-3, allow_subnormal=True),
)
_RECORDS = st.lists(
    st.tuples(_FLOATS, _FLOATS, _FLOATS, st.integers(0, 2), st.integers(0, 2),
              st.integers(0, 2)),
    max_size=24,
)


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


@settings(max_examples=120, deadline=None)
@given(values=st.lists(_FLOATS, max_size=40), seed=st.integers(0, 2**32))
def test_an_exact_sum_reads_out_what_fsum_returns(values, seed):
    """Bit for bit, signed zeros included, in any order and however the
    addends are split into partial sums and merged."""
    try:
        expected = math.fsum(values)
    except OverflowError:
        return  # fsum cannot say; neither need the ledger
    shuffled = random.Random(seed).sample(values, len(values))
    cut = random.Random(seed).randint(0, len(values))
    whole, head, tail = ExactSum(), ExactSum(), ExactSum()
    for value in shuffled:
        whole.add(value)
    for value in shuffled[:cut]:
        head.add(value)
    for value in shuffled[cut:]:
        tail.add(value)
    tail.merge(head)
    assert _bits(whole.value()) == _bits(expected)
    assert _bits(tail.value()) == _bits(expected)


@settings(max_examples=80, deadline=None)
@given(specs=_RECORDS, seed=st.integers(0, 2**32))
def test_ledger_totals_are_the_fsum_of_every_union_of_records(specs, seed):
    """A ledger fed bills, compensations and housekeeping in any order,
    across tenants and devices, totals every union its readers ask for
    exactly as ``math.fsum`` over the same records would."""
    usages, compensations, housekeeping = [], [], []
    for index, (host_j, offload_j, accel_j, kind, tenant, device) in enumerate(specs):
        work = dict(offload_energy_j=offload_j, accelerator_energy_j=accel_j,
                    crossbar_cell_writes=index, macs=2 * index)
        if kind == 0:
            usages.append(RequestUsage(
                request_id=index, tenant=f"t{tenant}", batch_id=index, arrival_s=0.0,
                completed_s=0.0, service_s=host_j, latency_s=0.0, host_energy_j=host_j,
                device_id=device, **work))
        elif kind == 1:
            compensations.append(FaultCompensation(
                request_id=index, tenant=f"t{tenant}", device_id=device, batch_id=index,
                at_s=0.0, reason="injected", op="commit", **work))
        else:
            housekeeping.append(Housekeeping(host_j, device))
    records = usages + compensations + housekeeping
    ledger = AccountingLedger(crossbar_size_bytes=64.0)
    with ledger.observe() as log:
        for record in random.Random(seed).sample(records, len(records)):
            if isinstance(record, RequestUsage):
                ledger.record(record)
            elif isinstance(record, FaultCompensation):
                ledger.record_compensation(record)
            else:
                ledger.record_housekeeping(record.energy_j, record.device_id)
    kept = [h for h in housekeeping if h.energy_j != 0.0]
    assert log.housekeeping == [h for h in log.housekeeping if h in kept]

    def fsum(selected, name):
        try:
            return math.fsum(getattr(record, name) for record in selected)
        except OverflowError:
            return None

    def check(tallies, selected, *names):
        for name in names:
            expected = fsum(selected, name)
            if expected is not None:
                read = Tally.of(tallies, name).read()[name]
                assert _bits(read) == _bits(expected), name

    for device in (0, 1, 2, None):
        mine = [r for r in records if device is None or r.device_id == device]
        billed = [r for r in mine if isinstance(r, RequestUsage)]
        lost = [r for r in mine if isinstance(r, FaultCompensation)]
        spent = [r for r in mine if isinstance(r, Housekeeping) and r.energy_j != 0.0]
        check(ledger.usage_tallies(device), billed, "energy_j", "service_s")
        check(ledger.usage_tallies(device) + ledger.compensation_tallies(device),
              billed + lost, "energy_j", "accelerator_energy_j")
        check(ledger.usage_tallies(device) + ledger.compensation_tallies(device)
              + ledger.housekeeping_tallies(device), billed + lost + spent, "energy_j")
        assert Tally.of(ledger.usage_tallies(device), "wear_bytes").read() == {
            "wear_bytes": sum(r.wear_bytes for r in billed)}
    for tenant in {r.tenant for r in usages}:
        billed = [r for r in usages if r.tenant == tenant]
        expected = fsum(billed, "energy_j")
        if expected is not None:
            read = ledger.account(tenant).totals("energy_j")["energy_j"]
            assert _bits(read) == _bits(expected)
        assert ledger.account(tenant).completed == len(billed)


# ----------------------------------------------------------------------
# Admission budgets read totals, not records
# ----------------------------------------------------------------------
class _Watched(RequestUsage):
    """A bill that counts reads of its fields once it is armed."""

    armed = False
    reads = 0

    def __getattribute__(self, name):
        if type(self).armed and not name.startswith("__"):
            type(self).reads += 1
        return super().__getattribute__(name)


def test_an_admission_budget_reads_no_record():
    ledger = AccountingLedger(crossbar_size_bytes=64.0)
    records = [
        _Watched(request_id=index, tenant="heavy", batch_id=index, arrival_s=0.0,
                 completed_s=0.0, service_s=1e-6, latency_s=0.0,
                 host_energy_j=1e-9 * (index % 7), offload_energy_j=3e-10,
                 accelerator_energy_j=1e-9 / (1 + index % 5),
                 crossbar_cell_writes=index % 11)
        for index in range(5000)
    ]
    for record in records:
        ledger.record(record)
    wear = fold(records, "wear_bytes")["wear_bytes"]
    energy = fold(records, "energy_j")["energy_j"]
    account = ledger.account("heavy")
    _Watched.armed = True
    try:
        within = TenantQuota(wear_budget_bytes=wear + 1, energy_budget_j=energy * 2)
        assert budget_exhausted_reason(within, account) is None
        worn = TenantQuota(wear_budget_bytes=wear, energy_budget_j=energy * 2)
        spent = TenantQuota(wear_budget_bytes=wear + 1, energy_budget_j=energy)
        assert budget_exhausted_reason(worn, account) == (
            f"wear quota exhausted ({wear} B written >= budget {float(wear):.0f} B)"
        )
        assert budget_exhausted_reason(spent, account) == (
            f"energy quota exhausted ({energy:.3e} J >= budget {energy:.3e} J)"
        )
        assert _Watched.reads == 0
    finally:
        _Watched.armed = False
