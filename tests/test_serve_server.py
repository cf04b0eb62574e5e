"""Unit tests for the multi-tenant serving layer (PR 4 tentpole).

Covers the event loop, admission control (backpressure + lifetime
quotas), per-tenant accounting partition, metrics, the fused-GEMV plan
extraction and the server lifecycle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import CimServer, FleetServer, OffloadExecutor, ServerConfig, TenantQuota
from repro.eval import format_tenant_table, tenant_usage_rows
from repro.hw.endurance import wear_budget_bytes
from repro.serve.accounting import fold
from repro.serve import (
    AdmissionError,
    RequestStatus,
    ServeError,
    VirtualClock,
    extract_fused_gemv_plan,
    percentile,
    stationary_operand_arrays,
)

GEMV_SOURCE = """
void gemv(int M, int N, float A[M][N], float x[N], float y[M]) {
  for (int i = 0; i < M; i++) {
    y[i] = 0.0;
    for (int j = 0; j < N; j++)
      y[i] += A[i][j] * x[j];
  }
}
"""

GEMM_SOURCE = """
void gemm(int M, int N, float C[M][M], float A[M][M], float B[M][M]) {
  for (int i = 0; i < M; i++)
    for (int j = 0; j < M; j++)
      for (int k = 0; k < M; k++)
        C[i][j] += A[i][k] * B[k][j];
}
"""

PARAMS = {"M": 24, "N": 24}


def _gemv_arrays(rng, matrix=None):
    return {
        "A": matrix if matrix is not None else rng.random((24, 24), dtype=np.float32),
        "x": rng.random(24, dtype=np.float32),
        "y": np.zeros(24, dtype=np.float32),
    }


@pytest.fixture
def server():
    with CimServer(ServerConfig(batch_window_s=1e-4, max_batch_size=8)) as srv:
        yield srv


# ----------------------------------------------------------------------
# Clock
# ----------------------------------------------------------------------
def test_virtual_clock_monotonic():
    clock = VirtualClock()
    clock.advance(1.5)
    clock.advance_to(1.0)  # backwards is a no-op
    assert clock.now_s == 1.5
    with pytest.raises(ValueError):
        clock.advance(-0.1)


def test_percentile_interpolates():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == 2.5
    with pytest.raises(ValueError):
        percentile([], 50)


# ----------------------------------------------------------------------
# Event loop basics
# ----------------------------------------------------------------------
def test_single_request_roundtrip(server):
    rng = np.random.default_rng(1)
    arrays = _gemv_arrays(rng)
    handle = server.submit("alice", GEMV_SOURCE, PARAMS, arrays)
    assert handle.status is RequestStatus.SUBMITTED
    with pytest.raises(ServeError, match="drive"):
        handle.result()
    snap = server.drain()
    assert handle.status is RequestStatus.COMPLETED
    assert handle.latency_s > 0
    assert snap["requests"]["completed"] == 1
    direct, _ = OffloadExecutor().run(
        server.compiler.compile(GEMV_SOURCE, size_hint=PARAMS).program,
        PARAMS,
        {name: value.copy() for name, value in arrays.items()},
    )
    mine = handle.result()
    for name in direct:
        assert np.array_equal(direct[name], mine[name])


def test_submissions_snapshot_arrays(server):
    rng = np.random.default_rng(2)
    arrays = _gemv_arrays(rng)
    x_at_submit = arrays["x"].copy()
    handle = server.submit("alice", GEMV_SOURCE, PARAMS, arrays)
    arrays["x"][:] = -1.0  # caller mutates after submit
    server.drain()
    expected = handle.result()["A"].astype(np.float64) @ x_at_submit.astype(np.float64)
    np.testing.assert_allclose(handle.result()["y"], expected, rtol=1e-5)


def test_arrivals_must_be_nondecreasing(server):
    rng = np.random.default_rng(3)
    server.submit("alice", GEMV_SOURCE, PARAMS, _gemv_arrays(rng), arrival_s=1.0)
    with pytest.raises(ServeError, match="past"):
        server.submit("bob", GEMV_SOURCE, PARAMS, _gemv_arrays(rng), arrival_s=0.5)


@pytest.mark.parametrize("make_server", [CimServer, FleetServer])
@pytest.mark.parametrize(
    "arrival_s, reason",
    [(0.5, "past"), (float("nan"), "finite"), (float("inf"), "finite")],
)
def test_submit_rejects_unreachable_arrival_times(make_server, arrival_s, reason):
    """One ``submit`` serves both servers.  A NaN arrival used to be
    accepted (``nan < earliest`` is false) and ``drain()`` then span
    forever."""
    rng = np.random.default_rng(3)
    with make_server() as srv:
        srv.submit("alice", GEMV_SOURCE, PARAMS, _gemv_arrays(rng), arrival_s=1.0)
        with pytest.raises(ServeError, match=reason):
            srv.submit(
                "bob", GEMV_SOURCE, PARAMS, _gemv_arrays(rng), arrival_s=arrival_s
            )
        srv.drain()
        assert srv.metrics.submitted == 1


def test_same_matrix_requests_share_one_batch(server):
    rng = np.random.default_rng(4)
    matrix = rng.random((24, 24), dtype=np.float32)
    handles = [
        server.submit(
            f"tenant{i}",
            GEMV_SOURCE,
            PARAMS,
            _gemv_arrays(rng, matrix),
            arrival_s=i * 1e-5,
        )
        for i in range(4)
    ]
    server.drain()
    assert len({handle.batch_id for handle in handles}) == 1
    assert all(handle.batch_size == 4 for handle in handles)
    assert server.metrics.fused_batches == 1
    # Only the batch opener programmed the crossbar.
    writes = [handle.report.crossbar_cell_writes for handle in handles]
    assert writes[0] == 24 * 24
    assert writes[1:] == [0, 0, 0]
    # The GEMV descriptor's eleven registers were written once; every
    # member wrote COMMAND.START.
    assert server.system.driver.counters.get("driver.reg_write") == 11 + 4


def test_different_matrices_do_not_batch(server):
    rng = np.random.default_rng(5)
    handles = [
        server.submit(
            "alice", GEMV_SOURCE, PARAMS, _gemv_arrays(rng), arrival_s=i * 1e-5
        )
        for i in range(3)
    ]
    server.drain()
    assert len({handle.batch_id for handle in handles}) == 3
    # Every request programmed its own matrix.
    assert all(h.report.crossbar_cell_writes == 24 * 24 for h in handles)


def test_batching_window_bounds_batch(server):
    rng = np.random.default_rng(6)
    matrix = rng.random((24, 24), dtype=np.float32)
    inside = server.submit(
        "alice", GEMV_SOURCE, PARAMS, _gemv_arrays(rng, matrix), arrival_s=0.0
    )
    outside = server.submit(
        "bob", GEMV_SOURCE, PARAMS, _gemv_arrays(rng, matrix), arrival_s=1.0
    )
    server.drain()
    assert inside.batch_id != outside.batch_id


def test_max_batch_size_enforced():
    rng = np.random.default_rng(7)
    matrix = rng.random((24, 24), dtype=np.float32)
    with CimServer(ServerConfig(batch_window_s=1e-3, max_batch_size=3)) as server:
        handles = [
            server.submit(
                "alice", GEMV_SOURCE, PARAMS, _gemv_arrays(rng, matrix), arrival_s=0.0
            )
            for _ in range(7)
        ]
        server.drain()
        sizes = [handle.batch_size for handle in handles]
        assert max(sizes) == 3
        assert all(handle.done for handle in handles)


def test_generic_path_for_gemm_programs(server):
    rng = np.random.default_rng(8)
    arrays = {
        "A": rng.random((12, 12), dtype=np.float32),
        "B": rng.random((12, 12), dtype=np.float32),
        "C": np.zeros((12, 12), dtype=np.float32),
    }
    handle = server.submit("alice", GEMM_SOURCE, {"M": 12, "N": 12}, arrays)
    server.drain()
    assert server.metrics.fused_batches == 0
    assert server.metrics.batches == 1
    direct, _ = OffloadExecutor().run(
        server.compiler.compile(GEMM_SOURCE, size_hint={"M": 12, "N": 12}).program,
        {"M": 12, "N": 12},
        {name: value.copy() for name, value in arrays.items()},
    )
    for name in direct:
        assert np.array_equal(direct[name], handle.result()[name])


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
def test_queue_backpressure_rejects():
    rng = np.random.default_rng(9)
    config = ServerConfig(
        batch_window_s=0.0,
        default_quota=TenantQuota(max_queue_depth=2),
    )
    with CimServer(config) as server:
        # All arrive at t=0; the queue holds 2, the rest bounce.
        handles = [
            server.submit(
                "alice", GEMV_SOURCE, PARAMS, _gemv_arrays(rng), arrival_s=0.0
            )
            for _ in range(5)
        ]
        server.drain()
        statuses = [handle.status for handle in handles]
        assert statuses.count(RequestStatus.REJECTED) == 3
        assert statuses.count(RequestStatus.COMPLETED) == 2
        rejected = next(h for h in handles if h.status is RequestStatus.REJECTED)
        with pytest.raises(AdmissionError, match="queue full"):
            rejected.result()
        assert server.metrics.rejected == 3


def test_wear_quota_in_lifetime_terms():
    rng = np.random.default_rng(10)
    config = ServerConfig(batch_window_s=0.0)
    with CimServer(config) as server:
        # A budget worth less than one 24x24 programming: the first
        # request (cold crossbar) spends it, later arrivals bounce.
        budget = wear_budget_bytes(
            cell_endurance_writes=25e6,
            crossbar_size_bytes=server.ledger.crossbar_size_bytes,
            min_lifetime_years=10.0,
            horizon_s=1e-9,
        )
        assert budget < 24 * 24
        server.set_quota("greedy", TenantQuota(wear_budget_bytes=budget))
        first = server.submit(
            "greedy", GEMV_SOURCE, PARAMS, _gemv_arrays(rng), arrival_s=0.0
        )
        server.drain()
        second = server.submit(
            "greedy", GEMV_SOURCE, PARAMS, _gemv_arrays(rng)
        )
        server.drain()
        assert first.status is RequestStatus.COMPLETED
        assert second.status is RequestStatus.REJECTED
        assert "wear quota" in second.reject_reason


def test_energy_quota():
    rng = np.random.default_rng(11)
    with CimServer(ServerConfig(batch_window_s=0.0)) as server:
        server.set_quota("metered", TenantQuota(energy_budget_j=1e-30))
        first = server.submit("metered", GEMV_SOURCE, PARAMS, _gemv_arrays(rng))
        server.drain()
        second = server.submit("metered", GEMV_SOURCE, PARAMS, _gemv_arrays(rng))
        server.drain()
        assert first.status is RequestStatus.COMPLETED  # budget spent, not pre-checked
        assert second.status is RequestStatus.REJECTED
        assert "energy quota" in second.reject_reason


def test_quota_validation():
    with pytest.raises(ValueError):
        TenantQuota(max_queue_depth=0)
    with pytest.raises(ValueError):
        TenantQuota(weight=0.0)
    with pytest.raises(ValueError):
        wear_budget_bytes(25e6, 65536, min_lifetime_years=0.0, horizon_s=1.0)
    with pytest.raises(ValueError):
        wear_budget_bytes(25e6, 65536, 10.0, 1.0, share=1.5)


# ----------------------------------------------------------------------
# Accounting
# ----------------------------------------------------------------------
def test_accounting_partitions_device_totals(server):
    rng = np.random.default_rng(12)
    matrix = rng.random((24, 24), dtype=np.float32)
    with server.ledger.observe() as log:
        for i in range(9):
            tenant = ("alice", "bob", "carol")[i % 3]
            use_shared = i % 2 == 0
            server.submit(
                tenant,
                GEMV_SOURCE,
                PARAMS,
                _gemv_arrays(rng, matrix if use_shared else None),
                arrival_s=i * 3e-5,
            )
        server.drain()
    checks = server.ledger.verify_partition(server.system.accelerator)
    assert all(checks.values()), checks
    # Integer wear partitions exactly.
    total_wear = fold(log.usages, "wear_bytes")["wear_bytes"]
    assert total_wear == server.system.accelerator.total_cell_writes()
    # Request count conservation.
    assert sum(a.completed for a in server.ledger.tenants.values()) == 9


def test_tenant_usage_rows_and_table(server):
    rng = np.random.default_rng(13)
    for i in range(4):
        server.submit(
            ("alice", "bob")[i % 2],
            GEMV_SOURCE,
            PARAMS,
            _gemv_arrays(rng),
            arrival_s=i * 1e-4,
        )
    server.drain()
    rows = tenant_usage_rows(server)
    assert [row.tenant for row in rows] == ["alice", "bob"]
    assert all(row.completed == 2 for row in rows)
    assert sum(row.wear_share for row in rows) == pytest.approx(1.0)
    assert all(row.implied_lifetime_years > 0 for row in rows)
    table = format_tenant_table(rows)
    assert "alice" in table and "lifetime" in table


def test_lease_timeline_records_batches(server):
    rng = np.random.default_rng(14)
    matrix = rng.random((24, 24), dtype=np.float32)
    for i in range(3):
        server.submit(
            "alice", GEMV_SOURCE, PARAMS, _gemv_arrays(rng, matrix), arrival_s=0.0
        )
    server.drain()
    events = server.timeline.by_component()["serve.device"]
    assert len(events) == server.metrics.batches
    assert all(event.duration_s > 0 for event in events)


# ----------------------------------------------------------------------
# Fused-plan extraction
# ----------------------------------------------------------------------
def test_fused_plan_extraction(server):
    compiled = server.compiler.compile(GEMV_SOURCE, size_hint=PARAMS)
    plan = extract_fused_gemv_plan(compiled.program, PARAMS)
    assert plan is not None
    assert (plan.array_a, plan.array_x, plan.array_y) == ("A", "x", "y")
    assert (plan.m, plan.n) == (24, 24)
    assert plan.beta == 0.0 and not plan.uploads_y
    assert stationary_operand_arrays(compiled.program) == ("A",)


def test_fused_plan_rejects_gemm(server):
    compiled = server.compiler.compile(GEMM_SOURCE, size_hint={"M": 12, "N": 12})
    assert extract_fused_gemv_plan(compiled.program, {"M": 12, "N": 12}) is None


# ----------------------------------------------------------------------
# Failure isolation
# ----------------------------------------------------------------------
def test_bad_payload_fails_without_stranding_others(server):
    """A request missing an input array resolves as FAILED; every other
    queued request — same batch or other tenants — still completes."""
    rng = np.random.default_rng(30)
    matrix = rng.random((24, 24), dtype=np.float32)
    good_before = server.submit(
        "alice", GEMV_SOURCE, PARAMS, _gemv_arrays(rng, matrix), arrival_s=0.0
    )
    broken = server.submit(
        "mallory",
        GEMV_SOURCE,
        PARAMS,
        {"A": matrix, "y": np.zeros(24, dtype=np.float32)},  # no "x"
        arrival_s=1e-5,
    )
    good_after = server.submit(
        "bob", GEMV_SOURCE, PARAMS, _gemv_arrays(rng, matrix), arrival_s=2e-5
    )
    snap = server.drain()
    assert broken.status is RequestStatus.FAILED
    with pytest.raises(ServeError, match="failed"):
        broken.result()
    assert good_before.status is RequestStatus.COMPLETED
    assert good_after.status is RequestStatus.COMPLETED
    assert snap["requests"]["failed"] == 1
    assert snap["requests"]["completed"] == 2
    # The accounting partition stays exact with failures in the mix.
    checks = server.ledger.verify_partition(server.system.accelerator)
    assert all(checks.values()), checks


def test_missing_stationary_operand_fails_only_itself(server):
    """A payload missing the stationary matrix must fail its own request
    — never crash the event loop."""
    rng = np.random.default_rng(33)
    broken = server.submit(
        "mallory",
        GEMV_SOURCE,
        PARAMS,
        {"x": rng.random(24, dtype=np.float32), "y": np.zeros(24, dtype=np.float32)},
        arrival_s=0.0,
    )
    good = server.submit(
        "alice", GEMV_SOURCE, PARAMS, _gemv_arrays(rng), arrival_s=1e-5
    )
    server.drain()
    assert broken.status is RequestStatus.FAILED
    assert good.status is RequestStatus.COMPLETED


def test_bad_batch_head_does_not_fail_followers(server):
    """When the batch head has a broken payload, valid followers in the
    same batch still complete (the lease re-establishes from them)."""
    rng = np.random.default_rng(34)
    matrix = rng.random((24, 24), dtype=np.float32)
    broken = server.submit(
        "mallory",
        GEMV_SOURCE,
        PARAMS,
        {"A": matrix, "y": np.zeros(24, dtype=np.float32)},  # no "x"
        arrival_s=0.0,
    )
    followers = [
        server.submit(
            "alice", GEMV_SOURCE, PARAMS, _gemv_arrays(rng, matrix), arrival_s=1e-5
        )
        for _ in range(2)
    ]
    server.drain()
    assert broken.status is RequestStatus.FAILED
    assert all(h.status is RequestStatus.COMPLETED for h in followers)
    # The followers rode the same batch as the broken head.
    assert {h.batch_id for h in followers} == {broken.batch_id}
    direct, _ = OffloadExecutor().run(
        server.compiler.compile(GEMV_SOURCE, size_hint=PARAMS).program,
        PARAMS,
        {
            "A": matrix.copy(),
            "x": followers[0].result()["x"].copy(),
            "y": np.zeros(24, dtype=np.float32),
        },
    )
    assert np.array_equal(direct["y"], followers[0].result()["y"])


def test_bad_payload_fails_on_generic_path(server):
    rng = np.random.default_rng(31)
    broken = server.submit(
        "mallory",
        GEMM_SOURCE,
        {"M": 12, "N": 12},
        {"A": rng.random((12, 12), dtype=np.float32)},  # missing B, C
        arrival_s=0.0,
    )
    good = server.submit(
        "alice", GEMV_SOURCE, PARAMS, _gemv_arrays(rng), arrival_s=1e-5
    )
    server.drain()
    assert broken.status is RequestStatus.FAILED
    assert good.status is RequestStatus.COMPLETED
    checks = server.ledger.verify_partition(server.system.accelerator)
    assert all(checks.values()), checks


# ----------------------------------------------------------------------
# The fused lease and the stationary-operand intern table
# ----------------------------------------------------------------------
def _direct(server, source, params, arrays):
    program = server.compiler.compile(source, size_hint=params).program
    outputs, _ = OffloadExecutor().run(
        program, params, {name: np.array(value) for name, value in arrays.items()}
    )
    return outputs


def test_a_member_is_computed_with_its_own_matrix(server):
    """A forged (or colliding) signature puts a member whose matrix is not
    the lease's into the lease: it is served alone on the whole-program
    path, billed normally, and the lease re-establishes after it."""
    from repro.serve import RequestHandle, TenantRequest

    rng = np.random.default_rng(40)
    program = server.compiler.compile(GEMV_SOURCE, size_hint=PARAMS).program
    shared = rng.random((24, 24), dtype=np.float32)
    other = rng.random((24, 24), dtype=np.float32)
    batch = []
    for seq, matrix in enumerate((shared, other, shared, shared), start=1):
        batch.append(TenantRequest(
            seq=seq, tenant=f"t{seq}", signature="forged", program=program,
            params=dict(PARAMS), arrays=_gemv_arrays(rng, matrix), arrival_s=0.0,
            handle=RequestHandle(request_id=seq, tenant=f"t{seq}", arrival_s=0.0),
        ))
    with server.ledger.observe() as log:
        assert server.lease_executor.dispatch(batch, batch_id=1) == []
    for request in batch:
        expected = _direct(server, GEMV_SOURCE, PARAMS, request.arrays)
        assert np.array_equal(request.handle.result()["y"], expected["y"])
    assert [r.handle.batch_size for r in batch] == [4, 1, 4, 4]
    alone = batch[1].handle.report
    assert alone.crossbar_cell_writes == 24 * 24
    assert alone.runtime_calls != ["polly_cimBlasSGemv"]
    # The lease re-established after it: member 3 programs the shared
    # matrix again and member 4 streams against it.
    assert [r.handle.report.crossbar_cell_writes for r in batch[2:]] == [24 * 24, 0]
    checks = server.ledger.verify_partition(server.system.accelerator)
    assert all(checks.values()), checks
    assert len(log.usages) == 4


def _count_signatures(monkeypatch) -> list:
    import repro.serve.server as serve_server

    calls = []
    real = serve_server.batch_signature

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(serve_server, "batch_signature", counting)
    return calls


@pytest.mark.parametrize("element", [(0, 0), (23, 23)])
def test_a_one_element_different_matrix_does_not_batch(server, monkeypatch, element):
    """Element (0, 0) falls in the intern key's byte sample, (23, 23) does
    not; either way each matrix carries the sha256 signature of its own
    bytes and batches only with its equals."""
    from repro.serve import batch_signature

    calls = _count_signatures(monkeypatch)
    rng = np.random.default_rng(41)
    matrix = rng.random((24, 24), dtype=np.float32)
    nearly = matrix.copy()
    nearly[element] = np.nextafter(nearly[element], np.float32(2))
    matrices = (matrix, nearly, matrix, nearly)
    handles = [
        server.submit("alice", GEMV_SOURCE, PARAMS, _gemv_arrays(rng, m), arrival_s=0.0)
        for m in matrices
    ]
    requests = list(server._arrivals)
    for request, m in zip(requests, matrices):
        assert request.signature == batch_signature(
            calls[0][0], request.program, PARAMS, {**request.arrays, "A": m}
        )
    assert requests[0].signature != requests[1].signature
    if element == (0, 0):
        # Two distinct keys: the repeats are hits, sharing one snapshot.
        assert len(calls) == 2
        assert requests[0].arrays["A"] is requests[2].arrays["A"]
    server.drain()
    assert handles[0].batch_id == handles[2].batch_id != handles[1].batch_id
    assert handles[1].batch_id == handles[3].batch_id


def test_mutating_the_callers_arrays_after_submit_changes_nothing(server):
    rng = np.random.default_rng(42)
    matrix = rng.random((24, 24), dtype=np.float32)
    first = _gemv_arrays(rng, matrix)
    first_copy = {name: value.copy() for name, value in first.items()}
    first_handle = server.submit("alice", GEMV_SOURCE, PARAMS, first, arrival_s=0.0)
    matrix[0, 0] += 1.0  # the caller reuses its buffer for another model
    second = _gemv_arrays(rng, matrix)
    second_copy = {name: value.copy() for name, value in second.items()}
    second_handle = server.submit("bob", GEMV_SOURCE, PARAMS, second, arrival_s=0.0)
    matrix[:] = -1.0
    for arrays in (first, second):
        arrays["x"][:] = 7.0
    server.drain()
    assert first_handle.batch_id != second_handle.batch_id
    for handle, arrays in ((first_handle, first_copy), (second_handle, second_copy)):
        expected = _direct(server, GEMV_SOURCE, PARAMS, arrays)
        for name in expected:
            assert np.array_equal(expected[name], handle.result()[name])


def test_the_intern_table_is_bounded(server, monkeypatch):
    from repro.serve.server import STATIONARY_INTERN_CAPACITY

    calls = _count_signatures(monkeypatch)
    rng = np.random.default_rng(43)
    matrices = [
        rng.random((24, 24), dtype=np.float32)
        for _ in range(STATIONARY_INTERN_CAPACITY + 1)
    ]
    for matrix in matrices:
        server.submit("alice", GEMV_SOURCE, PARAMS, _gemv_arrays(rng, matrix))
    assert len(server._interned) == STATIONARY_INTERN_CAPACITY
    assert len(calls) == len(matrices)
    server.submit("alice", GEMV_SOURCE, PARAMS, _gemv_arrays(rng, matrices[-1]))
    assert len(calls) == len(matrices)  # recent: a hit
    server.submit("alice", GEMV_SOURCE, PARAMS, _gemv_arrays(rng, matrices[0]))
    assert len(calls) == len(matrices) + 1  # evicted: hashed again
    assert len(server._interned) == STATIONARY_INTERN_CAPACITY
    server.drain()


def test_unique_operands_cost_one_signature_each(monkeypatch):
    """The ``fleet_unbatched`` shape: every submit has unique operands, so
    every one misses and is hashed exactly once, as before interning."""
    from repro.workloads.polybench import KERNELS, PAPER_KERNELS

    calls = _count_signatures(monkeypatch)
    with FleetServer() as fleet:
        for serial in range(12):
            kernel = KERNELS[PAPER_KERNELS[serial % len(PAPER_KERNELS)]]
            fleet.submit(
                "t", kernel.source, kernel.params("MINI"), kernel.arrays("MINI", serial)
            )
            assert len(calls) == serial + 1
        fleet.drain()
        checks = fleet.verify_fleet_partition()
        assert all(checks.values()), checks


def test_the_programs_path_runs_on_interned_snapshots(server):
    """A whole-program request whose stationary operand is a shared,
    read-only interned snapshot runs bit-identically."""
    rng = np.random.default_rng(44)
    shared_a = rng.random((12, 12), dtype=np.float32)
    submissions = []
    for _ in range(3):
        arrays = {
            "A": shared_a,
            "B": rng.random((12, 12), dtype=np.float32),
            "C": rng.random((12, 12), dtype=np.float32),
        }
        handle = server.submit("alice", GEMM_SOURCE, {"M": 12, "N": 12}, arrays)
        submissions.append((handle, {n: v.copy() for n, v in arrays.items()}))
    interned = [request.arrays["A"] for request in server._arrivals]
    assert interned[0] is interned[1] is interned[2]
    assert not interned[0].flags.writeable
    server.drain()
    assert server.metrics.fused_batches == 0
    for handle, arrays in submissions:
        expected = _direct(server, GEMM_SOURCE, {"M": 12, "N": 12}, arrays)
        for name in expected:
            assert np.array_equal(expected[name], handle.result()[name])
        assert handle.result()["A"].flags.writeable


# ----------------------------------------------------------------------
# The result contract: what a result array may share
# ----------------------------------------------------------------------
def _aliases_any(array, others) -> bool:
    return any(np.shares_memory(array, other) for other in others)


def _assert_results_equal(handle, expected) -> None:
    for name in expected:
        assert np.array_equal(handle.result()[name], expected[name]), name


def test_a_fused_result_shares_only_the_read_only_stationary_snapshot(server):
    """Fused lease: ``A`` comes back as the one interned read-only snapshot
    all members share; ``x`` is the member's private submit-time snapshot
    and ``y`` its own read-back, both writable.  No result array aliases a
    caller's input or another member's writable array, and writing into
    one member's result changes no other result and no later request."""
    rng = np.random.default_rng(45)
    matrix = rng.random((24, 24), dtype=np.float32)
    inputs = [_gemv_arrays(rng, matrix) for _ in range(4)]
    handles = [
        server.submit(f"t{index}", GEMV_SOURCE, PARAMS, arrays, arrival_s=0.0)
        for index, arrays in enumerate(inputs)
    ]
    server.drain()
    assert server.metrics.fused_batches == 1
    assert len({handle.batch_id for handle in handles}) == 1
    expected = [_direct(server, GEMV_SOURCE, PARAMS, arrays) for arrays in inputs]
    results = [handle.result() for handle in handles]
    shared = results[0]["A"]
    assert not shared.flags.writeable
    with pytest.raises(ValueError):
        shared[0, 0] = 1.0
    callers = [value for arrays in inputs for value in arrays.values()]
    for handle, result, want in zip(handles, results, expected):
        assert result["A"] is shared
        assert result["x"].flags.writeable and result["y"].flags.writeable
        for name, value in result.items():
            assert not _aliases_any(value, callers), name
        _assert_results_equal(handle, want)
    private = [result[name] for result in results for name in ("x", "y")]
    for index, array in enumerate(private):
        assert not _aliases_any(array, private[index + 1 :])
    results[0]["x"][:] = -1.0
    results[0]["y"][:] = -1.0
    for handle, want in zip(handles[1:], expected[1:]):
        _assert_results_equal(handle, want)
    later_arrays = _gemv_arrays(rng, matrix)
    later = server.submit("late", GEMV_SOURCE, PARAMS, later_arrays)
    server.drain()
    _assert_results_equal(later, _direct(server, GEMV_SOURCE, PARAMS, later_arrays))
    assert later.result()["A"] is shared


def test_a_whole_program_result_is_private_to_its_request(server):
    """Whole-program lease: every result array is the engine's own
    writable copy, even of an interned stationary operand, so nothing a
    caller does to it reaches an input, the intern table or another
    request."""
    rng = np.random.default_rng(46)
    shared_a = rng.random((12, 12), dtype=np.float32)
    params = {"M": 12, "N": 12}
    inputs = [
        {
            "A": shared_a,
            "B": rng.random((12, 12), dtype=np.float32),
            "C": rng.random((12, 12), dtype=np.float32),
        }
        for _ in range(3)
    ]
    handles = [server.submit("alice", GEMM_SOURCE, params, arrays) for arrays in inputs]
    interned = server._arrivals[0].arrays["A"]
    server.drain()
    assert server.metrics.fused_batches == 0
    expected = [_direct(server, GEMM_SOURCE, params, arrays) for arrays in inputs]
    results = [handle.result() for handle in handles]
    outside = [value for arrays in inputs for value in arrays.values()] + [interned]
    every = [value for result in results for value in result.values()]
    for index, array in enumerate(every):
        assert array.flags.writeable
        assert not _aliases_any(array, outside)
        assert not _aliases_any(array, every[index + 1 :])
    results[0]["A"][:] = 0.0
    results[0]["C"][:] = 0.0
    for handle, want in zip(handles[1:], expected[1:]):
        _assert_results_equal(handle, want)
    later_arrays = {**inputs[0], "B": rng.random((12, 12), dtype=np.float32)}
    later = server.submit("bob", GEMM_SOURCE, params, later_arrays)
    server.drain()
    _assert_results_equal(later, _direct(server, GEMM_SOURCE, params, later_arrays))


# ----------------------------------------------------------------------
# Lifecycle & misc
# ----------------------------------------------------------------------
def test_server_shutdown_releases_session():
    server = CimServer()
    rng = np.random.default_rng(15)
    server.submit("alice", GEMV_SOURCE, PARAMS, _gemv_arrays(rng))
    server.drain()
    server.shutdown()
    assert server.system.runtime.closed
    with pytest.raises(ServeError, match="shut down"):
        server.submit("alice", GEMV_SOURCE, PARAMS, _gemv_arrays(rng))
    server.shutdown()  # idempotent


def test_compile_cache_is_shared_across_tenants(server):
    rng = np.random.default_rng(16)
    for tenant in ("a", "b", "c"):
        server.submit(tenant, GEMV_SOURCE, PARAMS, _gemv_arrays(rng))
    assert server.metrics.compile_cache_misses == 1
    assert server.metrics.compile_cache_hits == 2
    server.drain()
    assert server.metrics.snapshot()["compile_cache"]["hit_rate"] == pytest.approx(
        2 / 3, abs=1e-4
    )


def test_an_empty_caller_cache_is_kept():
    """An empty ``KernelCompileCache`` is falsy (it has ``__len__``); the
    server must keep it anyway."""
    from repro.compiler import KernelCompileCache

    cache = KernelCompileCache()
    assert len(cache) == 0
    server = CimServer(compile_cache=cache)
    try:
        assert server.compile_cache is cache
    finally:
        server.shutdown()


def test_gateway_worker_uses_its_disk_cache(tmp_path):
    """...which is how a gateway worker used to drop the shared on-disk
    cache its ``cache_dir`` asked for."""
    from repro.gateway.server import GatewayConfig
    from repro.gateway.wire import GatewayRequest
    from repro.gateway.worker import build_worker_server, serve_one

    worker = build_worker_server(GatewayConfig(cache_dir=str(tmp_path)).worker_wire())
    try:
        rng = np.random.default_rng(18)
        request = GatewayRequest(1, "alice", GEMV_SOURCE, dict(PARAMS), _gemv_arrays(rng))
        assert serve_one(worker, request, 0).status == "completed"
    finally:
        worker.shutdown()
    assert len(list(tmp_path.glob("*.pkl"))) == 1


def test_submit_precompiled_result(server):
    """A precompiled kernel is submitted as its program; the compilation
    result itself is refused."""
    rng = np.random.default_rng(17)
    compiled = server.compiler.compile(GEMV_SOURCE, size_hint=PARAMS)
    arrays = _gemv_arrays(rng)
    with pytest.raises(TypeError, match=r"\.program"):
        server.submit("alice", compiled, PARAMS, arrays)
    handle = server.submit("alice", compiled.program, PARAMS, arrays)
    server.drain()
    direct, _ = OffloadExecutor().run(
        compiled.program, PARAMS, {n: v.copy() for n, v in arrays.items()}
    )
    for name in direct:
        assert np.array_equal(direct[name], handle.result()[name])


def test_num_tiles_conflict_detected():
    from repro.system import CimSystem, SystemConfig

    system = CimSystem(SystemConfig(num_tiles=2))
    with pytest.raises(ServeError, match="num_tiles"):
        CimServer(ServerConfig(num_tiles=4), system=system)


def test_caller_provided_system_survives_server_shutdown():
    """Shutting the server down must not brick a system the caller owns."""
    from repro.system import CimSystem, SystemConfig

    system = CimSystem(SystemConfig())
    rng = np.random.default_rng(32)
    arrays = _gemv_arrays(rng)
    with CimServer(ServerConfig(), system=system) as server:
        handle = server.submit("alice", GEMV_SOURCE, PARAMS, arrays)
        server.drain()
        compiled = server.compiler.compile(GEMV_SOURCE, size_hint=PARAMS)
    assert not system.runtime.closed
    assert system.runtime.live_buffers == 0
    # The caller can keep using their system directly afterwards.
    direct, _ = OffloadExecutor(system).run(
        compiled.program, PARAMS, {n: v.copy() for n, v in arrays.items()}
    )
    assert np.array_equal(direct["y"], handle.result()["y"])


def test_deterministic_replay():
    def run_once():
        rng = np.random.default_rng(18)
        matrix = rng.random((24, 24), dtype=np.float32)
        with CimServer(ServerConfig(batch_window_s=5e-5, max_batch_size=4)) as server:
            handles = [
                server.submit(
                    f"t{i % 2}",
                    GEMV_SOURCE,
                    PARAMS,
                    _gemv_arrays(rng, matrix),
                    arrival_s=i * 2e-5,
                )
                for i in range(6)
            ]
            server.drain()
            return [
                (h.batch_id, h.completed_s, h.report.crossbar_cell_writes)
                for h in handles
            ]

    assert run_once() == run_once()
